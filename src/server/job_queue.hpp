// Asynchronous estimation job queue (estimation server).
//
// POST /v2/jobs mirrors the cloud workflow of the paper: a job document is
// accepted immediately with a monotonically increasing id, executed on a
// dedicated worker pool, and polled via GET /v2/jobs/{id} until it reaches
// a terminal state. The lifecycle is
//
//     queued -> running -> succeeded | failed
//     queued -> cancelled                     (DELETE while still queued)
//     queued -> running -> cancelling -> cancelled
//                                             (DELETE while running)
//
// Cancelling a RUNNING job is cooperative: the job's CancelToken is
// flagged, the estimation engine observes it at the next item boundary,
// and the worker marks the job cancelled when the runner returns — partial
// results are discarded (cancel wins even when the runner happened to
// finish). "cancelling" is the observable in-between state.
//
// The backlog is bounded: submit() refuses new work once `max_backlog` jobs
// are queued (the HTTP layer turns that into 429 Too Many Requests), which
// is the server's load-shedding mechanism — memory stays bounded no matter
// how fast clients submit. Finished jobs are retained for polling, also up
// to a bound (`max_retained`, oldest evicted first), so a poll after
// eviction is indistinguishable from an unknown id (404).
//
// All public methods are concurrency-safe. drain() stops the workers
// gracefully: running jobs are asked to cancel (their tokens are flagged,
// so shutdown is bounded by one item, not a whole sweep), still-queued
// jobs flip to cancelled.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "json/json.hpp"

namespace qre::server {

enum class JobState { kQueued, kRunning, kCancelling, kSucceeded, kFailed, kCancelled };

std::string_view to_string(JobState state);

struct JobQueueOptions {
  /// Worker threads executing queued jobs. 0 is allowed and means "never
  /// run anything" — jobs stay queued forever, which the tests use to
  /// exercise cancel and backlog behavior deterministically.
  std::size_t num_workers = 1;
  /// Queued-job bound; submit() refuses beyond it (HTTP 429).
  std::size_t max_backlog = 64;
  /// Finished (succeeded/failed/cancelled) jobs retained for polling.
  std::size_t max_retained = 1024;
};

class JobQueue {
 public:
  /// Runs one job document and returns the full v2 response envelope.
  /// Invoked on queue workers; exceptions become state kFailed. The token
  /// is this job's cancellation handle — runners thread it into the engine
  /// so DELETE can interrupt running work at item boundaries.
  using Runner = std::function<json::Value(const json::Value& document, const CancelToken& cancel)>;

  JobQueue(Runner runner, JobQueueOptions options = {});
  ~JobQueue();

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Enqueues `document`; returns the job id, or nullopt when the backlog
  /// is full (or the queue is draining).
  std::optional<std::uint64_t> submit(json::Value document);

  /// The job's status document:
  ///   {"id": ..., "status":
  ///        "queued|running|cancelling|succeeded|failed|cancelled",
  ///    "response": {...}}            // succeeded / failed runs only
  ///   {"id": ..., "status": "failed", "error": "..."}  // runner threw
  /// nullopt = unknown (or evicted) id -> 404. Cancelled jobs carry no
  /// response: partial results are discarded.
  std::optional<json::Value> status(std::uint64_t id) const;

  enum class CancelResult { kCancelled, kCancelling, kNotFound, kNotCancellable };

  /// Cancels a job. Queued jobs cancel immediately (kCancelled); running
  /// jobs are cancelled cooperatively — the job's token is flagged, the
  /// state becomes kCancelling, and the worker finishes the transition to
  /// kCancelled at the next item boundary. Repeating the request while
  /// cancelling returns kCancelling again. Only finished jobs are
  /// kNotCancellable.
  CancelResult cancel(std::uint64_t id);

  /// Lifetime counters for terminal states and instantaneous gauges for
  /// queued/running (running includes jobs in the cancelling state), read
  /// under one lock — the /metrics "jobs" section.
  struct Stats {
    std::uint64_t queued = 0;
    std::uint64_t running = 0;
    std::uint64_t succeeded = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t backlog_limit = 0;
    std::uint64_t workers = 0;
  };
  Stats stats() const;

  /// Graceful shutdown: stop accepting, request cancellation of running
  /// jobs (they terminate as cancelled at the next item boundary), mark the
  /// remaining queue cancelled, join the workers. Idempotent.
  void drain();

 private:
  struct Job {
    std::uint64_t id = 0;
    JobState state = JobState::kQueued;
    json::Value document;
    json::Value response;  // set in kSucceeded / kFailed (when the runner returned)
    std::string error;     // set when the runner threw
    CancelToken cancel;    // armed while running; shared with the runner
    // Lifecycle instants for the exported job.queued / job.run trace spans.
    std::chrono::steady_clock::time_point submitted_at;
    std::chrono::steady_clock::time_point started_at;
  };

  void worker_loop();
  void retire_locked(std::uint64_t id) QRE_REQUIRES(mutex_);

  Runner runner_;
  JobQueueOptions options_;

  mutable Mutex mutex_;
  CondVar work_available_;
  bool draining_ QRE_GUARDED_BY(mutex_) = false;
  std::uint64_t next_id_ QRE_GUARDED_BY(mutex_) = 1;
  std::deque<std::uint64_t> pending_ QRE_GUARDED_BY(mutex_);
  // id -> record (ordered: eviction scans old ids first)
  std::map<std::uint64_t, Job> jobs_ QRE_GUARDED_BY(mutex_);
  std::deque<std::uint64_t> finished_ QRE_GUARDED_BY(mutex_);  // retention order
  std::uint64_t num_succeeded_ QRE_GUARDED_BY(mutex_) = 0;
  std::uint64_t num_failed_ QRE_GUARDED_BY(mutex_) = 0;
  std::uint64_t num_cancelled_ QRE_GUARDED_BY(mutex_) = 0;
  std::size_t num_running_ QRE_GUARDED_BY(mutex_) = 0;
  std::vector<std::thread> workers_ QRE_GUARDED_BY(mutex_);
};

}  // namespace qre::server
