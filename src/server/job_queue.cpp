#include "server/job_queue.hpp"

#include "common/failpoint.hpp"
#include "common/trace.hpp"

namespace qre::server {

std::string_view to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kCancelling: return "cancelling";
    case JobState::kSucceeded: return "succeeded";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

JobQueue::JobQueue(Runner runner, JobQueueOptions options)
    : runner_(std::move(runner)), options_(options) {
  workers_.reserve(options_.num_workers);
  for (std::size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

JobQueue::~JobQueue() { drain(); }

std::optional<std::uint64_t> JobQueue::submit(json::Value document) {
  std::uint64_t id = 0;
  {
    MutexLock lock(mutex_);
    if (draining_ || pending_.size() >= options_.max_backlog) return std::nullopt;
    id = next_id_++;
    Job job;
    job.id = id;
    job.submitted_at = std::chrono::steady_clock::now();
    job.document = std::move(document);
    jobs_.emplace(id, std::move(job));
    pending_.push_back(id);
  }
  work_available_.notify_one();
  return id;
}

std::optional<json::Value> JobQueue::status(std::uint64_t id) const {
  MutexLock lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const Job& job = it->second;
  json::Object out;
  out.emplace_back("id", json::Value(job.id));
  out.emplace_back("status", std::string(to_string(job.state)));
  if (job.state == JobState::kSucceeded || job.state == JobState::kFailed) {
    if (!job.error.empty()) {
      out.emplace_back("error", job.error);
    } else {
      out.emplace_back("response", job.response);
    }
  }
  return json::Value(std::move(out));
}

JobQueue::CancelResult JobQueue::cancel(std::uint64_t id) {
  MutexLock lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return CancelResult::kNotFound;
  Job& job = it->second;
  if (job.state == JobState::kQueued) {
    for (auto pending_it = pending_.begin(); pending_it != pending_.end(); ++pending_it) {
      if (*pending_it == id) {
        pending_.erase(pending_it);
        break;
      }
    }
    job.state = JobState::kCancelled;
    job.document = json::Value();  // the document is dead weight from here on
    ++num_cancelled_;
    retire_locked(id);
    return CancelResult::kCancelled;
  }
  if (job.state == JobState::kRunning || job.state == JobState::kCancelling) {
    // Cooperative: flag the token; the worker observes it at the next item
    // boundary and completes the transition to kCancelled. Idempotent.
    job.state = JobState::kCancelling;
    job.cancel.request_cancel();
    return CancelResult::kCancelling;
  }
  return CancelResult::kNotCancellable;
}

JobQueue::Stats JobQueue::stats() const {
  MutexLock lock(mutex_);
  return {pending_.size(), num_running_, num_succeeded_, num_failed_, num_cancelled_,
          options_.max_backlog, workers_.size()};
}

void JobQueue::drain() {
  {
    MutexLock lock(mutex_);
    if (draining_ && workers_.empty()) return;
    draining_ = true;
    // Ask running jobs to stop: their tokens are flagged, the engine bails
    // at the next item boundary, and the worker marks them cancelled —
    // shutdown waits for one item, not a whole sweep.
    for (auto& entry : jobs_) {
      Job& job = entry.second;
      if (job.state == JobState::kRunning || job.state == JobState::kCancelling) {
        job.state = JobState::kCancelling;
        job.cancel.request_cancel();
      }
    }
    // Everything still queued will never run: flip it to cancelled so
    // pollers see a terminal state instead of an eternal "queued".
    for (std::uint64_t id : pending_) {
      const auto it = jobs_.find(id);
      if (it != jobs_.end() && it->second.state == JobState::kQueued) {
        it->second.state = JobState::kCancelled;
        ++num_cancelled_;
        retire_locked(id);
      }
    }
    pending_.clear();
  }
  work_available_.notify_all();
  std::vector<std::thread> workers;
  {
    MutexLock lock(mutex_);
    workers.swap(workers_);
  }
  for (std::thread& t : workers) t.join();
}

void JobQueue::worker_loop() {
  for (;;) {
    std::uint64_t id = 0;
    json::Value document;
    CancelToken token;
    std::chrono::steady_clock::time_point submitted_at;
    std::chrono::steady_clock::time_point started_at;
    {
      MutexLock lock(mutex_);
      while (!draining_ && pending_.empty()) work_available_.wait(mutex_);
      if (pending_.empty()) return;  // draining and nothing left
      id = pending_.front();
      pending_.pop_front();
      Job& job = jobs_.at(id);
      job.state = JobState::kRunning;
      job.started_at = std::chrono::steady_clock::now();
      job.cancel = CancelToken::cancellable();
      token = job.cancel;
      document = std::move(job.document);
      job.document = json::Value();
      submitted_at = job.submitted_at;
      started_at = job.started_at;
      ++num_running_;
    }
    // The wait the job spent queued, recorded once the interval is known.
    trace::record_span("job.queued", submitted_at, started_at);

    json::Value response;
    std::string error;
    try {
      QRE_FAILPOINT("jobqueue.worker.before_run");
      response = runner_(document, token);
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "unknown error";
    }
    trace::record_span("job.run", started_at, std::chrono::steady_clock::now());

    {
      MutexLock lock(mutex_);
      Job& job = jobs_.at(id);
      --num_running_;
      if (token.cancel_requested()) {
        // Cancel wins even when the runner happened to finish: the client
        // was told "cancelling", so the terminal state is cancelled and
        // partial results are discarded.
        job.state = JobState::kCancelled;
        job.error.clear();
        ++num_cancelled_;
      } else if (!error.empty()) {
        job.state = JobState::kFailed;
        job.error = std::move(error);
        ++num_failed_;
      } else {
        // The runner returns the v2 envelope; "success": false (an invalid
        // or infeasible document) is a failed job with a full diagnostic
        // payload, not a transport error.
        const json::Value* success = response.find("success");
        const bool ok = success != nullptr && success->is_bool() && success->as_bool();
        job.state = ok ? JobState::kSucceeded : JobState::kFailed;
        job.response = std::move(response);
        ok ? ++num_succeeded_ : ++num_failed_;
      }
      job.cancel = CancelToken();  // drop the shared flag
      retire_locked(id);
    }
  }
}

void JobQueue::retire_locked(std::uint64_t id) {
  finished_.push_back(id);
  while (finished_.size() > options_.max_retained) {
    jobs_.erase(finished_.front());
    finished_.pop_front();
  }
}

}  // namespace qre::server
