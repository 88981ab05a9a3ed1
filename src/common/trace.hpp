// Lock-cheap span/event tracer + per-request timing collector.
//
// Two cooperating facilities behind one instrumentation macro set:
//
//  * A process-global TRACER: `QRE_TRACE_SPAN("engine.item")` opens a RAII
//    span with a monotonic start timestamp, a process-unique span id, and a
//    parent link to the enclosing span on the same thread. Finished events
//    land in a thread-local buffer that is flushed into ONE bounded global
//    ring (overwrite-oldest, with a dropped counter) when the buffer fills,
//    when the thread's root span ends, or when the thread exits — so the
//    hot path never takes the ring mutex per span. Off by default; when
//    disabled the whole span costs one relaxed atomic load plus a TLS read
//    (the microbench in bench/microbench_trace.cpp keeps this honest).
//    snapshot()/to_chrome_json() export the ring in the Chrome Trace Event
//    ("JSON array") format that chrome://tracing and Perfetto load directly.
//
//  * A per-request COLLECTOR: api::run (opt-in via "collectTimings": true
//    or qre_cli --timings) installs a trace::Collector as a thread-local
//    for the request thread and every engine worker. The same spans then
//    also aggregate per-name wall/CPU totals, bounded latency samples (for
//    p50/p99), and counter instants (cache hits/misses) into the collector,
//    which renders the "timings" block of the result document. Collectors
//    work even while the global tracer is off, and vice versa.
//
// Span names are static string literals from the taxonomy documented in
// docs/observability.md; qre_lint check #6 keeps code and docs in sync.
// Compile-time opt-out mirrors QRE_FAILPOINT: building with -DQRE_TRACING=OFF
// defines QRE_TRACING_DISABLED and the macros expand to nothing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "json/json.hpp"

namespace qre::trace {

/// One finished span (dur_ns >= 0) or instant marker (dur_ns < 0).
/// Timestamps are absolute steady-clock nanoseconds; exports subtract the
/// enable() epoch. `name` is a static literal and is never freed.
struct Event {
  const char* name = nullptr;
  std::uint64_t id = 0;      // span id; 0 for instants
  std::uint64_t parent = 0;  // enclosing span id; 0 at root
  std::uint32_t tid = 0;     // small sequential per-thread id (export-friendly)
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = -1;
  std::int64_t cpu_ns = -1;  // CLOCK_THREAD_CPUTIME_ID delta; -1 unknown
};

inline constexpr std::size_t kDefaultCapacity = 64 * 1024;  // events in the ring

/// Whether the global tracer is recording (relaxed; instrumentation-grade).
bool enabled();

/// Clears the ring, (re)sizes it to `capacity` events, resets the dropped
/// counter, re-anchors the export epoch at "now", and starts recording.
void enable(std::size_t capacity = kDefaultCapacity);

/// Stops recording. Already-buffered events stay exportable.
void disable();

/// Empties the ring and resets the dropped counter (recording state is
/// unchanged).
void clear();

/// The ring's state, read under one lock — the /metrics "trace" section.
struct RingStats {
  bool enabled = false;
  std::uint64_t events = 0;    // events held in the ring
  std::uint64_t dropped = 0;   // overwritten by a full ring since enable/clear
  std::uint64_t capacity = 0;  // 0 until the first enable()
};
RingStats ring_stats();

/// Flushes the calling thread's buffer and copies the ring, oldest first.
std::vector<Event> snapshot();

/// The ring as a Chrome Trace Event JSON array (one event per line): load
/// the bytes directly in chrome://tracing or Perfetto. Valid JSON.
std::string to_chrome_json();

/// Writes to_chrome_json() to `path` (qre_serve/qre_cli --trace-file).
/// Returns false when the file cannot be written.
bool write_chrome_json(const std::string& path);

/// The calling thread's innermost open span id (0 outside any span).
std::uint64_t current_span();

/// Records a completed span directly into the ring, bypassing thread-local
/// buffers — for durations measured across threads, e.g. the job queue's
/// queued/running intervals. No-op while the tracer is disabled.
void record_span(const char* name, std::chrono::steady_clock::time_point start,
                 std::chrono::steady_clock::time_point end, std::uint64_t parent = 0);

/// Emits an instant event under the current span, and bumps the same-named
/// counter on the thread's collector (if one is installed). Use through
/// QRE_TRACE_INSTANT.
void instant(const char* name);

/// CLOCK_THREAD_CPUTIME_ID in nanoseconds (0 where unsupported).
std::int64_t thread_cpu_ns();

/// CLOCK_PROCESS_CPUTIME_ID in nanoseconds (0 where unsupported).
std::int64_t process_cpu_ns();

/// Per-request timing aggregation, rendered as the "timings" block. Two
/// tiers: `phase()` entries are the request thread's non-overlapping
/// top-level stages (their wall times sum to ~the request wall time),
/// `add()` entries are per-span-name aggregates that may nest and overlap
/// across worker threads (so their sum can exceed wall time). Thread-safe;
/// one instance serves the request thread and all its engine workers.
class Collector {
 public:
  struct Entry {
    std::string name;
    std::uint64_t count = 0;
    std::int64_t wall_ns = 0;
    std::int64_t cpu_ns = 0;
    std::vector<std::int64_t> samples;  // per-call wall ns, capped at kMaxSamples
  };

  /// Bound on retained per-entry latency samples; beyond it totals keep
  /// accumulating but percentiles describe the first kMaxSamples calls.
  static constexpr std::size_t kMaxSamples = 4096;

  /// Adds one top-level phase (insertion-ordered; repeated names accumulate).
  void phase(const char* name, std::int64_t wall_ns, std::int64_t cpu_ns);

  /// Adds one span occurrence to the per-name detail aggregate.
  void add(const char* name, std::int64_t wall_ns, std::int64_t cpu_ns);

  /// Bumps a named counter (cache hits/misses and similar instants).
  void count(const char* name, std::uint64_t n = 1);

  /// Sorted wall-time samples (ns) of detail entry `name`; empty if absent.
  std::vector<std::int64_t> samples(const char* name) const;

  /// The `p`-th percentile (0..100) of sorted samples; 0 when empty.
  static double percentile(const std::vector<std::int64_t>& sorted, double p);

  /// {"totalWallMs", "totalCpuMs", "phases": [...], "detail": [...],
  ///  "counters": {...}} — see docs/observability.md for field semantics.
  json::Value to_json(std::int64_t total_wall_ns, std::int64_t total_cpu_ns) const;

 private:
  Entry& entry_locked(std::vector<Entry>& entries, const char* name)
      QRE_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::vector<Entry> phases_ QRE_GUARDED_BY(mutex_);
  std::vector<Entry> detail_ QRE_GUARDED_BY(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> counters_ QRE_GUARDED_BY(mutex_);
};

/// The collector installed on the calling thread (nullptr outside a timed
/// request).
Collector* current_collector();

/// RAII install of a collector as the calling thread's thread-local, with
/// an optional parent-span base so worker-thread spans link back to the
/// span that launched the batch. Restores the previous state on scope exit;
/// `collector` may be nullptr (explicitly un-installs within the scope).
class CollectorScope {
 public:
  explicit CollectorScope(Collector* collector);
  CollectorScope(Collector* collector, std::uint64_t parent_span);
  ~CollectorScope();

  CollectorScope(const CollectorScope&) = delete;
  CollectorScope& operator=(const CollectorScope&) = delete;

 private:
  Collector* prev_collector_;
  std::uint64_t prev_span_ = 0;
  bool restore_span_ = false;
};

/// RAII span. Prefer the QRE_TRACE_SPAN macro; construct directly only when
/// the macro's scoping does not fit. `collect=false` keeps the span out of
/// the thread's collector detail (used by PhaseTimer, whose time is already
/// reported as a phase).
class Span {
 public:
  explicit Span(const char* name, bool collect = true);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;  // nullptr = inactive (tracer off, no collector)
  Collector* collector_ = nullptr;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::chrono::steady_clock::time_point start_;
  std::int64_t cpu_start_ = 0;
};

/// RAII top-level phase: a trace span named `name` plus a Collector::phase
/// entry on destruction. `collector` may be nullptr (span only).
class PhaseTimer {
 public:
  PhaseTimer(Collector* collector, const char* name);
  ~PhaseTimer();

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  Collector* collector_;
  const char* name_;
  Span span_;
  std::chrono::steady_clock::time_point start_;
  std::int64_t cpu_start_;
};

}  // namespace qre::trace

#if defined(QRE_TRACING_DISABLED)

#define QRE_TRACE_SPAN(name)
#define QRE_TRACE_INSTANT(name) ((void)0)

#else

#define QRE_TRACE_CONCAT_INNER(a, b) a##b
#define QRE_TRACE_CONCAT(a, b) QRE_TRACE_CONCAT_INNER(a, b)
/// Opens a span covering the rest of the enclosing scope.
#define QRE_TRACE_SPAN(name) \
  ::qre::trace::Span QRE_TRACE_CONCAT(qre_trace_span_, __LINE__)(name)
/// Marks an instant under the current span (and a collector counter).
#define QRE_TRACE_INSTANT(name) ::qre::trace::instant(name)

#endif  // QRE_TRACING_DISABLED
