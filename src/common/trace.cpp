#include "common/trace.hpp"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace qre::trace {

namespace {

constexpr std::size_t kFlushBatch = 128;  // TLS buffer size before a forced flush

/// The bounded global ring. Storage is preallocated by enable(); writers
/// only touch it under the mutex, and the hot path (Span) batches writes
/// through thread-local buffers so the mutex is taken ~once per kFlushBatch
/// events (or per request root span).
struct Ring {
  Mutex mutex;
  std::vector<Event> events QRE_GUARDED_BY(mutex);
  std::size_t head QRE_GUARDED_BY(mutex) = 0;  // oldest entry once full
  std::size_t size QRE_GUARDED_BY(mutex) = 0;
  std::size_t cap QRE_GUARDED_BY(mutex) = 0;
  std::uint64_t dropped QRE_GUARDED_BY(mutex) = 0;
};

Ring& ring() {
  static Ring* r = new Ring;  // leaked: must outlive thread-exit flushes
  return *r;
}

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_span_id{1};
std::atomic<std::uint32_t> g_next_tid{1};
std::atomic<std::int64_t> g_epoch_ns{0};  // export origin (steady-clock ns)

std::int64_t steady_ns(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
      .count();
}

void push_locked(Ring& r, const Event& e) QRE_REQUIRES(r.mutex) {
  if (r.cap == 0) return;  // never enabled: nowhere to record
  if (r.size < r.cap) {
    r.events[(r.head + r.size) % r.cap] = e;
    ++r.size;
  } else {
    r.events[r.head] = e;  // overwrite the oldest event
    r.head = (r.head + 1) % r.cap;
    ++r.dropped;
  }
}

/// Per-thread tracer state. The destructor flushes whatever the thread
/// buffered, so short-lived engine workers never strand events.
struct ThreadState {
  std::vector<Event> buffer;
  std::uint64_t current_span = 0;
  std::uint32_t open_spans = 0;  // traced spans currently open on this thread
  std::uint32_t tid = 0;
  Collector* collector = nullptr;

  ~ThreadState() { flush(); }

  void flush() {
    if (buffer.empty()) return;
    Ring& r = ring();
    MutexLock lock(r.mutex);
    if (g_enabled.load(std::memory_order_relaxed)) {
      for (const Event& e : buffer) push_locked(r, e);
    }
    buffer.clear();
  }
};

ThreadState& tls() {
  thread_local ThreadState state;
  return state;
}

std::uint32_t thread_id(ThreadState& t) {
  if (t.tid == 0) t.tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return t.tid;
}

std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  if (::clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void enable(std::size_t cap) {
  if (cap == 0) cap = 1;
  Ring& r = ring();
  {
    MutexLock lock(r.mutex);
    r.events.assign(cap, Event{});
    r.cap = cap;
    r.head = 0;
    r.size = 0;
    r.dropped = 0;
  }
  g_epoch_ns.store(steady_ns(std::chrono::steady_clock::now()),
                   std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_release);
}

void disable() { g_enabled.store(false, std::memory_order_release); }

void clear() {
  Ring& r = ring();
  MutexLock lock(r.mutex);
  r.head = 0;
  r.size = 0;
  r.dropped = 0;
}

RingStats ring_stats() {
  Ring& r = ring();
  MutexLock lock(r.mutex);
  return {enabled(), r.size, r.dropped, r.cap};
}

std::vector<Event> snapshot() {
  tls().flush();
  Ring& r = ring();
  MutexLock lock(r.mutex);
  std::vector<Event> out;
  out.reserve(r.size);
  for (std::size_t i = 0; i < r.size; ++i) out.push_back(r.events[(r.head + i) % r.cap]);
  return out;
}

std::string to_chrome_json() {
  const std::vector<Event> events = snapshot();
  const std::int64_t epoch = g_epoch_ns.load(std::memory_order_relaxed);
  std::string out = "[\n";
  char line[256];
  bool first = true;
  for (const Event& e : events) {
    if (!first) out += ",\n";
    first = false;
    const double ts_us = static_cast<double>(e.start_ns - epoch) / 1e3;
    if (e.dur_ns >= 0) {
      std::snprintf(line, sizeof line,
                    R"({"name":"%s","cat":"qre","ph":"X","pid":0,"tid":%u,"ts":%.3f,)"
                    R"("dur":%.3f,"args":{"span":%llu,"parent":%llu,"cpuUs":%.3f}})",
                    e.name, e.tid, ts_us, static_cast<double>(e.dur_ns) / 1e3,
                    static_cast<unsigned long long>(e.id),
                    static_cast<unsigned long long>(e.parent),
                    e.cpu_ns >= 0 ? static_cast<double>(e.cpu_ns) / 1e3 : -1.0);
    } else {
      std::snprintf(line, sizeof line,
                    R"({"name":"%s","cat":"qre","ph":"i","s":"t","pid":0,"tid":%u,)"
                    R"("ts":%.3f,"args":{"parent":%llu}})",
                    e.name, e.tid, ts_us, static_cast<unsigned long long>(e.parent));
    }
    out += line;
  }
  out += "\n]\n";
  return out;
}

bool write_chrome_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = to_chrome_json();
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return (std::fclose(f) == 0) && ok;
}

std::uint64_t current_span() { return tls().current_span; }

void record_span(const char* name, std::chrono::steady_clock::time_point start,
                 std::chrono::steady_clock::time_point end, std::uint64_t parent) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  Event e;
  e.name = name;
  e.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  e.parent = parent;
  e.tid = thread_id(tls());
  e.start_ns = steady_ns(start);
  e.dur_ns = std::max<std::int64_t>(0, steady_ns(end) - e.start_ns);
  Ring& r = ring();
  MutexLock lock(r.mutex);
  push_locked(r, e);
}

void instant(const char* name) {
  ThreadState& t = tls();
  if (t.collector != nullptr) t.collector->count(name);
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  Event e;
  e.name = name;
  e.parent = t.current_span;
  e.tid = thread_id(t);
  e.start_ns = steady_ns(std::chrono::steady_clock::now());
  t.buffer.push_back(e);
  if (t.buffer.size() >= kFlushBatch) t.flush();
}

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

// ---------------------------------------------------------------------------
// Collector

Collector::Entry& Collector::entry_locked(std::vector<Entry>& entries, const char* name) {
  for (Entry& e : entries) {
    if (e.name == name) return e;
  }
  entries.emplace_back();
  entries.back().name = name;
  return entries.back();
}

void Collector::phase(const char* name, std::int64_t wall_ns, std::int64_t cpu_ns) {
  MutexLock lock(mutex_);
  Entry& e = entry_locked(phases_, name);
  ++e.count;
  e.wall_ns += wall_ns;
  e.cpu_ns += cpu_ns;
}

void Collector::add(const char* name, std::int64_t wall_ns, std::int64_t cpu_ns) {
  MutexLock lock(mutex_);
  Entry& e = entry_locked(detail_, name);
  ++e.count;
  e.wall_ns += wall_ns;
  e.cpu_ns += cpu_ns;
  if (e.samples.size() < kMaxSamples) e.samples.push_back(wall_ns);
}

void Collector::count(const char* name, std::uint64_t n) {
  MutexLock lock(mutex_);
  for (auto& [existing, value] : counters_) {
    if (existing == name) {
      value += n;
      return;
    }
  }
  counters_.emplace_back(name, n);
}

std::vector<std::int64_t> Collector::samples(const char* name) const {
  MutexLock lock(mutex_);
  for (const Entry& e : detail_) {
    if (e.name == name) {
      std::vector<std::int64_t> out = e.samples;
      std::sort(out.begin(), out.end());
      return out;
    }
  }
  return {};
}

double Collector::percentile(const std::vector<std::int64_t>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) * (1.0 - frac) +
         static_cast<double>(sorted[hi]) * frac;
}

json::Value Collector::to_json(std::int64_t total_wall_ns,
                               std::int64_t total_cpu_ns) const {
  MutexLock lock(mutex_);
  json::Object out;
  out.emplace_back("totalWallMs", json::Value(to_ms(total_wall_ns)));
  out.emplace_back("totalCpuMs", json::Value(to_ms(total_cpu_ns)));

  json::Array phases;
  for (const Entry& e : phases_) {
    json::Object p;
    p.emplace_back("name", e.name);
    p.emplace_back("wallMs", json::Value(to_ms(e.wall_ns)));
    p.emplace_back("cpuMs", json::Value(to_ms(e.cpu_ns)));
    phases.push_back(json::Value(std::move(p)));
  }
  out.emplace_back("phases", json::Value(std::move(phases)));

  json::Array detail;
  for (const Entry& e : detail_) {
    json::Object d;
    d.emplace_back("name", e.name);
    d.emplace_back("count", json::Value(e.count));
    d.emplace_back("wallMs", json::Value(to_ms(e.wall_ns)));
    d.emplace_back("cpuMs", json::Value(to_ms(e.cpu_ns)));
    std::vector<std::int64_t> sorted = e.samples;
    std::sort(sorted.begin(), sorted.end());
    d.emplace_back("p50Ms", json::Value(percentile(sorted, 50) / 1e6));
    d.emplace_back("p99Ms", json::Value(percentile(sorted, 99) / 1e6));
    detail.push_back(json::Value(std::move(d)));
  }
  out.emplace_back("detail", json::Value(std::move(detail)));

  json::Object counters;
  for (const auto& [name, value] : counters_) {
    counters.emplace_back(name, json::Value(value));
  }
  out.emplace_back("counters", json::Value(std::move(counters)));
  return json::Value(std::move(out));
}

Collector* current_collector() { return tls().collector; }

CollectorScope::CollectorScope(Collector* collector) {
  ThreadState& t = tls();
  prev_collector_ = t.collector;
  t.collector = collector;
}

CollectorScope::CollectorScope(Collector* collector, std::uint64_t parent_span) {
  ThreadState& t = tls();
  prev_collector_ = t.collector;
  prev_span_ = t.current_span;
  restore_span_ = true;
  t.collector = collector;
  t.current_span = parent_span;
}

CollectorScope::~CollectorScope() {
  ThreadState& t = tls();
  t.collector = prev_collector_;
  if (restore_span_) t.current_span = prev_span_;
}

// ---------------------------------------------------------------------------
// Span / PhaseTimer

Span::Span(const char* name, bool collect) {
  ThreadState& t = tls();
  if (collect) collector_ = t.collector;
  const bool tracing = g_enabled.load(std::memory_order_relaxed);
  if (!tracing && collector_ == nullptr) return;  // inactive: name_ stays null
  name_ = name;
  start_ = std::chrono::steady_clock::now();
  cpu_start_ = thread_cpu_ns();
  if (tracing) {
    id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
    parent_ = t.current_span;
    t.current_span = id_;
    ++t.open_spans;
  }
}

Span::~Span() {
  if (name_ == nullptr) return;
  const std::int64_t wall =
      steady_ns(std::chrono::steady_clock::now()) - steady_ns(start_);
  const std::int64_t cpu = thread_cpu_ns() - cpu_start_;
  if (id_ != 0) {
    ThreadState& t = tls();
    t.current_span = parent_;
    --t.open_spans;
    if (g_enabled.load(std::memory_order_relaxed)) {
      Event e;
      e.name = name_;
      e.id = id_;
      e.parent = parent_;
      e.tid = thread_id(t);
      e.start_ns = steady_ns(start_);
      e.dur_ns = wall;
      e.cpu_ns = cpu;
      t.buffer.push_back(e);
      // Flush when the batch is full or this thread just closed its
      // outermost span (end of a request / batch item run on this thread).
      if (t.buffer.size() >= kFlushBatch || t.open_spans == 0) t.flush();
    } else {
      t.buffer.clear();  // tracer turned off mid-span: drop stale events
    }
  }
  if (collector_ != nullptr) collector_->add(name_, wall, cpu);
}

PhaseTimer::PhaseTimer(Collector* collector, const char* name)
    : collector_(collector),
      name_(name),
      span_(name, /*collect=*/false),
      start_(std::chrono::steady_clock::now()),
      cpu_start_(thread_cpu_ns()) {}

PhaseTimer::~PhaseTimer() {
  if (collector_ == nullptr) return;
  const std::int64_t wall =
      steady_ns(std::chrono::steady_clock::now()) - steady_ns(start_);
  collector_->phase(name_, wall, thread_cpu_ns() - cpu_start_);
}

}  // namespace qre::trace
