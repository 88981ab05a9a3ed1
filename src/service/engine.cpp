#include "service/engine.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/mutex.hpp"
#include "common/trace.hpp"

namespace qre::service {

json::Value BatchStats::to_json() const {
  json::Object o;
  o.emplace_back("numItems", json::Value(static_cast<std::uint64_t>(num_items)));
  o.emplace_back("numWorkers", json::Value(static_cast<std::uint64_t>(num_workers)));
  o.emplace_back("numErrors", json::Value(static_cast<std::uint64_t>(num_errors)));
  o.emplace_back("cacheHits", json::Value(cache_hits));
  o.emplace_back("cacheMisses", json::Value(cache_misses));
  o.emplace_back("cacheEvictions", json::Value(cache_evictions));
  return json::Value(std::move(o));
}

namespace {

json::Value error_value(const char* code, const std::string& message) {
  json::Object error;
  error.emplace_back("code", code);
  error.emplace_back("message", message);
  json::Object failure;
  failure.emplace_back("error", json::Value(std::move(error)));
  return json::Value(std::move(failure));
}

/// The per-item document for an item skipped because the batch's token said
/// stop. Never cached: a cancelled entry must not shadow a real result for
/// the same grid point in a shared cache.
json::Value cancelled_value(const CancelToken& cancel) {
  return error_value("cancelled", cancel.deadline_exceeded()
                                      ? "item skipped: request deadline exceeded"
                                      : "item skipped: request cancelled");
}

/// Runs one item, memoized when a cache is present; the lookup is added to
/// `counts`. All failures — from the runner directly or replayed out of the
/// cache — collapse to an error document, preserving the batch's isolation
/// contract.
json::Value run_one(std::size_t index, const IndexedRunner& runner, const IndexedKeyFn& key_fn,
                    EstimateCache* cache, CacheFill fill, LookupCounts* counts) {
  try {
    QRE_FAILPOINT("engine.evaluate.before");
    if (cache != nullptr) {
      return cache->get_or_compute(key_fn(index), [&] { return runner(index); }, counts, fill);
    }
    return runner(index);
  } catch (const std::exception& e) {
    return error_value("estimation-failed", e.what());
  }
}

/// std::thread::hardware_concurrency(), read once per process: glibc reads
/// /sys/devices/system/cpu/online on every call.
std::size_t hardware_threads() {
  static const std::size_t threads = std::thread::hardware_concurrency();
  return threads;
}

/// The batch width for `num_items` items: 0 means hardware concurrency, and
/// a batch is never wider than its item count, nor empty.
std::size_t resolve_num_workers(const EngineOptions& options, std::size_t num_items) {
  std::size_t num_workers = options.num_workers;
  if (num_workers == 0) num_workers = std::max<std::size_t>(1, hardware_threads());
  return std::max<std::size_t>(1, std::min(num_workers, num_items));
}

// Guards the worker pool and the counters of every batch running on it.
Mutex pool_mutex;

/// One multi-worker batch's share of the pool: the loop its helpers run and
/// the helpers that started it. Lives on the calling thread's stack.
struct PoolBatch {
  explicit PoolBatch(const std::function<void()>& w) : work(w) {}
  const std::function<void()>& work;
  std::size_t running QRE_GUARDED_BY(pool_mutex) = 0;
  std::exception_ptr error QRE_GUARDED_BY(pool_mutex);
  CondVar helpers_done;
};

/// The process-wide helper threads every multi-worker batch borrows from.
/// A batch of width w posts w - 1 tickets and runs its loop on the calling
/// thread too; an idle helper takes a ticket at once, a busy pool queues it.
/// Once the caller's own loop ends, every item has been claimed, so the
/// caller withdraws the tickets no helper took and waits only for helpers
/// that started. Nothing ever waits on a ticket, which is why nested and
/// concurrent batches cannot deadlock. Started lazily, by the first
/// multi-worker batch, with hardware_concurrency - 1 helpers; it grows to
/// the widest batch ever run and joins its helpers at exit.
class WorkerPool {
 public:
  static WorkerPool& instance() {
    static WorkerPool pool;
    return pool;
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    std::vector<std::thread> threads;
    {
      MutexLock lock(pool_mutex);
      stopping_ = true;
      for (const std::unique_ptr<CondVar>& wake : wake_) wake->notify_one();
      threads.swap(threads_);
    }
    for (std::thread& t : threads) t.join();
  }

  /// Runs `work` on the calling thread and on up to `helpers` pool threads;
  /// returns once every helper that started it has returned. The first
  /// exception `work` throws, on any of those threads, is rethrown here.
  void run(std::size_t helpers, const std::function<void()>& work) {
    PoolBatch batch(work);
    {
      MutexLock lock(pool_mutex);
      grow_to(helpers);
      for (std::size_t t = 0; t < helpers; ++t) {
        if (idle_.empty()) {
          pending_.push_back(&batch);
        } else {
          assign(idle_.back(), &batch);
          idle_.pop_back();
        }
      }
    }
    std::exception_ptr error;
    try {
      work();
    } catch (...) {
      error = std::current_exception();
    }
    MutexLock lock(pool_mutex);
    pending_.erase(std::remove(pending_.begin(), pending_.end(), &batch), pending_.end());
    for (std::size_t h = 0; h < slot_.size(); ++h) {
      if (slot_[h] == &batch) {
        slot_[h] = nullptr;
        release(h);
      }
    }
    while (batch.running > 0) batch.helpers_done.wait(pool_mutex);
    if (error == nullptr) error = batch.error;
    if (error != nullptr) std::rethrow_exception(error);
  }

 private:
  WorkerPool() = default;

  /// Starts helpers up to `helpers`; the first call starts at least
  /// hardware_concurrency - 1.
  void grow_to(std::size_t helpers) QRE_REQUIRES(pool_mutex) {
    if (threads_.empty()) {
      const std::size_t hardware = hardware_threads();
      helpers = std::max(helpers, hardware > 1 ? hardware - 1 : 0);
    }
    while (threads_.size() < helpers) {
      const std::size_t h = threads_.size();
      slot_.push_back(nullptr);
      wake_.push_back(std::make_unique<CondVar>());
      idle_.push_back(h);
      threads_.emplace_back([this, h, wake = wake_.back().get()] { helper_loop(h, *wake); });
    }
  }

  void assign(std::size_t h, PoolBatch* batch) QRE_REQUIRES(pool_mutex) {
    slot_[h] = batch;
    wake_[h]->notify_one();
  }

  /// Hands helper `h` the oldest queued ticket, or parks it as idle. The
  /// idle list is a stack, so back-to-back batches reuse the same threads.
  void release(std::size_t h) QRE_REQUIRES(pool_mutex) {
    if (pending_.empty()) {
      idle_.push_back(h);
      return;
    }
    assign(h, pending_.front());
    pending_.pop_front();
  }

  void helper_loop(std::size_t h, CondVar& wake) {
    for (;;) {
      PoolBatch* batch = nullptr;
      {
        MutexLock lock(pool_mutex);
        while (slot_[h] == nullptr && !stopping_) wake.wait(pool_mutex);
        if (stopping_) return;
        batch = slot_[h];
        slot_[h] = nullptr;
        ++batch->running;
      }
      std::exception_ptr error;
      try {
        batch->work();
      } catch (...) {
        error = std::current_exception();
      }
      MutexLock lock(pool_mutex);
      if (error != nullptr && batch->error == nullptr) batch->error = error;
      // Notified under the lock: the caller may return, destroying the
      // batch, as soon as it can observe running == 0.
      --batch->running;
      if (batch->running == 0) batch->helpers_done.notify_one();
      release(h);
    }
  }

  // Per helper: the batch assigned to it but not yet started, and the
  // condition it sleeps on (stable addresses: helpers keep a reference).
  std::vector<PoolBatch*> slot_ QRE_GUARDED_BY(pool_mutex);
  std::vector<std::unique_ptr<CondVar>> wake_ QRE_GUARDED_BY(pool_mutex);
  std::vector<std::size_t> idle_ QRE_GUARDED_BY(pool_mutex);
  std::deque<PoolBatch*> pending_ QRE_GUARDED_BY(pool_mutex);
  bool stopping_ QRE_GUARDED_BY(pool_mutex) = false;
  std::vector<std::thread> threads_ QRE_GUARDED_BY(pool_mutex);
};

}  // namespace

json::Array run_batch(const std::vector<json::Value>& items, const JobRunner& runner,
                      const EngineOptions& options, BatchStats* stats) {
  QRE_REQUIRE(runner != nullptr, "run_batch requires a job runner");
  const IndexedRunner indexed = [&](std::size_t index) { return runner(items[index]); };
  const IndexedKeyFn key_fn = [&](std::size_t index) { return canonical_key(items[index]); };
  return run_batch_indexed(items.size(), indexed, key_fn, options, stats);
}

json::Array run_batch_indexed(std::size_t num_items, const IndexedRunner& runner,
                              const IndexedKeyFn& key_fn, const EngineOptions& options,
                              BatchStats* stats, CacheFill fill) {
  QRE_REQUIRE(runner != nullptr, "run_batch_indexed requires an item runner");
  QRE_REQUIRE(!options.use_cache || key_fn != nullptr,
              "run_batch_indexed requires a key function when caching is enabled");
  const std::size_t n = num_items;
  QRE_TRACE_SPAN("engine.batch");
  // Worker threads re-anchor their span stack on the batch span, so every
  // engine.item links back to this request in the exported trace.
  const std::uint64_t batch_span = trace::current_span();

  // A batch-private cache only when the batch caches and brings none.
  std::optional<EstimateCache> local_cache;
  EstimateCache* cache = options.use_cache ? options.cache : nullptr;
  if (options.use_cache && cache == nullptr) cache = &local_cache.emplace(options.cache_capacity);

  const std::size_t num_workers = resolve_num_workers(options, n);

  std::vector<json::Value> results(n);
  std::vector<char> done(n, 0);
  std::atomic<std::size_t> next_item{0};
  std::atomic<std::size_t> num_errors{0};
  Mutex emit_mutex;
  std::size_t next_emit = 0;
  // This batch's own cache lookups: the shared cache's counters also move
  // with every other request running through it.
  LookupCounts cache_counts;

  // Stores result `i` and streams the contiguous prefix of completed items,
  // so the sink observes results strictly in item order.
  auto complete = [&](std::size_t i, json::Value result) {
    if (result.is_object() && result.find("error") != nullptr) {
      num_errors.fetch_add(1);
    }
    MutexLock lock(emit_mutex);
    results[i] = std::move(result);
    done[i] = 1;
    while (next_emit < n && done[next_emit]) {
      if (options.on_result) options.on_result(next_emit, results[next_emit]);
      ++next_emit;
    }
  };

  const std::function<void()> work = [&] {
    // Propagate the request's collector and span parentage onto this
    // thread (restored on exit — the calling thread runs this loop too,
    // and has its own state to preserve).
    trace::CollectorScope scope(options.timings, batch_span);
    LookupCounts counts;
    for (;;) {
      const std::size_t i = next_item.fetch_add(1);
      if (i >= n) break;
      // Cancellation is observed at item boundaries: skipped items become
      // structured "cancelled" entries so the output array keeps its shape.
      if (options.cancel.should_stop()) {
        complete(i, cancelled_value(options.cancel));
        continue;
      }
      json::Value result;
      {
        QRE_TRACE_SPAN("engine.item");
        result = run_one(i, runner, key_fn, cache, fill, &counts);
      }
      complete(i, std::move(result));
    }
    MutexLock lock(emit_mutex);
    cache_counts += counts;
  };

  if (num_workers <= 1) {
    work();
  } else {
    WorkerPool::instance().run(num_workers - 1, work);
  }

  if (stats != nullptr) {
    stats->num_items = n;
    stats->num_workers = num_workers;
    stats->num_errors = num_errors.load();
    stats->cache_hits = cache_counts.hits;
    stats->cache_misses = cache_counts.misses;
    stats->cache_evictions = cache_counts.evictions;
  }

  json::Array out;
  out.reserve(n);
  for (json::Value& r : results) out.push_back(std::move(r));
  return out;
}

}  // namespace qre::service
