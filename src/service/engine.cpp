#include "service/engine.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/mutex.hpp"
#include "common/trace.hpp"
#include "tfactory/factory_cache.hpp"

namespace qre::service {

json::Value BatchStats::to_json() const {
  json::Object o;
  o.emplace_back("numItems", json::Value(static_cast<std::uint64_t>(num_items)));
  o.emplace_back("numWorkers", json::Value(static_cast<std::uint64_t>(num_workers)));
  o.emplace_back("numErrors", json::Value(static_cast<std::uint64_t>(num_errors)));
  o.emplace_back("cacheHits", json::Value(cache_hits));
  o.emplace_back("cacheMisses", json::Value(cache_misses));
  o.emplace_back("cacheEvictions", json::Value(cache_evictions));
  // The factory-cache deltas stay out of the document on purpose: the
  // process-level cache makes them depend on what ran before this batch,
  // and result documents for identical jobs must stay byte-identical.
  if (kernel.has_value()) {
    json::Object k;
    k.emplace_back("engaged", json::Value(kernel->engaged));
    if (!kernel->reason.empty()) k.emplace_back("reason", kernel->reason);
    k.emplace_back("kernelItems", json::Value(kernel->kernel_items));
    k.emplace_back("fallbackItems", json::Value(kernel->fallback_items));
    o.emplace_back("batchKernel", json::Value(std::move(k)));
  }
  return json::Value(std::move(o));
}

json::Value Engine::stats_to_json() const {
  json::Object out;
  out.emplace_back("estimateCache",
                   cache_counters_to_json(cache_.hits(), cache_.misses(), cache_.evictions(),
                                          cache_.size(), cache_.capacity()));
  return json::Value(std::move(out));
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
                    EstimateCache* cache, LookupCounts* counts) {
  try {
    QRE_FAILPOINT("engine.evaluate.before");
    if (cache != nullptr) {
      return cache->get_or_compute(key_fn(index), [&] { return runner(index); }, counts);
    }
    return runner(index);
  } catch (const std::exception& e) {
    return error_value("estimation-failed", e.what());
  }
}

/// The pool width for `num_items` items: 0 means hardware concurrency, and
/// the pool is never wider than the item count, nor empty.
std::size_t resolve_num_workers(const EngineOptions& options, std::size_t num_items) {
  std::size_t num_workers = options.num_workers;
  if (num_workers == 0) {
    num_workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  return std::max<std::size_t>(1, std::min(num_workers, num_items));
}

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
                              BatchStats* stats) {
  QRE_REQUIRE(runner != nullptr, "run_batch_indexed requires an item runner");
  QRE_REQUIRE(!options.use_cache || key_fn != nullptr,
              "run_batch_indexed requires a key function when caching is enabled");
  const std::size_t n = num_items;
  QRE_TRACE_SPAN("engine.batch");
  // Worker threads re-anchor their span stack on the batch span, so every
  // engine.item links back to this request in the exported trace.
  const std::uint64_t batch_span = trace::current_span();

  EstimateCache local_cache(options.cache_capacity);
  EstimateCache* cache = nullptr;
  if (options.use_cache) cache = options.cache != nullptr ? options.cache : &local_cache;
  FactoryCache& factory_cache = FactoryCache::global();
  const std::uint64_t factory_hits_before = factory_cache.hits();
  const std::uint64_t factory_misses_before = factory_cache.misses();

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

  auto work = [&] {
    // Propagate the request's collector and span parentage onto this
    // thread (restored on exit — the inline num_workers<=1 path runs on
    // the caller's thread, which has its own state to preserve).
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
        result = run_one(i, runner, key_fn, cache, &counts);
      }
      complete(i, std::move(result));
    }
    MutexLock lock(emit_mutex);
    cache_counts += counts;
  };

  if (num_workers <= 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(num_workers);
    for (std::size_t w = 0; w < num_workers; ++w) pool.emplace_back(work);
    for (std::thread& t : pool) t.join();
  }

  if (stats != nullptr) {
    stats->num_items = n;
    stats->num_workers = num_workers;
    stats->num_errors = num_errors.load();
    stats->cache_hits = cache_counts.hits;
    stats->cache_misses = cache_counts.misses;
    stats->cache_evictions = cache_counts.evictions;
    stats->factory_cache_hits = factory_cache.hits() - factory_hits_before;
    stats->factory_cache_misses = factory_cache.misses() - factory_misses_before;
  }

  json::Array out;
  out.reserve(n);
  for (json::Value& r : results) out.push_back(std::move(r));
  return out;
}

}  // namespace qre::service
