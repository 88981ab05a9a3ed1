// Concurrent batch execution engine (service layer).
//
// Turns the estimator into a service-grade batch executor: expanded sweep
// items (or hand-written "items" entries) run at a configurable width on the
// calling thread plus helpers borrowed from one process-wide worker pool,
// with
//
//  - deterministic output: results are reported in item order regardless of
//    which worker finishes first;
//  - per-item error isolation: a failing item becomes a structured
//    {"error": {"code", "message"}} document instead of aborting the batch
//    (matching api::run's serial contract);
//  - memoization: items are keyed by a canonical serialization of their
//    resolved job document, so duplicated items across a batch are
//    estimated once (see service/cache.hpp). Planned sweeps cache only the
//    grid points they miss a second time: a point seen once fills only the
//    store, so a stream of fresh points evicts nothing;
//  - streaming: an optional callback observes each result, invoked strictly
//    in item order as the prefix of completed items grows — the NDJSON
//    emission mode of qre_cli for very large sweeps.
//
// The engine is deliberately decoupled from the job module: it executes any
// JobRunner over any item list, which keeps it unit-testable with synthetic
// runners and lets later PRs plug in remote or multi-backend runners.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/trace.hpp"
#include "json/json.hpp"
#include "service/cache.hpp"

namespace qre::service {

/// Executes one complete (non-batch) job document. A successful estimate is
/// the raw leaf api::run returns for a single estimate: the cache and the store
/// keep its bytes, and the writers splice them (see json::Value::raw).
/// Error documents ({"error": ...}) stay trees, so the engine and the store
/// recognize them with find("error").
using JobRunner = std::function<json::Value(const json::Value& job)>;

/// Executes item `index`; called concurrently from the batch's threads.
using IndexedRunner = std::function<json::Value(std::size_t index)>;

/// Produces the memoization key for item `index` (only called when caching
/// is enabled).
using IndexedKeyFn = std::function<std::string(std::size_t index)>;

/// Observes the result of item `index`; called in item order.
using ResultSink = std::function<void(std::size_t index, const json::Value& result)>;

struct EngineOptions {
  /// Batch width: at most this many threads run the items, the calling
  /// thread plus helpers borrowed from the process-wide pool; 0 means
  /// std::thread::hardware_concurrency(). The width never exceeds the number
  /// of items, and width 1 runs inline.
  std::size_t num_workers = 0;
  /// Memoize results by canonical item key (duplicated items are computed
  /// once; a planned sweep caches a point from its second miss, see
  /// run_batch_indexed).
  bool use_cache = true;
  /// Entry bound for the batch-private cache (LRU evicted beyond it;
  /// 0 = unbounded). Ignored when an external `cache` is supplied.
  std::size_t cache_capacity = EstimateCache::kDefaultCapacity;
  /// Optional external cache shared across batches; nullptr with use_cache
  /// gives the batch a private cache.
  EstimateCache* cache = nullptr;
  /// Optional streaming sink; see ResultSink.
  ResultSink on_result;
  /// Cooperative cancellation / deadline, checked at item boundaries: once
  /// the token says stop, remaining items become {"error": {"code":
  /// "cancelled", ...}} entries without running (and without touching the
  /// cache). The default token never cancels.
  CancelToken cancel;
  /// Optional per-request timing collector (see common/trace.hpp): when
  /// set, run_batch installs it on every worker thread so "engine.item"
  /// spans and cache-hit/miss instants aggregate into the request's
  /// "timings" block. Not owned; must outlive the run. api::run wires it
  /// from "collectTimings"; qre_cli --timings supplies its own.
  trace::Collector* timings = nullptr;
};

/// Aggregate counters for one batch run, echoed as "batchStats" by api::run.
/// The estimate-cache counters count this batch's own lookups only, however
/// many requests share the cache: every item that reaches the cache is one
/// hit or one miss.
struct BatchStats {
  std::size_t num_items = 0;
  std::size_t num_workers = 1;
  std::size_t num_errors = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;

  json::Value to_json() const;
};

/// Runs `items` (complete job documents) through `runner` at the options'
/// width. The returned array preserves item order; item failures (qre::Error
/// or any std::exception from the runner) are isolated as structured
/// {"error": {"code", "message"}} entries. `stats`, when non-null, receives
/// the run's counters.
json::Array run_batch(const std::vector<json::Value>& items, const JobRunner& runner,
                      const EngineOptions& options = {}, BatchStats* stats = nullptr);

/// The index-based generalization run_batch wraps: items are identified by
/// index and the memoization key comes from `key_fn` (may be null when
/// options.use_cache is false). Every batch execution path — per-item
/// documents and planned sweeps — funnels through this single
/// implementation, so ordering, error isolation, cancellation, streaming,
/// and cache accounting behave identically and are counted once regardless
/// of which path produced a result. `fill` is when an item's cache miss
/// inserts it (see CacheFill): planned sweeps pass kOnRepeat, so a grid
/// point seen once reads the cache and the store but fills only the store.
json::Array run_batch_indexed(std::size_t num_items, const IndexedRunner& runner,
                              const IndexedKeyFn& key_fn, const EngineOptions& options = {},
                              BatchStats* stats = nullptr, CacheFill fill = CacheFill::kOnMiss);

/// A long-lived estimation engine: the default EngineOptions plus an owned
/// EstimateCache that persists across runs, so a serving process keeps warm
/// results between requests instead of giving every batch a private cache
/// that dies with it. The Engine itself is concurrency-safe — options()
/// returns a copy and EstimateCache is internally synchronized — so any
/// number of request threads may run through one shared Engine; results are
/// bit-identical to serial execution (the cache replays exact documents).
/// Cached entries are keyed on job documents only: if the profile registry
/// the runs resolve against mutates, call cache().clear() — the serving
/// layer avoids this by completing all registration before serving.
class Engine {
 public:
  /// `defaults.cache`, when set, is ignored: the engine always wires its own
  /// shared cache (that is its purpose).
  explicit Engine(EngineOptions defaults = {})
      : defaults_(defaults), cache_(defaults.cache_capacity) {
    defaults_.cache = nullptr;
  }

  /// The engine's defaults with the shared cache wired in (when caching is
  /// enabled). Callers may further adjust the copy, e.g. attach a sink.
  EngineOptions options() const {
    EngineOptions o = defaults_;
    if (o.use_cache) o.cache = &cache_;
    return o;
  }

  /// options() with a streaming sink attached.
  EngineOptions options(ResultSink sink) const {
    EngineOptions o = options();
    o.on_result = std::move(sink);
    return o;
  }

  EstimateCache& cache() { return cache_; }
  const EstimateCache& cache() const { return cache_; }

  /// Wires a persistent second-level store behind the shared cache (see
  /// StoreBacking in service/cache.hpp): in-memory misses consult the
  /// store before estimating, fresh results are written through. Follow
  /// the registration-before-serve discipline — attach the store before
  /// the first request; it is not owned and must outlive the engine's
  /// last run.
  void set_store(StoreBacking* store) { cache_.set_backing(store); }

 private:
  EngineOptions defaults_;
  mutable EstimateCache cache_;
};

}  // namespace qre::service
