// Process-level memoization of T-factory designs.
//
// A factory design depends only on the required output error rate, the
// qubit model, the QEC scheme, the distillation unit set, and the search
// options — and the estimator re-derives identical designs constantly:
// every point of a qubit/runtime frontier shares the base point's factory,
// the maxPhysicalQubits fallback probes re-design it once per probe, and
// sweep grids repeat (qubit, budget) combinations across items. The cache
// keys designs on a fingerprint of all five inputs so each distinct design
// problem is solved once per process.
//
// The cache is bounded (LRU, kDefaultCapacity entries), concurrency-safe,
// and transparent: a hit returns the exact factory a fresh search would
// produce, so estimation results are bit-identical with the cache on or
// off. set_enabled(false) disables it, for benchmarking the uncached path
// and for debugging.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/lru_map.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "profiles/qubit_params.hpp"
#include "qec/qec_scheme.hpp"
#include "tfactory/distillation_unit.hpp"
#include "tfactory/tfactory.hpp"

namespace qre {

class FactoryCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 512;

  explicit FactoryCache(std::size_t capacity = kDefaultCapacity);

  /// The shared process-wide instance the estimator uses.
  static FactoryCache& global();

  /// design_tfactory() with memoization: returns the cached design when the
  /// same problem fingerprint was solved before, and solves + stores it
  /// otherwise. A hit bumps a shared_ptr refcount instead of copying the
  /// factory (the rounds vector and unit-name strings stay shared), and the
  /// fingerprint is built into a thread-local reusable buffer. nullptr means
  /// "cached as infeasible": infeasibility is as deterministic as success.
  /// The batch kernel's steady-state path calls this on every item. A
  /// shared design carries its "tfactory" output group, written once
  /// (TFactory::keep_json), which every result reporting the design splices.
  std::shared_ptr<const TFactory> design_shared(double required_output_error,
                                                const QubitParams& qubit,
                                                const QecScheme& scheme,
                                                const std::vector<DistillationUnit>& units,
                                                const TFactoryOptions& options);

  /// Lookups answered from the cache.
  std::uint64_t hits() const { return hits_.load(); }
  /// Lookups that had to run the search.
  std::uint64_t misses() const { return misses_.load(); }
  /// Entries dropped to keep the cache within capacity.
  std::uint64_t evictions() const { return evictions_.load(); }
  std::size_t size() const;
  std::size_t capacity() const { return entries_.capacity(); }

  /// Disabling makes design_shared() always run the search (no stats recorded).
  void set_enabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(); }

  void clear();

 private:
  std::atomic<bool> enabled_{true};
  mutable Mutex mutex_;
  LruMap<std::shared_ptr<const TFactory>> entries_ QRE_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace qre
