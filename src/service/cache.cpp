#include "service/cache.hpp"

#include <algorithm>

#include "common/trace.hpp"

namespace qre::service {

namespace {

/// Rebuilds `v` with every object's keys sorted, recursively, so that the
/// standard writer produces a canonical serialization.
json::Value sorted_copy(const json::Value& v) {
  if (v.is_object()) {
    json::Object sorted;
    for (const auto& [key, value] : v.as_object()) {
      sorted.emplace_back(key, sorted_copy(value));
    }
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    return json::Value(std::move(sorted));
  }
  if (v.is_array()) {
    json::Array sorted;
    for (const json::Value& element : v.as_array()) {
      sorted.push_back(sorted_copy(element));
    }
    return json::Value(std::move(sorted));
  }
  return v;
}

}  // namespace

std::string canonical_key(const json::Value& job) { return sorted_copy(job).dump(); }

EstimateCache::EstimateCache(std::size_t capacity) : capacity_(capacity) {
  const std::size_t num_shards =
      capacity == 0 || capacity >= kShardedCapacity ? kNumShards : 1;
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    // The first capacity % num_shards shards take one entry more, so the
    // shard capacities sum to `capacity` (0 stays unbounded everywhere).
    const std::size_t share = capacity / num_shards + (i < capacity % num_shards ? 1 : 0);
    shards_.push_back(std::make_unique<Shard>(share));
  }
}

EstimateCache::Shard& EstimateCache::shard_for(std::string_view key) const {
  if (shards_.size() == 1) return *shards_.front();
  // The high bits of a Fibonacci-mixed hash: each shard's index map buckets
  // the same hash, so the shard must not be picked by its low bits alone.
  const std::uint64_t mixed =
      static_cast<std::uint64_t>(std::hash<std::string_view>{}(key)) * 0x9E3779B97F4A7C15ull;
  return *shards_[(mixed >> 32) % shards_.size()];
}

json::Value EstimateCache::get_or_compute(const std::string& key, const Compute& compute,
                                          LookupCounts* counts) {
  using Entries = LruMap<std::shared_future<json::Value>>;
  Shard& shard = shard_for(key);
  std::promise<json::Value> promise;
  std::shared_future<json::Value> future = promise.get_future().share();
  // The entry a miss links in is built before locking, and what the insert
  // evicts is destroyed after unlocking: the critical section only links.
  Entries::Nodes node = Entries::make_node(key, future);
  Entries::Nodes evicted;
  bool owner = false;
  {
    MutexLock lock(shard.mutex);
    if (const std::shared_future<json::Value>* found = shard.entries.find(key)) {
      shard.hits.fetch_add(1);
      future = *found;
    } else {
      shard.misses.fetch_add(1);
      evicted = shard.entries.insert(std::move(node));
      shard.evictions.fetch_add(evicted.size());
      owner = true;
    }
  }
  const std::size_t num_evicted = evicted.size();
  evicted.clear();
  // A hit drops its unused entry here, so the unfulfilled promise is the
  // last owner of its state and breaks no future when it goes.
  node.clear();
  if (counts != nullptr) {
    ++(owner ? counts->misses : counts->hits);
    counts->evictions += num_evicted;
  }
  if (!owner) {
    QRE_TRACE_INSTANT("estimate.cache.hit");
    return future.get();  // results are raw bytes: a reference-count copy
  }
  QRE_TRACE_INSTANT("estimate.cache.miss");
  try {
    // Read-through: the persistent store answers before we compute, and
    // write-through: what we do compute is offered back. Both happen on
    // the single owner thread of this key, outside the cache lock.
    std::optional<json::Value> stored;
    if (backing_ != nullptr) stored = backing_->fetch(key);
    json::Value result = stored.has_value() ? std::move(*stored) : compute();
    if (!stored.has_value() && backing_ != nullptr) backing_->record(key, result);
    promise.set_value(result);
    return result;
  } catch (...) {
    promise.set_exception(std::current_exception());
    throw;
  }
}

std::uint64_t EstimateCache::total(std::atomic<std::uint64_t> Shard::*counter) const {
  std::uint64_t sum = 0;
  for (const auto& shard : shards_) sum += ((*shard).*counter).load();
  return sum;
}

std::size_t EstimateCache::size() const {
  std::size_t total = 0;
  for (const auto& owned : shards_) {
    Shard& shard = *owned;
    MutexLock lock(shard.mutex);
    total += shard.entries.size();
  }
  return total;
}

void EstimateCache::clear() {
  for (const auto& owned : shards_) {
    Shard& shard = *owned;
    MutexLock lock(shard.mutex);
    shard.entries.clear();
    shard.hits.store(0);
    shard.misses.store(0);
    shard.evictions.store(0);
  }
}

}  // namespace qre::service
