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

EstimateCache::Shard& EstimateCache::shard_for(std::uint64_t hash) const {
  if (shards_.size() == 1) return *shards_.front();
  // The high bits of a Fibonacci-mixed hash: each shard's index map buckets
  // the same hash, so the shard must not be picked by its low bits alone.
  const std::uint64_t mixed = hash * 0x9E3779B97F4A7C15ull;
  return *shards_[(mixed >> 32) % shards_.size()];
}

bool EstimateCache::Shard::noted_before(std::uint64_t hash) {
  // The hash's set of kNoteWays adjacent slots, newest note first: a new
  // note pushes out the set's oldest, so keys that share a set (a sweep's
  // points often do) are forgotten in turn, not each by the next.
  const std::size_t ways = std::min(kNoteWays, first_misses.size());
  const auto set = first_misses.begin() +
                   static_cast<std::ptrdiff_t>(hash % (first_misses.size() / ways) * ways);
  const auto end = set + static_cast<std::ptrdiff_t>(ways);
  if (std::find(set, end, hash) != end) return true;
  std::copy_backward(set, end - 1, end);
  *set = hash;
  return false;
}

json::Value EstimateCache::get_or_compute(const std::string& key, const Compute& compute,
                                          LookupCounts* counts, CacheFill fill) {
  const auto hash = static_cast<std::uint64_t>(std::hash<std::string_view>{}(key));
  Shard& shard = shard_for(hash);
  if (fill == CacheFill::kOnRepeat) {
    // A hit, or a first miss that computes without inserting. A repeated
    // miss falls through and inserts below, where a caller that inserted
    // meanwhile makes it a hit.
    std::shared_future<json::Value> found;
    bool repeated = false;
    {
      MutexLock lock(shard.mutex);
      if (const std::shared_future<json::Value>* entry = shard.entries.find(key)) {
        shard.hits.fetch_add(1);
        found = *entry;
      } else if (!(repeated = shard.noted_before(hash))) {
        shard.misses.fetch_add(1);
      }
    }
    if (found.valid()) {
      if (counts != nullptr) ++counts->hits;
      QRE_TRACE_INSTANT("estimate.cache.hit");
      return found.get();
    }
    if (!repeated) {
      if (counts != nullptr) ++counts->misses;
      QRE_TRACE_INSTANT("estimate.cache.miss");
      return fetch_or_compute(key, compute);
    }
  }
  using Entries = LruMap<std::shared_future<json::Value>>;
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
    json::Value result = fetch_or_compute(key, compute);
    promise.set_value(result);
    return result;
  } catch (...) {
    promise.set_exception(std::current_exception());
    throw;
  }
}

json::Value EstimateCache::fetch_or_compute(const std::string& key, const Compute& compute) {
  // Read-through: the persistent store answers before we compute, and
  // write-through: what we do compute is offered back. Both happen outside
  // the cache lock, on the thread that missed.
  std::optional<json::Value> stored;
  if (backing_ != nullptr) stored = backing_->fetch(key);
  if (stored.has_value()) return std::move(*stored);
  json::Value result = compute();
  if (backing_ != nullptr) backing_->record(key, result);
  return result;
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
    std::fill(shard.first_misses.begin(), shard.first_misses.end(), 0);
    shard.hits.store(0);
    shard.misses.store(0);
    shard.evictions.store(0);
  }
}

}  // namespace qre::service
