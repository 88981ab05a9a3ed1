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

json::Value EstimateCache::get_or_compute(const std::string& key, const Compute& compute,
                                          LookupCounts* counts) {
  using Entries = LruMap<std::shared_future<json::Value>>;
  std::promise<json::Value> promise;
  std::shared_future<json::Value> future = promise.get_future().share();
  // The entry a miss links in is built before locking, and what the insert
  // evicts is destroyed after unlocking: the critical section only links.
  Entries::Nodes node = Entries::make_node(key, future);
  Entries::Nodes evicted;
  bool owner = false;
  {
    MutexLock lock(mutex_);
    if (const std::shared_future<json::Value>* found = entries_.find(key)) {
      hits_.fetch_add(1);
      future = *found;
    } else {
      misses_.fetch_add(1);
      evicted = entries_.insert(std::move(node));
      evictions_.fetch_add(evicted.size());
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

std::size_t EstimateCache::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

void EstimateCache::clear() {
  MutexLock lock(mutex_);
  entries_.clear();
  hits_.store(0);
  misses_.store(0);
  evictions_.store(0);
}

}  // namespace qre::service
