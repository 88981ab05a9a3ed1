// String-keyed LRU map: the one implementation of the list + index + evict
// bookkeeping shared by the service's EstimateCache and the T-factory
// design cache. Not thread-safe — callers hold their own lock, because
// what happens around a miss (dedup futures, compute outside the lock)
// differs per cache.
//
// The critical section only links: an entry is made detached, before the
// lock (make_node), insert() links it in, reusing the evicted entry's index
// node once the map is full, and the evicted entry goes back to the caller,
// who destroys it after unlocking. Each entry holds its key once; the index
// refers to it by string_view.
#pragma once

#include <cstddef>
#include <iterator>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace qre {

template <typename Value>
class LruMap {
 public:
  using Entry = std::pair<const std::string, Value>;
  /// Entries outside the map: one made by make_node(), or those insert()
  /// evicted.
  using Nodes = std::list<Entry>;

  /// `capacity` == 0 means unbounded.
  explicit LruMap(std::size_t capacity) : capacity_(capacity) {}

  /// One detached entry for insert(); needs no lock.
  static Nodes make_node(std::string key, Value value) {
    Nodes node;
    node.emplace_back(std::move(key), std::move(value));
    return node;
  }

  /// Returns the value for `key` (marking it most recently used), or
  /// nullptr. The pointer is stable until the entry is evicted or cleared.
  Value* find(std::string_view key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->second;
  }

  bool contains(std::string_view key) const { return index_.count(key) != 0; }

  /// Links the one entry of `node` (from make_node(); its key must not be
  /// present) in as most recently used, and returns the least recently used
  /// entry if it was evicted to stay within capacity (never the inserted
  /// one): insert() is the only way in, so a full map evicts exactly one.
  Nodes insert(Nodes node) {
    Nodes evicted;
    typename Index::node_type reused;
    // Evicting first keeps the same entries as inserting first would (the
    // new key is absent), and lets the new entry reuse the index node.
    if (capacity_ != 0 && index_.size() >= capacity_) {
      auto last = std::prev(lru_.end());
      reused = index_.extract(std::string_view(last->first));
      evicted.splice(evicted.end(), lru_, last);
    }
    lru_.splice(lru_.begin(), node);
    const std::string_view key = lru_.front().first;
    if (reused) {
      reused.key() = key;
      reused.mapped() = lru_.begin();
      index_.insert(std::move(reused));
    } else {
      index_.emplace(key, lru_.begin());
    }
    return evicted;
  }

  std::size_t size() const { return index_.size(); }
  std::size_t capacity() const { return capacity_; }

  void clear() {
    index_.clear();
    lru_.clear();
  }

 private:
  using Index = std::unordered_map<std::string_view, typename Nodes::iterator>;

  std::size_t capacity_;
  Nodes lru_;  // front = most recently used
  Index index_;
};

}  // namespace qre
