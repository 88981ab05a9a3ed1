// Memoized estimation results (service layer).
//
// Requests routinely revisit the same input: a serving client repeats its
// single estimates, frontier probes share their base configuration, and
// "items" batches and repeated or overlapping sweeps duplicate whole items.
// The cache keys results by a canonical serialization of the resolved job
// document so each such input is estimated once while its entry stays
// resident.
//
// The cache is concurrency-safe and deduplicates in-flight work: when two
// workers request the same key simultaneously, one computes and the other
// waits on a shared future. Failed computations are cached as exceptions —
// an infeasible input is deterministic, so its error is as memoizable as a
// successful estimate.
//
// Not every path fills it on a first miss. Single estimates, "items"
// batches and frontier probes insert every miss (CacheFill::kOnMiss). The
// points of a planned sweep may each be seen only once, so a sweep inserts
// a point only when it misses it again (CacheFill::kOnRepeat): each shard
// remembers the hashes of its recent first misses, as many as it holds
// entries, in small sets that forget their oldest first. A point seen once
// fills only the persistent store; a repeated sweep, or a point repeated
// within one, is cached from its second miss on and hits from its third
// lookup. So a stream of fresh grid points neither evicts what other
// requests reuse nor pays for entries nobody reads, while repeated sweeps
// are cached, decided per key from the lookups the cache sees.
//
// Capacity is bounded: entries beyond `capacity` are evicted least-recently
// -used first per shard, so a long-running sweep service cannot grow
// without limit. The cache is split by key hash into shards, each with its
// own mutex, LRU list and counters on its own cache line, so the workers
// of a sweep do not all write one lock and one list. The shard count
// follows from the capacity: one shard below kShardedCapacity (1024)
// entries, so a small cache keeps exact LRU order, and kNumShards (16)
// from there and when unbounded, the capacity split evenly between them
// (4096 by default: 256 per shard). A full shard evicts its own least
// recently used entry, even while another shard has room. Evicting an
// in-flight entry is safe — waiters hold their own copy of the shared
// future — it merely allows the same key to be recomputed later.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/lru_map.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "json/json.hpp"

namespace qre::service {

/// Canonical cache key for a job document: a compact dump with all object
/// keys recursively sorted, so field order in the source JSON does not
/// affect identity.
std::string canonical_key(const json::Value& job);

/// Second-level backing behind an EstimateCache — the seam the persistent
/// estimate store (store/estimate_store.hpp) plugs into. On an in-memory
/// miss the cache consults fetch() before computing (read-through) and
/// reports freshly computed results to record() (write-through), always
/// from the thread that missed, outside the cache lock: the single owner
/// of the key, except that concurrent first misses of a CacheFill::kOnRepeat
/// key each fetch and may each record.
/// Implementations must be concurrency-safe across keys and must not
/// throw: a failing backing degrades to a plain miss, never a failed
/// lookup.
class StoreBacking {
 public:
  virtual ~StoreBacking() = default;
  /// Returns the stored result document for `key`, or nullopt.
  virtual std::optional<json::Value> fetch(const std::string& key) = 0;
  /// Observes a freshly computed result for `key`.
  virtual void record(const std::string& key, const json::Value& result) = 0;
};

/// Lookup counts one caller's get_or_compute calls added: the request-local
/// tally behind batchStats, which the process-wide counters cannot give
/// once other requests share the cache.
struct LookupCounts {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Entries the caller's own inserts pushed out.
  std::uint64_t evictions = 0;

  LookupCounts& operator+=(const LookupCounts& other) {
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    return *this;
  }
};

/// When a lookup that misses inserts its key into the in-memory LRU. Every
/// miss reads and writes through the store either way.
enum class CacheFill {
  /// On every miss: the miss inserts an in-flight entry that concurrent
  /// and later lookups of the key share.
  kOnMiss,
  /// On a repeated miss: a key's first miss only notes its hash and
  /// computes without inserting anything (no entry, no key copy, no
  /// eviction); a miss of a key noted since, and not yet forgotten,
  /// inserts as kOnMiss does. For keys that are mostly seen once, such as
  /// the points of a sweep grid.
  kOnRepeat,
};

/// Concurrency-safe, LRU-bounded (per shard) memoization table from
/// canonical job keys to result documents. Estimate results arrive as raw
/// leaves (see api::run), so a hit is a reference-count copy of the bytes
/// and an eviction frees one string.
class EstimateCache {
 public:
  using Compute = std::function<json::Value()>;

  /// Default entry bound: generous for interactive sweeps (a Figure 4 grid
  /// is 66 entries) while keeping a runaway service's footprint finite.
  static constexpr std::size_t kDefaultCapacity = 4096;
  /// The smallest bounded capacity that is sharded (see the file comment).
  static constexpr std::size_t kShardedCapacity = 1024;
  /// Shards of a sharded cache.
  static constexpr std::size_t kNumShards = 16;

  /// `capacity` == 0 means unbounded.
  explicit EstimateCache(std::size_t capacity = kDefaultCapacity);

  /// Returns the result for `key`, invoking `compute` only if no other
  /// caller has. Concurrent callers with the same key block on the single
  /// computation. If `compute` throws, the exception is cached and
  /// rethrown to every caller of this key. When `counts` is non-null this
  /// call's hit, or miss and evictions, are added to it before `compute`
  /// runs, so they are counted even when the lookup throws. With
  /// CacheFill::kOnRepeat the first miss of a key computes without
  /// inserting (see CacheFill): concurrent callers of that key each
  /// compute, and nothing is memoized in memory or evicted.
  json::Value get_or_compute(const std::string& key, const Compute& compute,
                             LookupCounts* counts = nullptr,
                             CacheFill fill = CacheFill::kOnMiss);

  /// Attaches (or detaches, with nullptr) the second-level store. Follows
  /// the registry discipline: wire the backing before traffic starts; it
  /// is read concurrently and without synchronization afterwards. The
  /// backing is not owned and must outlive the cache's last lookup.
  void set_backing(StoreBacking* backing) { backing_ = backing; }

  /// Lookups that found an existing (or in-flight) entry.
  std::uint64_t hits() const { return total(&Shard::hits); }
  /// Lookups that had to compute.
  std::uint64_t misses() const { return total(&Shard::misses); }
  /// Entries dropped to keep the cache within capacity.
  std::uint64_t evictions() const { return total(&Shard::evictions); }
  /// Number of distinct keys stored.
  std::size_t size() const;
  /// Maximum number of entries retained (0 = unbounded).
  std::size_t capacity() const { return capacity_; }

  void clear();

 private:
  /// Noted first misses of an unbounded shard.
  static constexpr std::size_t kUnboundedFirstMisses = kDefaultCapacity / kNumShards;
  /// Slots per set of noted first misses.
  static constexpr std::size_t kNoteWays = 4;

  /// One key-hash slice of the cache, alone on its cache line(s).
  struct alignas(64) Shard {
    explicit Shard(std::size_t capacity)
        : entries(capacity), first_misses(capacity == 0 ? kUnboundedFirstMisses : capacity) {}

    /// Notes a kOnRepeat miss of the key hashing to `hash`: true when the
    /// key's hash is still noted from an earlier miss, false (and noted
    /// now, pushing out the oldest note of its set) when it is not.
    bool noted_before(std::uint64_t hash) QRE_REQUIRES(mutex);

    Mutex mutex;
    LruMap<std::shared_future<json::Value>> entries QRE_GUARDED_BY(mutex);
    /// Hashes of recent first misses, one per slot, in sets of kNoteWays
    /// slots indexed by hash; 0 is an empty slot.
    std::vector<std::uint64_t> first_misses QRE_GUARDED_BY(mutex);
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> evictions{0};
  };

  Shard& shard_for(std::uint64_t hash) const;
  /// A miss's result: the store's record of `key`, or `compute()` written
  /// through to the store.
  json::Value fetch_or_compute(const std::string& key, const Compute& compute);
  /// `counter` summed over the shards.
  std::uint64_t total(std::atomic<std::uint64_t> Shard::*counter) const;

  std::size_t capacity_;
  // Deliberately unguarded: wired before traffic starts (see set_backing)
  // and read-only afterwards, like the registry's registration contract.
  StoreBacking* backing_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace qre::service
