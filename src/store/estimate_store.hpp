// Persistent estimate store (top layer): the object an engine serves from.
//
// EstimateStore owns the in-memory mirror of one on-disk store file
// (`<dir>/estimates.qrestore`) and implements service::StoreBacking, so a
// service::Engine wired to it answers previously seen jobs from disk after
// a process restart — byte-identically, because values are the canonical
// compact dumps of the exact result documents. Each value is held as shared
// bytes: fetch() hands out a raw json::Value leaf sharing them (no parse),
// and record() of a raw leaf keeps its bytes without re-serializing.
//
// Lifecycle:
//   EstimateStore store(dir);
//   store.load();          // prewarm: merge the existing file, if usable
//   engine.set_store(&store);
//   ... serve ...
//   store.persist();       // atomic snapshot (periodic and/or on drain)
//
// load() never fails the process: a missing file is a cold start, a file
// with an unusable header (bad magic, wrong version, truncation) is a
// logged cold start, and individually corrupt records are skipped and
// counted. persist() writes the complete current map through the atomic
// temp-and-rename path, so two processes persisting into one directory
// race only on whole-file snapshots.
//
// Stores are registry-dependent the same way the in-memory cache is: keys
// cover job documents only, so reuse a --cache-dir only with the same
// profile packs the store was written under (docs/store.md).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "json/json.hpp"
#include "service/cache.hpp"
#include "store/store.hpp"

namespace qre::store {

/// Outcome of a load() prewarm, for logging and /metrics.
struct LoadResult {
  bool file_found = false;     // a store file existed at the path
  bool usable = false;         // ... and had a valid header
  std::size_t records_loaded = 0;
  std::size_t records_skipped = 0;  // per-record corruption
  std::string message;         // human-readable reason when !usable
};

class EstimateStore : public service::StoreBacking {
 public:
  /// `dir` must already exist; the store file lives at dir/estimates.qrestore.
  explicit EstimateStore(const std::string& dir);

  const std::string& path() const { return path_; }

  /// Prewarms the in-memory map from the store file. Safe to call on a
  /// missing or damaged file — both degrade to a cold start described by
  /// the returned LoadResult. Existing in-memory entries win over loaded
  /// ones (load after construction is the expected order).
  LoadResult load();

  // service::StoreBacking — read-through / write-through (never throws).
  std::optional<json::Value> fetch(const std::string& key) override;
  void record(const std::string& key, const json::Value& result) override;

  /// Atomically writes the current map when it changed since the last
  /// persist (or `force`). Returns whether a file was written. I/O
  /// failures are reported by returning false, never by throwing: a
  /// persistence problem must not take down serving.
  bool persist(bool force = false);

  /// Store counters, read under one lock — the /metrics and --cache-stats
  /// "store" section.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t records = 0;
    std::uint64_t payload_bytes = 0;
    std::uint64_t loaded = 0;        // records loaded by the last load()
    std::uint64_t load_skipped = 0;  // corrupt records the last load() skipped
    std::uint64_t persists = 0;
    std::string path;
  };
  Stats stats() const;

  std::uint64_t hits() const;

 private:
  /// A record whose value bytes are shared with the raw leaves handed out.
  struct Entry {
    std::string key;
    std::shared_ptr<const std::string> value;
  };

  const std::string path_;

  mutable Mutex mutex_;
  // insertion order (oldest first)
  std::vector<Entry> records_ QRE_GUARDED_BY(mutex_);
  // key -> records_ position
  std::unordered_map<std::string, std::size_t> index_ QRE_GUARDED_BY(mutex_);
  // adds since the last successful persist
  std::size_t dirty_adds_ QRE_GUARDED_BY(mutex_) = 0;
  std::uint64_t hits_ QRE_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ QRE_GUARDED_BY(mutex_) = 0;
  std::uint64_t payload_bytes_ QRE_GUARDED_BY(mutex_) = 0;
  std::uint64_t persists_ QRE_GUARDED_BY(mutex_) = 0;
  LoadResult last_load_ QRE_GUARDED_BY(mutex_);

  // Serializes in-process persist() calls; always acquired before mutex_.
  Mutex persist_mutex_ QRE_ACQUIRED_BEFORE(mutex_);
};

}  // namespace qre::store
