#include "store/estimate_store.hpp"

#include <cstdio>
#include <utility>

#include "common/error.hpp"
#include "common/failpoint.hpp"

namespace qre::store {

namespace {

/// Error documents ({"error": {...}} results of failed batch items) are
/// deterministic but registry-shaped and cheap to recompute; keeping them
/// out of the store means a persisted corpus only ever contains real
/// estimates.
bool is_error_document(const json::Value& result) {
  return result.is_object() && result.find("error") != nullptr;
}

}  // namespace

EstimateStore::EstimateStore(const std::string& dir)
    : path_(dir + "/" + kStoreFileName) {}

LoadResult EstimateStore::load() {
  LoadResult result;
  std::vector<Record> from_disk;
  try {
    // Injected open/read faults degrade to the cold-start path below, the
    // same way a rejected or unreadable file does.
    QRE_FAILPOINT("store.open.before_read");
    result.records_skipped = read_store_records(path_, from_disk);
    result.file_found = true;
    result.usable = true;
  } catch (const Error& e) {
    // Missing file or unusable header: either way, a cold start. errno-
    // style "cannot open" is the missing-file case; everything else means
    // the file existed but was rejected (bad magic / version / truncation).
    result.message = e.what();
    result.file_found = result.message.find("cannot open") == std::string::npos;
    MutexLock lock(mutex_);
    last_load_ = result;
    return result;
  }

  MutexLock lock(mutex_);
  for (Record& r : from_disk) {
    if (index_.count(r.key) != 0) continue;  // in-memory entries win
    payload_bytes_ += kRecordHeaderSize + r.key.size() + r.value.size();
    index_.emplace(r.key, records_.size());
    records_.push_back(
        {std::move(r.key), std::make_shared<const std::string>(std::move(r.value))});
    ++result.records_loaded;
  }
  last_load_ = result;
  return result;
}

std::optional<json::Value> EstimateStore::fetch(const std::string& key) {
  MutexLock lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return json::Value::raw(records_[it->second].value);
}

void EstimateStore::record(const std::string& key, const json::Value& result) {
  if (is_error_document(result)) return;
  std::shared_ptr<const std::string> value;
  try {
    value = result.is_raw() ? result.raw_bytes()
                            : std::make_shared<const std::string>(result.dump());
  } catch (const std::exception&) {
    return;  // un-serializable results are simply not persisted
  }
  MutexLock lock(mutex_);
  if (index_.count(key) != 0) return;  // deterministic: first write is final
  payload_bytes_ += kRecordHeaderSize + key.size() + value->size();
  index_.emplace(key, records_.size());
  records_.push_back({key, std::move(value)});
  ++dirty_adds_;
}

bool EstimateStore::persist(bool force) {
  // One persist at a time per process; snapshot under the data lock, write
  // outside it so serving threads never wait on disk I/O.
  MutexLock persist_lock(persist_mutex_);
  std::vector<Entry> snapshot;
  std::size_t adds_at_snapshot;
  {
    MutexLock lock(mutex_);
    if (dirty_adds_ == 0 && !force) return false;
    snapshot = records_;  // shares the value bytes
    adds_at_snapshot = dirty_adds_;
  }
  try {
    std::vector<Record> records;
    records.reserve(snapshot.size());
    for (const Entry& e : snapshot) records.push_back({e.key, *e.value});
    write_store_file(path_, records);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "store: persist to '%s' failed: %s\n", path_.c_str(), e.what());
    return false;
  }
  MutexLock lock(mutex_);
  dirty_adds_ -= adds_at_snapshot;
  ++persists_;
  return true;
}

EstimateStore::Stats EstimateStore::stats() const {
  MutexLock lock(mutex_);
  return {hits_, misses_, records_.size(), payload_bytes_, last_load_.records_loaded,
          last_load_.records_skipped, persists_, path_};
}

std::uint64_t EstimateStore::hits() const {
  MutexLock lock(mutex_);
  return hits_;
}

}  // namespace qre::store
