// Tests of the persistent estimate store: the on-disk format (round-trip,
// header validation, per-record checksums), atomic persistence, the
// offline merge/gc tooling, and the engine integration — a restarted
// engine must answer previously seen jobs from the store byte-identically
// with zero raw estimates.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "common/error.hpp"
#include "json/json.hpp"
#include "service/engine.hpp"
#include "store/estimate_store.hpp"
#include "store/format.hpp"
#include "store/store.hpp"
#include "tfactory/factory_cache.hpp"

namespace qre {
namespace {

using store::EstimateStore;
using store::Record;
using store::StoreReader;

/// A scratch directory removed at scope exit.
struct TempDir {
  TempDir() {
    char pattern[] = "/tmp/qre_store_test.XXXXXX";
    const char* made = ::mkdtemp(pattern);
    EXPECT_NE(made, nullptr);
    path = made;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string file(const std::string& name) const { return path + "/" + name; }
  std::string path;
};

std::vector<Record> sample_records(std::size_t n) {
  std::vector<Record> records;
  for (std::size_t i = 0; i < n; ++i) {
    records.push_back({"{\"job\":" + std::to_string(i) + "}",
                       "{\"result\":" + std::to_string(i * 10) + "}"});
  }
  return records;
}

void write_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Rewrites the header CRC after a deliberate header edit, so the edit is
/// reached by the validator instead of tripping the checksum first.
void fix_header_crc(std::string& image) {
  const std::uint32_t crc = store::crc32(std::string_view(image.data(), 56));
  for (int i = 0; i < 4; ++i) {
    image[56 + i] = static_cast<char>((crc >> (8 * i)) & 0xFFu);
  }
}

// ----------------------------------------------------------- primitives ---

TEST(StoreFormat, Crc32MatchesReferenceVector) {
  // The canonical IEEE CRC-32 check value.
  EXPECT_EQ(store::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(store::crc32(""), 0x00000000u);
}

TEST(StoreFormat, FingerprintIsStableAndSpreads) {
  EXPECT_EQ(store::fingerprint("abc"), store::fingerprint("abc"));
  EXPECT_NE(store::fingerprint("abc"), store::fingerprint("abd"));
  EXPECT_NE(store::fingerprint(""), store::fingerprint(std::string_view("\0", 1)));
}

TEST(StoreFormat, IndexSlotCountIsPowerOfTwoAtHalfLoad) {
  EXPECT_EQ(store::index_slot_count(0), 8u);
  EXPECT_EQ(store::index_slot_count(4), 8u);
  EXPECT_EQ(store::index_slot_count(5), 16u);
  EXPECT_EQ(store::index_slot_count(1000), 2048u);
}

// ------------------------------------------------------ file round-trip ---

TEST(StoreFile, RoundTripsRecordsAndLooksUpByKey) {
  TempDir dir;
  const std::string path = dir.file("s.qrestore");
  const std::vector<Record> records = sample_records(25);
  store::write_store_file(path, records);

  StoreReader reader(path);
  EXPECT_EQ(reader.record_count(), 25u);
  for (const Record& r : records) {
    auto found = reader.lookup(r.key);
    ASSERT_TRUE(found.has_value()) << r.key;
    EXPECT_EQ(*found, r.value);
  }
  EXPECT_FALSE(reader.lookup("{\"job\":999}").has_value());
  EXPECT_EQ(reader.corrupt_skipped(), 0u);
}

TEST(StoreFile, ForEachVisitsInsertionOrder) {
  TempDir dir;
  const std::string path = dir.file("s.qrestore");
  store::write_store_file(path, sample_records(10));

  StoreReader reader(path);
  std::vector<std::string> keys;
  EXPECT_EQ(reader.for_each([&](std::string_view key, std::string_view) {
    keys.emplace_back(key);
  }), 0u);
  ASSERT_EQ(keys.size(), 10u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i], "{\"job\":" + std::to_string(i) + "}");
  }
}

TEST(StoreFile, EmptyStoreRoundTrips) {
  TempDir dir;
  const std::string path = dir.file("empty.qrestore");
  store::write_store_file(path, {});
  StoreReader reader(path);
  EXPECT_EQ(reader.record_count(), 0u);
  EXPECT_FALSE(reader.lookup("anything").has_value());
}

// ------------------------------------------------------ header rejection ---

TEST(StoreFile, RejectsBadMagic) {
  TempDir dir;
  std::string image = store::encode_store(sample_records(3));
  image[0] = 'X';
  const std::string path = dir.file("bad_magic.qrestore");
  write_raw(path, image);
  EXPECT_THROW(StoreReader reader(path), Error);
}

TEST(StoreFile, RejectsWrongVersionCleanly) {
  TempDir dir;
  std::string image = store::encode_store(sample_records(3));
  image[8] = 99;  // version field, little-endian low byte
  fix_header_crc(image);
  const std::string path = dir.file("wrong_version.qrestore");
  write_raw(path, image);
  try {
    StoreReader reader(path);
    FAIL() << "wrong version must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(StoreFile, RejectsTruncatedFile) {
  TempDir dir;
  std::string image = store::encode_store(sample_records(5));
  // Mid-payload truncation: header intact but file_size disagrees.
  write_raw(dir.file("truncated.qrestore"), image.substr(0, image.size() - 7));
  EXPECT_THROW(StoreReader r(dir.file("truncated.qrestore")), Error);
  // Shorter than the header itself.
  write_raw(dir.file("stub.qrestore"), image.substr(0, 20));
  EXPECT_THROW(StoreReader r(dir.file("stub.qrestore")), Error);
  // Header CRC flips reject too.
  std::string crc_flip = image;
  crc_flip[17] ^= 0x01;  // record-count field; CRC no longer matches
  write_raw(dir.file("crc.qrestore"), crc_flip);
  EXPECT_THROW(StoreReader r(dir.file("crc.qrestore")), Error);
}

TEST(StoreFile, SkipsRecordWithFlippedPayloadByte) {
  TempDir dir;
  const std::vector<Record> records = sample_records(4);
  std::string image = store::encode_store(records);
  const store::Header header = store::parse_header(image);
  // Flip one byte inside the first record's body: its checksum fails, the
  // other records stay readable, nothing crashes.
  image[header.payload_offset + store::kRecordHeaderSize + 2] ^= 0x40;
  const std::string path = dir.file("flipped.qrestore");
  write_raw(path, image);

  StoreReader reader(path);
  EXPECT_FALSE(reader.lookup(records[0].key).has_value());
  EXPECT_GE(reader.corrupt_skipped(), 1u);
  for (std::size_t i = 1; i < records.size(); ++i) {
    auto found = reader.lookup(records[i].key);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, records[i].value);
  }
  std::size_t visited = 0;
  EXPECT_EQ(reader.for_each([&](std::string_view, std::string_view) { ++visited; }), 1u);
  EXPECT_EQ(visited, 3u);
}

// ------------------------------------------------------- merge and gc ---

TEST(StoreFile, MergeIsLastWinsOnDuplicateKeys) {
  TempDir dir;
  store::write_store_file(dir.file("a"), {{"k1", "old"}, {"k2", "keep"}});
  store::write_store_file(dir.file("b"), {{"k1", "new"}, {"k3", "add"}});
  EXPECT_EQ(store::merge_store_files({dir.file("a"), dir.file("b")}, dir.file("m")), 3u);

  StoreReader reader(dir.file("m"));
  EXPECT_EQ(*reader.lookup("k1"), "new");
  EXPECT_EQ(*reader.lookup("k2"), "keep");
  EXPECT_EQ(*reader.lookup("k3"), "add");
}

TEST(StoreFile, GcDropsOldestRecordsToFitTheBound) {
  TempDir dir;
  const std::string path = dir.file("gc.qrestore");
  store::write_store_file(path, sample_records(50));
  const auto full_size = std::filesystem::file_size(path);

  const std::uint64_t bound = full_size / 2;
  const std::size_t kept = store::gc_store_file(path, path, bound);
  EXPECT_LT(kept, 50u);
  EXPECT_GT(kept, 0u);
  EXPECT_LE(std::filesystem::file_size(path), bound);

  // Newest records survive, oldest go first.
  StoreReader reader(path);
  EXPECT_TRUE(reader.lookup("{\"job\":49}").has_value());
  EXPECT_FALSE(reader.lookup("{\"job\":0}").has_value());
}

TEST(StoreFile, EnsureDirectoryCreatesNestedPaths) {
  TempDir dir;
  const std::string nested = dir.path + "/a/b/c";
  store::ensure_directory(nested);
  EXPECT_TRUE(std::filesystem::is_directory(nested));
  store::ensure_directory(nested);  // idempotent
  // A file in the way is an error, not a silent success.
  write_raw(dir.file("plain"), "x");
  EXPECT_THROW(store::ensure_directory(dir.file("plain")), Error);
}

// ------------------------------------------------- EstimateStore layer ---

TEST(EstimateStoreTest, PersistsAtomicallyAndReloads) {
  TempDir dir;
  EstimateStore first(dir.path);
  EXPECT_FALSE(first.load().file_found);  // cold start, no file yet
  first.record("{\"k\":1}", json::parse("{\"v\":1}"));
  first.record("{\"k\":2}", json::parse("{\"v\":2}"));
  EXPECT_TRUE(first.persist());
  EXPECT_FALSE(first.persist());  // clean: nothing new to write
  EXPECT_TRUE(first.persist(/*force=*/true));

  EstimateStore second(dir.path);
  const store::LoadResult loaded = second.load();
  EXPECT_TRUE(loaded.usable);
  EXPECT_EQ(loaded.records_loaded, 2u);
  EXPECT_EQ(loaded.records_skipped, 0u);
  auto fetched = second.fetch("{\"k\":1}");
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->dump(), "{\"v\":1}");
  EXPECT_EQ(second.hits(), 1u);
}

TEST(EstimateStoreTest, FetchHandsOutTheRecordedBytesWithoutParsing) {
  TempDir dir;
  const json::Value raw = json::Value::raw(R"({"physicalCounts":{"runtime":1.5e+07}})");
  const json::Value tree = json::parse(R"({"v":[1,"x",2.5]})");
  std::string persisted_raw;
  {
    EstimateStore first(dir.path);
    first.record("{\"k\":1}", raw);
    first.record("{\"k\":2}", tree);
    // A raw result is kept as the very bytes it arrived in.
    auto fetched = first.fetch("{\"k\":1}");
    ASSERT_TRUE(fetched.has_value());
    ASSERT_TRUE(fetched->is_raw());
    EXPECT_EQ(fetched->raw_bytes().get(), raw.raw_bytes().get());
    auto from_tree = first.fetch("{\"k\":2}");
    ASSERT_TRUE(from_tree.has_value());
    ASSERT_TRUE(from_tree->is_raw());
    EXPECT_EQ(*from_tree->raw_bytes(), tree.dump());
    ASSERT_TRUE(first.persist());
  }

  // Across a persist/load cycle the bytes come back unchanged, still raw.
  EstimateStore second(dir.path);
  EXPECT_EQ(second.load().records_loaded, 2u);
  auto a = second.fetch("{\"k\":1}");
  auto b = second.fetch("{\"k\":2}");
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  ASSERT_TRUE(a->is_raw());
  ASSERT_TRUE(b->is_raw());
  EXPECT_EQ(*a->raw_bytes(), *raw.raw_bytes());
  EXPECT_EQ(*b->raw_bytes(), tree.dump());
  EXPECT_TRUE(b->materialize() == tree);
  EXPECT_EQ(second.hits(), 2u);
}

TEST(EstimateStoreTest, DamagedFileDegradesToColdStart) {
  TempDir dir;
  write_raw(dir.path + "/" + store::kStoreFileName, "not a store at all");
  EstimateStore s(dir.path);
  const store::LoadResult loaded = s.load();
  EXPECT_TRUE(loaded.file_found);
  EXPECT_FALSE(loaded.usable);
  EXPECT_FALSE(loaded.message.empty());
  EXPECT_EQ(s.stats().records, 0u);
  // The store still works — and the next persist repairs the file.
  s.record("{\"k\":1}", json::parse("{\"v\":1}"));
  EXPECT_TRUE(s.persist());
  StoreReader reader(s.path());
  EXPECT_EQ(reader.record_count(), 1u);
}

TEST(EstimateStoreTest, ErrorDocumentsAreNotPersisted) {
  TempDir dir;
  EstimateStore s(dir.path);
  s.record("{\"bad\":1}", json::parse("{\"error\":{\"code\":\"x\",\"message\":\"y\"}}"));
  s.record("{\"good\":1}", json::parse("{\"v\":1}"));
  EXPECT_EQ(s.stats().records, 1u);
  EXPECT_FALSE(s.fetch("{\"bad\":1}").has_value());
}

TEST(EstimateStoreTest, ConcurrentWritersNeverCorruptTheFile) {
  TempDir dir;
  // Two engines persisting into one directory: each snapshot is complete
  // and atomic, so whichever rename lands last, the file always parses.
  auto writer = [&dir](int id) {
    EstimateStore s(dir.path);
    for (int i = 0; i < 25; ++i) {
      s.record("{\"writer\":" + std::to_string(id) + ",\"i\":" + std::to_string(i) + "}",
               json::parse("{\"v\":" + std::to_string(i) + "}"));
      s.persist(/*force=*/true);
    }
  };
  std::thread a(writer, 1), b(writer, 2);
  a.join();
  b.join();

  StoreReader reader(dir.path + "/" + std::string(store::kStoreFileName));
  EXPECT_GE(reader.record_count(), 25u);
  std::size_t intact = 0;
  EXPECT_EQ(reader.for_each([&](std::string_view, std::string_view) { ++intact; }), 0u);
  EXPECT_EQ(intact, reader.record_count());
}

// ------------------------------------------------- engine integration ---

TEST(EstimateStoreTest, WarmEngineAnswersFromStoreWithZeroComputes) {
  TempDir dir;
  std::vector<json::Value> items;
  for (int i = 0; i < 6; ++i) {
    items.push_back(json::parse("{\"job\":" + std::to_string(i) + "}"));
  }
  std::atomic<int> computes{0};
  const service::JobRunner runner = [&computes](const json::Value& job) {
    computes.fetch_add(1);
    json::Object out;
    out.emplace_back("echo", job);
    return json::Value(std::move(out));
  };

  std::string cold_dump;
  {
    EstimateStore s(dir.path);
    s.load();
    service::Engine engine;
    engine.set_store(&s);
    json::Array results = service::run_batch(items, runner, engine.options());
    cold_dump = json::Value(results).dump();
    EXPECT_EQ(computes.load(), 6);
    EXPECT_TRUE(s.persist());
  }

  // "Restart": a fresh engine and a fresh store object over the same dir.
  computes.store(0);
  EstimateStore s(dir.path);
  EXPECT_EQ(s.load().records_loaded, 6u);
  service::Engine engine;
  engine.set_store(&s);
  json::Array results = service::run_batch(items, runner, engine.options());
  EXPECT_EQ(computes.load(), 0);  // zero raw computes after the restart
  EXPECT_EQ(s.hits(), 6u);
  EXPECT_EQ(json::Value(results).dump(), cold_dump);  // byte-identical
}

TEST(EstimateStoreTest, RealEstimateReplaysByteIdenticallyAcrossRestart) {
  TempDir dir;
  const json::Value job = json::parse(R"({
    "schemaVersion": 2,
    "logicalCounts": {"numQubits": 12, "tCount": 2000},
    "qubitParams": {"name": "qubit_gate_ns_e3"},
    "errorBudget": 0.01
  })");
  api::Registry registry = api::Registry::with_builtins();
  api::EstimateRequest request = api::EstimateRequest::parse(job, registry);
  ASSERT_TRUE(request.ok());

  std::string cold_dump;
  {
    EstimateStore s(dir.path);
    s.load();
    service::Engine engine;
    engine.set_store(&s);
    api::EstimateResponse cold = api::run(request, engine.options(), registry);
    ASSERT_TRUE(cold.success);
    cold_dump = cold.result.dump();
    s.persist();
  }

  // The factory cache is process-global, so clear it: if the warm run
  // were to estimate anything raw, it would have to repopulate it.
  FactoryCache::global().clear();
  EstimateStore s(dir.path);
  EXPECT_EQ(s.load().records_loaded, 1u);
  service::Engine engine;
  engine.set_store(&s);
  api::EstimateResponse warm = api::run(request, engine.options(), registry);
  ASSERT_TRUE(warm.success);
  EXPECT_EQ(warm.result.dump(), cold_dump);          // byte-identical replay
  EXPECT_EQ(s.hits(), 1u);
  EXPECT_EQ(FactoryCache::global().misses(), 0u);    // zero raw estimates
}

}  // namespace
}  // namespace qre
