// Tests of the concurrent sweep engine (service layer): sweep-grid
// expansion, the memoization cache, the worker pool, and the api::run
// integration — including parallel-vs-serial equivalence on a Figure 4
// style batch.
#include <gtest/gtest.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "common/error.hpp"
#include "service/cache.hpp"
#include "service/engine.hpp"
#include "service/sweep.hpp"
#include "tests/run_request.hpp"

namespace qre {
namespace {

using service::BatchStats;
using service::EngineOptions;
using service::EstimateCache;
using service::SweepAxis;

// ---------------------------------------------------------------- sweep ---

TEST(Sweep, AxesParseArraysAndRanges) {
  json::Value sweep = json::parse(R"({
    "qubitParams": [{"name": "qubit_gate_ns_e3"}, {"name": "qubit_maj_ns_e4"}],
    "errorBudget": {"start": 1e-4, "stop": 1e-2, "steps": 3, "scale": "log"},
    "constraints.maxTFactories": {"start": 1, "stop": 16, "steps": 4}
  })");
  std::vector<SweepAxis> axes = service::sweep_axes(sweep);
  ASSERT_EQ(axes.size(), 3u);

  EXPECT_EQ(axes[0].path, "qubitParams");
  ASSERT_EQ(axes[0].values.size(), 2u);
  EXPECT_EQ(axes[0].values[1].at("name").as_string(), "qubit_maj_ns_e4");

  // Log range hits the decades exactly.
  ASSERT_EQ(axes[1].values.size(), 3u);
  EXPECT_NEAR(axes[1].values[0].as_double(), 1e-4, 1e-12);
  EXPECT_NEAR(axes[1].values[1].as_double(), 1e-3, 1e-11);
  EXPECT_NEAR(axes[1].values[2].as_double(), 1e-2, 1e-10);

  // Linear integer range stays integer-typed.
  ASSERT_EQ(axes[2].values.size(), 4u);
  EXPECT_EQ(axes[2].values[0].as_int(), 1);
  EXPECT_EQ(axes[2].values[1].as_int(), 6);
  EXPECT_EQ(axes[2].values[2].as_int(), 11);
  EXPECT_EQ(axes[2].values[3].as_int(), 16);
  EXPECT_EQ(axes[2].values[3].dump(), "16");  // no trailing ".0"
}

TEST(Sweep, LinearGridErrorSnapsToIntegers) {
  // 1 + (9/33)*99 = 27.999999999999996 in doubles: grid arithmetic must not
  // demote integer-typed fields (factory caps, code distances) to doubles.
  json::Value sweep =
      json::parse(R"({"constraints.maxTFactories": {"start": 1, "stop": 100, "steps": 34}})");
  std::vector<SweepAxis> axes = service::sweep_axes(sweep);
  ASSERT_EQ(axes[0].values.size(), 34u);
  EXPECT_EQ(axes[0].values[9].as_int(), 28);
  EXPECT_EQ(axes[0].values[9].dump(), "28");
  // Genuinely fractional values stay doubles, however small.
  json::Value tiny = json::parse(R"({"errorBudget": {"start": 1e-10, "stop": 3e-10, "steps": 3}})");
  EXPECT_DOUBLE_EQ(service::sweep_axes(tiny)[0].values[1].as_double(), 2e-10);
  EXPECT_NE(service::sweep_axes(tiny)[0].values[1].dump(), "0");
}

TEST(Sweep, OversizedRangeAxisThrowsBeforeAllocating) {
  json::Value sweep =
      json::parse(R"({"a": {"start": 0, "stop": 1, "steps": 4000000000000}})");
  EXPECT_THROW(service::sweep_axes(sweep), Error);
}

TEST(Sweep, MalformedAxesThrow) {
  EXPECT_THROW(service::sweep_axes(json::parse(R"({})")), Error);
  EXPECT_THROW(service::sweep_axes(json::parse(R"({"errorBudget": []})")), Error);
  EXPECT_THROW(service::sweep_axes(json::parse(R"({"errorBudget": 3})")), Error);
  EXPECT_THROW(
      service::sweep_axes(json::parse(R"({"a": {"start": 1, "stop": 2, "steps": 0}})")),
      Error);
  EXPECT_THROW(service::sweep_axes(json::parse(
                   R"({"a": {"start": 0, "stop": 2, "steps": 2, "scale": "log"}})")),
               Error);
  EXPECT_THROW(service::sweep_axes(json::parse(
                   R"({"a": {"start": 1, "stop": 2, "steps": 2, "stepz": 3}})")),
               Error);
}

TEST(Sweep, ExpandCountsOrderingAndInheritance) {
  json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 10, "tCount": 100},
    "errorBudget": 0.001,
    "sweep": {
      "qubitParams": [{"name": "qubit_gate_ns_e3"}, {"name": "qubit_maj_ns_e4"}],
      "errorBudget": [0.01, 0.001, 0.0001]
    }
  })");
  std::vector<json::Value> items = service::expand_sweep(job);
  ASSERT_EQ(items.size(), 6u);  // 2 x 3 cartesian grid

  // Row-major: first axis slowest, second fastest.
  EXPECT_EQ(items[0].at("qubitParams").at("name").as_string(), "qubit_gate_ns_e3");
  EXPECT_DOUBLE_EQ(items[0].at("errorBudget").as_double(), 0.01);
  EXPECT_DOUBLE_EQ(items[1].at("errorBudget").as_double(), 0.001);
  EXPECT_DOUBLE_EQ(items[2].at("errorBudget").as_double(), 0.0001);
  EXPECT_EQ(items[3].at("qubitParams").at("name").as_string(), "qubit_maj_ns_e4");
  EXPECT_DOUBLE_EQ(items[3].at("errorBudget").as_double(), 0.01);

  for (const json::Value& item : items) {
    // Non-swept base fields are inherited; the sweep spec itself is gone.
    EXPECT_EQ(item.at("logicalCounts").at("numQubits").as_uint(), 10u);
    EXPECT_EQ(item.find("sweep"), nullptr);
  }
}

TEST(Sweep, DottedPathPreservesSiblingFields) {
  json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 10, "tCount": 100},
    "constraints": {"logicalDepthFactor": 2},
    "sweep": {"constraints.maxTFactories": [1, 2]}
  })");
  std::vector<json::Value> items = service::expand_sweep(job);
  ASSERT_EQ(items.size(), 2u);
  // The swept leaf is set, and the base's sibling constraint survives —
  // a shallow item override would have clobbered it.
  EXPECT_EQ(items[0].at("constraints").at("maxTFactories").as_uint(), 1u);
  EXPECT_EQ(items[1].at("constraints").at("maxTFactories").as_uint(), 2u);
  EXPECT_DOUBLE_EQ(items[0].at("constraints").at("logicalDepthFactor").as_double(), 2.0);
}

TEST(Sweep, RangeEndpointsAreBitExactCacheKeys) {
  // Regression: ranged axes used to compute every grid value from the
  // interpolation formula, including the endpoints. For these constants
  // `start * pow(stop / start, 1.0)` (and the linear analogue
  // `start + 1.0 * (stop - start)`) lands one ulp off `stop`, so a range
  // and an explicit array over the same endpoints produced different
  // canonical cache keys — and therefore duplicate persistent-store rows
  // for what the user wrote as one grid point. Endpoints are now clamped
  // to the literal start/stop values.
  json::Value log_sweep = json::parse(R"({
    "errorBudget": {"start": 2e-4, "stop": 1.3e-2, "steps": 5, "scale": "log"}
  })");
  std::vector<SweepAxis> log_axes = service::sweep_axes(log_sweep);
  ASSERT_EQ(log_axes[0].values.size(), 5u);
  EXPECT_EQ(log_axes[0].values.front().dump(), json::parse("2e-4").dump());
  EXPECT_EQ(log_axes[0].values.back().dump(), json::parse("1.3e-2").dump());

  json::Value lin_sweep = json::parse(R"({
    "errorBudget": {"start": 0.0031271755102623604, "stop": 0.011773058992986281,
                    "steps": 3}
  })");
  std::vector<SweepAxis> lin_axes = service::sweep_axes(lin_sweep);
  ASSERT_EQ(lin_axes[0].values.size(), 3u);
  EXPECT_EQ(lin_axes[0].values.back().dump(),
            json::parse("0.011773058992986281").dump());

  // The cache-key level consequence: the last item of a ranged sweep must
  // key identically to an item built from the explicit stop value.
  json::Value ranged_job = json::parse(R"({
    "logicalCounts": {"numQubits": 10, "tCount": 100},
    "sweep": {"errorBudget": {"start": 2e-4, "stop": 1.3e-2, "steps": 5,
                              "scale": "log"}}
  })");
  json::Value explicit_job = json::parse(R"({
    "logicalCounts": {"numQubits": 10, "tCount": 100},
    "sweep": {"errorBudget": [2e-4, 1.3e-2]}
  })");
  std::vector<json::Value> ranged = service::expand_sweep(ranged_job);
  std::vector<json::Value> exact = service::expand_sweep(explicit_job);
  ASSERT_EQ(ranged.size(), 5u);
  ASSERT_EQ(exact.size(), 2u);
  EXPECT_EQ(service::canonical_key(ranged.front()), service::canonical_key(exact.front()));
  EXPECT_EQ(service::canonical_key(ranged.back()), service::canonical_key(exact.back()));
}

TEST(Sweep, DottedPathThroughNonObjectThrows) {
  // Regression: set_path used to silently replace an existing non-object
  // field with a fresh object, so a mistyped axis path clobbered the
  // base value instead of failing.
  json::Value root = json::parse(R"({"constraints": 5})");
  try {
    service::set_path(root, "constraints.maxTFactories", json::Value(1.0));
    FAIL() << "expected set_path to throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("constraints.maxTFactories"), std::string::npos) << what;
    EXPECT_NE(what.find("not an object"), std::string::npos) << what;
  }
  // The base document is untouched by the failed descent.
  EXPECT_EQ(root.at("constraints").dump(), "5");

  json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 10, "tCount": 100},
    "constraints": 5,
    "sweep": {"constraints.maxTFactories": [1, 2]}
  })");
  EXPECT_THROW(service::expand_sweep(job), Error);
}

TEST(Sweep, GridSizeCap) {
  json::Value job = json::parse(R"({
    "sweep": {
      "a": {"start": 1, "stop": 100, "steps": 100},
      "b": {"start": 1, "stop": 100, "steps": 100}
    }
  })");
  EXPECT_THROW(service::expand_sweep(job, 9999), Error);
  EXPECT_EQ(service::expand_sweep(job, 10000).size(), 10000u);
}

// ---------------------------------------------------------------- cache ---

TEST(Cache, CanonicalKeyIgnoresFieldOrder) {
  json::Value a = json::parse(R"({"x": 1, "y": {"b": 2, "a": [1, 2]}})");
  json::Value b = json::parse(R"({"y": {"a": [1, 2], "b": 2}, "x": 1})");
  json::Value c = json::parse(R"({"x": 1, "y": {"b": 2, "a": [2, 1]}})");
  EXPECT_EQ(service::canonical_key(a), service::canonical_key(b));
  EXPECT_NE(service::canonical_key(a), service::canonical_key(c));  // arrays are ordered
}

TEST(Cache, ComputesEachKeyOnce) {
  EstimateCache cache;
  std::atomic<int> calls{0};
  auto compute = [&] {
    calls.fetch_add(1);
    return json::Value(static_cast<std::int64_t>(42));
  };
  EXPECT_EQ(cache.get_or_compute("k1", compute).as_int(), 42);
  EXPECT_EQ(cache.get_or_compute("k1", compute).as_int(), 42);
  EXPECT_EQ(cache.get_or_compute("k2", compute).as_int(), 42);
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(Cache, ReplaysFailuresWithoutRecomputing) {
  EstimateCache cache;
  std::atomic<int> calls{0};
  auto failing = [&]() -> json::Value {
    calls.fetch_add(1);
    throw Error("infeasible");
  };
  EXPECT_THROW(cache.get_or_compute("bad", failing), Error);
  EXPECT_THROW(cache.get_or_compute("bad", failing), Error);
  EXPECT_EQ(calls.load(), 1);
}

TEST(Cache, HitsShareTheComputedBytes) {
  EstimateCache cache;
  const json::Value computed = json::Value::raw(R"({"physicalCounts":{"physicalQubits":7}})");
  int calls = 0;
  const json::Value miss = cache.get_or_compute("k", [&] {
    ++calls;
    return computed;
  });
  const json::Value hit =
      cache.get_or_compute("k", []() -> json::Value { throw Error("recomputed"); });
  EXPECT_EQ(calls, 1);
  // Neither the owner's return nor a hit copies or re-serializes: both hand
  // out the very bytes the computation produced.
  ASSERT_TRUE(miss.is_raw());
  ASSERT_TRUE(hit.is_raw());
  EXPECT_EQ(miss.raw_bytes().get(), computed.raw_bytes().get());
  EXPECT_EQ(hit.raw_bytes().get(), computed.raw_bytes().get());
}

TEST(Cache, LookupCountsAreTheCallersOwn) {
  EstimateCache cache(1);
  auto value = [] { return json::Value(1); };
  service::LookupCounts mine;
  cache.get_or_compute("a", value, &mine);
  cache.get_or_compute("a", value, &mine);
  cache.get_or_compute("b", value);  // another caller: evicts "a", not counted here
  cache.get_or_compute("a", value, &mine);  // evicts "b"
  EXPECT_THROW(cache.get_or_compute("c", []() -> json::Value { throw Error("infeasible"); },
                                    &mine),
               Error);  // a failing miss still counts, with its eviction
  EXPECT_EQ(mine.hits, 1u);
  EXPECT_EQ(mine.misses, 3u);
  EXPECT_EQ(mine.evictions, 2u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.evictions(), 3u);
}

TEST(Cache, RepeatFillInsertsAKeyFromItsSecondMiss) {
  EstimateCache cache(2);
  int calls = 0;
  auto compute = [&] { return json::Value(++calls); };
  cache.get_or_compute("resident", compute);
  service::LookupCounts mine;
  const auto on_repeat = service::CacheFill::kOnRepeat;
  EXPECT_EQ(cache.get_or_compute("resident", compute, &mine, on_repeat).as_int(), 1);
  // A first miss computes and inserts nothing; the second inserts, so the
  // third lookup hits what the second computed.
  EXPECT_EQ(cache.get_or_compute("new", compute, &mine, on_repeat).as_int(), 2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.get_or_compute("new", compute, &mine, on_repeat).as_int(), 3);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.get_or_compute("new", compute, &mine, on_repeat).as_int(), 3);
  EXPECT_EQ(mine.hits, 2u);
  EXPECT_EQ(mine.misses, 2u);
  EXPECT_EQ(mine.evictions, 0u);
  EXPECT_EQ(cache.evictions(), 0u);
  // clear() forgets noted misses with the entries.
  cache.clear();
  cache.get_or_compute("noted", compute, nullptr, on_repeat);
  cache.clear();
  cache.get_or_compute("noted", compute, nullptr, on_repeat);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(Cache, RepeatFillRemembersAsManyFirstMissesAsItHoldsEntries) {
  // One entry, so one noted miss: a first miss of another key overwrites
  // it, and the forgotten key's next miss is a first miss again.
  EstimateCache cache(1);
  int calls = 0;
  auto compute = [&] { return json::Value(++calls); };
  const auto on_repeat = service::CacheFill::kOnRepeat;
  cache.get_or_compute("a", compute, nullptr, on_repeat);
  cache.get_or_compute("b", compute, nullptr, on_repeat);
  cache.get_or_compute("a", compute, nullptr, on_repeat);
  EXPECT_EQ(cache.size(), 0u);
  cache.get_or_compute("a", compute, nullptr, on_repeat);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(cache.misses(), 4u);
}

TEST(Cache, RepeatFillRemembersKeysThatShareASet) {
  // Four entries, so one set of four noted misses: four keys are all
  // remembered whatever their hashes, and each one's second miss inserts.
  EstimateCache cache(4);
  int calls = 0;
  auto compute = [&] { return json::Value(++calls); };
  const auto on_repeat = service::CacheFill::kOnRepeat;
  const std::vector<std::string> keys = {"k0", "k1", "k2", "k3"};
  for (int round = 0; round < 3; ++round) {
    for (const std::string& key : keys) cache.get_or_compute(key, compute, nullptr, on_repeat);
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(calls, 8);
  EXPECT_EQ(cache.hits(), 4u);
}

// A default-capacity cache is split into shards: concurrent traffic over
// three times its capacity keeps it bounded and every lookup accounted for,
// and concurrent callers of one key still compute it once.
TEST(Cache, ShardedCacheStaysBoundedAndCountsEveryLookup) {
  EstimateCache cache;
  ASSERT_EQ(cache.capacity(), 4096u);
  constexpr std::size_t kThreads = 4;
  const std::size_t num_keys = 3 * cache.capacity();
  std::atomic<std::uint64_t> computes{0};
  std::atomic<std::uint64_t> wrong_values{0};
  std::vector<service::LookupCounts> counts(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Every thread walks every key, from its own offset, and looks each
      // one up twice in a row: the second lookup is a hit unless the other
      // threads pushed the key out of its shard in between.
      for (std::size_t i = 0; i < 2 * num_keys; ++i) {
        const std::size_t k = (i / 2 + t * num_keys / kThreads) % num_keys;
        const json::Value v = cache.get_or_compute(
            "key-" + std::to_string(k),
            [&] {
              computes.fetch_add(1);
              return json::Value(static_cast<std::uint64_t>(k));
            },
            &counts[t]);
        if (v.as_uint() != k) wrong_values.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  service::LookupCounts total;
  for (const service::LookupCounts& c : counts) total += c;
  EXPECT_EQ(wrong_values.load(), 0u);
  EXPECT_LE(cache.size(), cache.capacity());
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_EQ(cache.hits() + cache.misses(), 2 * kThreads * num_keys);
  EXPECT_EQ(total.hits, cache.hits());
  EXPECT_EQ(total.misses, cache.misses());
  EXPECT_EQ(total.evictions, cache.evictions());
  EXPECT_EQ(computes.load(), cache.misses());
  // Every miss inserted one entry, which is still there or was evicted.
  EXPECT_EQ(cache.misses() - cache.evictions(), cache.size());

  // Concurrent callers of one key compute it once, on every shard.
  constexpr std::size_t kHotKeys = 64;
  std::atomic<std::uint64_t> hot_computes{0};
  std::atomic<std::size_t> ready{0};
  threads.clear();
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (std::size_t k = 0; k < kHotKeys; ++k) {
        cache.get_or_compute("hot-" + std::to_string(k), [&] {
          hot_computes.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          return json::Value(1);
        });
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(hot_computes.load(), kHotKeys);
}

// Below EstimateCache::kShardedCapacity the cache is one shard: eviction
// follows exact least-recently-used order over all keys.
TEST(Cache, SmallCacheEvictsInExactLruOrder) {
  EstimateCache cache(EstimateCache::kShardedCapacity - 1);
  auto value = [] { return json::Value(1); };
  for (std::size_t k = 0; k < cache.capacity(); ++k) {
    cache.get_or_compute("key-" + std::to_string(k), value);
  }
  cache.get_or_compute("key-0", value);  // now most recently used
  cache.get_or_compute("one-more", value);
  EXPECT_EQ(cache.evictions(), 1u);
  service::LookupCounts counts;
  cache.get_or_compute("key-0", value, &counts);
  cache.get_or_compute("key-1", value, &counts);  // the one evicted
  EXPECT_EQ(counts.hits, 1u);
  EXPECT_EQ(counts.misses, 1u);
}

// --------------------------------------------------------------- engine ---

TEST(Engine, PreservesItemOrderAcrossWorkers) {
  std::vector<json::Value> items;
  for (int i = 0; i < 64; ++i) {
    json::Object o;
    o.emplace_back("id", json::Value(static_cast<std::int64_t>(i)));
    items.push_back(json::Value(std::move(o)));
  }
  auto runner = [](const json::Value& item) {
    json::Object o;
    o.emplace_back("echo", item.at("id"));
    return json::Value(std::move(o));
  };
  EngineOptions options;
  options.num_workers = 8;
  options.use_cache = false;
  json::Array results = service::run_batch(items, runner, options);
  ASSERT_EQ(results.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(results[i].at("echo").as_int(), i);
}

TEST(Engine, StreamsResultsInItemOrder) {
  std::vector<json::Value> items;
  for (int i = 0; i < 32; ++i) items.push_back(json::Value(json::Object{}));
  std::vector<std::size_t> seen;
  EngineOptions options;
  options.num_workers = 4;
  options.on_result = [&](std::size_t index, const json::Value&) {
    seen.push_back(index);  // engine serializes sink calls
  };
  service::run_batch(items, [](const json::Value&) { return json::Value(json::Object{}); },
                     options);
  ASSERT_EQ(seen.size(), 32u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(Engine, IsolatesErrorsAndCountsThem) {
  std::vector<json::Value> items;
  for (int i = 0; i < 6; ++i) {
    json::Object o;
    o.emplace_back("id", json::Value(static_cast<std::int64_t>(i)));
    items.push_back(json::Value(std::move(o)));
  }
  auto runner = [](const json::Value& item) -> json::Value {
    if (item.at("id").as_int() % 2 == 1) throw Error("odd items fail");
    return json::Value(json::Object{});
  };
  EngineOptions options;
  options.num_workers = 3;
  BatchStats stats;
  json::Array results = service::run_batch(items, runner, options, &stats);
  ASSERT_EQ(results.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    if (i % 2 == 1) {
      EXPECT_EQ(results[i].at("error").at("code").as_string(), "estimation-failed");
      EXPECT_EQ(results[i].at("error").at("message").as_string(), "odd items fail");
    } else {
      EXPECT_EQ(results[i].find("error"), nullptr);
    }
  }
  EXPECT_EQ(stats.num_errors, 3u);
  EXPECT_EQ(stats.num_items, 6u);
}

TEST(Engine, CacheDeduplicatesIdenticalItems) {
  // 24 items, only 3 distinct: the runner must fire exactly 3 times.
  std::vector<json::Value> items;
  for (int i = 0; i < 24; ++i) {
    json::Object o;
    o.emplace_back("id", json::Value(static_cast<std::int64_t>(i % 3)));
    items.push_back(json::Value(std::move(o)));
  }
  std::atomic<int> calls{0};
  auto runner = [&](const json::Value& item) {
    calls.fetch_add(1);
    json::Object o;
    o.emplace_back("echo", item.at("id"));
    return json::Value(std::move(o));
  };
  EngineOptions options;
  options.num_workers = 4;
  BatchStats stats;
  json::Array results = service::run_batch(items, runner, options, &stats);
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(stats.cache_misses, 3u);
  EXPECT_EQ(stats.cache_hits, 21u);
  for (int i = 0; i < 24; ++i) EXPECT_EQ(results[i].at("echo").as_int(), i % 3);
}

TEST(Engine, BatchesReuseOneWorkerPool) {
  // Width 4 is the calling thread plus three pool helpers; fresh threads per
  // batch would show up as new kernel thread ids.
  std::mutex mutex;
  std::set<long> tids;
  EngineOptions options;
  options.num_workers = 4;
  options.use_cache = false;
  for (int batch = 0; batch < 50; ++batch) {
    service::run_batch_indexed(
        64,
        [&](std::size_t) {
          const long tid = syscall(SYS_gettid);
          std::lock_guard<std::mutex> lock(mutex);
          tids.insert(tid);
          return json::Value(json::Object{});
        },
        nullptr, options);
  }
  EXPECT_LE(tids.size(), 4u);
}

TEST(Engine, NestedBatchCompletesWhileEveryHelperIsBusy) {
  // A background batch parks one item on every pool helper (and on its own
  // thread) until released.
  const std::size_t width = std::max<std::size_t>(8, std::thread::hardware_concurrency());
  std::atomic<std::size_t> parked{0};
  std::atomic<bool> released{false};
  std::thread occupier([&] {
    EngineOptions busy;
    busy.num_workers = width;
    busy.use_cache = false;
    service::run_batch_indexed(
        width,
        [&](std::size_t) {
          parked.fetch_add(1);
          while (!released.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
          return json::Value(json::Object{});
        },
        nullptr, busy);
  });
  while (parked.load() < width) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // No helper is free: the nested batches must finish on their callers.
  EngineOptions options;
  options.num_workers = 4;
  options.use_cache = false;
  json::Array results = service::run_batch_indexed(
      6,
      [&](std::size_t i) {
        return json::Value(service::run_batch_indexed(
            5,
            [i](std::size_t j) { return json::Value(static_cast<std::int64_t>(10 * i + j)); },
            nullptr, options));
      },
      nullptr, options);
  released = true;
  occupier.join();
  ASSERT_EQ(results.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    const json::Array& inner = results[i].as_array();
    ASSERT_EQ(inner.size(), 5u);
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_EQ(inner[j].as_int(), static_cast<std::int64_t>(10 * i + j));
    }
  }
}

TEST(Engine, WideBatchKeepsItsWidthAndOrder) {
  EngineOptions options;
  options.num_workers = 8;
  options.use_cache = false;
  BatchStats stats;
  json::Array results = service::run_batch_indexed(
      100, [](std::size_t i) { return json::Value(static_cast<std::int64_t>(i)); }, nullptr,
      options, &stats);
  EXPECT_EQ(stats.num_workers, 8u);
  EXPECT_EQ(stats.to_json().at("numWorkers").as_int(), 8);
  ASSERT_EQ(results.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(results[i].as_int(), static_cast<std::int64_t>(i));
  }
}

TEST(Engine, SinkFailureReachesTheCallerAndLeavesThePoolUsable) {
  std::vector<json::Value> items(40, json::Value(json::Object{}));
  const auto runner = [](const json::Value&) { return json::Value(json::Object{}); };
  EngineOptions options;
  options.num_workers = 4;
  options.use_cache = false;
  options.on_result = [](std::size_t index, const json::Value&) {
    if (index == 5) throw std::runtime_error("sink closed");
  };
  EXPECT_THROW(service::run_batch(items, runner, options), std::runtime_error);
  options.on_result = nullptr;
  EXPECT_EQ(service::run_batch(items, runner, options).size(), 40u);
}

// ------------------------------------------------ api::run integration ---

const char* kFig4StyleSweep = R"({
  "logicalCounts": {
    "numQubits": 100,
    "tCount": 100000,
    "measurementCount": 10000
  },
  "sweep": {
    "qubitParams": [
      {"name": "qubit_gate_ns_e3"}, {"name": "qubit_gate_ns_e4"},
      {"name": "qubit_gate_us_e3"}, {"name": "qubit_gate_us_e4"},
      {"name": "qubit_maj_ns_e4"}, {"name": "qubit_maj_ns_e6"}
    ],
    "errorBudget": {"start": 1e-4, "stop": 1e-1, "steps": 11, "scale": "log"}
  }
})";

TEST(Service, SweepJobParallelMatchesSerial) {
  json::Value job = json::parse(kFig4StyleSweep);

  service::EngineOptions serial;
  serial.num_workers = 1;
  serial.use_cache = false;
  json::Value serial_result = run_request(job, serial);

  service::EngineOptions parallel;
  parallel.num_workers = 4;
  json::Value parallel_result = run_request(job, parallel);

  const json::Array& serial_items = serial_result.at("results").as_array();
  const json::Array& parallel_items = parallel_result.at("results").as_array();
  ASSERT_EQ(serial_items.size(), 66u);  // 6 profiles x 11 budgets >= 64 points
  ASSERT_EQ(parallel_items.size(), 66u);
  for (std::size_t i = 0; i < serial_items.size(); ++i) {
    // Bit-identical output, element by element.
    EXPECT_EQ(serial_items[i].dump(), parallel_items[i].dump()) << "item " << i;
  }
}

TEST(Service, RepeatedSweepSharesResultBytes) {
  // Results are serialized once, in the worker that computed them; the
  // engine cache then holds those bytes, so a repeated request gets the
  // same buffers back instead of copies of a tree. The same grid runs once
  // as a sweep (the sweep plan) and once as an "items" batch of its
  // expanded documents (the per-item path); both must answer the same bytes.
  // A sweep caches a grid point from its second miss, so the sweep runs
  // once before: that run only notes its points, and the first of the two
  // compared runs fills the cache.
  api::Registry registry = api::Registry::with_builtins();
  const json::Value sweep_job = json::parse(kFig4StyleSweep);
  json::Array expanded;
  for (json::Value& item : service::expand_sweep(sweep_job)) expanded.push_back(std::move(item));
  json::Object items_job;
  items_job.emplace_back("items", json::Value(std::move(expanded)));
  std::vector<std::string> first_path;
  for (const json::Value& job : {sweep_job, json::Value(std::move(items_job))}) {
    const bool sweep = job.find("sweep") != nullptr;
    SCOPED_TRACE(sweep ? "sweep plan" : "per-item path");
    const api::EstimateRequest request = api::EstimateRequest::parse(job, registry);
    ASSERT_TRUE(request.ok());
    service::Engine engine;
    const EngineOptions options = engine.options();
    if (sweep) {
      const api::EstimateResponse noted = api::run(request, options, registry);
      ASSERT_TRUE(noted.success);
      EXPECT_EQ(engine.cache().size(), 0u);
    }
    const api::EstimateResponse cold = api::run(request, options, registry);
    const api::EstimateResponse warm = api::run(request, options, registry);
    ASSERT_TRUE(cold.success);
    ASSERT_TRUE(warm.success);
    const json::Array& a = cold.result.at("results").as_array();
    const json::Array& b = warm.result.at("results").as_array();
    ASSERT_EQ(a.size(), 66u);
    ASSERT_EQ(b.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_TRUE(a[i].is_raw()) << "item " << i;
      ASSERT_TRUE(b[i].is_raw()) << "item " << i;
      EXPECT_EQ(a[i].raw_bytes().get(), b[i].raw_bytes().get()) << "item " << i;
    }
    EXPECT_EQ(engine.cache().hits(), a.size());
    if (first_path.empty()) {
      for (const json::Value& r : a) first_path.push_back(r.dump());
    } else {
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].dump(), first_path[i]) << "item " << i;
      }
    }
  }
}

TEST(Service, SweepLeavesTheSharedCacheUnfilled) {
  // A sweep of points the engine has not seen reads the engine cache but
  // inserts nothing, so it evicts nothing either, and still counts every
  // item as one hit or one miss.
  api::Registry registry = api::Registry::with_builtins();
  service::Engine engine;
  const json::Value single = json::parse(R"({"logicalCounts": {"numQubits": 7, "tCount": 70}})");
  ASSERT_TRUE(api::run(api::EstimateRequest::parse(single, registry), engine.options(), registry)
                  .success);
  ASSERT_EQ(engine.cache().size(), 1u);

  const api::EstimateRequest request =
      api::EstimateRequest::parse(json::parse(kFig4StyleSweep), registry);
  ASSERT_TRUE(request.ok());
  const api::EstimateResponse response = api::run(request, engine.options(), registry);
  ASSERT_TRUE(response.success);
  const json::Value& stats = response.result.at("batchStats");
  EXPECT_EQ(engine.cache().size(), 1u);
  EXPECT_EQ(stats.at("cacheEvictions").as_uint(), 0u);
  EXPECT_EQ(stats.at("cacheHits").as_uint() + stats.at("cacheMisses").as_uint(),
            stats.at("numItems").as_uint());
  EXPECT_EQ(stats.at("numItems").as_uint(), 66u);
  EXPECT_EQ(engine.cache().evictions(), 0u);
}

TEST(Service, SweepRepeatedTwiceHitsEveryPointOnItsThirdRun) {
  // The 198-point grid of servebench's sweep-dense workload, sent three
  // times to one engine: the first run only notes its points, the second
  // caches each of them, and the third hits every one.
  api::Registry registry = api::Registry::with_builtins();
  service::Engine engine;
  const api::EstimateRequest request = api::EstimateRequest::parse(json::parse(R"({
    "logicalCounts": {"numQubits": 765269, "tCount": 1000000, "rotationCount": 30000,
                      "rotationDepth": 11000, "cczCount": 250000, "measurementCount": 150000},
    "sweep": {
      "qubitParams": [{"name": "qubit_gate_ns_e3"}, {"name": "qubit_gate_ns_e4"},
                      {"name": "qubit_gate_us_e3"}, {"name": "qubit_gate_us_e4"},
                      {"name": "qubit_maj_ns_e4"}, {"name": "qubit_maj_ns_e6"}],
      "errorBudget": {"start": 0.0001, "stop": 0.01, "steps": 33, "scale": "log"}
    }
  })"),
                                                                 registry);
  ASSERT_TRUE(request.ok());
  const std::size_t expected_size[] = {0, 198, 198};
  const std::uint64_t expected_hits[] = {0, 0, 198};
  for (int run = 0; run < 3; ++run) {
    SCOPED_TRACE("run " + std::to_string(run + 1));
    const api::EstimateResponse response = api::run(request, engine.options(), registry);
    ASSERT_TRUE(response.success);
    const json::Value& stats = response.result.at("batchStats");
    EXPECT_EQ(stats.at("numItems").as_uint(), 198u);
    EXPECT_EQ(stats.at("cacheHits").as_uint(), expected_hits[run]);
    EXPECT_EQ(stats.at("cacheEvictions").as_uint(), 0u);
    EXPECT_EQ(engine.cache().size(), expected_size[run]);
  }
}

TEST(Service, SweepHitsAnEntryASingleEstimateLeft) {
  // A single estimate of one grid point fills the cache; a sweep over that
  // point finds the entry and answers its very bytes.
  api::Registry registry = api::Registry::with_builtins();
  service::Engine engine;
  const json::Value sweep_job = json::parse(kFig4StyleSweep);
  const std::vector<json::Value> points = service::expand_sweep(sweep_job);
  constexpr std::size_t kPoint = 17;
  const api::EstimateResponse single =
      api::run(api::EstimateRequest::parse(points[kPoint], registry), engine.options(), registry);
  ASSERT_TRUE(single.success);
  ASSERT_TRUE(single.result.is_raw());

  const api::EstimateResponse swept =
      api::run(api::EstimateRequest::parse(sweep_job, registry), engine.options(), registry);
  ASSERT_TRUE(swept.success);
  EXPECT_EQ(swept.result.at("batchStats").at("cacheHits").as_uint(), 1u);
  EXPECT_EQ(swept.result.at("batchStats").at("cacheMisses").as_uint(), points.size() - 1);
  const json::Value& hit = swept.result.at("results").as_array()[kPoint];
  ASSERT_TRUE(hit.is_raw());
  EXPECT_EQ(hit.raw_bytes().get(), single.result.raw_bytes().get());
}

TEST(Service, SweepJobMatchesHandWrittenItems) {
  json::Value sweep_job = json::parse(R"({
    "logicalCounts": {"numQubits": 50, "tCount": 50000},
    "errorBudget": 0.001,
    "sweep": {"qubitParams": [{"name": "qubit_gate_ns_e3"}, {"name": "qubit_maj_ns_e4"}]}
  })");
  json::Value items_job = json::parse(R"({
    "logicalCounts": {"numQubits": 50, "tCount": 50000},
    "errorBudget": 0.001,
    "items": [
      {"qubitParams": {"name": "qubit_gate_ns_e3"}},
      {"qubitParams": {"name": "qubit_maj_ns_e4"}}
    ]
  })");
  json::Value a = run_request(sweep_job);
  json::Value b = run_request(items_job);
  EXPECT_EQ(a.at("results").dump(), b.at("results").dump());
}

TEST(Service, BatchStatsReportCacheHitsOnDuplicatedItems) {
  json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 50, "tCount": 50000},
    "errorBudget": 0.001,
    "items": [{}, {}, {}, {"errorBudget": 0.01}]
  })");
  json::Value result = run_request(job);
  const json::Value& stats = result.at("batchStats");
  EXPECT_EQ(stats.at("numItems").as_uint(), 4u);
  EXPECT_EQ(stats.at("cacheMisses").as_uint(), 2u);  // two distinct inputs
  EXPECT_EQ(stats.at("cacheHits").as_uint(), 2u);
  EXPECT_EQ(stats.at("numErrors").as_uint(), 0u);
  // The duplicated items share one result.
  const json::Array& results = result.at("results").as_array();
  EXPECT_EQ(results[0].dump(), results[1].dump());
  EXPECT_EQ(results[0].dump(), results[2].dump());
  EXPECT_NE(results[0].dump(), results[3].dump());
}

TEST(Service, SweepAndItemsAreMutuallyExclusive) {
  json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 10, "tCount": 100},
    "items": [{}],
    "sweep": {"errorBudget": [0.01]}
  })");
  const api::EstimateRequest request = api::EstimateRequest::parse(job);
  ASSERT_EQ(request.diagnostics.num_errors(), 1u);
  EXPECT_EQ(request.diagnostics.entries()[0].code, "mutually-exclusive");
  EXPECT_EQ(request.diagnostics.entries()[0].path, "/items");
  EXPECT_FALSE(api::run(request).success);
}

TEST(Service, SweepIsolatesInfeasibleGridPoints) {
  // Second qubitParams axis value sits at the QEC threshold: infeasible.
  json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 50, "tCount": 50000},
    "errorBudget": 0.001,
    "sweep": {
      "qubitParams": [
        {"name": "qubit_gate_ns_e3"},
        {"name": "qubit_gate_ns_e3", "twoQubitGateErrorRate": 0.5}
      ]
    }
  })");
  json::Value result = run_request(job);
  const json::Array& results = result.at("results").as_array();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_NE(results[0].materialize().find("physicalCounts"), nullptr);
  EXPECT_NE(results[1].find("error"), nullptr);
  EXPECT_EQ(result.at("batchStats").at("numErrors").as_uint(), 1u);
}

TEST(Service, BatchKeysNeverRunAsASingleEstimate) {
  json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 10, "tCount": 100},
    "items": [{}]
  })");
  const json::Value result = run_request(job);
  EXPECT_EQ(result.find("physicalCounts"), nullptr);
  EXPECT_EQ(result.at("results").as_array().size(), 1u);
  EXPECT_EQ(result.at("batchStats").at("numItems").as_uint(), 1u);
}

// ------------------------------------------------- shared-engine Engine ---

// N threads pushing the SAME batch job through ONE shared Engine (the
// estimation server's configuration) must each produce results that are
// bit-identical to the serial api::run output, and the shared cache's
// counters must be exactly accounted for: the in-flight deduplication in
// EstimateCache guarantees one miss per distinct item no matter how the
// threads interleave.
TEST(Service, ConcurrentRequestsOnOneEngineAreBitIdenticalToSerial) {
  json::Value job = json::parse(R"({
    "schemaVersion": 2,
    "logicalCounts": {"numQubits": 10, "tCount": 1000},
    "qubitParams": {"name": "qubit_gate_ns_e3"},
    "items": [
      {"errorBudget": 0.01},
      {"errorBudget": 0.001},
      {"errorBudget": 0.01}
    ]
  })");
  // 3 items, 2 distinct (items 0 and 2 merge to the same document).
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kItems = 3;
  constexpr std::size_t kDistinct = 2;

  const std::string serial = run_request(job).at("results").dump();

  api::Registry registry = api::Registry::with_builtins();
  service::Engine engine;
  std::vector<std::string> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      api::EstimateRequest request = api::EstimateRequest::parse(job, registry);
      api::EstimateResponse response = api::run(request, engine.options(), registry);
      results[t] = response.success ? response.result.at("results").dump() : "FAILED";
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(results[t], serial) << "thread " << t << " diverged from the serial run";
  }

  // Consistent stats: every lookup either hit or missed, and only the first
  // computation of each distinct item missed.
  const EstimateCache& cache = engine.cache();
  EXPECT_EQ(cache.misses(), kDistinct);
  EXPECT_EQ(cache.hits(), kThreads * kItems - kDistinct);
  EXPECT_EQ(cache.size(), kDistinct);
  EXPECT_EQ(cache.evictions(), 0u);
}

// Concurrent distinct grids through one shared Engine: each response's
// batchStats must count that request's own lookups, not whatever else moved
// the shared cache's counters while it ran. Each grid runs as an "items"
// batch of its expanded documents, which fills the cache on every miss, and
// then as a sweep, which fills it on repeated misses.
TEST(Service, ConcurrentSweepsCountOnlyTheirOwnCacheTraffic) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRequestsPerThread = 5;
  constexpr std::uint64_t kItems = 18;  // 6 profiles x 3 budgets
  api::Registry registry = api::Registry::with_builtins();
  EngineOptions defaults;
  defaults.num_workers = 2;
  defaults.cache_capacity = 64;  // smaller than the traffic: evictions happen
  service::Engine engine(defaults);

  struct Totals {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };
  // Runs every thread's requests, as items batches or as sweeps, and sums
  // their batchStats.
  auto run_all = [&](bool as_items) {
    std::vector<json::Value> stats(kThreads * kRequestsPerThread);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t r = 0; r < kRequestsPerThread; ++r) {
          // Each pair of consecutive requests shares its grid, so some lookups hit.
          const std::size_t num_qubits = 10 + t * 100 + r / 2;
          json::Value job = json::parse(R"({
            "schemaVersion": 2,
            "logicalCounts": {"numQubits": )" + std::to_string(num_qubits) +
                                        R"(, "tCount": 5000},
            "sweep": {
              "qubitParams": [{"name": "qubit_gate_ns_e3"}, {"name": "qubit_gate_ns_e4"},
                              {"name": "qubit_gate_us_e3"}, {"name": "qubit_gate_us_e4"},
                              {"name": "qubit_maj_ns_e4"}, {"name": "qubit_maj_ns_e6"}],
              "errorBudget": [0.01, 0.001, 0.0001]
            }
          })");
          if (as_items) {
            json::Array items;
            for (json::Value& item : service::expand_sweep(job)) items.push_back(std::move(item));
            job = json::Value(json::Object{{"schemaVersion", json::Value(2)},
                                           {"items", json::Value(std::move(items))}});
          }
          api::EstimateRequest request = api::EstimateRequest::parse(job, registry);
          api::EstimateResponse response = api::run(request, engine.options(), registry);
          if (response.success) {
            stats[t * kRequestsPerThread + r] = response.result.at("batchStats");
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();

    Totals totals;
    for (std::size_t k = 0; k < stats.size(); ++k) {
      SCOPED_TRACE("request " + std::to_string(k));
      EXPECT_TRUE(stats[k].is_object());
      if (!stats[k].is_object()) continue;
      EXPECT_EQ(stats[k].at("numItems").as_uint(), kItems);
      const std::uint64_t h = stats[k].at("cacheHits").as_uint();
      const std::uint64_t m = stats[k].at("cacheMisses").as_uint();
      const std::uint64_t e = stats[k].at("cacheEvictions").as_uint();
      EXPECT_EQ(h + m, kItems);
      EXPECT_LE(e, m);
      totals.hits += h;
      totals.misses += m;
      totals.evictions += e;
    }
    return totals;
  };

  // The requests' own counts partition the shared cache's counters.
  const Totals items = run_all(true);
  EXPECT_EQ(items.hits, engine.cache().hits());
  EXPECT_EQ(items.misses, engine.cache().misses());
  EXPECT_EQ(items.evictions, engine.cache().evictions());
  EXPECT_GT(items.evictions, 0u);

  // Sweeps of the same grids: a first miss inserts nothing, a repeated one
  // inserts and evicts, and their counts partition the rest.
  const Totals sweeps = run_all(false);
  EXPECT_EQ(items.hits + sweeps.hits, engine.cache().hits());
  EXPECT_EQ(items.misses + sweeps.misses, engine.cache().misses());
  EXPECT_EQ(items.evictions + sweeps.evictions, engine.cache().evictions());
}

// Same-document single estimates through one Engine: the serving layer's
// most common request. All responses must be byte-identical and computed
// exactly once.
TEST(Service, ConcurrentSingleEstimatesShareOneComputation) {
  json::Value job = json::parse(R"({
    "schemaVersion": 2,
    "logicalCounts": {"numQubits": 10, "tCount": 1000},
    "errorBudget": 0.01
  })");
  const std::string serial = run_request(job).dump();

  api::Registry registry = api::Registry::with_builtins();
  service::Engine engine;
  constexpr std::size_t kThreads = 8;
  std::vector<std::string> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      api::EstimateRequest request = api::EstimateRequest::parse(job, registry);
      api::EstimateResponse response = api::run(request, engine.options(), registry);
      results[t] = response.success ? response.result.dump() : "FAILED";
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(results[t], serial);
  }
  EXPECT_EQ(engine.cache().misses(), 1u);
  EXPECT_EQ(engine.cache().hits(), kThreads - 1);
}

}  // namespace
}  // namespace qre
