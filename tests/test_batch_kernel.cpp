// Tests of the sweep plan (service/batch_kernel.hpp): bit-identity against
// the per-item path on Fig. 3/4 style and randomized grids, spliced cache
// keys, on-demand grid documents, exact cache accounting for mixed
// planned/fallback batches, warm-vs-cold store identity, the grid cap, and
// eligibility declines. The per-item
// reference is the same grid submitted as an "items" batch of the expanded
// documents, which never consults the plan.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "api/registry.hpp"
#include "core/job.hpp"
#include "json/json.hpp"
#include "service/batch_kernel.hpp"
#include "service/cache.hpp"
#include "service/engine.hpp"
#include "service/sweep.hpp"

namespace qre {
namespace {

using service::EngineOptions;
using service::EstimateCache;

json::Value run_sweep(const json::Value& job, std::size_t workers = 1,
                      EstimateCache* cache = nullptr) {
  EngineOptions options;
  options.num_workers = workers;
  options.cache = cache;
  return run_job(job, options);
}

/// The per-item reference: the sweep's expanded documents submitted as an
/// "items" batch, which runs every grid point through the per-item runner.
json::Value run_items(const json::Value& sweep_job) {
  json::Array items;
  for (json::Value& item : service::expand_sweep(sweep_job)) items.push_back(std::move(item));
  json::Object job;
  job.emplace_back("items", json::Value(std::move(items)));
  return run_sweep(json::Value(std::move(job)));
}

// Asserts both runs produced byte-identical result arrays and the same
// top-level batch counters (batchStats differs only by the batchKernel
// block, which records which path ran).
void expect_bit_identical(const json::Value& planned, const json::Value& reference) {
  const json::Array& a = planned.at("results").as_array();
  const json::Array& b = reference.at("results").as_array();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dump(), b[i].dump()) << "item " << i;
  }
  const json::Value& sa = planned.at("batchStats");
  const json::Value& sb = reference.at("batchStats");
  EXPECT_EQ(sa.at("numItems").dump(), sb.at("numItems").dump());
  EXPECT_EQ(sa.at("numErrors").dump(), sb.at("numErrors").dump());
}

const json::Value& kernel_stats(const json::Value& result) {
  return result.at("batchStats").at("batchKernel");
}

// ----------------------------------------------------------- engagement ---

const char* kFig4StyleSweep = R"({
  "logicalCounts": {"numQubits": 100, "tCount": 100000},
  "sweep": {
    "qubitParams": [
      {"name": "qubit_gate_ns_e3"}, {"name": "qubit_gate_ns_e4"},
      {"name": "qubit_maj_ns_e4"}, {"name": "qubit_maj_ns_e6"}
    ],
    "errorBudget": {"start": 1e-4, "stop": 1e-1, "steps": 7, "scale": "log"}
  }
})";

TEST(BatchKernel, EngagesOnFig4StyleSweep) {
  json::Value result = run_sweep(json::parse(kFig4StyleSweep));
  const json::Value& ks = kernel_stats(result);
  EXPECT_TRUE(ks.at("engaged").as_bool());
  EXPECT_EQ(ks.find("reason"), nullptr);
  EXPECT_EQ(ks.at("kernelItems").as_uint(), 28u);  // 4 profiles x 7 budgets
  EXPECT_EQ(ks.at("fallbackItems").as_uint(), 0u);
  EXPECT_EQ(result.at("batchStats").at("numItems").as_uint(), 28u);
}

TEST(BatchKernel, ItemsBatchesOmitTheStatsBlock) {
  // Hand-written "items" batches must keep their batchStats documents
  // byte-identical to releases before the sweep plan.
  json::Value items_job = json::parse(R"({
    "logicalCounts": {"numQubits": 50, "tCount": 50000},
    "items": [{"errorBudget": 0.001}, {"errorBudget": 0.01}]
  })");
  json::Value items_result = run_sweep(items_job);
  EXPECT_EQ(items_result.at("batchStats").find("batchKernel"), nullptr);
}

// ------------------------------------------------------- bit identity ---

TEST(BatchKernel, BitIdenticalToPerItemPathOnFig4StyleGrid) {
  json::Value job = json::parse(kFig4StyleSweep);
  json::Value kernel = run_sweep(job);
  json::Value per_item = run_items(job);
  ASSERT_TRUE(kernel_stats(kernel).at("engaged").as_bool());
  expect_bit_identical(kernel, per_item);
}

TEST(BatchKernel, BitIdenticalToPerItemPathOnFig3StyleGrid) {
  // Figure 3 shape: whole-section logicalCounts axis (different circuit
  // sizes) crossed with hardware profiles.
  json::Value job = json::parse(R"({
    "errorBudget": 0.001,
    "sweep": {
      "logicalCounts": [
        {"numQubits": 45, "tCount": 12000},
        {"numQubits": 130, "tCount": 400000, "measurementCount": 2500},
        {"numQubits": 520, "tCount": 17000000, "cczCount": 310000}
      ],
      "qubitParams": [{"name": "qubit_gate_ns_e3"}, {"name": "qubit_maj_ns_e6"}]
    }
  })");
  json::Value kernel = run_sweep(job);
  json::Value per_item = run_items(job);
  ASSERT_TRUE(kernel_stats(kernel).at("engaged").as_bool());
  expect_bit_identical(kernel, per_item);
}

TEST(BatchKernel, BitIdenticalOnDottedAxesIntoEverySection) {
  json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 60, "tCount": 80000},
    "qubitParams": {"name": "qubit_gate_ns_e3"},
    "constraints": {"logicalDepthFactor": 2},
    "sweep": {
      "logicalCounts.tCount": [60000, 90000],
      "errorBudget": {"start": 1e-3, "stop": 1e-2, "steps": 2, "scale": "log"},
      "constraints.maxTFactories": [2, 8]
    }
  })");
  json::Value kernel = run_sweep(job);
  json::Value per_item = run_items(job);
  ASSERT_TRUE(kernel_stats(kernel).at("engaged").as_bool())
      << kernel_stats(kernel).dump();
  EXPECT_EQ(kernel_stats(kernel).at("kernelItems").as_uint(), 8u);
  expect_bit_identical(kernel, per_item);
}

TEST(BatchKernel, ParallelPlanMatchesSerialPlanAndPerItemPath) {
  json::Value job = json::parse(kFig4StyleSweep);
  json::Value serial = run_sweep(job, 1);
  json::Value parallel = run_sweep(job, 4);
  json::Value per_item = run_items(job);
  ASSERT_TRUE(kernel_stats(parallel).at("engaged").as_bool());
  expect_bit_identical(parallel, serial);
  expect_bit_identical(parallel, per_item);
}

/// A random sweep job: a qubitParams axis and a log errorBudget range, plus
/// optionally a dotted constraints axis and a dotted logicalCounts axis.
json::Value random_sweep_job(std::mt19937& rng) {
  const char* presets[] = {"qubit_gate_ns_e3", "qubit_gate_ns_e4", "qubit_gate_us_e3",
                           "qubit_gate_us_e4", "qubit_maj_ns_e4",  "qubit_maj_ns_e6"};
  auto uniform = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  json::Object sweep;

  json::Array qubits;
  const int num_presets = uniform(1, 3);
  for (int i = 0; i < num_presets; ++i) {
    json::Object q;
    q.emplace_back("name", json::Value(presets[uniform(0, 5)]));
    qubits.push_back(json::Value(std::move(q)));
  }
  sweep.emplace_back("qubitParams", json::Value(std::move(qubits)));

  json::Object budget_range;
  budget_range.emplace_back("start", json::Value(std::pow(10.0, -uniform(3, 5))));
  budget_range.emplace_back("stop", json::Value(0.05));
  budget_range.emplace_back("steps", json::Value(uniform(2, 4)));
  budget_range.emplace_back("scale", json::Value("log"));
  sweep.emplace_back("errorBudget", json::Value(std::move(budget_range)));

  if (uniform(0, 1) == 1) {
    json::Array factories;
    const int num = uniform(1, 2);
    for (int i = 0; i < num; ++i) factories.push_back(json::Value(uniform(1, 8)));
    sweep.emplace_back("constraints.maxTFactories", json::Value(std::move(factories)));
  }
  if (uniform(0, 1) == 1) {
    json::Array tcounts;
    const int num = uniform(1, 2);
    for (int i = 0; i < num; ++i) {
      tcounts.push_back(json::Value(static_cast<std::int64_t>(uniform(1000, 200000))));
    }
    sweep.emplace_back("logicalCounts.tCount", json::Value(std::move(tcounts)));
  }

  json::Object counts;
  counts.emplace_back("numQubits", json::Value(uniform(10, 300)));
  counts.emplace_back("tCount", json::Value(uniform(1000, 500000)));
  json::Object job;
  job.emplace_back("logicalCounts", json::Value(std::move(counts)));
  job.emplace_back("sweep", json::Value(std::move(sweep)));
  return json::Value(std::move(job));
}

TEST(BatchKernel, RandomizedGridsAreBitIdenticalToPerItemPath) {
  // Deterministic fuzz over grid shapes: every iteration builds a sweep
  // with a random subset of axis sections and random values, then asserts
  // planned output is byte-identical to the per-item path.
  std::mt19937 rng(20230807);
  for (int iter = 0; iter < 6; ++iter) {
    const json::Value doc = random_sweep_job(rng);
    const int workers = std::uniform_int_distribution<int>(1, 4)(rng);
    json::Value kernel = run_sweep(doc, workers);
    json::Value per_item = run_items(doc);
    ASSERT_TRUE(kernel_stats(kernel).at("engaged").as_bool())
        << "iter " << iter << ": " << kernel_stats(kernel).dump();
    SCOPED_TRACE("iter " + std::to_string(iter) + " job " + doc.dump());
    expect_bit_identical(kernel, per_item);
  }
}

// -------------------------------------------------- fallback + caching ---

TEST(BatchKernel, InvalidAxisValuesFallBackToIdenticalErrorDocuments) {
  // The third qubit value fails validation, so its grid row runs through
  // the per-item fallback runner; documents must match the per-item path
  // exactly, including the structured error entries.
  json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 50, "tCount": 50000},
    "sweep": {
      "qubitParams": [
        {"name": "qubit_gate_ns_e3"},
        {"name": "qubit_maj_ns_e4"},
        {"name": "no_such_preset"}
      ],
      "errorBudget": [0.001, 0.01]
    }
  })");
  json::Value kernel = run_sweep(job);
  json::Value per_item = run_items(job);
  const json::Value& ks = kernel_stats(kernel);
  EXPECT_TRUE(ks.at("engaged").as_bool());
  EXPECT_EQ(ks.at("kernelItems").as_uint(), 4u);
  EXPECT_EQ(ks.at("fallbackItems").as_uint(), 2u);
  EXPECT_EQ(kernel.at("batchStats").at("numErrors").as_uint(), 2u);
  expect_bit_identical(kernel, per_item);
}

TEST(BatchKernel, CacheAccountingIsExactAcrossPlannedAndFallbackItems) {
  // 2 qubit values (one invalid) x errorBudget [a, b, a]: six grid items,
  // four distinct documents. Planned items and fallback items tally hits
  // and misses through the same engine counters — each duplicate is one
  // hit no matter which path computed its original.
  json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 50, "tCount": 50000},
    "sweep": {
      "qubitParams": [{"name": "qubit_gate_ns_e3"}, {"name": "no_such_preset"}],
      "errorBudget": [0.001, 0.01, 0.001]
    }
  })");
  json::Value result = run_sweep(job);
  const json::Value& stats = result.at("batchStats");
  const json::Value& ks = kernel_stats(result);
  EXPECT_TRUE(ks.at("engaged").as_bool());
  EXPECT_EQ(ks.at("kernelItems").as_uint(), 3u);
  EXPECT_EQ(ks.at("fallbackItems").as_uint(), 3u);
  EXPECT_EQ(stats.at("numItems").as_uint(), 6u);
  EXPECT_EQ(stats.at("cacheMisses").as_uint(), 4u);
  EXPECT_EQ(stats.at("cacheHits").as_uint(), 2u);
  // The duplicated budget re-serves both the planned result and the
  // fallback error document.
  const json::Array& results = result.at("results").as_array();
  EXPECT_EQ(results[0].dump(), results[2].dump());
  EXPECT_EQ(results[3].dump(), results[5].dump());
  EXPECT_NE(results[3].find("error"), nullptr);

  // Same accounting on the per-item path: both run through one engine.
  json::Value per_item = run_items(job);
  EXPECT_EQ(per_item.at("batchStats").at("cacheMisses").as_uint(), 4u);
  EXPECT_EQ(per_item.at("batchStats").at("cacheHits").as_uint(), 2u);
}

// A StoreBacking double: an in-memory second-level store with counters.
class MapBacking : public service::StoreBacking {
 public:
  std::optional<json::Value> fetch(const std::string& key) override {
    std::lock_guard<std::mutex> lock(mutex_);
    ++fetches_;
    auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    ++served_;
    return it->second;
  }
  void record(const std::string& key, const json::Value& result) override {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.emplace(key, result);
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }
  std::uint64_t served() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return served_;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, json::Value> entries_;
  std::uint64_t fetches_ = 0;
  std::uint64_t served_ = 0;
};

TEST(BatchKernel, WarmStoreReplaysBitIdenticalResults) {
  // Cold run populates the store through the plan; a fresh cache backed by
  // the warm store must replay byte-identical results, which must also
  // match a storeless per-item run. This is the restart-reuse path: spliced
  // keys hit records written under canonical_key() keys and vice versa.
  json::Value job = json::parse(kFig4StyleSweep);
  MapBacking store;

  EstimateCache cold_cache;
  cold_cache.set_backing(&store);
  json::Value first = run_sweep(job, 2, &cold_cache);
  EXPECT_EQ(store.size(), 28u);
  EXPECT_EQ(store.served(), 0u);

  EstimateCache warm_cache;
  warm_cache.set_backing(&store);
  json::Value replay = run_sweep(job, 2, &warm_cache);
  EXPECT_EQ(store.served(), 28u);  // every item served from the store

  json::Value per_item = run_items(job);
  expect_bit_identical(replay, first);
  expect_bit_identical(replay, per_item);
}

// -------------------------------------------------------- eligibility ---

TEST(BatchKernel, DeclinesRecordReasonAndStillMatchPerItemPath) {
  struct Case {
    const char* name;
    const char* job;
  };
  const Case cases[] = {
      {"frontier estimate type", R"({
        "logicalCounts": {"numQubits": 20, "tCount": 5000},
        "estimateType": "frontier",
        "sweep": {"errorBudget": [0.001, 0.01]}
      })"},
      {"two axes in one section", R"({
        "logicalCounts": {"numQubits": 20, "tCount": 5000},
        "sweep": {
          "constraints.maxTFactories": [1, 4],
          "constraints.logicalDepthFactor": [2, 4]
        }
      })"},
      {"qubit axis with pinned qecScheme", R"({
        "logicalCounts": {"numQubits": 20, "tCount": 5000},
        "qecScheme": {"name": "surface_code"},
        "sweep": {"qubitParams": [{"name": "qubit_gate_ns_e3"}, {"name": "qubit_gate_ns_e4"}]}
      })"},
      {"axis outside the planned sections", R"({
        "logicalCounts": {"numQubits": 20, "tCount": 5000},
        "sweep": {"qecScheme.name": ["surface_code"], "errorBudget": [0.001, 0.01]}
      })"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    json::Value job = json::parse(c.job);
    json::Value kernel = run_sweep(job);
    json::Value per_item = run_items(job);
    const json::Value& ks = kernel_stats(kernel);
    EXPECT_FALSE(ks.at("engaged").as_bool());
    EXPECT_FALSE(ks.at("reason").as_string().empty());
    EXPECT_EQ(ks.at("kernelItems").as_uint(), 0u);
    expect_bit_identical(kernel, per_item);
  }
}

// ------------------------------------------------------- spliced keys ---

TEST(BatchKernel, SplicedKeysMatchCanonicalKeysOfExpandedItems) {
  // Cache correctness hinges on spliced keys being byte-identical to
  // canonical_key() of the expanded documents the per-item path keys on.
  json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 60, "tCount": 80000},
    "constraints": {"logicalDepthFactor": 2},
    "sweep": {
      "qubitParams": [{"name": "qubit_gate_ns_e3"}, {"name": "qubit_maj_ns_e6"}],
      "errorBudget": {"start": 1e-4, "stop": 1e-2, "steps": 5, "scale": "log"},
      "constraints.maxTFactories": [1, 2, 16]
    }
  })");
  std::vector<json::Value> items = service::expand_sweep(job);
  service::BatchKernelPlan plan =
      service::plan_batch_kernel(job, items, api::Registry::global());
  ASSERT_TRUE(plan.eligible()) << plan.reason();
  ASSERT_EQ(plan.num_items(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(plan.item_key(i), service::canonical_key(items[i])) << "item " << i;
  }
}

// ------------------------------------------------ on-demand documents ---

/// Plans `job` from its axis values alone and asserts every grid document
/// the plan builds is byte-identical to expand_sweep's.
void expect_item_documents_match_expansion(const json::Value& job) {
  const service::BatchKernelPlan plan = service::plan_batch_kernel(job, api::Registry::global());
  ASSERT_TRUE(plan.eligible()) << plan.reason();
  const std::vector<json::Value> items = service::expand_sweep(job);
  ASSERT_EQ(plan.num_items(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(plan.item_document(i).dump(), items[i].dump()) << "item " << i;
  }
}

TEST(BatchKernel, ItemDocumentsMatchExpandedSweepOnRandomizedGrids) {
  std::mt19937 rng(20230807);
  for (int iter = 0; iter < 6; ++iter) {
    const json::Value job = random_sweep_job(rng);
    SCOPED_TRACE("iter " + std::to_string(iter) + " job " + job.dump());
    expect_item_documents_match_expansion(job);
  }
}

TEST(BatchKernel, ItemDocumentsMatchExpandedSweepOnDottedRangeAndExplicitAxes) {
  const char* jobs[] = {
      // Dotted paths into every section, one ranged, over nested base fields.
      R"({
        "logicalCounts": {"numQubits": 60, "tCount": 80000},
        "qubitParams": {"name": "qubit_gate_ns_e3"},
        "constraints": {"logicalDepthFactor": 2},
        "sweep": {
          "constraints.maxTFactories": [2, 8, 3],
          "logicalCounts.tCount": [60000, 90000],
          "qubitParams.oneQubitGateErrorRate": {"start": 1e-4, "stop": 1e-3, "steps": 3},
          "errorBudget": {"start": 1e-3, "stop": 1e-2, "steps": 2, "scale": "log"}
        }
      })",
      // Dotted paths creating sections the base lacks, after base fields.
      R"({
        "errorBudget": 0.001,
        "logicalCounts": {"numQubits": 20, "tCount": 5000},
        "sweep": {
          "constraints.logicalDepthFactor": {"start": 1, "stop": 4, "steps": 4},
          "qubitParams.name": ["qubit_gate_ns_e3", "qubit_maj_ns_e6"]
        }
      })",
      kFig4StyleSweep,
      // An invalid value: its items fall back, but the documents still match.
      R"({
        "logicalCounts": {"numQubits": 50, "tCount": 50000},
        "sweep": {
          "qubitParams": [{"name": "qubit_gate_ns_e3"}, {"name": "no_such_preset"}],
          "errorBudget": [0.001, 0.01, 0.001]
        }
      })",
  };
  for (const char* text : jobs) {
    const json::Value job = json::parse(text);
    SCOPED_TRACE(job.dump());
    expect_item_documents_match_expansion(job);
  }
}

TEST(BatchKernel, FallbackItemsAreRunOnTheirOnDemandDocuments) {
  // The fallback runner sees exactly the expanded document of each item it
  // is handed, and is handed exactly the items with an invalid value.
  const json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 50, "tCount": 50000},
    "sweep": {
      "errorBudget": [0.001, 0.01],
      "qubitParams": [{"name": "qubit_gate_ns_e3"}, {"name": "no_such_preset"},
                      {"name": "qubit_maj_ns_e4"}]
    }
  })");
  const service::BatchKernelPlan plan = service::plan_batch_kernel(job, api::Registry::global());
  ASSERT_TRUE(plan.eligible()) << plan.reason();
  const std::vector<json::Value> items = service::expand_sweep(job);
  std::vector<std::string> seen;
  const service::JobRunner fallback = [&seen](const json::Value& item) {
    seen.push_back(item.dump());
    return json::Value(json::Object{});
  };
  EngineOptions serial;
  serial.num_workers = 1;  // items run in order, on this thread
  service::BatchStats stats;
  service::run_batch_kernel(plan, fallback, serial, &stats);
  const std::vector<std::string> expected = {items[1].dump(), items[4].dump()};
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(stats.kernel->kernel_items, 4u);
  EXPECT_EQ(stats.kernel->fallback_items, 2u);
}

// ------------------------------------------------------------ grid cap ---

json::Value square_sweep(int rows, int cols) {
  json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 20, "tCount": 5000},
    "sweep": {
      "logicalCounts.tCount": {"start": 1000, "stop": 2000, "steps": 2},
      "errorBudget": {"start": 1e-4, "stop": 1e-2, "steps": 2, "scale": "log"}
    }
  })");
  json::Value& sweep = job.as_object()[1].second;
  sweep.as_object()[0].second.set("stop", json::Value(1000 + rows - 1));
  sweep.as_object()[0].second.set("steps", json::Value(rows));
  sweep.as_object()[1].second.set("steps", json::Value(cols));
  return job;
}

TEST(BatchKernel, GridOverTheCapAnswersWithTheExpansionError) {
  const api::EstimateRequest request = api::EstimateRequest::parse(square_sweep(1001, 1000));
  ASSERT_TRUE(request.ok()) << request.diagnostics.summary();
  const api::EstimateResponse response = api::run(request);
  EXPECT_FALSE(response.success);
  ASSERT_EQ(response.diagnostics.entries().size(), 1u);
  EXPECT_EQ(response.diagnostics.entries()[0].code, "estimation-failed");
  EXPECT_EQ(response.diagnostics.entries()[0].message,
            "sweep grid exceeds the maximum item count");

  const service::BatchKernelPlan plan =
      service::plan_batch_kernel(square_sweep(1001, 1000), api::Registry::global());
  EXPECT_FALSE(plan.eligible());
}

TEST(BatchKernel, GridAtTheCapPlansWithoutExpanding) {
  // A million-item grid plans from its 2,000 axis values; expanding it
  // would build a million documents first.
  const json::Value job = square_sweep(1000, 1000);
  const auto start = std::chrono::steady_clock::now();
  const service::BatchKernelPlan plan = service::plan_batch_kernel(job, api::Registry::global());
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  ASSERT_TRUE(plan.eligible()) << plan.reason();
  EXPECT_EQ(plan.num_items(), 1'000'000u);
  EXPECT_TRUE(plan.covers(999'999));
  EXPECT_LT(seconds, 1.0);
}

}  // namespace
}  // namespace qre
