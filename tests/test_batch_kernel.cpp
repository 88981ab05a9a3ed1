// Tests of the sweep plan (service/batch_kernel.hpp): bit-identity against
// the per-item path on Fig. 3/4 style and randomized grids, spliced cache
// keys, on-demand grid documents, exact cache accounting for mixed
// planned/per-item batches, warm-vs-cold store identity, the grid cap,
// expand_sweep's errors, and sweeps the plan does not compose. The
// per-item reference is the same grid submitted as an "items" batch of the
// expanded documents, which never consults the plan. Also the pinned
// built-in profiles every composed item input copies, under concurrent
// copies.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "api/registry.hpp"
#include "common/math.hpp"
#include "formula/formula.hpp"
#include "qec/qec_scheme.hpp"
#include "tfactory/distillation_unit.hpp"
#include "json/json.hpp"
#include "service/batch_kernel.hpp"
#include "service/cache.hpp"
#include "service/engine.hpp"
#include "service/sweep.hpp"
#include "tests/run_request.hpp"
#include "tfactory/factory_cache.hpp"

namespace qre {
namespace {

using service::EngineOptions;
using service::EstimateCache;

json::Value run_sweep(const json::Value& job, std::size_t workers = 1,
                      EstimateCache* cache = nullptr) {
  EngineOptions options;
  options.num_workers = workers;
  options.cache = cache;
  return run_request(job, options);
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
// top-level batch counters.
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

/// How many of the sweep's grid items the plan composes from its parsed
/// axis values; the rest run the per-item runner.
std::size_t covered_items(const json::Value& job) {
  const service::BatchKernelPlan plan = service::plan_batch_kernel(job, api::Registry::global());
  std::size_t covered = 0;
  for (std::size_t i = 0; i < plan.num_items(); ++i) covered += plan.covers(i) ? 1 : 0;
  return covered;
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

TEST(BatchKernel, SweepBatchStatsHaveTheItemsBatchFields) {
  // A sweep's batchStats carries exactly the fields of the same grid run
  // as an "items" batch: which items the plan composed is not reported.
  const json::Value job = json::parse(kFig4StyleSweep);
  auto fields = [](const json::Value& result) {
    std::vector<std::string> keys;
    for (const auto& [key, value] : result.at("batchStats").as_object()) keys.push_back(key);
    return keys;
  };
  EXPECT_EQ(fields(run_sweep(job)), fields(run_items(job)));
}

// ------------------------------------------------------- bit identity ---

TEST(BatchKernel, BitIdenticalToPerItemPathOnFig4StyleGrid) {
  json::Value job = json::parse(kFig4StyleSweep);
  EXPECT_EQ(covered_items(job), 28u);  // 4 profiles x 7 budgets
  expect_bit_identical(run_sweep(job), run_items(job));
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
  EXPECT_EQ(covered_items(job), 6u);
  expect_bit_identical(run_sweep(job), run_items(job));
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
  EXPECT_EQ(covered_items(job), 8u);
  expect_bit_identical(run_sweep(job), run_items(job));
}

TEST(BatchKernel, ParallelPlanMatchesSerialPlanAndPerItemPath) {
  json::Value job = json::parse(kFig4StyleSweep);
  json::Value serial = run_sweep(job, 1);
  json::Value parallel = run_sweep(job, 4);
  json::Value per_item = run_items(job);
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
    SCOPED_TRACE("iter " + std::to_string(iter) + " job " + doc.dump());
    EXPECT_EQ(covered_items(doc), service::expand_sweep(doc).size());
    expect_bit_identical(run_sweep(doc, workers), run_items(doc));
  }
}

// ------------------------------------------ per-item items + caching ---

TEST(BatchKernel, InvalidAxisValuesRunPerItemToIdenticalErrorDocuments) {
  // The third qubit value fails validation, so its grid row runs through
  // the per-item runner; documents must match the per-item path exactly,
  // including the structured error entries.
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
  json::Value planned = run_sweep(job);
  EXPECT_EQ(covered_items(job), 4u);
  EXPECT_EQ(planned.at("batchStats").at("numErrors").as_uint(), 2u);
  expect_bit_identical(planned, run_items(job));
}

TEST(BatchKernel, CacheAccountingIsExactAcrossPlannedAndPerItemItems) {
  // 2 qubit values (one invalid) x errorBudget [a, b, a]: six grid items,
  // four distinct documents. A sweep caches a point from its second miss,
  // so planned and per-item grid points alike miss twice, the duplicate
  // answering the same bytes, and the duplicated two stay resident. The
  // "items" batch of the same documents fills its cache on every miss, so
  // each duplicate is one hit there.
  json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 50, "tCount": 50000},
    "sweep": {
      "qubitParams": [{"name": "qubit_gate_ns_e3"}, {"name": "no_such_preset"}],
      "errorBudget": [0.001, 0.01, 0.001]
    }
  })");
  EstimateCache cache;
  json::Value result = run_sweep(job, 1, &cache);
  const json::Value& stats = result.at("batchStats");
  EXPECT_EQ(covered_items(job), 3u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(stats.at("numItems").as_uint(), 6u);
  EXPECT_EQ(stats.at("cacheMisses").as_uint(), 6u);
  EXPECT_EQ(stats.at("cacheHits").as_uint(), 0u);
  EXPECT_EQ(stats.at("cacheEvictions").as_uint(), 0u);
  // The duplicated budget recomputes both the planned result and the
  // per-item error document, to the same bytes.
  const json::Array& results = result.at("results").as_array();
  EXPECT_EQ(results[0].dump(), results[2].dump());
  EXPECT_EQ(results[3].dump(), results[5].dump());
  EXPECT_NE(results[3].find("error"), nullptr);

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

TEST(BatchKernel, SecondEngineServesEverySweepItemFromTheStore) {
  // The restart path: sweeps fill the store though not the in-memory
  // cache, so a second engine over the same store estimates nothing.
  const json::Value job = json::parse(kFig4StyleSweep);
  const api::EstimateRequest request = api::EstimateRequest::parse(job);
  ASSERT_TRUE(request.ok());
  MapBacking store;
  service::Engine first;
  first.set_store(&store);
  const api::EstimateResponse cold = api::run(request, first.options());
  ASSERT_TRUE(cold.success);
  EXPECT_EQ(store.size(), 28u);
  EXPECT_EQ(first.cache().size(), 0u);

  FactoryCache::global().clear();  // any estimate would search again
  service::Engine second;
  second.set_store(&store);
  const api::EstimateResponse warm = api::run(request, second.options());
  ASSERT_TRUE(warm.success);
  EXPECT_EQ(store.served(), 28u);
  EXPECT_EQ(FactoryCache::global().misses(), 0u);
  EXPECT_EQ(second.cache().misses(), 28u);
  EXPECT_EQ(second.cache().size(), 0u);
  expect_bit_identical(warm.result, cold.result);
}

// ------------------------------------------------ uncomposable sweeps ---

/// Sweeps the plan composes no input for: every item runs the per-item
/// runner on its on-demand document.
const char* const kUncomposableSweeps[] = {
    // A frontier estimate type.
    R"({
      "logicalCounts": {"numQubits": 20, "tCount": 5000},
      "estimateType": "frontier",
      "sweep": {"errorBudget": [0.001, 0.01]}
    })",
    // Two axes in one section.
    R"({
      "logicalCounts": {"numQubits": 20, "tCount": 5000},
      "sweep": {
        "constraints.maxTFactories": [1, 4],
        "constraints.logicalDepthFactor": [2, 4]
      }
    })",
    // A qubit axis with a pinned qecScheme.
    R"({
      "logicalCounts": {"numQubits": 20, "tCount": 5000},
      "qecScheme": {"name": "surface_code"},
      "sweep": {"qubitParams": [{"name": "qubit_gate_ns_e3"}, {"name": "qubit_gate_ns_e4"}]}
    })",
    // An axis outside the planned sections.
    R"({
      "logicalCounts": {"numQubits": 20, "tCount": 5000},
      "sweep": {"qecScheme.name": ["surface_code"], "errorBudget": [0.001, 0.01]}
    })",
    // An axis descending through another axis's leaf: the key skeleton is
    // ambiguous, so keys come from the item documents.
    R"({
      "logicalCounts": {"numQubits": 20, "tCount": 5000},
      "sweep": {
        "qecScheme": [{"name": "surface_code"},
                      {"name": "surface_code", "errorCorrectionThreshold": 0.02}],
        "qecScheme.maxCodeDistance": [25, 51]
      }
    })",
};

TEST(BatchKernel, UncomposableSweepsRunEveryItemPerItem) {
  for (const char* text : kUncomposableSweeps) {
    const json::Value job = json::parse(text);
    SCOPED_TRACE(job.dump());
    const service::BatchKernelPlan plan = service::plan_batch_kernel(job, api::Registry::global());
    ASSERT_GT(plan.num_items(), 0u);
    for (std::size_t i = 0; i < plan.num_items(); ++i) EXPECT_FALSE(plan.covers(i)) << i;
    expect_bit_identical(run_sweep(job), run_items(job));
  }
}

// ------------------------------------------------------- spliced keys ---

TEST(BatchKernel, SplicedKeysMatchCanonicalKeysOfExpandedItems) {
  // Cache correctness hinges on spliced keys being byte-identical to
  // canonical_key() of the expanded documents the per-item path keys on.
  std::vector<json::Value> jobs = {json::parse(R"({
    "logicalCounts": {"numQubits": 60, "tCount": 80000},
    "constraints": {"logicalDepthFactor": 2},
    "sweep": {
      "qubitParams": [{"name": "qubit_gate_ns_e3"}, {"name": "qubit_maj_ns_e6"}],
      "errorBudget": {"start": 1e-4, "stop": 1e-2, "steps": 5, "scale": "log"},
      "constraints.maxTFactories": [1, 2, 16]
    }
  })")};
  for (const char* text : kUncomposableSweeps) jobs.push_back(json::parse(text));
  for (const json::Value& job : jobs) {
    SCOPED_TRACE(job.dump());
    std::vector<json::Value> items = service::expand_sweep(job);
    service::BatchKernelPlan plan =
        service::plan_batch_kernel(job, items, api::Registry::global());
    ASSERT_TRUE(plan.eligible()) << plan.reason();
    ASSERT_EQ(plan.num_items(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      EXPECT_EQ(plan.item_key(i), service::canonical_key(items[i])) << "item " << i;
    }
  }
}

// ------------------------------------------------ on-demand documents ---

/// Plans `job` from its axis values alone and asserts every grid document
/// the plan builds is byte-identical to expand_sweep's.
void expect_item_documents_match_expansion(const json::Value& job) {
  const service::BatchKernelPlan plan = service::plan_batch_kernel(job, api::Registry::global());
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
      // An invalid value: its items run per item; the documents still match.
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

TEST(BatchKernel, ExactlyTheItemsWithAnInvalidValueRunPerItem) {
  const json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 50, "tCount": 50000},
    "sweep": {
      "errorBudget": [0.001, 0.01],
      "qubitParams": [{"name": "qubit_gate_ns_e3"}, {"name": "no_such_preset"},
                      {"name": "qubit_maj_ns_e4"}]
    }
  })");
  const service::BatchKernelPlan plan = service::plan_batch_kernel(job, api::Registry::global());
  ASSERT_EQ(plan.num_items(), 6u);
  for (std::size_t i = 0; i < plan.num_items(); ++i) {
    EXPECT_EQ(plan.covers(i), i % 3 != 1) << "item " << i;
  }
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

  EXPECT_THROW(service::plan_batch_kernel(square_sweep(1001, 1000), api::Registry::global()),
               Error);
}

TEST(BatchKernel, GridAtTheCapPlansWithoutExpanding) {
  // A million-item grid plans from its 2,000 axis values; expanding it
  // would build a million documents first.
  const json::Value job = square_sweep(1000, 1000);
  const auto start = std::chrono::steady_clock::now();
  const service::BatchKernelPlan plan = service::plan_batch_kernel(job, api::Registry::global());
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_EQ(plan.num_items(), 1'000'000u);
  EXPECT_TRUE(plan.covers(999'999));
  EXPECT_LT(seconds, 1.0);
}

// ------------------------------------------------------- path conflicts ---

TEST(BatchKernel, PathConflictsAnswerWithTheFirstExpansionErrorInRowMajorOrder) {
  // Two values a dotted axis cannot descend through: constraints = 1 on the
  // slowest axis (first met in axis order, at grid item 2) and
  // qecScheme = 2 on the next (grid item 1, first in row-major order).
  // The request fails with exactly the error expand_sweep throws.
  const json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 20, "tCount": 5000},
    "sweep": {
      "constraints": [{"maxTFactories": 2}, 1],
      "qecScheme": [{"name": "surface_code"}, 2],
      "constraints.logicalDepthFactor": [2],
      "qecScheme.maxCodeDistance": [25]
    }
  })");
  std::string expected;
  try {
    service::expand_sweep(job);
  } catch (const Error& e) {
    expected = e.what();
  }
  ASSERT_NE(expected.find("'qecScheme'"), std::string::npos) << expected;

  const api::EstimateRequest request = api::EstimateRequest::parse(job);
  ASSERT_TRUE(request.ok()) << request.diagnostics.summary();
  const api::EstimateResponse response = api::run(request);
  EXPECT_FALSE(response.success);
  ASSERT_EQ(response.diagnostics.entries().size(), 1u);
  EXPECT_EQ(response.diagnostics.entries()[0].code, "estimation-failed");
  EXPECT_EQ(response.diagnostics.entries()[0].message, expected);
}

// ------------------------------------------------------ pinned built-ins ---

// The built-in QEC schemes and distillation units are pinned for the life
// of the process (common/pinned.hpp): their copies share formula programs
// and the eval memo through handles without a reference count.

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Mismatches between `scheme`'s (memoized) overheads and those of freshly
/// parsed copies of its formulas, over the odd distances 1..25.
int scheme_mismatches(const QecScheme& scheme, const QubitParams& qubit) {
  const Formula cycle = Formula::parse(scheme.logical_cycle_time_text());
  const Formula patch = Formula::parse(scheme.physical_qubits_text());
  int mismatches = 0;
  for (std::uint64_t d = 1; d <= 25; d += 2) {
    const Environment env = qec_formula_environment(qubit, d);
    if (!same_bits(scheme.logical_cycle_time_ns(qubit, d), cycle.evaluate(env))) ++mismatches;
    if (scheme.physical_qubits_per_logical_qubit(d) != ceil_to_u64(patch.evaluate(env))) {
      ++mismatches;
    }
  }
  return mismatches;
}

/// Mismatches between every formula of `units` and a freshly parsed copy.
int unit_mismatches(const std::vector<DistillationUnit>& units) {
  Environment env;
  env.set("inputErrorRate", 1e-3);
  env.set("cliffordErrorRate", 1e-4);
  env.set("readoutErrorRate", 1e-4);
  env.set("oneQubitMeasurementTime", 100.0);
  int mismatches = 0;
  for (const DistillationUnit& u : units) {
    for (const Formula* f : {&u.failure_probability, &u.output_error_rate,
                             &u.duration_at_physical_ns}) {
      if (!same_bits(f->evaluate(env), Formula::parse(f->text()).evaluate(env))) ++mismatches;
    }
  }
  return mismatches;
}

TEST(PinnedBuiltins, ConcurrentCopiesEvaluateLikeFreshlyParsedFormulas) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  const QubitParams gate = QubitParams::gate_ns_e3();
  const QubitParams majorana = QubitParams::maj_ns_e4();
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        // Fresh copies every round, dropped at its end, so the threads
        // copy and destroy handles to the same built-ins concurrently.
        const QecScheme surface = QecScheme::surface_code_gate_based();
        const QecScheme floquet = QecScheme::floquet_code();
        const std::vector<DistillationUnit> units = DistillationUnit::default_units();
        mismatches += scheme_mismatches(surface, gate) + scheme_mismatches(floquet, majorana) +
                      unit_mismatches(units);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(PinnedBuiltins, ACopyKeepsWorkingAfterEveryOtherCopyIsGone) {
  std::optional<QecScheme> scheme;
  std::optional<std::vector<DistillationUnit>> units;
  {
    const std::vector<QecScheme> copies(8, QecScheme::floquet_code());
    scheme = copies.back();
    const std::vector<std::vector<DistillationUnit>> unit_copies(
        8, DistillationUnit::default_units());
    units = unit_copies.front();
  }
  EXPECT_EQ(scheme_mismatches(*scheme, QubitParams::maj_ns_e6()), 0);
  EXPECT_EQ(unit_mismatches(*units), 0);
}

TEST(PinnedBuiltins, CustomizingABuiltinGivesItItsOwnMemo) {
  const QubitParams qubit = QubitParams::gate_ns_e3();
  const QecScheme builtin = QecScheme::surface_code_gate_based();
  // Fills the built-in's pinned memo at distances 7 and 9.
  const double builtin_cycle = builtin.logical_cycle_time_ns(qubit, 7);
  EXPECT_EQ(builtin.physical_qubits_per_logical_qubit(9), 162u);

  std::optional<QecScheme> survivor;
  {
    const QecScheme custom = QecScheme::customize(
        builtin, json::parse(R"({"logicalCycleTime": "5 * codeDistance",
                                 "physicalQubitsPerLogicalQubit": "3 * codeDistance ^ 2"})"));
    // The customized scheme answers from its own memo, not the built-in's.
    EXPECT_EQ(custom.logical_cycle_time_ns(qubit, 7), 35.0);
    EXPECT_EQ(custom.physical_qubits_per_logical_qubit(9), 243u);
    survivor = custom;
  }
  // Its memo is owned: a copy outlives the customized original.
  EXPECT_EQ(survivor->logical_cycle_time_ns(qubit, 11), 55.0);
  EXPECT_EQ(scheme_mismatches(*survivor, qubit), 0);
  // And the built-in's pinned memo never saw the custom values.
  EXPECT_TRUE(
      same_bits(QecScheme::surface_code_gate_based().logical_cycle_time_ns(qubit, 7),
                builtin_cycle));
  EXPECT_EQ(QecScheme::surface_code_gate_based().physical_qubits_per_logical_qubit(9), 162u);
  EXPECT_EQ(scheme_mismatches(QecScheme::surface_code_gate_based(), qubit), 0);
}

}  // namespace
}  // namespace qre
