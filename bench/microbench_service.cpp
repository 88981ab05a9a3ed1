// Throughput of the concurrent sweep engine: a Figure 4 style sweep job
// (6 hardware profiles x 11 error budgets = 66 grid points) executed
// serially, on a 4-thread worker pool, and with the memoization cache over
// a batch with duplicated points. Records items/sec, parallel speedup, and
// cache hit rate in the shared bench JSON format (bench/bench_json.hpp).
#include <chrono>
#include <cstdio>
#include <thread>

#include "api/api.hpp"
#include "bench/bench_json.hpp"
#include "service/engine.hpp"

namespace {

using namespace qre;

const char* kSweepJob = R"({
  "logicalCounts": {
    "numQubits": 1000,
    "tCount": 1000000,
    "rotationCount": 10000,
    "rotationDepth": 4000,
    "cczCount": 500000,
    "measurementCount": 1000000
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

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct Run {
  double seconds = 0.0;
  double items_per_sec = 0.0;
  service::BatchStats stats;
};

Run timed_run(const json::Value& job, std::size_t workers, bool use_cache) {
  service::EngineOptions options;
  options.num_workers = workers;
  options.use_cache = use_cache;
  const auto start = std::chrono::steady_clock::now();
  json::Value result = api::run(api::EstimateRequest::parse(job), options).result;
  Run run;
  run.seconds = seconds_since(start);
  const json::Value& stats = result.at("batchStats");
  run.stats.num_items = stats.at("numItems").as_uint();
  run.stats.num_errors = stats.at("numErrors").as_uint();
  run.stats.cache_hits = stats.at("cacheHits").as_uint();
  run.stats.cache_misses = stats.at("cacheMisses").as_uint();
  run.items_per_sec = static_cast<double>(run.stats.num_items) / run.seconds;
  return run;
}

}  // namespace

int main() {
  json::Value sweep_job = json::parse(kSweepJob);

  // A batch with heavy duplication: the same 66-point grid swept over a
  // redundant axis, the shape frontier ablations produce.
  json::Value duplicated_job = sweep_job;
  {
    json::Value sweep = sweep_job.at("sweep");
    json::Array repeats;
    for (int i = 0; i < 4; ++i) repeats.push_back(json::Value(json::Object{}));
    sweep.set("constraints", json::Value(std::move(repeats)));
    duplicated_job.set("sweep", std::move(sweep));
  }

  std::printf("concurrent sweep engine, %u hardware threads\n\n",
              std::thread::hardware_concurrency());

  const Run serial = timed_run(sweep_job, 1, false);
  std::printf("serial,   no cache: %3zu items in %6.2fs  (%6.1f items/s)\n",
              serial.stats.num_items, serial.seconds, serial.items_per_sec);

  const Run parallel = timed_run(sweep_job, 4, false);
  std::printf("4 workers, no cache: %3zu items in %6.2fs  (%6.1f items/s, %.2fx)\n",
              parallel.stats.num_items, parallel.seconds, parallel.items_per_sec,
              serial.seconds / parallel.seconds);

  const Run cached = timed_run(duplicated_job, 4, true);
  const double hit_rate =
      static_cast<double>(cached.stats.cache_hits) /
      static_cast<double>(cached.stats.cache_hits + cached.stats.cache_misses);
  std::printf("4 workers, cached:   %3zu items in %6.2fs  (%6.1f items/s, %.0f%% hits)\n\n",
              cached.stats.num_items, cached.seconds, cached.items_per_sec,
              100.0 * hit_rate);

  json::Object metrics;
  metrics.emplace_back("grid_points", json::Value(static_cast<std::uint64_t>(serial.stats.num_items)));
  metrics.emplace_back("items_per_sec_serial", json::Value(serial.items_per_sec));
  metrics.emplace_back("items_per_sec_workers4", json::Value(parallel.items_per_sec));
  metrics.emplace_back("speedup_workers4", json::Value(serial.seconds / parallel.seconds));
  metrics.emplace_back("items_per_sec_cached", json::Value(cached.items_per_sec));
  metrics.emplace_back("cache_hit_rate", json::Value(hit_rate));
  metrics.emplace_back("cache_hits", json::Value(cached.stats.cache_hits));
  metrics.emplace_back("cache_misses", json::Value(cached.stats.cache_misses));
  metrics.emplace_back("hardware_threads",
                       json::Value(static_cast<std::uint64_t>(std::thread::hardware_concurrency())));
  qre::bench::write_bench_json("microbench_service", json::Value(std::move(metrics)));
  return 0;
}
