// Throughput of the concurrent sweep engine: a Figure 4 style sweep job
// (6 hardware profiles x 11 error budgets = 66 grid points) executed
// serially, on a 4-thread worker pool, and with the memoization cache over
// a batch with duplicated points. Records items/sec, parallel speedup,
// process CPU per item, and cache hit rate in the shared bench JSON format
// (bench/bench_json.hpp).
//
// Every timed run starts from the same warm T-factory cache (cleared, then
// filled by one untimed pass), so the serial and 4-worker runs differ only
// in the pool: a cold first run would make the speedup measure the factory
// cache instead. Each timed run repeats the job kRepeats times. CPU per item
// is the process's user + system time (getrusage) over the run, divided by
// the items: at width 4 it shows what the workers' contention costs, which
// items/sec on a machine with fewer cores than workers cannot.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "api/api.hpp"
#include "bench/bench_json.hpp"
#include "service/engine.hpp"
#include "tfactory/factory_cache.hpp"

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

constexpr int kRepeats = 300;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// User + system CPU time of the whole process so far, in seconds.
double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

service::EngineOptions engine_options(std::size_t workers, bool use_cache) {
  service::EngineOptions options;
  options.num_workers = workers;
  options.use_cache = use_cache;
  return options;
}

/// Clears the process-wide T-factory cache and refills it with one untimed
/// pass of `job`, so every timed run starts from the same warm designs.
void warm_factory_cache(const json::Value& job) {
  FactoryCache::global().clear();
  api::run(api::EstimateRequest::parse(job), engine_options(1, false));
}

struct Run {
  double seconds = 0.0;
  double items_per_sec = 0.0;
  double cpu_us_per_item = 0.0;
  /// Summed over the repeats.
  service::BatchStats stats;
};

Run timed_run(const json::Value& job, std::size_t workers, bool use_cache) {
  warm_factory_cache(job);
  const service::EngineOptions options = engine_options(workers, use_cache);
  Run run;
  const double cpu_start = process_cpu_seconds();
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < kRepeats; ++r) {
    json::Value result = api::run(api::EstimateRequest::parse(job), options).result;
    const json::Value& stats = result.at("batchStats");
    run.stats.num_items += stats.at("numItems").as_uint();
    run.stats.num_errors += stats.at("numErrors").as_uint();
    run.stats.cache_hits += stats.at("cacheHits").as_uint();
    run.stats.cache_misses += stats.at("cacheMisses").as_uint();
  }
  run.seconds = seconds_since(start);
  const double items = static_cast<double>(run.stats.num_items);
  run.cpu_us_per_item = 1e6 * (process_cpu_seconds() - cpu_start) / items;
  run.items_per_sec = items / run.seconds;
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
  std::printf("serial,    no cache: %5zu items in %6.3fs  (%8.1f items/s, %5.2f us CPU/item)\n",
              serial.stats.num_items, serial.seconds, serial.items_per_sec,
              serial.cpu_us_per_item);

  const Run parallel = timed_run(sweep_job, 4, false);
  std::printf(
      "4 workers, no cache: %5zu items in %6.3fs  (%8.1f items/s, %5.2f us CPU/item, %.2fx)\n",
      parallel.stats.num_items, parallel.seconds, parallel.items_per_sec,
      parallel.cpu_us_per_item, serial.seconds / parallel.seconds);

  const Run cached = timed_run(duplicated_job, 4, true);
  const double hit_rate =
      static_cast<double>(cached.stats.cache_hits) /
      static_cast<double>(cached.stats.cache_hits + cached.stats.cache_misses);
  std::printf("4 workers, cached:   %5zu items in %6.3fs  (%8.1f items/s, %.0f%% hits)\n\n",
              cached.stats.num_items, cached.seconds, cached.items_per_sec,
              100.0 * hit_rate);

  json::Object metrics;
  metrics.emplace_back("grid_points",
                       json::Value(static_cast<std::uint64_t>(serial.stats.num_items / kRepeats)));
  metrics.emplace_back("items_per_sec_serial", json::Value(serial.items_per_sec));
  metrics.emplace_back("items_per_sec_workers4", json::Value(parallel.items_per_sec));
  metrics.emplace_back("speedup_workers4", json::Value(serial.seconds / parallel.seconds));
  metrics.emplace_back("cpu_us_per_item_serial", json::Value(serial.cpu_us_per_item));
  metrics.emplace_back("cpu_us_per_item_workers4", json::Value(parallel.cpu_us_per_item));
  metrics.emplace_back("items_per_sec_cached", json::Value(cached.items_per_sec));
  metrics.emplace_back("cache_hit_rate", json::Value(hit_rate));
  metrics.emplace_back("cache_hits", json::Value(cached.stats.cache_hits));
  metrics.emplace_back("cache_misses", json::Value(cached.stats.cache_misses));
  metrics.emplace_back("hardware_threads",
                       json::Value(static_cast<std::uint64_t>(std::thread::hardware_concurrency())));
  qre::bench::write_bench_json("microbench_service", json::Value(std::move(metrics)));
  return 0;
}
