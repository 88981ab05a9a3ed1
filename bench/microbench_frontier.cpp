// Adaptive frontier explorer vs the fixed geometric cap grid: probe
// economy (points recovered per estimate spent), parallel exploration, and
// warm-engine reuse on the qubit-time trade-off workload. Records the
// numbers in the shared bench JSON format (bench/bench_json.hpp).
//
// The headline metric is probe efficiency: the fixed grid spends its whole
// probe budget up front, while adaptive bisection stops refining intervals
// that went flat in either objective — on this workload it recovers the
// same frontier resolution from fewer estimates, and a warm engine replays
// the entire exploration without a single raw estimate.
#include <chrono>
#include <cstdio>

#include "api/api.hpp"
#include "bench/bench_json.hpp"
#include "service/engine.hpp"

namespace {

using namespace qre;

const char* kFrontierJob = R"({
  "schemaVersion": 2,
  "logicalCounts": {
    "numQubits": 100,
    "tCount": 1000000,
    "rotationCount": 30000,
    "rotationDepth": 11000,
    "cczCount": 250000,
    "measurementCount": 150000
  },
  "qubitParams": {"name": "qubit_gate_ns_e3"},
  "errorBudget": 0.001,
  "frontier": {"maxProbes": 64, "qubitTolerance": 0.01, "runtimeTolerance": 0.01}
})";

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct Run {
  double seconds = 0.0;
  std::uint64_t probes = 0;
  std::uint64_t points = 0;
  std::uint64_t misses = 0;
};

Run explore_once(const api::EstimateRequest& request, service::Engine& engine,
                 std::size_t workers) {
  service::EngineOptions options = engine.options();
  options.num_workers = workers;
  const std::uint64_t misses_before = engine.cache().misses();
  const auto start = std::chrono::steady_clock::now();
  api::EstimateResponse response = api::run(request, options);
  Run run;
  run.seconds = seconds_since(start);
  if (!response.success) {
    std::fprintf(stderr, "frontier run failed: %s\n", response.diagnostics.summary().c_str());
    std::exit(1);
  }
  const json::Value& stats = response.result.at("frontierStats");
  run.probes = stats.at("numProbes").as_uint();
  run.points = stats.at("numPoints").as_uint();
  run.misses = engine.cache().misses() - misses_before;
  return run;
}

}  // namespace

int main() {
  api::Registry registry = api::Registry::with_builtins();
  api::EstimateRequest request = api::EstimateRequest::parse(json::parse(kFrontierJob), registry);
  if (!request.ok()) {
    std::fprintf(stderr, "bench job invalid: %s\n", request.diagnostics.summary().c_str());
    return 1;
  }

  // Fixed-grid baseline: the legacy estimateType "frontier" cap scan with
  // the same estimate budget (estimate_frontier's default 16-point grid,
  // run through the same façade for a like-for-like timing).
  json::Value grid_job = request.document;
  {
    json::Object pruned;
    for (const auto& [key, value] : grid_job.as_object()) {
      if (key != "frontier") pruned.emplace_back(key, value);
    }
    grid_job = json::Value(std::move(pruned));
    grid_job.set("estimateType", json::Value("frontier"));
  }
  const auto grid_start = std::chrono::steady_clock::now();
  api::EstimateRequest grid_request = api::EstimateRequest::parse(grid_job, registry);
  api::EstimateResponse grid_response = api::run(grid_request, {}, registry);
  const double grid_seconds = seconds_since(grid_start);
  const std::size_t grid_points =
      grid_response.success ? grid_response.result.materialize().at("frontier").as_array().size()
                            : 0;

  service::Engine serial_engine;
  Run cold = explore_once(request, serial_engine, 1);
  Run warm = explore_once(request, serial_engine, 1);
  service::Engine parallel_engine;
  Run parallel = explore_once(request, parallel_engine, 4);

  std::printf("adaptive frontier exploration (maxProbes 64, tolerances 1%%)\n\n");
  std::printf("fixed grid:    %llu points, %.3f s\n",
              static_cast<unsigned long long>(grid_points), grid_seconds);
  std::printf("adaptive cold: %llu points from %llu probes (%llu raw estimates), %.3f s\n",
              static_cast<unsigned long long>(cold.points),
              static_cast<unsigned long long>(cold.probes),
              static_cast<unsigned long long>(cold.misses), cold.seconds);
  std::printf("adaptive warm: %llu raw estimates, %.3f s (%.1fx cold)\n",
              static_cast<unsigned long long>(warm.misses), warm.seconds,
              cold.seconds / warm.seconds);
  std::printf("adaptive x4:   %.3f s (%.2fx serial)\n", parallel.seconds,
              cold.seconds / parallel.seconds);

  json::Object metrics;
  metrics.emplace_back("gridPoints", static_cast<std::uint64_t>(grid_points));
  metrics.emplace_back("gridSeconds", grid_seconds);
  metrics.emplace_back("adaptivePoints", cold.points);
  metrics.emplace_back("adaptiveProbes", cold.probes);
  metrics.emplace_back("adaptiveColdSeconds", cold.seconds);
  metrics.emplace_back("adaptiveColdEstimates", cold.misses);
  metrics.emplace_back("adaptiveWarmSeconds", warm.seconds);
  metrics.emplace_back("adaptiveWarmEstimates", warm.misses);
  metrics.emplace_back("adaptiveParallelSeconds", parallel.seconds);
  qre::bench::write_bench_json("BENCH_frontier", json::Value(std::move(metrics)));
  return 0;
}
