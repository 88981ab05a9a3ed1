// servebench — end-to-end serving benchmark for qre_serve.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              --server PATH/qre_serve --root REPO_ROOT --out DIR
//   servebench --workload NAME --seed N --dump-requests K
//
// One run: fill the store (batch-replay only), spawn qre_serve several
// times to time set-up, gate on the Figure 3 golden, warm up, drive the
// server closed-loop over loopback for S seconds, byte-compare a seeded
// sample of responses against the in-process API, check the workload's
// regime from /metrics, and (--trace 1) run the in-process traced pass
// for the per-layer ledger. The last stdout line is the JSON result;
// the exit status is non-zero when any gate fails. servebench/run.py
// builds the program and supplies --server/--root/--out.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "api/api.hpp"
#include "arith/multipliers.hpp"
#include "server/client.hpp"
#include "servebench.hpp"
#include "service/engine.hpp"
#include "store/estimate_store.hpp"

namespace fs = std::filesystem;
namespace json = qre::json;

namespace servebench {

// ------------------------------------------------------------ responses --

namespace {

std::size_t count_occurrences(const std::string& text, std::string_view needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

}  // namespace

/// The in-window check on every response: status 200, success:true, the
/// expected item count, and no per-item error. A scan, not a parse, so the
/// single-connection workload's client stays cheap.
std::string check_response(const qre::server::Client::Result& r, std::size_t items) {
  if (!r.ok) return "transport error: " + r.error;
  if (r.status != 200) return "HTTP status " + std::to_string(r.status);
  if (r.body.rfind(R"({"schemaVersion":2,"success":true,)", 0) != 0) return "success is not true";
  if (r.body.find(R"("error":{)") != std::string::npos) return "per-item error";
  const std::size_t found = count_occurrences(r.body, R"("physicalCounts":)");
  if (found != items) {
    return "expected " + std::to_string(items) + " items, got " + std::to_string(found);
  }
  return {};
}

bool same_results(const std::string& expected, const std::string& actual) {
  constexpr std::string_view kStats = R"(,"batchStats":)";
  const std::size_t stats = expected.find(kStats);
  // Up to the batchStats key; the whole body when there is none.
  const std::size_t prefix = stats == std::string::npos ? stats : stats + kStats.size();
  return actual.compare(0, prefix, expected, 0, prefix) == 0;
}

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kServerProcesses = 5;
constexpr std::size_t kSamplesPerConnection = 2;  // per server process
constexpr const char* kReplayPersistInterval = "2";

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server;
  std::string root = ".";
  std::string out = ".bench_build/servebench/run";
  long dump_requests = -1;
  bool corrupt_sample = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") a.workload = value();
    else if (arg == "--seed") a.seed = std::stoull(value());
    else if (arg == "--seconds") a.seconds = std::stod(value());
    else if (arg == "--trace") a.trace = value() != "0";
    else if (arg == "--server") a.server = value();
    else if (arg == "--root") a.root = value();
    else if (arg == "--out") a.out = value();
    else if (arg == "--dump-requests") a.dump_requests = std::stol(value());
    else if (arg == "--corrupt-sample") a.corrupt_sample = true;
    else throw std::runtime_error("unknown argument '" + arg + "'");
  }
  if (a.workload.empty()) throw std::runtime_error("--workload is required");
  if (!(a.seconds > 0)) throw std::runtime_error("--seconds must be > 0");
  return a;
}

struct Sample {
  std::uint64_t index = 0;
  std::string body;
  std::string response;
};

struct LoadResult {
  std::vector<double> latencies_ms;
  std::uint64_t attempted = 0, failed = 0, items = 0, bytes = 0;
  double wall_s = 0;
  std::uint64_t next_index = 0;  // first request index no connection reached
  std::vector<Sample> samples;
  std::vector<std::string> errors;

  /// Pools another load's requests into this one (wall times add up).
  void add(LoadResult&& other) {
    attempted += other.attempted;
    failed += other.failed;
    items += other.items;
    bytes += other.bytes;
    wall_s += other.wall_s;
    latencies_ms.insert(latencies_ms.end(), other.latencies_ms.begin(), other.latencies_ms.end());
    for (Sample& s : other.samples) samples.push_back(std::move(s));
    for (std::string& e : other.errors) errors.push_back(std::move(e));
  }
};

bool sampled(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t x = (seed + 0x632be59bd9b4e019ULL) ^ (index * 0x9e3779b97f4a7c15ULL);
  x ^= x >> 31;
  x *= 0xd6e8feb86659fd93ULL;
  x ^= x >> 32;
  return x % 8 == 0;
}

/// Drives `port` closed-loop from w.connections threads: each sends its
/// next request only when the previous response fully arrived. Runs
/// `per_connection` requests each, or until `seconds` elapse when
/// per_connection is 0.
LoadResult run_load(const Workload& w, std::uint64_t seed, std::uint16_t port,
                    std::uint64_t first_index, std::size_t per_connection, double seconds,
                    bool keep_samples) {
  const std::size_t conns = w.connections;
  const std::size_t items = expected_items(w);
  std::vector<LoadResult> parts(conns);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::vector<Clock::time_point> ends(conns, start);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& part = parts[c];
      qre::server::RetryPolicy no_retry;
      no_retry.max_attempts = 1;
      qre::server::Client client("127.0.0.1", port, no_retry);
      for (std::size_t j = 0;; ++j) {
        if (per_connection > 0 ? j >= per_connection : Clock::now() >= deadline) break;
        const std::uint64_t index = first_index + j * conns + c;
        std::string body = make_request(w, seed, index);
        const Clock::time_point t0 = Clock::now();
        qre::server::Client::Result r = client.post("/v2/estimate", body);
        const Clock::time_point t1 = Clock::now();
        ++part.attempted;
        part.latencies_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
        const std::string error = check_response(r, items);
        if (!error.empty()) {
          ++part.failed;
          if (part.errors.size() < 3) part.errors.push_back(error);
        } else {
          part.items += items;
          part.bytes += r.body.size();
        }
        if (keep_samples && part.samples.size() < kSamplesPerConnection &&
            (j == 0 || sampled(seed, index))) {
          part.samples.push_back({index, std::move(body), std::move(r.body)});
        }
        ends[c] = t1;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoadResult all;
  std::size_t rounds = 0;
  for (LoadResult& p : parts) {
    rounds = std::max<std::size_t>(rounds, p.attempted);
    all.add(std::move(p));
  }
  all.wall_s = std::chrono::duration<double>(*std::max_element(ends.begin(), ends.end()) - start)
                   .count();
  all.next_index = first_index + rounds * conns;
  return all;
}

// ---------------------------------------------------------------- gates --

/// The Figure 3 job of tests/test_golden.cpp: three multipliers at 32..2048
/// bits on qubit_maj_ns_e4 with a 1e-4 budget.
std::string fig3_job() {
  const std::vector<qre::MultiplierKind> kinds = {qre::MultiplierKind::kStandard,
                                                  qre::MultiplierKind::kKaratsuba,
                                                  qre::MultiplierKind::kWindowed};
  std::vector<std::future<qre::LogicalCounts>> counts;
  for (qre::MultiplierKind kind : kinds) {
    for (std::uint64_t bits = 32; bits <= 2048; bits *= 2) {
      counts.push_back(std::async(std::launch::async,
                                  [kind, bits] { return qre::multiplier_counts(kind, bits); }));
    }
  }
  json::Array items;
  for (auto& c : counts) {
    json::Object item;
    item.emplace_back("logicalCounts", c.get().to_json());
    items.push_back(json::Value(std::move(item)));
  }
  json::Object job;
  job.emplace_back("schemaVersion", 2);
  json::Object qubit;
  qubit.emplace_back("name", "qubit_maj_ns_e4");
  job.emplace_back("qubitParams", json::Value(std::move(qubit)));
  job.emplace_back("errorBudget", 1e-4);
  job.emplace_back("items", json::Value(std::move(items)));
  return json::Value(std::move(job)).dump();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// POSTs the Figure 3 job and compares the normalized result (batchStats
/// dropped, pretty-printed) byte for byte with the checked-in golden.
std::string golden_gate(std::uint16_t port, const std::string& root) {
  const std::string golden = read_file(root + "/tests/data/golden/fig3_multiplication_sweep.json");
  qre::server::Client client("127.0.0.1", port);
  const qre::server::Client::Result r = client.post("/v2/estimate", fig3_job());
  if (!r.ok || r.status != 200) return "golden job failed: HTTP " + std::to_string(r.status);
  const json::Value response = json::parse(r.body);
  json::Object pruned;
  for (const auto& [key, value] : response.at("result").as_object()) {
    if (key != "batchStats") pruned.emplace_back(key, value);
  }
  if (json::Value(std::move(pruned)).pretty() + "\n" != golden) {
    return "Figure 3 result differs from tests/data/golden/fig3_multiplication_sweep.json";
  }
  return {};
}

/// Byte-compares each sampled response with the in-process API's answer
/// (api::run on a fresh private cache).
std::string sample_gate(std::vector<Sample>& samples, bool corrupt) {
  if (samples.empty()) return "no sampled responses";
  if (corrupt) {
    std::string& r = samples.front().response;
    std::size_t at = r.size() / 2;
    while (at < r.size() && (r[at] < '0' || r[at] > '9')) ++at;
    if (at < r.size()) r[at] = r[at] == '0' ? '1' : '0';
  }
  for (const Sample& s : samples) {
    const qre::api::EstimateRequest request = qre::api::EstimateRequest::parse(json::parse(s.body));
    const std::string expected = qre::api::run(request).to_json().dump() + "\n";
    if (!same_results(expected, s.response)) {
      return "response to request " + std::to_string(s.index) + " differs from api::run";
    }
  }
  return {};
}

// ---------------------------------------------------------------- store --

/// Fills `dir` with the batch-replay store through the same engine
/// write-through path the server uses, then persists it.
void fill_store(const std::string& dir) {
  fs::create_directories(dir);
  qre::store::EstimateStore store(dir);
  qre::service::Engine engine;
  engine.set_store(&store);
  for (const std::string& batch : store_fill_batches()) {
    const qre::api::EstimateResponse r =
        qre::api::run(qre::api::EstimateRequest::parse(json::parse(batch)), engine.options());
    if (!r.success) throw std::runtime_error("store fill failed: " + r.diagnostics.summary());
    for (const json::Value& item : r.result.at("results").as_array()) {
      if (item.find("error") != nullptr) throw std::runtime_error("store fill item failed");
    }
  }
  if (!store.persist(true)) throw std::runtime_error("store persist failed");
}

// --------------------------------------------------------------- output --

void print_table(const char* title, const Metrics& metrics) {
  std::printf("%s\n", title);
  for (const auto& [name, v] : metrics) {
    std::printf("  %-32s %14.6g %s\n", name.c_str(), v.first, v.second.c_str());
  }
}

json::Value metrics_json(const Metrics& metrics) {
  json::Object out;
  for (const auto& [name, v] : metrics) {
    json::Object m;
    m.emplace_back("value", v.first);
    m.emplace_back("unit", v.second);
    out.emplace_back(name, json::Value(std::move(m)));
  }
  return json::Value(std::move(out));
}

int run(const Args& args) {
  const Workload w = workload_by_name(args.workload);
  if (args.dump_requests >= 0) {
    for (long i = 0; i < args.dump_requests; ++i) {
      std::printf("%s\n", make_request(w, args.seed, static_cast<std::uint64_t>(i)).c_str());
    }
    return 0;
  }
  if (args.server.empty()) throw std::runtime_error("--server is required");

  const std::string out_dir = args.out + "/" + w.name;
  fs::remove_all(out_dir);
  fs::create_directories(out_dir);
  const std::string log_path = out_dir + "/qre_serve.log";

  std::vector<std::string> server_args;
  const std::string store_dir = out_dir + "/store";
  const std::string filled_dir = out_dir + "/store-filled";
  if (w.kind == Kind::kBatchReplay) {
    const Clock::time_point t0 = Clock::now();
    fill_store(filled_dir);
    std::fprintf(stderr, "servebench: filled store in %.2f s\n",
                 std::chrono::duration<double>(Clock::now() - t0).count());
    server_args = {"--cache-dir", store_dir, "--persist-interval", kReplayPersistInterval};
  }
  // Every server starts from the same filled store, not from what the
  // previous one persisted, so set-up times compare like with like.
  auto restore_store = [&] {
    if (w.kind != Kind::kBatchReplay) return;
    fs::remove_all(store_dir);
    fs::create_directories(store_dir);
    fs::copy_file(filled_dir + "/estimates.qrestore", store_dir + "/estimates.qrestore");
  };

  // Several servers per run: each spawn times set-up, and the window is
  // split evenly over them and pooled, so no single process's luck (its
  // CPU placement, a burst of contention) decides the run.
  std::vector<std::string> failures;
  std::vector<double> setups, peak_rss;
  LoadResult load;
  Counters delta;
  double server_cpu = 0, client_cpu = 0;
  std::uint64_t next_index = 0;
  double steal = 0, jiffies = 0;
  for (int i = 0; i < kServerProcesses; ++i) {
    restore_store();
    ServerProcess server(args.server, server_args, log_path);
    setups.push_back(server.setup_s());
    if (i == 0) {
      if (std::string e = golden_gate(server.port(), args.root); !e.empty()) {
        failures.push_back(e);
      }
    }
    const LoadResult warm =
        run_load(w, args.seed, server.port(), next_index, w.warmup_requests, 0, false);
    if (warm.failed > 0) failures.push_back("warm-up request failed: " + warm.errors.front());

    qre::server::Client metrics_client("127.0.0.1", server.port());
    auto read_counters = [&] {
      const qre::server::Client::Result r = metrics_client.get("/metrics");
      if (!r.ok || r.status != 200) throw std::runtime_error("GET /metrics failed");
      return Counters::from_metrics(json::parse(r.body));
    };
    const Counters before = read_counters();
    const double server_cpu0 = proc_cpu_s(server.pid());
    const double client_cpu0 = self_cpu_s();
    const auto [steal0, jiffies0] = machine_steal_jiffies();
    LoadResult segment = run_load(w, args.seed, server.port(), warm.next_index, 0,
                                  args.seconds / kServerProcesses, true);
    client_cpu += self_cpu_s() - client_cpu0;
    const auto [steal1, jiffies1] = machine_steal_jiffies();
    steal += steal1 - steal0;
    jiffies += jiffies1 - jiffies0;
    const double segment_cpu = proc_cpu_s(server.pid()) - server_cpu0;
    server_cpu += segment_cpu;
    Counters d = read_counters() - before;
    d.requests -= 1;  // the /metrics read that closed the window
    delta = delta + d;
    peak_rss.push_back(proc_peak_rss_mb(server.pid()));
    if (server.stop() != 0) failures.push_back("qre_serve did not drain cleanly");
    next_index = segment.next_index;
    std::printf("server %d: set-up %.4f s, %llu requests, %.6g items/s, p50 %.4g ms, "
                "%.4g CPU s\n",
                i + 1, setups.back(), static_cast<unsigned long long>(segment.attempted),
                static_cast<double>(segment.items) / segment.wall_s,
                percentile(segment.latencies_ms, 50), segment_cpu);
    load.add(std::move(segment));
  }

  if (load.failed > 0) failures.push_back("request failed: " + load.errors.front());
  if (std::string e = sample_gate(load.samples, args.corrupt_sample); !e.empty()) {
    failures.push_back(e);
  }
  for (const std::string& v : regime_violations(w, delta)) failures.push_back("regime: " + v);

  const double items = static_cast<double>(std::max<std::uint64_t>(load.items, 1));
  const double attempted = static_cast<double>(std::max<std::uint64_t>(load.attempted, 1));
  const double failed_share = static_cast<double>(load.failed) / attempted;
  Metrics e2e;
  e2e["items_per_s"] = {static_cast<double>(load.items) / load.wall_s, "1/s"};
  e2e["latency_p50_ms"] = {percentile(load.latencies_ms, 50), "ms"};
  e2e["latency_p90_ms"] = {percentile(load.latencies_ms, 90), "ms"};
  e2e["success_share"] = {1.0 - failed_share, "share"};
  e2e["setup_s"] = {median(setups), "s"};
  e2e["peak_rss_mb"] = {median(peak_rss), "MiB"};
  e2e["server_cpu_us_per_item"] = {server_cpu * 1e6 / items, "us"};

  std::printf("workload %s  seed %llu  window %.2f s over %d servers  %zu closed-loop "
              "connection(s)\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed), load.wall_s,
              kServerProcesses, w.connections);
  print_table("end-to-end", e2e);
  std::printf("  %-32s %14.6g share  (%llu of %llu requests)\n", "failed_share", failed_share,
              static_cast<unsigned long long>(load.failed),
              static_cast<unsigned long long>(load.attempted));
  std::printf("  latency samples %zu (%zu beyond p90)\n", load.latencies_ms.size(),
              load.latencies_ms.size() - static_cast<std::size_t>(
                                             0.9 * static_cast<double>(load.latencies_ms.size())));
  std::printf("regime: estimate-cache hits %.4f  factory-cache hits %.4f  store hits %.4f  "
              "new keys %.4f  evictions/request %.3f\n",
              delta.estimate_hit_share(), delta.factory_hit_share(), delta.store_hit_share(),
              delta.new_key_share(), delta.estimate_evictions / std::max(delta.requests, 1.0));
  std::printf("load generator: %.2f CPU s over the window (%.2f cores); server %.2f CPU s; "
              "hypervisor steal %.1f%% of machine CPU time\n",
              client_cpu, client_cpu / load.wall_s, server_cpu,
              jiffies > 0 ? 100.0 * steal / jiffies : 0.0);

  Metrics layers;
  if (args.trace && failures.empty()) {
    TracedOptions t;
    t.workload = &w;
    t.seed = args.seed;
    t.store_dir = filled_dir;
    t.scratch_dir = out_dir + "/traced";
    t.trace_path = out_dir + "/trace.json";
    t.untraced_items_per_s = e2e["items_per_s"].first;
    t.window = delta;
    t.mean_response_bytes = static_cast<double>(load.bytes) / attempted;
    layers = traced_run(t);
    print_table("per-layer (traced run)", layers);
    std::printf("trace written to %s\n", t.trace_path.c_str());
  }

  for (const std::string& f : failures) std::printf("FAILED: %s\n", f.c_str());
  const bool correct = failures.empty();
  json::Object result;
  result.emplace_back("correct", correct);
  result.emplace_back("attempted", json::Value(load.attempted));
  result.emplace_back("failed", json::Value(load.failed));
  result.emplace_back("metrics", metrics_json(args.trace ? layers : e2e));
  std::printf("%s\n", json::Value(std::move(result)).dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::stop_server_on_signal();
  try {
    return servebench::run(servebench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: error: %s\n", e.what());
    return 2;
  }
}
