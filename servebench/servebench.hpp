// Serving benchmark for qre_serve: shared declarations.
//
// The benchmark is one program (servebench.cpp) with three parts:
//  * workloads.cpp — the seeded request generators and the regime each
//    workload must stay in;
//  * process.cpp   — spawning qre_serve and reading its /proc counters;
//  * traced.cpp    — the separate in-process traced run that times calls
//    into each layer's public functions and derives the per-layer ledger.
// README.md in this directory documents workloads and metrics.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "server/client.hpp"

namespace servebench {

// ------------------------------------------------------------ workloads --

enum class Kind { kSweepDense, kSingleMix, kBatchReplay };

struct Workload {
  Kind kind;
  std::string name;
  std::size_t connections;      // closed-loop client connections
  std::size_t warmup_requests;  // per connection, before the timed window
  std::size_t traced_warmup;    // requests replayed before traced requests
};

/// Looks up a workload by name; throws std::runtime_error when unknown.
Workload workload_by_name(const std::string& name);

/// The request body with global index `index` of the seeded stream. Pure:
/// the same (workload, seed, index) always gives the same bytes.
std::string make_request(const Workload& w, std::uint64_t seed, std::uint64_t index);

/// Result items a successful response to any request of `w` carries.
std::size_t expected_items(const Workload& w);

/// batch-replay: the job documents whose results fill the store before
/// timing (every stored key exactly once).
std::vector<std::string> store_fill_batches();

/// Counter deltas read from GET /metrics around the timed window.
struct Counters {
  double estimate_hits = 0, estimate_misses = 0, estimate_evictions = 0;
  double factory_hits = 0, factory_misses = 0;
  double store_hits = 0, store_misses = 0;
  double requests = 0;

  static Counters from_metrics(const qre::json::Value& metrics);
  Counters operator-(const Counters& before) const;
  Counters operator+(const Counters& other) const;
  double estimate_hit_share() const;
  double factory_hit_share() const;
  double store_hit_share() const;
  /// Items neither resident in memory nor in the store: computed afresh.
  double new_key_share() const;
};

/// Checks that the window stayed in the workload's intended regime.
/// Returns one message per violated guard (empty = in regime).
std::vector<std::string> regime_violations(const Workload& w, const Counters& delta);

/// The check every response gets: status 200, success:true, `items`
/// result items and no per-item error. Empty when the response passes.
std::string check_response(const qre::server::Client::Result& r, std::size_t items);

/// Whether two response bodies carry the same bytes up to the batchStats
/// block, which holds run-shape counters (cache hits, workers) that differ
/// between otherwise identical runs.
bool same_results(const std::string& expected, const std::string& actual);

// -------------------------------------------------------------- process --

/// One spawned qre_serve. The destructor sends SIGTERM and waits for exit
/// (SIGKILL after a grace period), so no child outlives the benchmark.
class ServerProcess {
 public:
  /// Spawns `binary` with `args` plus "--port 0", reads the bound port from
  /// its stdout, and waits for the first /healthz 200. Stderr goes to
  /// `log_path`. Throws std::runtime_error when the server does not come
  /// up.
  ServerProcess(const std::string& binary, const std::vector<std::string>& args,
                const std::string& log_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// Seconds from spawn to the first /healthz 200.
  double setup_s() const { return setup_s_; }

  /// SIGTERM, then wait; returns the exit status (-1 when killed).
  int stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
  double setup_s_ = 0;
};

/// utime + stime of `pid` in seconds, from /proc/<pid>/stat.
double proc_cpu_s(pid_t pid);
/// VmHWM of `pid` in MiB, from /proc/<pid>/status.
double proc_peak_rss_mb(pid_t pid);
/// This process's own user + system CPU seconds.
double self_cpu_s();
/// {steal, total} jiffies of the whole machine, from /proc/stat: steal is
/// time the hypervisor ran something else while this machine wanted a CPU.
std::pair<double, double> machine_steal_jiffies();
/// On SIGINT/SIGTERM, stops the live ServerProcess before dying, so an
/// interrupted benchmark leaves no qre_serve behind.
void stop_server_on_signal();

// ---------------------------------------------------------------- stats --

/// Metrics by name, each as {value, unit}.
using Metrics = std::map<std::string, std::pair<double, std::string>>;

double median(std::vector<double> v);
/// Nearest-rank percentile (p in [0, 100]) of `v`.
double percentile(std::vector<double> v, double p);

// ---------------------------------------------------------- traced run --

struct TracedOptions {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  std::string store_dir;     // batch-replay: directory holding the filled store
  std::string scratch_dir;   // for replica stores and the scratch store
  std::string trace_path;    // Chrome-trace JSON written here
  double untraced_items_per_s = 0;
  Counters window;           // /metrics deltas of the untraced window
  double mean_response_bytes = 0;
};

/// Runs the traced pass and returns the per-layer metrics. Throws
/// std::runtime_error on a failed request.
Metrics traced_run(const TracedOptions& options);

}  // namespace servebench
