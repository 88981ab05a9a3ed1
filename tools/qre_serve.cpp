// qre_serve — the estimation daemon: the same JSON job documents qre_cli
// runs, served over HTTP/1.1 with one long-lived engine so caches stay warm
// across requests (paper Section IV-A positions the estimator as exactly
// this kind of cloud service).
//
// Endpoints (docs/server.md has the full reference and curl examples):
//   POST /v2/estimate     synchronous estimate (NDJSON streaming on
//                         "Accept: application/x-ndjson" for batches)
//   POST /v2/jobs         async submit; GET/DELETE /v2/jobs/{id} poll/cancel
//                         (DELETE cancels queued AND running jobs; running
//                         ones cancel cooperatively at the next item)
//   POST /v2/validate     schema dry-run
//   GET  /v2/profiles     profile registry dump
//   GET  /healthz /version /metrics (JSON or ?format=prometheus)
//   GET  /v2/trace        Chrome-trace export of recorded spans (--trace)
//
// SIGINT/SIGTERM drain gracefully: in-flight requests finish, queued async
// jobs flip to cancelled, then the process exits 0.
#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "api/schema.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/trace.hpp"
#include "common/version.hpp"
#include "server/router.hpp"
#include "server/server.hpp"
#include "store/store.hpp"

namespace {

qre::server::Server* g_server = nullptr;

extern "C" void handle_stop_signal(int) {
  // request_stop is async-signal-safe: an atomic store + self-pipe write.
  if (g_server != nullptr) g_server->request_stop();
}

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "qre_serve — HTTP estimation daemon for JSON job documents\n"
               "\n"
               "usage: qre_serve [options]\n"
               "  --port N            TCP port (default 8080; 0 picks an ephemeral port)\n"
               "  --bind ADDR         IPv4 bind address (default 127.0.0.1)\n"
               "  --port-file PATH    write the bound port to PATH (for scripts and\n"
               "                      ephemeral ports)\n"
               "  --threads N         connection worker threads (default 4)\n"
               "  --job-workers N     async job queue workers (default 2)\n"
               "  --backlog N         async job backlog bound; submits beyond it get\n"
               "                      429 (default 64)\n"
               "  --jobs N            threads per batch/sweep request, at most: the\n"
               "                      request thread plus helpers from one shared\n"
               "                      pool (default: hardware concurrency)\n"
               "  --cache-capacity N  shared estimate-cache entry bound (LRU; 0 =\n"
               "                      unbounded; default %zu)\n"
               "  --cache-dir DIR     persistent estimate store: prewarm from\n"
               "                      DIR/estimates.qrestore on startup, write results\n"
               "                      through, persist atomically on drain (the\n"
               "                      directory is created if missing; docs/store.md)\n"
               "  --persist-interval S  with --cache-dir, also persist the store\n"
               "                      every S seconds (default: only on drain)\n"
               "  --profile-pack P    register a JSON profile pack before serving\n"
               "                      (repeatable; packs load BEFORE the first request)\n"
               "  --request-deadline S  bound every POST /v2/estimate run to S seconds:\n"
               "                      sweeps degrade to per-item \"cancelled\" entries,\n"
               "                      single/frontier runs answer 408 deadline-exceeded\n"
               "                      (default: unbounded; docs/robustness.md)\n"
               "  --recv-timeout S    receive timeout on open connections in seconds\n"
               "                      (0 disables; default 30)\n"
               "  --send-timeout S    send timeout in seconds — a reader that stalls\n"
               "                      longer loses its connection instead of wedging a\n"
               "                      worker (0 disables; default 30)\n"
               "  --failpoints SPEC   arm fault-injection sites, e.g.\n"
               "                      'store.persist.before_rename=crash;engine.evaluate\n"
               "                      .before=5%%error' (also via the QRE_FAILPOINTS env\n"
               "                      var; catalog in docs/robustness.md)\n"
               "  --trace             record spans into the in-memory trace ring;\n"
               "                      export live via GET /v2/trace\n"
               "                      (docs/observability.md)\n"
               "  --trace-file PATH   implies --trace; additionally write the ring as\n"
               "                      Chrome-trace JSON to PATH on shutdown (loads in\n"
               "                      Perfetto / chrome://tracing)\n"
               "  --access-log PATH   append one JSON line per request to PATH\n"
               "                      ('-' = stderr): request id, route, status,\n"
               "                      latency, bytes, deadline/cancel flags\n"
               "  --version           print the version and exit\n"
               "  --help              this text\n",
               qre::service::EstimateCache::kDefaultCapacity);
}

struct Options {
  qre::server::ServerOptions server;
  qre::server::ServiceOptions service;
  std::string port_file;
  std::string failpoints;
  std::string trace_file;
  bool trace = false;
  std::vector<std::string> profile_packs;
};

/// Parses a decimal integer in [min_value, max_value]. Out-of-range text,
/// including values strtol cannot represent, is an error rather than a
/// silently clamped or truncated setting.
bool parse_size(const char* text, long min_value, long& out, long max_value = LONG_MAX) {
  char* end = nullptr;
  errno = 0;
  out = std::strtol(text, &end, 10);
  if (end == nullptr || *end != '\0' || errno == ERANGE || out < min_value || out > max_value) {
    std::fprintf(stderr, "error: expected an integer in [%ld, %ld], got '%s'\n", min_value,
                 max_value, text);
    return false;
  }
  return true;
}

/// Parses a duration in seconds: finite, > 0, and at most INT_MAX (the
/// bound of the integer timeouts), so the clock deadlines and waits
/// computed from it cannot overflow.
bool parse_seconds(const char* flag, const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(out > 0 && out <= INT_MAX)) {
    std::fprintf(stderr, "error: %s expects seconds in (0, %d], got '%s'\n", flag, INT_MAX,
                 text);
    return false;
  }
  return true;
}

int parse_args(int argc, char** argv, Options& opts) {
  opts.server.port = 8080;
  opts.service.jobs.num_workers = 2;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    long n = 0;
    if (arg == "--port") {
      const char* v = next("--port");
      if (v == nullptr || !parse_size(v, 0, n, 65535)) return 2;
      opts.server.port = static_cast<std::uint16_t>(n);
    } else if (arg == "--bind") {
      const char* v = next("--bind");
      if (v == nullptr) return 2;
      opts.server.bind_address = v;
    } else if (arg == "--port-file") {
      const char* v = next("--port-file");
      if (v == nullptr) return 2;
      opts.port_file = v;
    } else if (arg == "--threads") {
      const char* v = next("--threads");
      if (v == nullptr || !parse_size(v, 1, n)) return 2;
      opts.server.num_workers = static_cast<std::size_t>(n);
    } else if (arg == "--job-workers") {
      const char* v = next("--job-workers");
      if (v == nullptr || !parse_size(v, 1, n)) return 2;
      opts.service.jobs.num_workers = static_cast<std::size_t>(n);
    } else if (arg == "--backlog") {
      const char* v = next("--backlog");
      if (v == nullptr || !parse_size(v, 1, n)) return 2;
      opts.service.jobs.max_backlog = static_cast<std::size_t>(n);
    } else if (arg == "--jobs") {
      const char* v = next("--jobs");
      if (v == nullptr || !parse_size(v, 1, n)) return 2;
      opts.service.engine.num_workers = static_cast<std::size_t>(n);
    } else if (arg == "--cache-capacity") {
      const char* v = next("--cache-capacity");
      if (v == nullptr || !parse_size(v, 0, n)) return 2;
      opts.service.engine.cache_capacity = static_cast<std::size_t>(n);
    } else if (arg == "--cache-dir") {
      const char* v = next("--cache-dir");
      if (v == nullptr || *v == '\0') return 2;
      opts.service.cache_dir = v;
    } else if (arg == "--persist-interval") {
      const char* v = next("--persist-interval");
      if (v == nullptr ||
          !parse_seconds("--persist-interval", v, opts.service.persist_interval_s)) {
        return 2;
      }
    } else if (arg == "--profile-pack") {
      const char* v = next("--profile-pack");
      if (v == nullptr) return 2;
      opts.profile_packs.emplace_back(v);
    } else if (arg == "--request-deadline") {
      const char* v = next("--request-deadline");
      if (v == nullptr ||
          !parse_seconds("--request-deadline", v, opts.service.request_deadline_s)) {
        return 2;
      }
    } else if (arg == "--recv-timeout") {
      const char* v = next("--recv-timeout");
      if (v == nullptr || !parse_size(v, 0, n, INT_MAX)) return 2;
      opts.server.receive_timeout_seconds = static_cast<int>(n);
    } else if (arg == "--send-timeout") {
      const char* v = next("--send-timeout");
      if (v == nullptr || !parse_size(v, 0, n, INT_MAX)) return 2;
      opts.server.send_timeout_seconds = static_cast<int>(n);
    } else if (arg == "--failpoints") {
      const char* v = next("--failpoints");
      if (v == nullptr) return 2;
      opts.failpoints = v;
    } else if (arg == "--trace") {
      opts.trace = true;
    } else if (arg == "--trace-file") {
      const char* v = next("--trace-file");
      if (v == nullptr || *v == '\0') return 2;
      opts.trace_file = v;
      opts.trace = true;
    } else if (arg == "--access-log") {
      const char* v = next("--access-log");
      if (v == nullptr || *v == '\0') return 2;
      opts.service.access_log_path = v;
    } else if (arg == "--version") {
      std::printf("qre_serve %s (schema v%d)\n", qre::version_string(),
                  qre::api::kSchemaVersion);
      std::exit(0);
    } else if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n\n", arg.c_str());
      print_usage(stderr);
      return 2;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (int status = parse_args(argc, argv, opts); status != 0) return status;

  try {
    // Fault injection arms before anything runs; a bad spec is a startup
    // error, not a surprise mid-serve.
    qre::failpoint::configure_from_env();
    qre::failpoint::configure(opts.failpoints);

    // All registry mutation happens here, before the first request: the
    // serving phase is read-only per the api::Registry concurrency contract.
    qre::api::Registry& registry = qre::api::Registry::global();
    for (const std::string& pack_path : opts.profile_packs) {
      qre::Diagnostics diags;
      registry.load_profile_pack(qre::json::parse_file(pack_path), diags);
      for (const qre::Diagnostic& d : diags.entries()) {
        std::fprintf(stderr, "%s\n", d.to_json().dump().c_str());
      }
      if (diags.has_errors()) {
        std::fprintf(stderr, "error: profile pack '%s' failed to load\n", pack_path.c_str());
        return 1;
      }
    }

    if (!opts.service.cache_dir.empty()) {
      qre::store::ensure_directory(opts.service.cache_dir);
    }

    if (opts.trace) qre::trace::enable();

    qre::server::Service service(registry, opts.service);
    qre::server::Router router(service);
    opts.server.metrics = &service.metrics();  // transport drives the connection gauge
    opts.server.access_log = service.access_log();  // pre-router rejects log too
    qre::server::Server server(router, opts.server);
    server.start();

    if (!opts.port_file.empty()) {
      std::FILE* f = std::fopen(opts.port_file.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "error: cannot write port file '%s'\n", opts.port_file.c_str());
        return 1;
      }
      std::fprintf(f, "%u\n", static_cast<unsigned>(server.port()));
      std::fclose(f);
    }

    std::printf("qre_serve %s listening on http://%s:%u\n", qre::version_string(),
                opts.server.bind_address.c_str(), static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    g_server = &server;
    struct sigaction action{};
    action.sa_handler = handle_stop_signal;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);
    ::signal(SIGPIPE, SIG_IGN);

    server.wait();
    std::fprintf(stderr, "qre_serve: draining (in-flight requests finish, queued jobs cancel)\n");
    server.stop();
    service.jobs().drain();
    service.persist_store();  // final snapshot before the stats line
    g_server = nullptr;

    if (!opts.trace_file.empty()) {
      if (qre::trace::write_chrome_json(opts.trace_file)) {
        std::fprintf(stderr, "qre_serve: wrote trace to %s (%llu dropped)\n",
                     opts.trace_file.c_str(),
                     static_cast<unsigned long long>(qre::trace::dropped()));
      } else {
        std::fprintf(stderr, "qre_serve: cannot write trace file '%s'\n",
                     opts.trace_file.c_str());
      }
    }

    std::fprintf(stderr, "qre_serve: served %llu request(s); bye\n",
                 static_cast<unsigned long long>(service.metrics().requests_total()));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
