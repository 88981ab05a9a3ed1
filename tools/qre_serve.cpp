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
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "api/schema.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/flags.hpp"
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

struct Options {
  qre::server::ServerOptions server;
  qre::server::ServiceOptions service;
  std::string port_file;
  std::string failpoints;
  std::string trace_file;
  bool trace = false;
  std::vector<std::string> profile_packs;
};

[[noreturn]] void usage_exit(const std::vector<qre::flags::Flag>& table) {
  std::printf(
      "qre_serve — HTTP estimation daemon for JSON job documents\n"
      "\n"
      "usage: qre_serve [options]\n");
  qre::flags::print_help(stdout, table);
  std::exit(0);
}

int parse_args(int argc, char** argv, Options& opts) {
  using namespace qre::flags;
  opts.server.port = 8080;
  opts.service.jobs.num_workers = 2;
  const std::vector<Flag> table = {
      {"--port", "N", "TCP port (default 8080; 0 picks an ephemeral port)",
       [&](const char* v) {
         opts.server.port = static_cast<std::uint16_t>(integer("--port", v, 0, 65535));
       }},
      {"--bind", "ADDR", "IPv4 bind address (default 127.0.0.1)",
       [&](const char* v) { opts.server.bind_address = v; }},
      {"--port-file", "PATH",
       "write the bound port to PATH (for scripts and\n"
       "ephemeral ports)",
       [&](const char* v) { opts.port_file = v; }},
      {"--threads", "N", "connection worker threads (default 4; at most 1024)",
       [&](const char* v) { opts.server.num_workers = integer("--threads", v, 1, kMaxWorkers); }},
      {"--job-workers", "N", "async job queue workers (default 2; at most 1024)",
       [&](const char* v) {
         opts.service.jobs.num_workers =
             integer("--job-workers", v, 1, kMaxWorkers);
       }},
      {"--backlog", "N",
       "async job backlog bound; submits beyond it get\n"
       "429 (default 64)",
       [&](const char* v) {
         opts.service.jobs.max_backlog = integer("--backlog", v, 1, LLONG_MAX);
       }},
      {"--jobs", "N",
       "threads per batch/sweep request, at most: the\n"
       "request thread plus helpers from one shared\n"
       "pool (default: hardware concurrency; at most 1024)",
       [&](const char* v) {
         opts.service.engine.num_workers = integer("--jobs", v, 1, kMaxWorkers);
       }},
      {"--cache-capacity", "N",
       "shared estimate-cache entry bound (LRU; 0 =\n"
       "unbounded; default " +
           std::to_string(qre::service::EstimateCache::kDefaultCapacity) + ")",
       [&](const char* v) {
         opts.service.engine.cache_capacity =
             integer("--cache-capacity", v, 0, LLONG_MAX);
       }},
      {"--cache-dir", "DIR",
       "persistent estimate store: prewarm from\n"
       "DIR/estimates.qrestore on startup, write results\n"
       "through, persist atomically on drain (the\n"
       "directory is created if missing; docs/store.md)",
       [&](const char* v) { opts.service.cache_dir = nonempty("--cache-dir", v); }},
      {"--persist-interval", "S",
       "with --cache-dir, also persist the store\n"
       "every S seconds (default: only on drain)",
       [&](const char* v) { opts.service.persist_interval_s = seconds("--persist-interval", v); }},
      {"--profile-pack", "P",
       "register a JSON profile pack before serving\n"
       "(repeatable; packs load BEFORE the first request)",
       [&](const char* v) { opts.profile_packs.emplace_back(v); }},
      {"--request-deadline", "S",
       "bound every POST /v2/estimate run to S seconds:\n"
       "sweeps degrade to per-item \"cancelled\" entries,\n"
       "single/frontier runs answer 408 deadline-exceeded\n"
       "(default: unbounded; docs/robustness.md)",
       [&](const char* v) { opts.service.request_deadline_s = seconds("--request-deadline", v); }},
      {"--recv-timeout", "S",
       "receive timeout on open connections in seconds\n"
       "(0 disables; default 30)",
       [&](const char* v) {
         opts.server.receive_timeout_seconds =
             static_cast<int>(integer("--recv-timeout", v, 0, INT_MAX));
       }},
      {"--send-timeout", "S",
       "send timeout in seconds — a reader that stalls\n"
       "longer loses its connection instead of wedging a\n"
       "worker (0 disables; default 30)",
       [&](const char* v) {
         opts.server.send_timeout_seconds =
             static_cast<int>(integer("--send-timeout", v, 0, INT_MAX));
       }},
      {"--failpoints", "SPEC",
       "arm fault-injection sites, e.g.\n"
       "'store.persist.before_rename=crash;engine.evaluate\n"
       ".before=5%error' (also via the QRE_FAILPOINTS env\n"
       "var; catalog in docs/robustness.md)",
       [&](const char* v) { opts.failpoints = v; }},
      {"--trace", nullptr,
       "record spans into the in-memory trace ring;\n"
       "export live via GET /v2/trace\n"
       "(docs/observability.md)",
       [&](const char*) { opts.trace = true; }},
      {"--trace-file", "PATH",
       "implies --trace; additionally write the ring as\n"
       "Chrome-trace JSON to PATH on shutdown (loads in\n"
       "Perfetto / chrome://tracing)",
       [&](const char* v) {
         opts.trace_file = nonempty("--trace-file", v);
         opts.trace = true;
       }},
      {"--access-log", "PATH",
       "append one JSON line per request to PATH\n"
       "('-' = stderr): request id, route, status,\n"
       "latency, bytes, deadline/cancel flags",
       [&](const char* v) { opts.service.access_log_path = nonempty("--access-log", v); }},
      {"--version", nullptr, "print the version and exit",
       [](const char*) {
         std::printf("qre_serve %s (schema v%d)\n", qre::version_string(),
                     qre::api::kSchemaVersion);
         std::exit(0);
       }},
      {"--help", nullptr, "this text", [&table](const char*) { usage_exit(table); }},
      {"-h", nullptr, "same as --help", [&table](const char*) { usage_exit(table); }},
  };
  return parse(argc, argv, table, nullptr);
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
                     static_cast<unsigned long long>(qre::trace::ring_stats().dropped));
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
