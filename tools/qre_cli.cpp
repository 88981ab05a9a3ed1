// qre_cli — command-line front end of the estimator, consuming the same
// JSON job documents the cloud service accepts (paper Section IV-A), built
// on the v2 API façade (src/api/).
//
// Usage: qre_cli --help (the flag table in parse_args generates it).
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/flags.hpp"
#include "common/trace.hpp"
#include "common/version.hpp"
#include "report/report.hpp"
#include "server/metrics_registry.hpp"
#include "service/engine.hpp"
#include "service/sweep.hpp"
#include "store/estimate_store.hpp"

namespace {

const char* kDemoJob = R"({
  "schemaVersion": 2,
  "logicalCounts": {
    "numQubits": 100,
    "tCount": 1000000,
    "rotationCount": 30000,
    "rotationDepth": 11000,
    "cczCount": 250000,
    "measurementCount": 150000
  },
  "qubitParams": {"name": "qubit_maj_ns_e4"},
  "errorBudget": 0.001,
  "items": [
    {"qubitParams": {"name": "qubit_gate_ns_e3"}},
    {"qubitParams": {"name": "qubit_maj_ns_e6"}},
    {"estimateType": "frontier"}
  ]
})";

struct Options {
  bool text_mode = false;
  bool demo = false;
  bool stream = false;
  bool frontier = false;
  bool expand_only = false;
  bool use_cache = true;
  bool validate_only = false;
  bool list_profiles = false;
  bool response_envelope = false;
  bool cache_stats = false;
  std::size_t num_workers = 0;
  std::size_t cache_capacity = qre::service::EstimateCache::kDefaultCapacity;
  bool timings = false;
  double deadline_s = 0;  // 0 = unbounded
  std::string failpoints;
  std::string trace_file;
  std::string cache_dir;
  std::vector<std::string> profile_packs;
  std::string path;
};

[[noreturn]] void usage_exit(std::FILE* out, const std::vector<qre::flags::Flag>& table,
                             int status) {
  std::fprintf(out,
               "qre_cli — fault-tolerant quantum resource estimation from JSON jobs\n"
               "\n"
               "usage:\n"
               "  qre_cli [options] <job.json>  run the job, print the JSON result\n"
               "  qre_cli [options] -           read the job document from stdin\n"
               "  qre_cli store dump <store>    print store records as NDJSON, one\n"
               "                                {\"key\", \"result\"} object per line\n"
               "  qre_cli store info <store>    print header/record statistics as JSON\n"
               "  qre_cli store merge <a> <b> [...] -o <out>  merge stores\n"
               "                                (last input wins on duplicate keys)\n"
               "  qre_cli store gc --max-bytes N <store> [-o <out>]  bound a store,\n"
               "                                dropping oldest records first (in place\n"
               "                                unless -o names an output)\n"
               "\n"
               "options:\n");
  qre::flags::print_help(out, table);
  std::fprintf(out,
               "\n"
               "Job documents follow schema v2 (docs/schema_v2.md): logicalCounts plus\n"
               "optional schemaVersion, qubitParams, qecScheme, errorBudget, constraints,\n"
               "distillationUnitSpecifications, estimateType (singlePoint | frontier),\n"
               "and items[] or a \"sweep\" parameter grid for batches, or a \"frontier\"\n"
               "section for adaptive Pareto exploration (docs/frontier.md). Documents\n"
               "without schemaVersion are treated as v1 and upgraded in place. Validation\n"
               "problems are reported as {severity, code, path, message} diagnostics\n"
               "with JSON-pointer paths.\n");
  std::exit(status);
}

/// Parses argv strictly: unknown flags and extra positional paths are
/// usage errors (exit code 2), not silently treated as file names.
int parse_args(int argc, char** argv, Options& opts) {
  using namespace qre::flags;
  const std::vector<Flag> table = {
      {"--text", nullptr, "print single estimates as a text report",
       [&](const char*) { opts.text_mode = true; }},
      {"--response", nullptr,
       "print the full v2 response envelope\n"
       "{schemaVersion, success, diagnostics, result}",
       [&](const char*) { opts.response_envelope = true; }},
      {"--validate", nullptr,
       "dry-run schema check: structured diagnostics to stderr,\n"
       "exit 0 (valid) / 1",
       [&](const char*) { opts.validate_only = true; }},
      {"--list-profiles", nullptr,
       "dump the registry (qubit profiles, QEC schemes,\n"
       "distillation units) as JSON",
       [&](const char*) { opts.list_profiles = true; }},
      {"--profile-pack", "<pack.json>",
       "register a JSON profile pack before the job runs\n"
       "(repeatable)",
       [&](const char* v) { opts.profile_packs.emplace_back(v); }},
      {"--jobs", "N",
       "run batch/sweep items on at most N threads: this one\n"
       "plus pool helpers (at most 1024)",
       [&](const char* v) { opts.num_workers = integer("--jobs", v, 1, kMaxWorkers); }},
      {"--stream", nullptr, "emit batch results as NDJSON, one item per line",
       [&](const char*) { opts.stream = true; }},
      {"--sweep", nullptr,
       "expand the sweep grid and print the items without\n"
       "estimating (dry run)",
       [&](const char*) { opts.expand_only = true; }},
      {"--frontier", nullptr,
       "run the job as an adaptive Pareto frontier exploration\n"
       "(adds a default \"frontier\" section when absent); combine\n"
       "with --stream for one NDJSON line per probe",
       [&](const char*) { opts.frontier = true; }},
      {"--no-cache", nullptr, "disable result memoization",
       [&](const char*) { opts.use_cache = false; }},
      {"--cache-capacity", "N",
       "bound the result cache to N entries (LRU eviction; 0 =\n"
       "unbounded)",
       [&](const char* v) { opts.cache_capacity = integer("--cache-capacity", v, 0, LLONG_MAX); }},
      {"--cache-dir", "DIR",
       "persistent estimate store: prewarm from\n"
       "DIR/estimates.qrestore, write new results through,\n"
       "persist atomically after the run (created if missing;\n"
       "docs/store.md)",
       [&](const char* v) { opts.cache_dir = nonempty("--cache-dir", v); }},
      {"--cache-stats", nullptr,
       "print one JSON document with the estimate-cache,\n"
       "factory-cache and (with --cache-dir) store counters to\n"
       "stderr",
       [&](const char*) { opts.cache_stats = true; }},
      {"--deadline", "S",
       "bound the run to S seconds: batch items past the\n"
       "deadline become per-item \"cancelled\" entries,\n"
       "single/frontier runs fail with a deadline-exceeded\n"
       "diagnostic (docs/robustness.md)",
       [&](const char* v) { opts.deadline_s = seconds("--deadline", v); }},
      {"--failpoints", "SPEC",
       "arm fault-injection sites, e.g.\n"
       "'store.persist.before_rename=error' (also via\n"
       "QRE_FAILPOINTS; docs/robustness.md)",
       [&](const char* v) { opts.failpoints = v; }},
      {"--timings", nullptr,
       "print a one-line JSON timing summary to stderr after the\n"
       "run: wall time, items/s, cache hit rate, p50/p99 item\n"
       "latency (docs/observability.md)",
       [&](const char*) { opts.timings = true; }},
      {"--trace-file", "PATH",
       "record spans during the run and write them as\n"
       "Chrome-trace JSON to PATH (loads in Perfetto /\n"
       "chrome://tracing)",
       [&](const char* v) { opts.trace_file = nonempty("--trace-file", v); }},
      {"--demo", nullptr, "run a built-in demonstration job",
       [&](const char*) { opts.demo = true; }},
      {"--version", nullptr, "print the build and schema version",
       [](const char*) {
         std::printf("qre_cli %s (schema v%d)\n", qre::version_string(),
                     qre::api::kSchemaVersion);
         std::exit(0);
       }},
      {"--help", nullptr, "print this help",
       [&table](const char*) { usage_exit(stdout, table, 0); }},
      {"-h", nullptr, "same as --help", [&table](const char*) { usage_exit(stdout, table, 0); }},
  };
  bool have_path = false;
  const int status = parse(argc, argv, table, [&](const char* arg) {
    if (have_path) {
      throw UsageError("multiple job paths given ('" + opts.path + "' and '" + arg +
                       "'); qre_cli runs one job document per invocation");
    }
    opts.path = arg;
    have_path = true;
  });
  if (status != 0) return status;
  if (!opts.demo && !have_path && !opts.list_profiles) usage_exit(stderr, table, 2);
  if (opts.demo && have_path) {
    std::fprintf(stderr, "error: --demo does not take a job path\n");
    return 2;
  }
  if (opts.validate_only && !opts.demo && !have_path) {
    std::fprintf(stderr, "error: --validate requires a job path\n");
    return 2;
  }
  if (opts.stream && opts.response_envelope) {
    std::fprintf(stderr,
                 "error: --stream and --response are mutually exclusive (both own stdout)\n");
    return 2;
  }
  if (opts.frontier && (opts.expand_only || opts.text_mode)) {
    std::fprintf(stderr,
                 "error: --frontier cannot be combined with --sweep or --text\n");
    return 2;
  }
  if (opts.list_profiles && (have_path || opts.demo || opts.validate_only)) {
    std::fprintf(stderr, "error: --list-profiles does not take a job\n");
    return 2;
  }
  return 0;
}

/// Prints diagnostics (one JSON object per line) to stderr.
void print_diagnostics(const qre::Diagnostics& diags) {
  for (const qre::Diagnostic& d : diags.entries()) {
    std::fprintf(stderr, "%s\n", d.to_json().dump().c_str());
  }
}

/// Prints the run's cache counters to stderr as ONE JSON document covering
/// every caching tier: the engine's estimate cache, the process-level
/// T-factory design cache, and (when --cache-dir wired one) the persistent
/// store — the same rows GET /metrics reports for those sections.
void print_cache_stats(const qre::service::Engine& engine,
                       const qre::store::EstimateStore* store) {
  const qre::server::MetricSources sources{.estimate_cache = &engine.cache(), .store = store};
  const qre::json::Value stats =
      qre::server::metrics_json(sources, {"estimateCache", "factoryCache", "store"});
  std::fprintf(stderr, "%s\n", stats.dump().c_str());
}

/// One JSON line (stderr) summarizing the run for qre_cli --timings:
/// throughput, cache effectiveness, and item-latency percentiles. Batch and
/// sweep runs have "engine.item" samples; single estimates report items: 0
/// (the wall time still covers the whole run).
void print_timings_summary(const qre::trace::Collector& timings,
                           const qre::service::Engine& engine, double wall_ms) {
  const std::vector<std::int64_t> items = timings.samples("engine.item");
  const std::uint64_t hits = engine.cache().hits();
  const std::uint64_t misses = engine.cache().misses();
  const std::uint64_t lookups = hits + misses;
  qre::json::Object out;
  out.emplace_back("wallMs", qre::json::Value(wall_ms));
  out.emplace_back("items",
                   qre::json::Value(static_cast<std::uint64_t>(items.size())));
  out.emplace_back(
      "itemsPerSec",
      qre::json::Value(wall_ms > 0
                           ? static_cast<double>(items.size()) * 1000.0 / wall_ms
                           : 0.0));
  out.emplace_back(
      "cacheHitRate",
      qre::json::Value(lookups > 0
                           ? static_cast<double>(hits) / static_cast<double>(lookups)
                           : 0.0));
  out.emplace_back("p50ItemMs", qre::json::Value(
                                    qre::trace::Collector::percentile(items, 50) / 1e6));
  out.emplace_back("p99ItemMs", qre::json::Value(
                                    qre::trace::Collector::percentile(items, 99) / 1e6));
  std::fprintf(stderr, "timings: %s\n",
               qre::json::Value(std::move(out)).dump().c_str());
}

// ------------------------------------------------------- store tooling ---

[[noreturn]] void store_usage_exit(const std::vector<qre::flags::Flag>& table) {
  std::fprintf(stderr,
               "usage:\n"
               "  qre_cli store dump <store>                    NDJSON record dump\n"
               "  qre_cli store info <store>                    header/record stats\n"
               "  qre_cli store merge <a> <b> [...] -o <out>    last-wins merge\n"
               "  qre_cli store gc --max-bytes N <store> [-o <out>]  bound a store\n"
               "\n"
               "options:\n");
  qre::flags::print_help(stderr, table);
  std::exit(2);
}

/// Dispatches `qre_cli store <subcommand> ...`; argv[0] is "store".
int run_store_command(int argc, char** argv) {
  using namespace qre::flags;
  std::vector<std::string> paths;
  std::string output;
  long long max_bytes = -1;
  const std::vector<Flag> table = {
      {"-o", "<out>", "output store (merge; gc writes in place without it)",
       [&](const char* v) { output = v; }},
      {"--max-bytes", "N", "gc size bound in bytes",
       [&](const char* v) { max_bytes = integer("--max-bytes", v, 0, LLONG_MAX); }},
  };
  if (argc < 2) store_usage_exit(table);
  const std::string sub = argv[1];
  // argv + 1 makes the subcommand the skipped argv[0].
  const int status =
      parse(argc - 1, argv + 1, table, [&](const char* arg) { paths.emplace_back(arg); });
  if (status != 0) return status;

  if (sub == "dump") {
    if (paths.size() != 1 || !output.empty() || max_bytes >= 0) store_usage_exit(table);
    qre::store::StoreReader reader(paths[0]);
    const std::size_t skipped =
        reader.for_each([](std::string_view key, std::string_view value) {
          qre::json::Object line;
          line.emplace_back("key", qre::json::parse(key));
          line.emplace_back("result", qre::json::parse(value));
          std::printf("%s\n", qre::json::Value(std::move(line)).dump().c_str());
        });
    if (skipped != 0) {
      std::fprintf(stderr, "store: skipped %zu corrupt record(s)\n", skipped);
    }
    return 0;
  }

  if (sub == "info") {
    if (paths.size() != 1 || !output.empty() || max_bytes >= 0) store_usage_exit(table);
    qre::store::StoreReader reader(paths[0]);
    // Full scan so corrupt records are counted, not just declared totals.
    std::size_t intact = 0;
    const std::size_t skipped = reader.for_each(
        [&intact](std::string_view, std::string_view) { ++intact; });
    qre::json::Object info;
    info.emplace_back("path", paths[0]);
    info.emplace_back("formatVersion",
                      qre::json::Value(static_cast<std::uint64_t>(reader.header().version)));
    info.emplace_back("records", qre::json::Value(static_cast<std::uint64_t>(intact)));
    info.emplace_back("corruptRecords",
                      qre::json::Value(static_cast<std::uint64_t>(skipped)));
    info.emplace_back("indexSlots", qre::json::Value(reader.header().slot_count));
    info.emplace_back("fileBytes", qre::json::Value(reader.file_bytes()));
    info.emplace_back("payloadBytes", qre::json::Value(reader.payload_bytes()));
    std::printf("%s\n", qre::json::Value(std::move(info)).pretty().c_str());
    return skipped == 0 ? 0 : 1;
  }

  if (sub == "merge") {
    if (paths.size() < 2 || output.empty() || max_bytes >= 0) {
      std::fprintf(stderr, "error: store merge needs two or more inputs and -o <out>\n");
      return 2;
    }
    const std::size_t records = qre::store::merge_store_files(paths, output);
    std::fprintf(stderr, "store: merged %zu input(s) into %s (%zu record(s))\n",
                 paths.size(), output.c_str(), records);
    return 0;
  }

  if (sub == "gc") {
    if (paths.size() != 1 || max_bytes < 0) {
      std::fprintf(stderr, "error: store gc needs --max-bytes N and one store path\n");
      return 2;
    }
    const std::string out_path = output.empty() ? paths[0] : output;
    const std::size_t kept = qre::store::gc_store_file(
        paths[0], out_path, static_cast<std::uint64_t>(max_bytes));
    std::fprintf(stderr, "store: kept %zu record(s) in %s\n", kept, out_path.c_str());
    return 0;
  }

  std::fprintf(stderr, "error: unknown store subcommand '%s'\n\n", sub.c_str());
  store_usage_exit(table);
}

}  // namespace

int main(int argc, char** argv) {
  // `qre_cli store ...` is its own tool family (offline store inspection);
  // it never loads a job document or touches the estimator.
  if (argc >= 2 && std::string(argv[1]) == "store") {
    try {
      return run_store_command(argc - 1, argv + 1);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  Options opts;
  if (int status = parse_args(argc, argv, opts); status != 0) return status;

  try {
    // Fault injection arms before the job loads: a bad spec is a usage-time
    // error, and every seam below (store open, engine evaluate) is covered.
    qre::failpoint::configure_from_env();
    qre::failpoint::configure(opts.failpoints);

    // Tracing likewise spans the whole invocation, so profile-pack loading
    // and store prewarming show up in the exported timeline too.
    if (!opts.trace_file.empty()) qre::trace::enable();

    qre::api::Registry& registry = qre::api::Registry::global();
    for (const std::string& pack_path : opts.profile_packs) {
      qre::Diagnostics pack_diags;
      registry.load_profile_pack(qre::json::parse_file(pack_path), pack_diags);
      print_diagnostics(pack_diags);
      if (pack_diags.has_errors()) {
        std::fprintf(stderr, "error: profile pack '%s' failed to load\n",
                     pack_path.c_str());
        return 1;
      }
    }

    if (opts.list_profiles) {
      std::printf("%s\n", registry.to_json().pretty().c_str());
      return 0;
    }

    qre::json::Value job;
    if (opts.demo) {
      job = qre::json::parse(kDemoJob);
    } else if (opts.path == "-") {
      std::ostringstream ss;
      ss << std::cin.rdbuf();
      job = qre::json::parse(ss.str());
    } else {
      job = qre::json::parse_file(opts.path);
    }

    // --frontier turns a plain single-estimate document into a frontier job
    // with default exploration options; documents already carrying a
    // "frontier" section keep theirs.
    if (opts.frontier && job.is_object() && job.find("frontier") == nullptr) {
      job.set("frontier", qre::json::Value(qre::json::Object{}));
    }

    if (opts.validate_only) {
      qre::api::EstimateRequest request = qre::api::EstimateRequest::parse(job, registry);
      if (request.ok()) {
        // Dry runs want everything that will fail, including per-item
        // problems the batch runner would otherwise isolate at run time.
        qre::api::validate_batch_items(request.document, registry, request.diagnostics);
      }
      print_diagnostics(request.diagnostics);
      if (request.ok()) {
        std::printf("valid (schema v2, %zu warning(s))\n",
                    request.diagnostics.size() - request.diagnostics.num_errors());
        return 0;
      }
      std::fprintf(stderr, "invalid: %zu error(s), %zu warning(s)\n",
                   request.diagnostics.num_errors(),
                   request.diagnostics.size() - request.diagnostics.num_errors());
      return 1;
    }

    if (opts.expand_only) {
      for (const qre::json::Value& item : qre::service::expand_sweep(job)) {
        std::printf("%s\n", item.dump().c_str());
      }
      return 0;
    }

    // One engine for the whole invocation, optionally backed by the
    // persistent store: previously seen jobs replay from disk (zero raw
    // estimates), new results are written through and persisted after the
    // run.
    qre::service::EngineOptions engine_options;
    engine_options.num_workers = opts.num_workers;
    engine_options.use_cache = opts.use_cache;
    engine_options.cache_capacity = opts.cache_capacity;
    qre::service::Engine engine(engine_options);

    std::unique_ptr<qre::store::EstimateStore> store;
    if (!opts.cache_dir.empty()) {
      qre::store::ensure_directory(opts.cache_dir);
      store = std::make_unique<qre::store::EstimateStore>(opts.cache_dir);
      const qre::store::LoadResult loaded = store->load();
      if (!loaded.usable && loaded.file_found) {
        std::fprintf(stderr, "%s — starting cold\n", loaded.message.c_str());
      }
      engine.set_store(store.get());
    }
    // Persists new results (if any), prints --cache-stats / --timings, and
    // writes the --trace-file export; every run path below funnels through
    // here before returning.
    qre::trace::Collector timings;
    const auto run_started = std::chrono::steady_clock::now();
    auto finish_run = [&] {
      if (store != nullptr) store->persist();
      if (opts.cache_stats) print_cache_stats(engine, store.get());
      if (opts.timings) {
        const double wall_ms = std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - run_started)
                                   .count();
        print_timings_summary(timings, engine, wall_ms);
      }
      if (!opts.trace_file.empty() && !qre::trace::write_chrome_json(opts.trace_file)) {
        std::fprintf(stderr, "error: cannot write trace file '%s'\n",
                     opts.trace_file.c_str());
      }
    };

    if (opts.text_mode && job.find("items") == nullptr && job.find("sweep") == nullptr &&
        job.find("frontier") == nullptr) {
      // Same leniency as the JSON path: typos warn (on stderr), errors list
      // everything wrong at once.
      qre::api::EstimateRequest request = qre::api::EstimateRequest::parse(job, registry);
      print_diagnostics(request.diagnostics);
      if (!request.ok()) {
        std::fprintf(stderr, "error: job document is invalid (%zu error(s))\n",
                     request.diagnostics.num_errors());
        return 1;
      }
      qre::ResourceEstimate e = qre::estimate(request.input.value());
      std::printf("%s\n%s", qre::report_to_text(e).c_str(),
                  qre::space_diagram(e).c_str());
      finish_run();
      return 0;
    }

    qre::service::EngineOptions run_options = engine.options();
    if (opts.timings) run_options.timings = &timings;
    if (opts.deadline_s > 0) {
      // Offline runs share the server's deadline semantics: batch items past
      // the deadline report per-item "cancelled" entries, single/frontier
      // runs fail with a deadline-exceeded diagnostic (docs/robustness.md).
      run_options.cancel = qre::CancelToken().with_deadline(opts.deadline_s);
    }
    if (opts.stream) {
      run_options.on_result = [](std::size_t index, const qre::json::Value& result) {
        qre::json::Object line;
        line.emplace_back("item", qre::json::Value(static_cast<std::uint64_t>(index)));
        line.emplace_back("result", result);
        std::printf("%s\n", qre::json::Value(std::move(line)).dump().c_str());
        std::fflush(stdout);
      };
    }

    qre::api::EstimateRequest request = qre::api::EstimateRequest::parse(job, registry);
    if (opts.response_envelope) {
      qre::api::EstimateResponse response = qre::api::run(request, run_options, registry);
      std::printf("%s\n", response.to_json().pretty().c_str());
      finish_run();
      return response.success ? 0 : 1;
    }
    print_diagnostics(request.diagnostics);  // warnings (and errors, below)
    if (!request.ok()) {
      std::fprintf(stderr, "error: job document is invalid (%zu error(s))\n",
                   request.diagnostics.num_errors());
      return 1;
    }
    qre::api::EstimateResponse response = qre::api::run(request, run_options, registry);
    finish_run();
    if (!response.success) {
      std::fprintf(stderr, "error: %s\n", response.diagnostics.summary().c_str());
      return 1;
    }
    if (opts.stream) {
      // Items (or frontier probes) already went to stdout line by line; the
      // run summary goes to stderr so piped NDJSON stays clean. Non-batch
      // jobs have no item lines, so their whole result still belongs on
      // stdout.
      const qre::json::Value* stats = response.result.find("batchStats");
      if (stats == nullptr) stats = response.result.find("frontierStats");
      if (stats != nullptr) {
        std::fprintf(stderr, "%s\n", stats->dump().c_str());
      } else {
        std::printf("%s\n", response.result.dump().c_str());
      }
      return 0;
    }
    std::printf("%s\n", response.result.pretty().c_str());
    return 0;
  } catch (const qre::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
