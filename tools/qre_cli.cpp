// qre_cli — command-line front end of the estimator, consuming the same
// JSON job documents the cloud service accepts (paper Section IV-A), built
// on the v2 API façade (src/api/).
//
// Usage:
//   qre_cli <job.json>           run the job, print the JSON result
//   qre_cli --text <job.json>    single estimates as a human-readable report
//   qre_cli --response <job.json> print the full v2 response envelope
//   qre_cli --validate <job.json> dry-run schema check (diagnostics to stderr)
//   qre_cli --list-profiles      dump the profile registry as JSON
//   qre_cli --profile-pack <p.json>  register a profile pack before running
//   qre_cli --jobs N <job.json>  run batch/sweep items on at most N threads
//   qre_cli --stream <job.json>  emit batch results as NDJSON, one item/line
//   qre_cli --sweep <job.json>   expand the sweep grid without estimating
//   qre_cli --frontier <job.json> explore the adaptive Pareto frontier
//   qre_cli --no-cache / --cache-capacity N / --cache-stats   cache control
//   qre_cli --cache-dir DIR      persistent estimate store (read/write-through)
//   qre_cli --timings <job.json> per-phase timing summary to stderr
//   qre_cli --trace-file PATH    write a Chrome-trace JSON of the run
//   qre_cli store <dump|info|merge|gc> ...   offline store tooling
//   qre_cli --demo               run a built-in demonstration job
//   qre_cli --version            print the build and schema version
//   qre_cli -                    read the job document from stdin
#include <cerrno>
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
#include "common/trace.hpp"
#include "common/version.hpp"
#include "core/job.hpp"
#include "report/report.hpp"
#include "service/engine.hpp"
#include "service/sweep.hpp"
#include "store/estimate_store.hpp"
#include "tfactory/factory_cache.hpp"

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

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "qre_cli — fault-tolerant quantum resource estimation from JSON jobs\n"
               "\n"
               "usage:\n"
               "  qre_cli <job.json>          run the job, print the JSON result\n"
               "  qre_cli --text <job.json>   print single estimates as a text report\n"
               "  qre_cli --response <job.json>  print the full v2 response envelope\n"
               "                              {schemaVersion, success, diagnostics, result}\n"
               "  qre_cli --validate <job.json>  dry-run schema check: structured\n"
               "                              diagnostics to stderr, exit 0 (valid) / 1\n"
               "  qre_cli --list-profiles     dump the registry (qubit profiles, QEC\n"
               "                              schemes, distillation units) as JSON\n"
               "  qre_cli --profile-pack <pack.json>  register a JSON profile pack\n"
               "                              before the job runs (repeatable)\n"
               "  qre_cli --jobs N <job.json> run batch/sweep items on at most N threads:\n"
               "                              this one plus pool helpers\n"
               "  qre_cli --stream <job.json> emit batch results as NDJSON, one item per line\n"
               "  qre_cli --sweep <job.json>  expand the sweep grid and print the items\n"
               "                              without estimating (dry run)\n"
               "  qre_cli --frontier <job.json>  run the job as an adaptive Pareto\n"
               "                              frontier exploration (adds a default\n"
               "                              \"frontier\" section when absent); combine\n"
               "                              with --stream for one NDJSON line per probe\n"
               "  qre_cli --no-cache <job.json>  disable result memoization\n"
               "  qre_cli --cache-capacity N  bound the result cache to N entries\n"
               "                              (LRU eviction; 0 = unbounded)\n"
               "  qre_cli --cache-dir DIR     persistent estimate store: prewarm from\n"
               "                              DIR/estimates.qrestore, write new results\n"
               "                              through, persist atomically after the run\n"
               "                              (created if missing; docs/store.md)\n"
               "  qre_cli --cache-stats <job.json>  print one JSON document with the\n"
               "                              estimate-cache, factory-cache and (with\n"
               "                              --cache-dir) store counters to stderr\n"
               "  qre_cli --deadline S <job.json>  bound the run to S seconds: batch\n"
               "                              items past the deadline become per-item\n"
               "                              \"cancelled\" entries, single/frontier runs\n"
               "                              fail with a deadline-exceeded diagnostic\n"
               "                              (docs/robustness.md)\n"
               "  qre_cli --failpoints SPEC   arm fault-injection sites, e.g.\n"
               "                              'store.persist.before_rename=error' (also\n"
               "                              via QRE_FAILPOINTS; docs/robustness.md)\n"
               "  qre_cli --timings <job.json>  print a one-line JSON timing summary to\n"
               "                              stderr after the run: wall time, items/s,\n"
               "                              cache hit rate, p50/p99 item latency\n"
               "                              (docs/observability.md)\n"
               "  qre_cli --trace-file PATH   record spans during the run and write them\n"
               "                              as Chrome-trace JSON to PATH (loads in\n"
               "                              Perfetto / chrome://tracing)\n"
               "  qre_cli store dump <store>  print store records as NDJSON, one\n"
               "                              {\"key\", \"result\"} object per line\n"
               "  qre_cli store info <store>  print header/record statistics as JSON\n"
               "  qre_cli store merge <a> <b> [...] -o <out>  merge stores\n"
               "                              (last input wins on duplicate keys)\n"
               "  qre_cli store gc --max-bytes N <store> [-o <out>]  bound a store,\n"
               "                              dropping oldest records first (in place\n"
               "                              unless -o names an output)\n"
               "  qre_cli --demo              run a built-in demonstration job\n"
               "  qre_cli --version           print the build and schema version\n"
               "  qre_cli --help, -h          print this help\n"
               "  qre_cli -                   read the job document from stdin\n"
               "\n"
               "Job documents follow schema v2 (docs/schema_v2.md): logicalCounts plus\n"
               "optional schemaVersion, qubitParams, qecScheme, errorBudget, constraints,\n"
               "distillationUnitSpecifications, estimateType (singlePoint | frontier),\n"
               "and items[] or a \"sweep\" parameter grid for batches, or a \"frontier\"\n"
               "section for adaptive Pareto exploration (docs/frontier.md). Documents\n"
               "without schemaVersion are treated as v1 and upgraded in place. Validation\n"
               "problems are reported as {severity, code, path, message} diagnostics\n"
               "with JSON-pointer paths.\n");
}

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

/// Parses a decimal integer >= min_value. Text strtoll cannot represent is
/// an error, not a value silently clamped to LLONG_MAX.
bool parse_integer(const char* text, long long min_value, long long& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtoll(text, &end, 10);
  return end != text && *end == '\0' && errno != ERANGE && out >= min_value;
}

/// Parses a duration in seconds: finite, > 0, and at most INT_MAX (the
/// bound of qre_serve's integer timeouts), so the clock deadline computed
/// from it cannot overflow.
bool parse_seconds(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0' && out > 0 && out <= INT_MAX;
}

/// Parses argv strictly: unknown flags and extra positional paths are
/// usage errors (exit code 2), not silently treated as file names.
int parse_args(int argc, char** argv, Options& opts) {
  bool have_path = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--text") {
      opts.text_mode = true;
    } else if (arg == "--demo") {
      opts.demo = true;
    } else if (arg == "--stream") {
      opts.stream = true;
    } else if (arg == "--sweep") {
      opts.expand_only = true;
    } else if (arg == "--frontier") {
      opts.frontier = true;
    } else if (arg == "--no-cache") {
      opts.use_cache = false;
    } else if (arg == "--cache-stats") {
      opts.cache_stats = true;
    } else if (arg == "--cache-capacity") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --cache-capacity requires an entry count\n");
        return 2;
      }
      long long n = 0;
      if (!parse_integer(argv[++i], 0, n)) {
        std::fprintf(stderr,
                     "error: --cache-capacity expects a non-negative integer, got '%s'\n",
                     argv[i]);
        return 2;
      }
      opts.cache_capacity = static_cast<std::size_t>(n);
    } else if (arg == "--cache-dir") {
      if (i + 1 >= argc || argv[i + 1][0] == '\0') {
        std::fprintf(stderr, "error: --cache-dir requires a directory path\n");
        return 2;
      }
      opts.cache_dir = argv[++i];
    } else if (arg == "--validate") {
      opts.validate_only = true;
    } else if (arg == "--list-profiles") {
      opts.list_profiles = true;
    } else if (arg == "--response") {
      opts.response_envelope = true;
    } else if (arg == "--profile-pack") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --profile-pack requires a file path\n");
        return 2;
      }
      opts.profile_packs.emplace_back(argv[++i]);
    } else if (arg == "--jobs") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --jobs requires a worker count\n");
        return 2;
      }
      long long n = 0;
      if (!parse_integer(argv[++i], 1, n)) {
        std::fprintf(stderr, "error: --jobs expects a positive integer, got '%s'\n",
                     argv[i]);
        return 2;
      }
      opts.num_workers = static_cast<std::size_t>(n);
    } else if (arg == "--deadline") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --deadline requires a duration in seconds\n");
        return 2;
      }
      if (!parse_seconds(argv[++i], opts.deadline_s)) {
        std::fprintf(stderr, "error: --deadline expects seconds in (0, %d], got '%s'\n",
                     INT_MAX, argv[i]);
        return 2;
      }
    } else if (arg == "--failpoints") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --failpoints requires a spec string\n");
        return 2;
      }
      opts.failpoints = argv[++i];
    } else if (arg == "--timings") {
      opts.timings = true;
    } else if (arg == "--trace-file") {
      if (i + 1 >= argc || argv[i + 1][0] == '\0') {
        std::fprintf(stderr, "error: --trace-file requires a file path\n");
        return 2;
      }
      opts.trace_file = argv[++i];
    } else if (arg == "--version") {
      std::printf("qre_cli %s (schema v%d)\n", qre::version_string(),
                  qre::api::kSchemaVersion);
      std::exit(0);
    } else if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      std::exit(0);
    } else if (arg.size() > 1 && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n\n", arg.c_str());
      print_usage(stderr);
      return 2;
    } else {
      if (have_path) {
        std::fprintf(stderr,
                     "error: multiple job paths given ('%s' and '%s'); "
                     "qre_cli runs one job document per invocation\n",
                     opts.path.c_str(), arg.c_str());
        return 2;
      }
      opts.path = arg;
      have_path = true;
    }
  }
  if (!opts.demo && !have_path && !opts.list_profiles) {
    print_usage(stderr);
    return 2;
  }
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
/// store.
void print_cache_stats(const qre::service::Engine& engine,
                       const qre::store::EstimateStore* store) {
  const qre::service::EstimateCache& estimates = engine.cache();
  const qre::FactoryCache& factories = qre::FactoryCache::global();

  qre::json::Object out;
  out.emplace_back("estimateCache", qre::service::cache_counters_to_json(
                                        estimates.hits(), estimates.misses(),
                                        estimates.evictions(), estimates.size(),
                                        estimates.capacity()));
  qre::json::Value factory_stats = qre::service::cache_counters_to_json(
      factories.hits(), factories.misses(), factories.evictions(), factories.size(),
      factories.capacity());
  factory_stats.as_object().emplace_back("enabled", qre::json::Value(factories.enabled()));
  out.emplace_back("factoryCache", std::move(factory_stats));
  if (store != nullptr) {
    out.emplace_back("store", store->stats_to_json());
  } else {
    qre::json::Object disabled;
    disabled.emplace_back("enabled", qre::json::Value(false));
    out.emplace_back("store", qre::json::Value(std::move(disabled)));
  }
  std::fprintf(stderr, "%s\n", qre::json::Value(std::move(out)).dump().c_str());
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

void print_store_usage(std::FILE* out) {
  std::fprintf(out,
               "usage:\n"
               "  qre_cli store dump <store>                    NDJSON record dump\n"
               "  qre_cli store info <store>                    header/record stats\n"
               "  qre_cli store merge <a> <b> [...] -o <out>    last-wins merge\n"
               "  qre_cli store gc --max-bytes N <store> [-o <out>]  bound a store\n");
}

/// Dispatches `qre_cli store <subcommand> ...`; argv[0] is "store".
int run_store_command(int argc, char** argv) {
  if (argc < 2) {
    print_store_usage(stderr);
    return 2;
  }
  const std::string sub = argv[1];

  // Shared flag scan: positional paths, -o output, --max-bytes bound.
  std::vector<std::string> paths;
  std::string output;
  long long max_bytes = -1;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-o") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: -o requires an output path\n");
        return 2;
      }
      output = argv[++i];
    } else if (arg == "--max-bytes") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --max-bytes requires a byte count\n");
        return 2;
      }
      if (!parse_integer(argv[++i], 0, max_bytes)) {
        std::fprintf(stderr, "error: --max-bytes expects a non-negative integer\n");
        return 2;
      }
    } else if (arg.size() > 1 && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown store option '%s'\n\n", arg.c_str());
      print_store_usage(stderr);
      return 2;
    } else {
      paths.push_back(arg);
    }
  }

  if (sub == "dump") {
    if (paths.size() != 1 || !output.empty() || max_bytes >= 0) {
      print_store_usage(stderr);
      return 2;
    }
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
    if (paths.size() != 1 || !output.empty() || max_bytes >= 0) {
      print_store_usage(stderr);
      return 2;
    }
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
  print_store_usage(stderr);
  return 2;
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
      qre::Diagnostics sink;
      qre::EstimationInput input =
          qre::api::input_from_document(request.document, registry, &sink);
      qre::ResourceEstimate e = qre::estimate(input);
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
