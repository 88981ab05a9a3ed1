// The traced run: per-layer timings from the benchmark's own code.
//
// Nothing inside the program is instrumented. Instead three in-process
// replicas of the server state (same ServiceOptions, same request history,
// so the same cache regime) each run every traced request once:
//
//   replica 1  Client::post over loopback to an in-process Server   roundtrip
//   replica 2  Router::handle into an in-memory ByteSink            handle
//   replica 3  json::parse, EstimateRequest::parse, api::run and
//              Value::dump called one by one                        layers
//
// and then the request's items go once more through the per-item public
// functions (canonical_key, input_from_document, estimate, report_to_json,
// a resident EstimateCache lookup, EstimateStore::record). The request's
// spans are composed from these timings: each child is laid end to end
// inside its parent, per-item layers as one span per layer whose duration
// is the measured unit cost times the number of items that took that path
// (from replica 3's cache and store counters). All spans of one request
// carry its index. A span's self time is its duration minus the part of it
// its children cover; the self time of server.handle and api.run is what
// no named layer explains, reported as traced.unattributed_share.
//
// Transport is roundtrip minus the router's own latency for that same
// execution (replica 1's Metrics latency total), plus the time replica 2's
// router spent after writing the last byte: the difference between two
// replicas is noisier than the few hundred microseconds a loopback transfer
// takes, even for a 580 KB sweep response.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "api/api.hpp"
#include "api/schema.hpp"
#include "report/report.hpp"
#include "server/client.hpp"
#include "server/router.hpp"
#include "server/server.hpp"
#include "servebench.hpp"
#include "service/batch_kernel.hpp"
#include "service/cache.hpp"
#include "service/sweep.hpp"
#include "store/estimate_store.hpp"
#include "tfactory/factory_cache.hpp"

namespace fs = std::filesystem;
namespace json = qre::json;

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kFetchKeys = 2000;
constexpr std::size_t kContendedThreads = 4;
constexpr std::size_t kSearchSamples = 8;
constexpr double kTracedSeconds = 2;  // traced requests are issued for this long

template <class F>
double time_us(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

struct Span {
  const char* name;
  std::uint64_t request;
  std::uint64_t id;
  std::uint64_t parent;
  double start_us;
  double dur_us;
  std::uint64_t count;
};

/// In-memory span list, written once at exit as Chrome-trace JSON.
class Recorder {
 public:
  /// Appends a child of `parent` right after its previous child (or at
  /// `start_us` for a root) and returns its id.
  std::uint64_t add(const char* name, std::uint64_t request, std::uint64_t parent, double dur_us,
                    std::uint64_t count = 1, double start_us = 0) {
    if (parent != 0) {
      Span& p = spans_[parent - 1];
      double& cursor = cursor_[parent - 1];
      start_us = p.start_us + cursor;
      cursor += dur_us;
    }
    spans_.push_back({name, request, spans_.size() + 1, parent, start_us, dur_us, count});
    cursor_.push_back(0);
    return spans_.size();
  }

  /// Duration minus the union of the children's intervals, clipped to the
  /// span's own interval.
  double self_us(std::uint64_t id) const {
    const Span& s = spans_[id - 1];
    std::vector<std::pair<double, double>> kids;
    for (const Span& c : spans_) {
      if (c.parent != id) continue;
      const double a = std::max(c.start_us, s.start_us);
      const double b = std::min(c.start_us + c.dur_us, s.start_us + s.dur_us);
      if (b > a) kids.emplace_back(a, b);
    }
    std::sort(kids.begin(), kids.end());
    double covered = 0, end = s.start_us;
    for (const auto& [a, b] : kids) {
      if (b <= end) continue;
      covered += b - std::max(a, end);
      end = b;
    }
    return s.dur_us - covered;
  }

  void write_chrome(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    char line[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(line, sizeof line,
                    R"(%s{"name":"%s","cat":"servebench","ph":"X","pid":0,"tid":0,"ts":%.3f,)"
                    R"("dur":%.3f,"args":{"request":%llu,"span":%llu,"parent":%llu,)"
                    R"("count":%llu,"selfUs":%.3f}})",
                    i == 0 ? "" : ",\n", s.name, s.start_us, s.dur_us,
                    static_cast<unsigned long long>(s.request),
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    static_cast<unsigned long long>(s.count), self_us(s.id));
      out << line;
    }
    out << "\n]\n";
    if (!out) throw std::runtime_error("cannot write " + path);
  }

 private:
  std::vector<Span> spans_;
  std::vector<double> cursor_;  // per span: offset of its next child
};

/// One traced request's raw timings (µs) and path counts.
struct RequestTiming {
  double roundtrip = 0, transport = 0, handle = 0, parse = 0, validate = 0, run = 0, dump = 0;
  double expand = 0, plan = 0;
  bool sweep = false;
  std::size_t items = 0;
  double n_hit = 0, n_store = 0, n_compute = 0;
  double key = 0, input = 0, estimate = 0, render = 0, cache_hit = 0, record = 0;  // sums
};

/// The expanded item documents api::run would evaluate for `document`.
std::vector<json::Value> items_of(const json::Value& document) {
  if (document.find("sweep") != nullptr) return qre::service::expand_sweep(document);
  std::vector<json::Value> items;
  if (const json::Value* list = document.find("items")) {
    for (const json::Value& item : list->as_array()) {
      items.push_back(qre::api::merge_job_item(document, item));
    }
  } else {
    items.push_back(document);
  }
  return items;
}

/// The batch-replay stored keys, computed exactly as the server does.
std::vector<std::string> stored_keys() {
  std::vector<std::string> keys;
  for (const std::string& batch : store_fill_batches()) {
    const auto request = qre::api::EstimateRequest::parse(json::parse(batch));
    for (const json::Value& item : items_of(request.document)) {
      keys.push_back(qre::service::canonical_key(item));
    }
  }
  return keys;
}

/// Re-enables the global factory cache however the measurement exits.
struct FactoryCacheOff {
  FactoryCacheOff() { qre::FactoryCache::global().set_enabled(false); }
  ~FactoryCacheOff() { qre::FactoryCache::global().set_enabled(true); }
  FactoryCacheOff(const FactoryCacheOff&) = delete;
  FactoryCacheOff& operator=(const FactoryCacheOff&) = delete;
};

std::string body_of(const std::string& http) {
  const std::size_t at = http.find("\r\n\r\n");
  return at == std::string::npos ? std::string() : http.substr(at + 4);
}

double mean(double sum, double n) { return n > 0 ? sum / n : 0; }

Metrics traced_pass(const TracedOptions& o) {
  const Workload& w = *o.workload;
  qre::api::Registry& registry = qre::api::Registry::global();
  fs::create_directories(o.scratch_dir);

  auto replica_options = [&](int replica) {
    qre::server::ServiceOptions so;
    if (w.kind == Kind::kBatchReplay) {
      const std::string dir = o.scratch_dir + "/replica" + std::to_string(replica);
      fs::create_directories(dir);
      fs::copy_file(o.store_dir + "/estimates.qrestore", dir + "/estimates.qrestore");
      so.cache_dir = dir;
    }
    return so;
  };
  qre::server::Service service1(registry, replica_options(1));
  qre::server::Service service2(registry, replica_options(2));
  qre::server::Service service3(registry, replica_options(3));
  qre::server::Router router1(service1);
  qre::server::Router router2(service2);
  qre::server::Server server(router1, {});
  server.start();
  qre::server::Client client("127.0.0.1", server.port());

  const std::string scratch_store_dir = o.scratch_dir + "/records";
  fs::create_directories(scratch_store_dir);
  qre::store::EstimateStore scratch_store(scratch_store_dir);
  std::vector<std::string> recorded_keys;
  std::vector<json::Value> search_items;

  auto served_ms = [&] {
    return service1.metrics().to_json().at("latencyMs").at("totalMs").as_double();
  };
  auto post = [&](const std::string& body) {
    const qre::server::Client::Result r = client.post("/v2/estimate", body);
    if (const std::string e = check_response(r, expected_items(w)); !e.empty()) {
      throw std::runtime_error("traced request failed: " + e);
    }
    return r.body;
  };
  double tail_us = 0;
  auto handle = [&](const std::string& body) {
    qre::server::Request request;
    request.method = "POST";
    request.target = "/v2/estimate";
    request.version = "HTTP/1.1";
    request.headers = {{"Content-Type", "application/json"},
                       {"Content-Length", std::to_string(body.size())}};
    request.body = body;
    std::string sunk;
    Clock::time_point last_write;
    router2.handle(request, [&](std::string_view d) {
      sunk.append(d);
      last_write = Clock::now();
      return true;
    });
    // Time the router spends after the response's last byte (freeing the
    // result tree), which no client waits for.
    tail_us = std::chrono::duration<double, std::micro>(Clock::now() - last_write).count();
    return sunk;
  };
  auto run3 = [&](const std::string& body) {
    const auto request = qre::api::EstimateRequest::parse(json::parse(body), registry);
    return qre::api::run(request, service3.engine().options(), registry).to_json().dump() + "\n";
  };

  // Replay the history that precedes the traced requests on every replica.
  for (std::uint64_t k = 0; k < w.traced_warmup; ++k) {
    const std::string body = make_request(w, o.seed, k);
    post(body);
    handle(body);
    run3(body);
  }

  Recorder recorder;
  std::vector<RequestTiming> timings;
  const Clock::time_point epoch = Clock::now();
  const Clock::time_point deadline =
      epoch +
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(kTracedSeconds));
  std::vector<double> root_starts;
  for (std::uint64_t k = w.traced_warmup; timings.empty() || Clock::now() < deadline; ++k) {
    const std::string body = make_request(w, o.seed, k);
    RequestTiming t;
    root_starts.push_back(std::chrono::duration<double, std::micro>(Clock::now() - epoch).count());
    std::string response1;
    const double served0 = served_ms();
    const std::uint64_t requests0 = service1.metrics().requests_total();
    t.roundtrip = time_us([&] { response1 = post(body); });
    // The router records its own latency after the last byte is written,
    // which can be after the client already has the response.
    while (service1.metrics().requests_total() == requests0) std::this_thread::yield();
    const double served_us = (served_ms() - served0) * 1e3;
    std::string response2;
    t.handle = time_us([&] { response2 = handle(body); });
    t.transport = t.roundtrip - (served_us - tail_us);

    json::Value document;
    t.parse = time_us([&] { document = json::parse(body); });
    qre::api::EstimateRequest request;
    t.validate = time_us([&] { request = qre::api::EstimateRequest::parse(document, registry); });
    qre::service::EstimateCache& cache3 = service3.engine().cache();
    qre::store::EstimateStore* store3 = service3.store();
    const double hits0 = static_cast<double>(cache3.hits());
    const double misses0 = static_cast<double>(cache3.misses());
    const double store_hits0 = store3 != nullptr ? static_cast<double>(store3->hits()) : 0;
    qre::api::EstimateResponse response;
    t.run = time_us(
        [&] { response = qre::api::run(request, service3.engine().options(), registry); });
    t.n_hit = static_cast<double>(cache3.hits()) - hits0;
    t.n_store = store3 != nullptr ? static_cast<double>(store3->hits()) - store_hits0 : 0;
    t.n_compute = static_cast<double>(cache3.misses()) - misses0 - t.n_store;
    std::string response3;
    t.dump = time_us([&] { response3 = response.to_json().dump(); });
    // Replica caches evict in worker-thread order, so batchStats may differ.
    if (!same_results(response3 + "\n", response1) ||
        !same_results(response1, body_of(response2))) {
      throw std::runtime_error("traced replicas answered request " + std::to_string(k) +
                               " differently");
    }

    // Per-item layers on this request's items.
    std::vector<json::Value> items;
    t.sweep = request.document.find("sweep") != nullptr;
    if (t.sweep) {
      t.expand = time_us([&] { items = qre::service::expand_sweep(request.document); });
      t.plan = time_us([&] {
        const auto plan = qre::service::plan_batch_kernel(request.document, items, registry);
        if (!plan.eligible()) throw std::runtime_error("batch kernel declined: " + plan.reason());
      });
    } else {
      items = items_of(request.document);
    }
    t.items = items.size();
    qre::service::EstimateCache resident(0);
    for (const json::Value& item : items) {
      std::string key;
      t.key += time_us([&] { key = qre::service::canonical_key(item); });
      qre::EstimationInput input;
      qre::Diagnostics diags;
      t.input += time_us([&] { input = qre::api::input_from_document(item, registry, &diags); });
      qre::ResourceEstimate estimate;
      t.estimate += time_us([&] { estimate = qre::estimate(input); });
      json::Value rendered;
      t.render += time_us([&] { rendered = qre::report_to_json(estimate); });
      resident.get_or_compute(key, [&] { return rendered; });
      t.cache_hit += time_us([&] {
        resident.get_or_compute(key, []() -> json::Value { throw std::logic_error("miss"); });
      });
      t.record += time_us([&] { scratch_store.record(key, rendered); });
      recorded_keys.push_back(std::move(key));
    }
    if (search_items.size() < kSearchSamples) search_items.push_back(items.front());
    timings.push_back(t);
  }
  const double traced_wall_s = std::chrono::duration<double>(Clock::now() - epoch).count();
  server.stop();

  // Store layer: load, fetch (1 and 4 threads), persist.
  std::string load_dir = scratch_store_dir;
  std::vector<std::string> fetch_keys = recorded_keys;
  if (w.kind == Kind::kBatchReplay) {
    load_dir = o.scratch_dir + "/load";
    fs::create_directories(load_dir);
    fs::copy_file(o.store_dir + "/estimates.qrestore", load_dir + "/estimates.qrestore");
    fetch_keys = stored_keys();
  } else if (!scratch_store.persist(true)) {
    throw std::runtime_error("scratch store persist failed");
  }
  qre::store::EstimateStore loaded(load_dir);
  const double load_us = time_us([&] {
    if (!loaded.load().usable) throw std::runtime_error("store load failed");
  });
  std::vector<std::string> sample;
  const std::size_t stride = std::max<std::size_t>(1, fetch_keys.size() / kFetchKeys);
  for (std::size_t i = 0; i < fetch_keys.size() && sample.size() < kFetchKeys; i += stride) {
    sample.push_back(fetch_keys[i]);
  }
  auto fetch_all = [&] {
    for (const std::string& key : sample) {
      if (!loaded.fetch(key).has_value()) throw std::runtime_error("store fetch missed");
    }
  };
  const double fetch_us = time_us(fetch_all) / static_cast<double>(sample.size());
  std::vector<std::thread> threads;
  const Clock::time_point c0 = Clock::now();
  for (std::size_t i = 0; i < kContendedThreads; ++i) threads.emplace_back(fetch_all);
  for (std::thread& th : threads) th.join();
  const double fetch_contended_us =
      std::chrono::duration<double, std::micro>(Clock::now() - c0).count() /
      static_cast<double>(sample.size());
  const double persist_us = time_us([&] {
    if (!loaded.persist(true)) throw std::runtime_error("store persist failed");
  });

  // T-factory search: the same estimate with the factory cache off and on.
  std::vector<double> searches;
  for (const json::Value& item : search_items) {
    const qre::EstimationInput input = qre::api::input_from_document(item, registry);
    (void)qre::estimate(input);
    const double warm = time_us([&] { (void)qre::estimate(input); });
    double cold = 0;
    {
      FactoryCacheOff off;
      cold = time_us([&] { (void)qre::estimate(input); });
    }
    searches.push_back(cold - warm);
  }

  // Compose the spans and aggregate.
  double total_items = 0, total_roundtrip = 0, unattributed = 0;
  double sum_dump = 0, sum_key = 0, sum_input = 0, sum_estimate = 0, sum_render = 0;
  double sum_hit = 0, sum_record = 0;
  std::vector<double> roundtrip, handle_v, transport, parse, validate, run, expand, plan;
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const RequestTiming& t = timings[i];
    const double n = static_cast<double>(t.items);
    const std::uint64_t root =
        recorder.add("server.roundtrip", i, 0, t.roundtrip, 1, root_starts[i]);
    const std::uint64_t h = recorder.add("server.handle", i, root, t.handle);
    recorder.add("json.parse", i, h, t.parse);
    recorder.add("api.validate", i, h, t.validate);
    const std::uint64_t r = recorder.add("api.run", i, h, t.run);
    recorder.add("json.dump", i, h, t.dump);
    auto per_item = [&](const char* name, double sum, double count) {
      if (count > 0) {
        recorder.add(name, i, r, mean(sum, n) * count, static_cast<std::uint64_t>(count));
      }
    };
    if (t.sweep) {
      recorder.add("service.expand", i, r, t.expand);
      recorder.add("service.plan", i, r, t.plan);
    } else {
      per_item("service.key", t.key, n);
    }
    per_item("service.cache_hit", t.cache_hit, t.n_hit);
    if (t.n_store > 0) {
      recorder.add("store.fetch", i, r, fetch_us * t.n_store,
                   static_cast<std::uint64_t>(t.n_store));
    }
    if (!t.sweep) per_item("api.input", t.input, t.n_compute);
    per_item("core.estimate", t.estimate, t.n_compute);
    per_item("report.render", t.render, t.n_compute);
    if (w.kind == Kind::kBatchReplay) per_item("store.record", t.record, t.n_compute);
    unattributed += recorder.self_us(h) + recorder.self_us(r);

    total_items += n;
    total_roundtrip += t.roundtrip;
    sum_dump += t.dump;
    sum_key += t.key;
    sum_input += t.input;
    sum_estimate += t.estimate;
    sum_render += t.render;
    sum_hit += t.cache_hit;
    sum_record += t.record;
    roundtrip.push_back(t.roundtrip);
    handle_v.push_back(t.handle);
    transport.push_back(t.transport);
    parse.push_back(t.parse);
    validate.push_back(t.validate);
    run.push_back(t.run);
    expand.push_back(t.expand);
    plan.push_back(t.plan);
  }
  recorder.write_chrome(o.trace_path);
  std::printf("traced %zu request(s) in %.2f s\n", timings.size(), traced_wall_s);

  const Counters& c = o.window;
  const double requests = std::max(c.requests, 1.0);
  const double traced_items_per_s = total_items / traced_wall_s;
  Metrics m;
  m["server.roundtrip_us"] = {median(roundtrip), "us"};
  m["server.handle_us"] = {median(handle_v), "us"};
  m["server.transport_us"] = {median(transport), "us"};
  m["server.response_bytes"] = {o.mean_response_bytes, "bytes"};
  m["json.parse_us"] = {median(parse), "us"};
  m["json.dump_us_per_item"] = {mean(sum_dump, total_items), "us"};
  m["api.validate_us"] = {median(validate), "us"};
  m["api.input_us_per_item"] = {mean(sum_input, total_items), "us"};
  m["api.run_us"] = {median(run), "us"};
  m["service.expand_us"] = {median(expand), "us"};
  m["service.plan_us"] = {median(plan), "us"};
  m["service.key_us_per_item"] = {mean(sum_key, total_items), "us"};
  m["service.cache_hit_us"] = {mean(sum_hit, total_items), "us"};
  m["service.cache_hit_share"] = {c.estimate_hit_share(), "share"};
  m["service.evictions_per_req"] = {c.estimate_evictions / requests, "count"};
  m["core.estimate_us_per_item"] = {mean(sum_estimate, total_items), "us"};
  m["tfactory.searches_per_req"] = {c.factory_misses / requests, "count"};
  m["tfactory.hit_share"] = {c.factory_hit_share(), "share"};
  m["tfactory.search_us"] = {median(searches), "us"};
  m["report.render_us_per_item"] = {mean(sum_render, total_items), "us"};
  m["store.load_s"] = {load_us * 1e-6, "s"};
  m["store.fetch_us"] = {fetch_us, "us"};
  m["store.fetch_us_contended"] = {fetch_contended_us, "us"};
  m["store.record_us"] = {mean(sum_record, total_items), "us"};
  m["store.persist_s"] = {persist_us * 1e-6, "s"};
  m["store.hit_share"] = {c.store_hit_share(), "share"};
  m["traced.unattributed_share"] = {unattributed / total_roundtrip, "share"};
  m["traced.overhead_share"] = {1.0 - traced_items_per_s / o.untraced_items_per_s, "share"};
  return m;
}

}  // namespace

Metrics traced_run(const TracedOptions& o) {
  // The pass runs on a fresh thread, as the server's requests do on its
  // workers: the main thread's allocator state would otherwise bias
  // server.handle against server.roundtrip.
  Metrics metrics;
  std::exception_ptr error;
  std::thread pass([&] {
    try {
      metrics = traced_pass(o);
    } catch (...) {
      error = std::current_exception();
    }
  });
  pass.join();
  if (error) std::rethrow_exception(error);
  return metrics;
}

}  // namespace servebench
