#include "server/router.hpp"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string_view>

#include "api/api.hpp"
#include "api/schema.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/trace.hpp"
#include "common/version.hpp"
#include "server/metrics_registry.hpp"

namespace qre::server {

namespace {

/// Router-level error envelope. The request id rides along so a client
/// holding only the error body can still quote the correlation id.
json::Value error_document(const char* code, const std::string& message,
                           const std::string& request_id) {
  json::Object out{{"error", json::Value(json::Object{{"code", code}, {"message", message}})}};
  if (!request_id.empty()) out.emplace_back("requestId", request_id);
  return json::Value(std::move(out));
}

/// {"id": id, "status": state}: the answer to a job submit or cancel.
json::Value job_ticket(std::uint64_t id, JobState state) {
  return json::Value(
      json::Object{{"id", json::Value(id)}, {"status", std::string(to_string(state))}});
}

/// `value` as one line of compact JSON, its raw leaves spliced, not copied.
json::Gathered json_line(const json::Value& value) {
  json::Gathered line;
  value.gather(line);
  line.text.push_back('\n');
  return line;
}

Response json_response(int status, const json::Value& body) {
  return Response{.status = status, .body = json_line(body)};
}

Response error_response(int status, const char* code, const std::string& message,
                        const std::string& request_id) {
  return json_response(status, error_document(code, message, request_id));
}

/// Parses "/v2/jobs/{id}"; false when the suffix is not a plain integer.
bool parse_job_id(const std::string& path, std::uint64_t& id) {
  const std::string_view prefix = "/v2/jobs/";
  std::string_view digits(path);
  digits.remove_prefix(prefix.size());
  if (digits.empty() || digits.size() > 19) return false;
  id = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    id = id * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return true;
}

/// Whether one `&`-separated query parameter is exactly
/// `format=prometheus`; every other query keeps the JSON document.
bool wants_prometheus(std::string_view query) {
  for (;;) {
    const std::size_t amp = query.find('&');
    if (query.substr(0, amp) == "format=prometheus") return true;
    if (amp == std::string_view::npos) return false;
    query.remove_prefix(amp + 1);
  }
}

/// Metrics route labels must have bounded cardinality: the method part is
/// client-supplied, so anything outside the standard set collapses to one
/// label instead of growing the per-route table per distinct string.
std::string method_label(const std::string& method) {
  static const char* kKnown[] = {"GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS", "PATCH"};
  for (const char* known : kKnown) {
    if (method == known) return method;
  }
  return "OTHER";
}

}  // namespace

Service::Service(api::Registry& registry, ServiceOptions options)
    : registry_(registry),
      request_deadline_s_(options.request_deadline_s),
      engine_(options.engine),
      jobs_([this](const json::Value& document,
                   const CancelToken& cancel) { return run_document(document, cancel); },
            options.jobs) {
  if (!options.access_log_path.empty()) {
    access_log_ = std::make_unique<AccessLog>(options.access_log_path);
    if (!access_log_->ok()) {
      std::fprintf(stderr, "access-log: cannot open %s — logging disabled\n",
                   options.access_log_path.c_str());
      access_log_.reset();
    }
  }
  if (options.cache_dir.empty()) return;

  // Prewarm: a usable store file fills the read-through tier, an unusable
  // one is a logged cold start — never a failed construction.
  store_ = std::make_unique<store::EstimateStore>(options.cache_dir);
  const store::LoadResult loaded = store_->load();
  if (loaded.usable) {
    std::fprintf(stderr, "store: prewarmed %zu record(s) from %s (%zu corrupt skipped)\n",
                 loaded.records_loaded, store_->path().c_str(), loaded.records_skipped);
  } else if (loaded.file_found) {
    std::fprintf(stderr, "store: %s — starting cold\n", loaded.message.c_str());
  } else {
    std::fprintf(stderr, "store: no store file at %s yet — starting cold\n",
                 store_->path().c_str());
  }
  engine_.set_store(store_.get());

  if (options.persist_interval_s > 0) {
    const auto interval = std::chrono::duration<double>(options.persist_interval_s);
    persist_thread_ = std::thread([this, interval] { persist_thread_loop(interval); });
  }
}

void Service::persist_thread_loop(std::chrono::duration<double> interval) {
  for (;;) {
    {
      MutexLock lock(persist_thread_mutex_);
      while (!stop_persist_thread_) {
        if (persist_thread_cv_.wait_for(persist_thread_mutex_, interval) ==
            std::cv_status::timeout) {
          break;  // interval elapsed: persist below, outside the lock
        }
        // Woken early: either the destructor set the stop flag (checked by
        // the loop condition) or a spurious wakeup (wait again).
      }
      if (stop_persist_thread_) return;
    }
    persist_store();
  }
}

Service::~Service() {
  if (persist_thread_.joinable()) {
    {
      MutexLock lock(persist_thread_mutex_);
      stop_persist_thread_ = true;
    }
    persist_thread_cv_.notify_all();
    persist_thread_.join();
  }
  persist_store();  // final snapshot; persist() itself never throws
}

void Service::persist_store() {
  if (store_ != nullptr) store_->persist();
}

json::Value Service::run_document(const json::Value& document, const CancelToken& cancel) {
  api::EstimateRequest request = api::EstimateRequest::parse(document, registry_);
  service::EngineOptions options = engine_.options();
  options.cancel = cancel;
  api::EstimateResponse response = api::run(request, options, registry_);
  return response.to_json();
}

bool Router::handle(const Request& request, const ByteSink& sink) {
  QRE_TRACE_SPAN("server.request");
  const auto start = std::chrono::steady_clock::now();
  RequestContext ctx;
  ctx.id = request_id_for(request);
  ctx.route_label = method_label(request.method) + " (error)";
  // Count every byte that actually reaches the sink (headers + body +
  // chunk framing) for the access log's bytesOut.
  std::uint64_t bytes_out = 0;
  const ByteSink counting_sink = [&](ByteSink::Pieces pieces) {
    for (std::string_view piece : pieces) bytes_out += piece.size();
    return sink(pieces);
  };
  bool alive;
  try {
    alive = dispatch(request, counting_sink, ctx);
  } catch (const std::exception& e) {
    // Handlers map expected failures themselves; anything arriving here is
    // a server bug, reported as 500 without killing the worker.
    ctx.status = 500;
    alive = write_response(counting_sink,
                           error_response(500, "internal-error", e.what(), ctx.id),
                           request.keep_alive()) &&
            request.keep_alive();
  }
  const double latency_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  service_.metrics().record(ctx.route_label, ctx.status, latency_ms);
  if (AccessLog* log = service_.access_log()) {
    log->record({.id = ctx.id, .method = request.method, .path = request.path(),
                 .route = ctx.route_label, .status = ctx.status, .latency_ms = latency_ms,
                 .bytes_in = request.body.size(), .bytes_out = bytes_out,
                 .deadline = ctx.deadline, .cancelled = ctx.cancelled,
                 .failpoints_armed = failpoint::active_count()});
  }
  return alive;
}

bool Router::dispatch(const Request& request, const ByteSink& sink, RequestContext& ctx) {
  const std::string path = request.path();
  const bool keep_alive = request.keep_alive();

  auto send = [&](Response r) {
    ctx.status = r.status;
    r.extra_headers.push_back({"X-Request-Id", ctx.id});
    return write_response(sink, r, keep_alive) && keep_alive;
  };
  auto method_not_allowed = [&](const char* allow) {
    Response r = error_response(405, "method-not-allowed",
                                "method " + request.method + " is not supported here",
                                ctx.id);
    r.extra_headers.push_back({"Allow", allow});
    return send(std::move(r));
  };

  // ------------------------------------------------------------- probes --
  if (path == "/healthz") {
    ctx.route_label = method_label(request.method) + " /healthz";
    if (request.method != "GET") return method_not_allowed("GET");
    return send(json_response(200, json::Value(json::Object{{"status", "ok"}})));
  }
  if (path == "/version") {
    ctx.route_label = method_label(request.method) + " /version";
    if (request.method != "GET") return method_not_allowed("GET");
    return send(json_response(200, json::Value(json::Object{
                                         {"version", std::string(version_string())},
                                         {"schemaVersion", api::kSchemaVersion}})));
  }
  if (path == "/metrics") {
    ctx.route_label = method_label(request.method) + " /metrics";
    if (request.method != "GET") return method_not_allowed("GET");
    const MetricSources sources{&service_.metrics(), &service_.engine().cache(),
                                service_.store(), &service_.jobs()};
    if (wants_prometheus(request.query())) {
      return send(Response{.status = 200,
                           .content_type = kPrometheusContentType,
                           .body = metrics_prometheus(sources)});
    }
    return send(json_response(200, metrics_json(sources)));
  }
  if (path == "/v2/trace") {
    ctx.route_label = method_label(request.method) + " /v2/trace";
    if (request.method != "GET") return method_not_allowed("GET");
    if (!trace::enabled()) {
      return send(error_response(
          409, "tracing-disabled",
          "tracing is off; start qre_serve with --trace or --trace-file", ctx.id));
    }
    // Chrome Trace Event JSON array — loads directly in Perfetto /
    // chrome://tracing. The export flushes this thread's buffer, so the
    // request's own spans up to this point are included.
    return send(Response{.status = 200, .body = trace::to_chrome_json()});
  }

  // ----------------------------------------------------------- registry --
  if (path == "/v2/profiles") {
    ctx.route_label = method_label(request.method) + " /v2/profiles";
    if (request.method != "GET") return method_not_allowed("GET");
    return send(json_response(200, service_.registry().to_json()));
  }

  // ----------------------------------------------------------- validate --
  if (path == "/v2/validate") {
    ctx.route_label = method_label(request.method) + " /v2/validate";
    if (request.method != "POST") return method_not_allowed("POST");
    json::Value document;
    try {
      document = json::parse(request.body);
    } catch (const Error& e) {
      return send(error_response(400, "invalid-json", e.what(), ctx.id));
    }
    api::EstimateRequest parsed = api::EstimateRequest::parse(document, service_.registry());
    if (parsed.ok()) {
      // Same deep pass as qre_cli --validate: surface per-item problems the
      // batch runner would otherwise defer to run time.
      api::validate_batch_items(parsed.document, service_.registry(), parsed.diagnostics);
    }
    json::Object body;
    body.emplace_back("schemaVersion", api::kSchemaVersion);
    body.emplace_back("valid", !parsed.diagnostics.has_errors());
    body.emplace_back("errors",
                      json::Value(static_cast<std::uint64_t>(parsed.diagnostics.num_errors())));
    body.emplace_back("warnings",
                      json::Value(static_cast<std::uint64_t>(parsed.diagnostics.size() -
                                                             parsed.diagnostics.num_errors())));
    body.emplace_back("diagnostics", parsed.diagnostics.to_json());
    return send(json_response(parsed.diagnostics.has_errors() ? 422 : 200,
                              json::Value(std::move(body))));
  }

  // ----------------------------------------------------------- estimate --
  if (path == "/v2/estimate") {
    ctx.route_label = method_label(request.method) + " /v2/estimate";
    if (request.method != "POST") return method_not_allowed("POST");
    json::Value document;
    try {
      document = json::parse(request.body);
    } catch (const Error& e) {
      return send(error_response(400, "invalid-json", e.what(), ctx.id));
    }
    api::EstimateRequest parsed = api::EstimateRequest::parse(document, service_.registry());
    const bool is_streamable = parsed.document.find("items") != nullptr ||
                               parsed.document.find("sweep") != nullptr ||
                               parsed.document.find("frontier") != nullptr;

    // The per-request deadline (qre_serve --request-deadline): once it
    // elapses, the engine stops at the next item boundary. Sweeps degrade
    // to per-item "cancelled" entries; single/frontier runs answer 408.
    CancelToken cancel;
    if (service_.request_deadline_s() > 0) {
      cancel = cancel.with_deadline(service_.request_deadline_s());
    }
    auto deadline_status = [&](const api::EstimateResponse& response, int fallback) {
      for (const Diagnostic& d : response.diagnostics.entries()) {
        if (d.code == "deadline-exceeded") {
          service_.metrics().record_deadline_exceeded();
          ctx.deadline = true;
          return 408;
        }
      }
      return fallback;
    };

    if (parsed.ok() && is_streamable && request.accepts("application/x-ndjson")) {
      // Streaming: one NDJSON line per item (or frontier probe), strictly
      // in item order, then a final batchStats/frontierStats line. Headers
      // go out lazily with the first item so a pre-run failure still gets a
      // proper JSON error response.
      ChunkedWriter chunked(sink);
      bool sink_ok = true;
      service::EngineOptions options = service_.engine().options(
          [&](std::size_t index, const json::Value& result) {
            if (!chunked.begun()) {
              sink_ok = chunked.begin(200, "application/x-ndjson", keep_alive,
                                      {{"X-Request-Id", ctx.id}}) &&
                        sink_ok;
            }
            json::Gathered line("{\"item\":" + std::to_string(index) + ",\"result\":");
            result.gather(line);
            line.text += "}\n";
            sink_ok = chunked.write(line) && sink_ok;
          });
      options.cancel = cancel;
      api::EstimateResponse response = api::run(parsed, options, service_.registry());
      if (!chunked.begun()) {
        // Nothing streamed: empty expansion or a failure before the batch
        // ran. Fall back to a plain envelope.
        return send(json_response(deadline_status(response, response.success ? 200 : 422),
                                  response.to_json()));
      }
      if (!response.success) {
        // The run failed after lines went out (e.g. a frontier whose every
        // probe was infeasible). Headers are committed, so the failure is
        // reported in-stream as a final error line instead of a summary —
        // the client must never mistake a truncated stream for success.
        sink_ok = chunked.write(json_line(error_document(
                      "estimation-failed", response.diagnostics.summary(), ctx.id))) &&
                  sink_ok;
      } else {
        for (const char* key : {"batchStats", "frontierStats"}) {
          if (const json::Value* stats = response.result.find(key)) {
            const json::Value stats_line(json::Object{{key, *stats}});
            sink_ok = chunked.write(json_line(stats_line)) && sink_ok;
            break;
          }
        }
      }
      sink_ok = chunked.end() && sink_ok;
      ctx.status = 200;
      return keep_alive && sink_ok;
    }

    service::EngineOptions options = service_.engine().options();
    options.cancel = cancel;
    api::EstimateResponse response = api::run(parsed, options, service_.registry());
    int http_status = parsed.ok() ? (response.success ? 200 : 422) : 400;
    if (parsed.ok() && !response.success) http_status = deadline_status(response, http_status);
    return send(json_response(http_status, response.to_json()));
  }

  // ---------------------------------------------------------- job queue --
  if (path == "/v2/jobs") {
    ctx.route_label = method_label(request.method) + " /v2/jobs";
    if (request.method != "POST") return method_not_allowed("POST");
    json::Value document;
    try {
      document = json::parse(request.body);
    } catch (const Error& e) {
      return send(error_response(400, "invalid-json", e.what(), ctx.id));
    }
    const std::optional<std::uint64_t> id = service_.jobs().submit(std::move(document));
    if (!id.has_value()) {
      return send(error_response(429, "backlog-full",
                                 "job backlog is full; retry after queued jobs finish",
                                 ctx.id));
    }
    return send(json_response(202, job_ticket(*id, JobState::kQueued)));
  }
  if (path.rfind("/v2/jobs/", 0) == 0) {
    ctx.route_label = method_label(request.method) + " /v2/jobs/{id}";
    if (request.method != "GET" && request.method != "DELETE") {
      return method_not_allowed("GET, DELETE");
    }
    std::uint64_t id = 0;
    if (!parse_job_id(path, id)) {
      return send(error_response(400, "invalid-job-id",
                                 "job ids are the decimal integers POST /v2/jobs returned",
                                 ctx.id));
    }
    if (request.method == "GET") {
      const std::optional<json::Value> job = service_.jobs().status(id);
      if (!job.has_value()) {
        return send(error_response(404, "unknown-job",
                                   "no job " + std::to_string(id) + " (unknown or evicted)",
                                   ctx.id));
      }
      return send(json_response(200, *job));
    }
    const JobQueue::CancelResult cancelled = service_.jobs().cancel(id);
    switch (cancelled) {
      case JobQueue::CancelResult::kNotFound:
        return send(error_response(404, "unknown-job",
                                   "no job " + std::to_string(id) + " (unknown or evicted)",
                                   ctx.id));
      case JobQueue::CancelResult::kNotCancellable:
        return send(error_response(409, "not-cancellable",
                                   "job " + std::to_string(id) +
                                       " already finished; finished jobs cannot be cancelled",
                                   ctx.id));
      case JobQueue::CancelResult::kCancelling:
      case JobQueue::CancelResult::kCancelled:
        break;
    }
    service_.metrics().record_cancel_request();
    ctx.cancelled = true;
    // A running job cancels cooperatively: 202 = accepted, in progress;
    // poll GET /v2/jobs/{id} for the terminal "cancelled".
    if (cancelled == JobQueue::CancelResult::kCancelling) {
      return send(json_response(202, job_ticket(id, JobState::kCancelling)));
    }
    return send(json_response(200, job_ticket(id, JobState::kCancelled)));
  }

  ctx.route_label = method_label(request.method) + " (unmatched)";
  return send(error_response(404, "unknown-endpoint",
                             "no endpoint " + path + "; see docs/server.md", ctx.id));
}

}  // namespace qre::server
