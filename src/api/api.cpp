#include "api/api.hpp"

#include <chrono>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/trace.hpp"
#include "frontier/explorer.hpp"
#include "report/report.hpp"
#include "service/batch_kernel.hpp"

namespace qre::api {

namespace {

json::Value item_error(const char* code, const std::string& message,
                       const Diagnostics* diags) {
  json::Object out{{"error", json::Value(json::Object{{"code", code}, {"message", message}})}};
  if (diags != nullptr && !diags->empty()) out.emplace_back("diagnostics", diags->to_json());
  return json::Value(std::move(out));
}

/// The result of one non-batch document from its parsed input.
json::Value run_single_input(const json::Value& doc, const EstimationInput& input) {
  std::string estimate_type = "singlePoint";
  if (const json::Value* type = doc.find("estimateType")) {
    estimate_type = type->as_string();
  }
  if (estimate_type == "singlePoint") {
    return json::Value::raw(report_bytes(estimate(input)));
  }
  if (estimate_type == "frontier") {
    std::string out = "{\"frontier\":[";
    for (const ResourceEstimate& e : estimate_frontier(input)) {
      if (out.back() != '[') out.push_back(',');
      out += report_bytes(e);
    }
    out += "]}";
    return json::Value::raw(std::move(out));
  }
  throw_error("unknown estimateType '" + estimate_type +
              "' (expected singlePoint or frontier)");
}

}  // namespace

EstimateRequest EstimateRequest::parse(const json::Value& job, const Registry& registry) {
  EstimateRequest request;
  // "collectTimings" is transport-level (it changes what run() reports, not
  // what it computes), so it is split off before the upgrade/validate
  // passes: the normalized document — and with it every cache key, store
  // record, and result payload — is identical with or without the flag.
  json::Value stripped = job;
  if (stripped.is_object()) {
    json::Object& obj = stripped.as_object();
    for (auto it = obj.begin(); it != obj.end(); ++it) {
      if (it->first != "collectTimings") continue;
      if (it->second.is_bool()) {
        request.collect_timings = it->second.as_bool();
      } else {
        request.diagnostics.error("type-mismatch", "/collectTimings",
                                  "collectTimings must be a boolean");
      }
      obj.erase(it);
      break;
    }
  }
  request.document =
      upgrade_job(std::move(stripped), request.diagnostics, &request.source_version);
  if (!request.diagnostics.has_errors()) {
    request.input = validate_job(request.document, registry, request.diagnostics);
  }
  return request;
}

json::Value EstimateResponse::to_json() const {
  json::Object o{{"schemaVersion", kSchemaVersion},
                 {"success", success},
                 {"diagnostics", diagnostics.to_json()}};
  if (success) o.emplace_back("result", result);
  return json::Value(std::move(o));
}

EstimationInput input_from_document(const json::Value& doc, const Registry& registry,
                                    Diagnostics* diags) {
  return parse_or_throw(diags,
                        [&](Diagnostics& found) { return validate_job(doc, registry, found); });
}

EstimateResponse run(const EstimateRequest& request, const service::EngineOptions& options,
                     const Registry& registry) {
  EstimateResponse response;
  response.diagnostics = request.diagnostics;
  if (!request.ok()) return response;

  const json::Value& doc = request.document;
  const json::Value* items = doc.find("items");
  const json::Value* sweep = doc.find("sweep");

  // Timing collection: an external collector (qre_cli --timings) wins;
  // otherwise "collectTimings": true gets a request-local one whose
  // rendering is appended to the result below. Both stay null-cost when
  // neither was asked for.
  trace::Collector local_timings;
  trace::Collector* timings = options.timings;
  if (timings == nullptr && request.collect_timings) timings = &local_timings;
  service::EngineOptions run_options = options;
  run_options.timings = timings;

  QRE_TRACE_SPAN("api.run");
  trace::CollectorScope collector_scope(timings);
  const auto run_start = std::chrono::steady_clock::now();
  const std::int64_t run_cpu_start = trace::process_cpu_ns();

  try {
    // Bail before any estimation when the request arrives already cancelled
    // or past its deadline; mid-run the engine and frontier explorer check
    // the same token at item boundaries.
    run_options.cancel.throw_if_cancelled("estimate");
    if (const json::Value* section = doc.find("frontier")) {
      // The adaptive Pareto explorer (docs/frontier.md). Each probe is a
      // single-estimate document and yields the leaf a single estimate
      // does, so probes share cache keys with single estimates. Probes are
      // memoized individually through `options`' cache, never the frontier
      // document as a whole, so streaming sinks observe every probe even on
      // a warm engine. explore() throws when every probe is infeasible.
      trace::PhaseTimer phase(timings, "api.explore");
      Diagnostics sink;  // validate_job ran the same parser and reported its findings
      const frontier::ExploreOptions explore_options =
          frontier::ExploreOptions::from_json(*section, &sink);
      const service::JobRunner probe = [&registry](const json::Value& item) -> json::Value {
        Diagnostics probe_sink;  // probes derive from a validated document
        return run_single_input(item, input_from_document(item, registry, &probe_sink));
      };
      response.result = frontier::explore(doc, explore_options, probe, run_options);
      response.success = true;
    } else if (items != nullptr || sweep != nullptr) {
      auto runner = [&registry](const json::Value& item) -> json::Value {
        // Per-item isolation: a merged item is validated as a complete
        // single job of its own, so an invalid item degrades to a
        // structured "invalid-item" entry (with its full diagnostic list,
        // paths relative to the item document) instead of aborting the
        // batch. Runtime failures are isolated by the engine.
        Diagnostics item_diags;
        const std::optional<EstimationInput> input = validate_job(item, registry, item_diags);
        if (!input) return item_error("invalid-item", item_diags.summary(), &item_diags);
        return run_single_input(item, *input);
      };
      service::BatchStats stats;
      json::Array results;
      if (sweep != nullptr) {
        // Sweep grids are planned from their axis values and never expanded
        // (see service/batch_kernel.hpp): covered items are composed from
        // the plan's parsed values, the rest run the per-item runner on
        // their on-demand documents, all in one run_batch_indexed call.
        // Grid points are mostly seen once, so the cache keeps only the
        // ones a lookup misses a second time (CacheFill::kOnRepeat).
        service::BatchKernelPlan plan;
        {
          trace::PhaseTimer phase(timings, "service.plan");
          plan = service::plan_batch_kernel(doc, registry);
        }
        trace::PhaseTimer phase(timings, "api.execute");
        const service::IndexedRunner item_runner = [&](std::size_t index) -> json::Value {
          if (!plan.covers(index)) return runner(plan.item_document(index));
          return json::Value::raw(report_bytes(estimate(plan.item_input(index))));
        };
        const service::IndexedKeyFn key_fn = [&plan](std::size_t index) {
          return plan.item_key(index);
        };
        results = service::run_batch_indexed(plan.num_items(), item_runner, key_fn, run_options,
                                             &stats, service::CacheFill::kOnRepeat);
      } else {
        std::vector<json::Value> expanded;
        {
          trace::PhaseTimer phase(timings, "api.expand");
          expanded.reserve(items->as_array().size());
          for (const json::Value& item : items->as_array()) {
            expanded.push_back(merge_job_item(doc, item));
          }
        }
        trace::PhaseTimer phase(timings, "api.execute");
        results = service::run_batch(expanded, runner, run_options, &stats);
      }
      response.result = json::Value(json::Object{{"results", json::Value(std::move(results))},
                                                 {"batchStats", stats.to_json()}});
      response.success = true;
    } else {
      // Single estimates are memoized only through an EXTERNAL cache (a
      // serving engine's): a batch-private cache would die with this call
      // anyway, and the result stays byte-identical either way — the cache
      // replays the exact result document.
      trace::PhaseTimer phase(timings, "api.execute");
      QRE_REQUIRE(request.input.has_value(), "a single estimate needs the input parse() built");
      auto compute = [&] { return run_single_input(doc, *request.input); };
      if (run_options.use_cache && run_options.cache != nullptr) {
        response.result =
            run_options.cache->get_or_compute(service::canonical_key(doc), compute);
      } else {
        response.result = compute();
      }
      response.success = true;
    }
  } catch (const DeadlineExceededError& e) {
    response.diagnostics.error("deadline-exceeded", "", e.what());
  } catch (const CancelledError& e) {
    response.diagnostics.error("cancelled", "", e.what());
  } catch (const ValidationError& e) {
    response.diagnostics.append(e.diagnostics());
  } catch (const std::exception& e) {
    response.diagnostics.error("estimation-failed", "", e.what());
  }

  // The opt-in "timings" block, appended AFTER any cache interaction so
  // cached payloads (and golden files) never carry it. totalCpuMs is a
  // process-CPU delta: it covers the engine workers, but under concurrent
  // server load it includes other requests too (see docs/observability.md).
  if (request.collect_timings && timings != nullptr && response.success) {
    const std::int64_t total_wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                           std::chrono::steady_clock::now() - run_start)
                                           .count();
    const std::int64_t total_cpu_ns = trace::process_cpu_ns() - run_cpu_start;
    // A single estimate's result is raw bytes; only this opt-in path pays
    // to parse it back into a tree it can extend.
    if (response.result.is_raw()) response.result = response.result.materialize();
    if (response.result.is_object()) {
      response.result.set("timings", timings->to_json(total_wall_ns, total_cpu_ns));
    }
  }
  return response;
}

}  // namespace qre::api
