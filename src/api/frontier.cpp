#include "api/frontier.hpp"

#include "api/api.hpp"
#include "common/error.hpp"

namespace qre::api {

FrontierRequest FrontierRequest::parse(const json::Value& job, const Registry& registry) {
  FrontierRequest request;
  EstimateRequest base = EstimateRequest::parse(job, registry);
  request.document = std::move(base.document);
  request.source_version = base.source_version;
  request.diagnostics = std::move(base.diagnostics);
  const json::Value* section =
      request.document.is_object() ? request.document.find("frontier") : nullptr;
  if (section == nullptr) {
    request.diagnostics.error("required-missing", "/frontier",
                              "a frontier job requires a 'frontier' section");
    return request;
  }
  if (!request.ok()) return request;
  Diagnostics sink;  // validate_job ran the same parser and reported its findings
  request.options =
      frontier::ExploreOptions::parse(*section, "/frontier", sink).value_or(request.options);
  return request;
}

json::Value FrontierResponse::to_json() const {
  json::Object o;
  o.emplace_back("schemaVersion", kSchemaVersion);
  o.emplace_back("success", success);
  o.emplace_back("diagnostics", diagnostics.to_json());
  if (success) o.emplace_back("result", result);
  return json::Value(std::move(o));
}

namespace {

/// The probe executor: one validated single-estimate document -> report
/// bytes, the same leaf a single estimate yields: probes share cache keys
/// with single estimates.
service::JobRunner estimator_runner(const Registry& registry) {
  return [&registry](const json::Value& item) -> json::Value {
    Diagnostics sink;  // probes derive from a validated document
    return run_single_document(item, registry, &sink);
  };
}

}  // namespace

json::Value run_frontier_document(const json::Value& doc, const Registry& registry,
                                  const service::EngineOptions& options,
                                  frontier::ExploreStats* stats) {
  const json::Value* section = doc.find("frontier");
  QRE_REQUIRE(section != nullptr, "frontier job document lacks its 'frontier' section");
  Diagnostics sink;
  frontier::ExploreOptions explore_options =
      frontier::ExploreOptions::from_json(*section, &sink);
  return frontier::explore(doc, explore_options, estimator_runner(registry), options,
                           stats);
}

FrontierResponse run_frontier(const FrontierRequest& request,
                              const service::EngineOptions& options,
                              const Registry& registry) {
  FrontierResponse response;
  response.diagnostics = request.diagnostics;
  if (!request.ok()) return response;
  try {
    // request.options is authoritative here (the caller may have adjusted
    // the parsed values); the document's section is not re-parsed.
    response.result = frontier::explore(request.document, request.options,
                                        estimator_runner(registry), options);
    response.success = true;
  } catch (const ValidationError& e) {
    response.diagnostics.append(e.diagnostics());
  } catch (const std::exception& e) {
    response.diagnostics.error("estimation-failed", "", e.what());
  }
  return response;
}

}  // namespace qre::api
