// The one way into the estimator, for tests that only need a job's result:
// api::EstimateRequest::parse plus api::run, with both steps asserted.
#pragma once

#include <gtest/gtest.h>

#include "api/api.hpp"

namespace qre {

/// Parses and runs `job` through api::run and returns the result document.
/// Records a test failure (and returns null) when the document is invalid
/// or the run fails; tests of those outcomes call parse/run themselves.
inline json::Value run_request(const json::Value& job,
                               const service::EngineOptions& options = {}) {
  const api::EstimateRequest request = api::EstimateRequest::parse(job);
  EXPECT_TRUE(request.ok()) << request.diagnostics.summary();
  const api::EstimateResponse response = api::run(request, options);
  EXPECT_TRUE(response.success) << response.diagnostics.summary();
  return response.result;
}

}  // namespace qre
