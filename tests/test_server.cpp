// Tests of the estimation server: the HTTP/1.1 message layer (in-memory
// byte streams, no sockets) and the full serving stack — router, shared
// engine, async job queue, metrics — exercised over real loopback TCP
// through the in-process server::Client.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "api/api.hpp"
#include "api/registry.hpp"
#include "api/schema.hpp"
#include "common/failpoint.hpp"
#include "common/trace.hpp"
#include "json/json.hpp"
#include "server/client.hpp"
#include "server/http.hpp"
#include "server/job_queue.hpp"
#include "server/metrics_registry.hpp"
#include "server/router.hpp"
#include "server/server.hpp"
#include "tests/run_request.hpp"
#include "tfactory/factory_cache.hpp"

namespace qre {
namespace {

using server::Client;
using server::ReadStatus;

// A small, fast job document (counts kept low so a test run stays quick).
const char* kSingleJob = R"({
  "schemaVersion": 2,
  "logicalCounts": {"numQubits": 10, "tCount": 1000},
  "qubitParams": {"name": "qubit_gate_ns_e3"},
  "errorBudget": 0.01
})";

const char* kBatchJob = R"({
  "schemaVersion": 2,
  "logicalCounts": {"numQubits": 10, "tCount": 1000},
  "qubitParams": {"name": "qubit_gate_ns_e3"},
  "items": [
    {"errorBudget": 0.01},
    {"errorBudget": 0.001},
    {"qubitParams": {"name": "qubit_maj_ns_e4"}},
    {"errorBudget": 0.01}
  ]
})";

// ------------------------------------------------------- message layer ---

/// A ByteSource replaying a fixed byte string (EOF afterwards).
server::ByteSource memory_source(std::string data) {
  auto stream = std::make_shared<std::pair<std::string, std::size_t>>(std::move(data), 0);
  return [stream](char* out, std::size_t len) -> long {
    const std::string& bytes = stream->first;
    std::size_t& pos = stream->second;
    if (pos >= bytes.size()) return 0;
    const std::size_t n = std::min(len, bytes.size() - pos);
    std::memcpy(out, bytes.data() + pos, n);
    pos += n;
    return static_cast<long>(n);
  };
}

TEST(Http, ParsesContentLengthRequest) {
  server::ByteSource src = memory_source(
      "POST /v2/estimate HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{...}");
  std::string buffer;
  server::Request request;
  ASSERT_EQ(read_request(src, buffer, request), ReadStatus::kOk);
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.path(), "/v2/estimate");
  EXPECT_EQ(request.body, "{...");  // exactly Content-Length bytes
  EXPECT_TRUE(request.keep_alive());
}

TEST(Http, ParsesChunkedRequestBody) {
  server::ByteSource src = memory_source(
      "POST /v2/jobs HTTP/1.1\r\n"
      "Transfer-Encoding: chunked\r\n"
      "\r\n"
      "5\r\n{\"a\":\r\n"
      "2;ext=1\r\n1}\r\n"
      "0\r\n"
      "Trailer: ignored\r\n"
      "\r\n");
  std::string buffer;
  server::Request request;
  ASSERT_EQ(read_request(src, buffer, request), ReadStatus::kOk);
  EXPECT_EQ(request.body, "{\"a\":1}");
  EXPECT_TRUE(buffer.empty());  // trailers fully consumed
}

TEST(Http, KeepAliveLeavesPipelinedBytesInBuffer) {
  server::ByteSource src = memory_source(
      "GET /healthz HTTP/1.1\r\n\r\nGET /version HTTP/1.1\r\nConnection: close\r\n\r\n");
  std::string buffer;
  server::Request first;
  ASSERT_EQ(read_request(src, buffer, first), ReadStatus::kOk);
  EXPECT_EQ(first.target, "/healthz");
  server::Request second;
  ASSERT_EQ(read_request(src, buffer, second), ReadStatus::kOk);
  EXPECT_EQ(second.target, "/version");
  EXPECT_FALSE(second.keep_alive());
}

TEST(Http, OversizedBodyIsRejected) {
  server::ReadLimits limits;
  limits.max_body_bytes = 8;
  server::ByteSource src = memory_source(
      "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789");
  std::string buffer;
  server::Request request;
  EXPECT_EQ(read_request(src, buffer, request, limits), ReadStatus::kTooLarge);
}

TEST(Http, MalformedStartLineIsBadRequest) {
  std::string buffer;
  server::Request request;
  server::ByteSource src = memory_source("NONSENSE\r\n\r\n");
  EXPECT_EQ(read_request(src, buffer, request), ReadStatus::kBadRequest);
}

// ----------------------------------------------------------- full stack ---

/// One live loopback server per fixture instance: its own registry, shared
/// engine, job queue, and metrics, so tests cannot interfere.
class ServerFixture {
 public:
  explicit ServerFixture(server::ServiceOptions service_options = {})
      : registry_(api::Registry::with_builtins()),
        service_(registry_, service_options),
        router_(service_),
        server_(router_, make_server_options()) {
    server_.start();
    client_ = std::make_unique<Client>("127.0.0.1", server_.port());
  }

  static server::ServerOptions make_server_options() {
    server::ServerOptions o;
    o.port = 0;  // ephemeral
    o.num_workers = 2;
    o.receive_timeout_seconds = 5;
    return o;
  }

  server::Service& service() { return service_; }
  server::Server& http_server() { return server_; }
  Client& client() { return *client_; }
  api::Registry& registry() { return registry_; }

  /// Polls GET /v2/jobs/{id} until the job reaches a terminal state.
  json::Value await_job(std::uint64_t id) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
      Client::Result r = client_->get("/v2/jobs/" + std::to_string(id));
      EXPECT_TRUE(r.ok) << r.error;
      json::Value doc = json::parse(r.body);
      const std::string& state = doc.at("status").as_string();
      if (state != "queued" && state != "running" && state != "cancelling") return doc;
      if (std::chrono::steady_clock::now() > deadline) {
        ADD_FAILURE() << "job " << id << " stuck in state " << state;
        return doc;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

 private:
  api::Registry registry_;
  server::Service service_;
  server::Router router_;
  server::Server server_;
  std::unique_ptr<Client> client_;
};

server::ServiceOptions frozen_queue_options(std::size_t backlog) {
  // num_workers == 0: submitted jobs never start, making cancel/backlog
  // behavior deterministic.
  server::ServiceOptions o;
  o.jobs.num_workers = 0;
  o.jobs.max_backlog = backlog;
  return o;
}

TEST(Server, SyncEstimateMatchesApiRunByteForByte) {
  ServerFixture fx;
  const json::Value job = json::parse(kSingleJob);
  Client::Result r = fx.client().post("/v2/estimate", kSingleJob);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 200);
  json::Value envelope = json::parse(r.body);
  EXPECT_TRUE(envelope.at("success").as_bool());
  EXPECT_EQ(envelope.at("result").dump(), run_request(job).dump());
}

TEST(Server, SyncBatchEstimateMatchesApiRunByteForByte) {
  // A fresh fixture's shared cache is cold, so even batchStats must agree
  // with a private-cache serial run.
  ServerFixture fx;
  const json::Value job = json::parse(kBatchJob);
  Client::Result r = fx.client().post("/v2/estimate", kBatchJob);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 200);
  json::Value envelope = json::parse(r.body);
  ASSERT_TRUE(envelope.at("success").as_bool());
  EXPECT_EQ(envelope.at("result").dump(), run_request(job).dump());
}

TEST(Server, RepeatedRequestsHitTheSharedCacheAndStayIdentical) {
  ServerFixture fx;
  Client::Result first = fx.client().post("/v2/estimate", kSingleJob);
  ASSERT_TRUE(first.ok) << first.error;
  const std::uint64_t misses_after_first = fx.service().engine().cache().misses();
  Client::Result second = fx.client().post("/v2/estimate", kSingleJob);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(first.body, second.body);
  EXPECT_EQ(fx.service().engine().cache().misses(), misses_after_first);
  EXPECT_GE(fx.service().engine().cache().hits(), 1u);
}

TEST(Server, AsyncJobLifecycle) {
  ServerFixture fx;
  Client::Result submit = fx.client().post("/v2/jobs", kSingleJob);
  ASSERT_TRUE(submit.ok) << submit.error;
  EXPECT_EQ(submit.status, 202);
  json::Value ticket = json::parse(submit.body);
  const std::uint64_t id = ticket.at("id").as_uint();
  EXPECT_EQ(ticket.at("status").as_string(), "queued");

  json::Value done = fx.await_job(id);
  EXPECT_EQ(done.at("status").as_string(), "succeeded");
  const json::Value& response = done.at("response");
  EXPECT_TRUE(response.at("success").as_bool());
  // The async result is the same envelope the sync endpoint produces.
  Client::Result sync = fx.client().post("/v2/estimate", kSingleJob);
  ASSERT_TRUE(sync.ok) << sync.error;
  EXPECT_EQ(response.dump() + "\n", sync.body);

  // Finished jobs are not cancellable, unknown ids are 404.
  Client::Result cancel = fx.client().del("/v2/jobs/" + std::to_string(id));
  ASSERT_TRUE(cancel.ok) << cancel.error;
  EXPECT_EQ(cancel.status, 409);
  Client::Result unknown = fx.client().get("/v2/jobs/999999");
  ASSERT_TRUE(unknown.ok) << unknown.error;
  EXPECT_EQ(unknown.status, 404);
}

TEST(Server, QueuedJobsCancelDeterministically) {
  ServerFixture fx(frozen_queue_options(8));
  Client::Result submit = fx.client().post("/v2/jobs", kSingleJob);
  ASSERT_TRUE(submit.ok) << submit.error;
  const std::uint64_t id = json::parse(submit.body).at("id").as_uint();

  Client::Result before = fx.client().get("/v2/jobs/" + std::to_string(id));
  ASSERT_TRUE(before.ok) << before.error;
  EXPECT_EQ(json::parse(before.body).at("status").as_string(), "queued");

  Client::Result cancel = fx.client().del("/v2/jobs/" + std::to_string(id));
  ASSERT_TRUE(cancel.ok) << cancel.error;
  EXPECT_EQ(cancel.status, 200);
  EXPECT_EQ(json::parse(cancel.body).at("status").as_string(), "cancelled");

  Client::Result after = fx.client().get("/v2/jobs/" + std::to_string(id));
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(json::parse(after.body).at("status").as_string(), "cancelled");

  // Cancelling twice is a conflict, not a second cancellation.
  Client::Result again = fx.client().del("/v2/jobs/" + std::to_string(id));
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.status, 409);
}

TEST(Server, DeleteCancelsARunningJobWithinOneItem) {
  if (!failpoint::compiled_in()) GTEST_SKIP() << "built with QRE_FAILPOINTS=OFF";
  // Each item stalls 200 ms at the evaluate seam, so the 4-item batch runs
  // long enough to be caught mid-flight and cancellation (observed at the
  // next item boundary) still lands far inside the await budget.
  failpoint::configure("engine.evaluate.before=delay(200)");
  struct Disarm {
    ~Disarm() { failpoint::reset(); }
  } disarm;

  ServerFixture fx;
  Client::Result submit = fx.client().post("/v2/jobs", kBatchJob);
  ASSERT_TRUE(submit.ok) << submit.error;
  ASSERT_EQ(submit.status, 202);
  const std::uint64_t id = json::parse(submit.body).at("id").as_uint();

  // Catch the job while it is actually running.
  std::string state = "queued";
  for (int i = 0; i < 2000 && state == "queued"; ++i) {
    Client::Result poll = fx.client().get("/v2/jobs/" + std::to_string(id));
    ASSERT_TRUE(poll.ok) << poll.error;
    state = json::parse(poll.body).at("status").as_string();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(state, "running");

  Client::Result cancel = fx.client().del("/v2/jobs/" + std::to_string(id));
  ASSERT_TRUE(cancel.ok) << cancel.error;
  EXPECT_EQ(cancel.status, 202);  // accepted: cancellation is cooperative
  EXPECT_EQ(json::parse(cancel.body).at("status").as_string(), "cancelling");

  // Terminal within the polling budget; partial results are discarded.
  const json::Value terminal = fx.await_job(id);
  EXPECT_EQ(terminal.at("status").as_string(), "cancelled");
  EXPECT_EQ(terminal.find("response"), nullptr);

  // The cancel surfaced in /metrics.
  Client::Result metrics = fx.client().get("/metrics");
  ASSERT_TRUE(metrics.ok) << metrics.error;
  EXPECT_GE(json::parse(metrics.body).at("server").at("cancelRequestsTotal").as_uint(), 1u);
}

TEST(Server, RequestDeadlineAnswers408WithDiagnostic) {
  server::ServiceOptions options;
  options.request_deadline_s = 1e-9;  // expired before the run begins
  ServerFixture fx(options);

  Client::Result r = fx.client().post("/v2/estimate", kSingleJob);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 408);
  const json::Value body = json::parse(r.body);
  EXPECT_FALSE(body.at("success").as_bool());
  bool saw_code = false;
  for (const json::Value& d : body.at("diagnostics").as_array()) {
    if (d.at("code").as_string() == "deadline-exceeded") saw_code = true;
  }
  EXPECT_TRUE(saw_code);

  Client::Result metrics = fx.client().get("/metrics");
  ASSERT_TRUE(metrics.ok) << metrics.error;
  EXPECT_GE(json::parse(metrics.body).at("server").at("deadlineExceededTotal").as_uint(), 1u);
}

TEST(Server, FullBacklogReturns429) {
  ServerFixture fx(frozen_queue_options(2));
  EXPECT_EQ(fx.client().post("/v2/jobs", kSingleJob).status, 202);
  EXPECT_EQ(fx.client().post("/v2/jobs", kSingleJob).status, 202);
  Client::Result overflow = fx.client().post("/v2/jobs", kSingleJob);
  ASSERT_TRUE(overflow.ok) << overflow.error;
  EXPECT_EQ(overflow.status, 429);
  EXPECT_EQ(json::parse(overflow.body).at("error").at("code").as_string(), "backlog-full");
}

TEST(Server, NdjsonStreamsBatchItemsInOrder) {
  ServerFixture fx;
  Client::Result r = fx.client().post("/v2/estimate", kBatchJob,
                                      {{"Accept", "application/x-ndjson"}});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 200);
  const std::string* content_type = r.header("Content-Type");
  ASSERT_NE(content_type, nullptr);
  EXPECT_EQ(*content_type, "application/x-ndjson");

  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < r.body.size()) {
    const std::size_t eol = r.body.find('\n', start);
    if (eol == std::string::npos) break;
    lines.push_back(r.body.substr(start, eol - start));
    start = eol + 1;
  }
  ASSERT_EQ(lines.size(), 5u);  // 4 items + batchStats
  for (std::size_t i = 0; i < 4; ++i) {
    json::Value line = json::parse(lines[i]);
    EXPECT_EQ(line.at("item").as_uint(), i);
    EXPECT_TRUE(line.at("result").is_object());
  }
  json::Value last = json::parse(lines.back());
  EXPECT_NE(last.find("batchStats"), nullptr);
  EXPECT_EQ(last.at("batchStats").at("numItems").as_uint(), 4u);

  // The streamed items equal the non-streamed results, in the same order.
  json::Value plain = json::parse(fx.client().post("/v2/estimate", kBatchJob).body);
  const json::Array& results = plain.at("result").at("results").as_array();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(json::parse(lines[i]).at("result").dump(), results[i].dump());
  }
}

TEST(Server, NdjsonStreamsFrontierProbesAndStats) {
  const char* kFrontierJob = R"({
    "schemaVersion": 2,
    "logicalCounts": {"numQubits": 10, "tCount": 100000},
    "qubitParams": {"name": "qubit_gate_ns_e3"},
    "errorBudget": 0.001,
    "frontier": {"maxProbes": 8, "qubitTolerance": 0.05, "runtimeTolerance": 0.05}
  })";
  ServerFixture fx;
  Client::Result r = fx.client().post("/v2/estimate", kFrontierJob,
                                      {{"Accept", "application/x-ndjson"}});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 200);

  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < r.body.size()) {
    const std::size_t eol = r.body.find('\n', start);
    if (eol == std::string::npos) break;
    lines.push_back(r.body.substr(start, eol - start));
    start = eol + 1;
  }
  ASSERT_GE(lines.size(), 3u);  // >= 2 probes + frontierStats
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    json::Value line = json::parse(lines[i]);
    EXPECT_EQ(line.at("item").as_uint(), i);  // deterministic probe order
    EXPECT_TRUE(line.at("result").at("result").is_object());
  }
  json::Value last = json::parse(lines.back());
  ASSERT_NE(last.find("frontierStats"), nullptr);
  EXPECT_EQ(last.at("frontierStats").at("numProbes").as_uint(), lines.size() - 1);

  // The plain (non-streamed) response is the same exploration: same stats,
  // and the shared engine answered the repeat entirely from cache.
  json::Value plain = json::parse(fx.client().post("/v2/estimate", kFrontierJob).body);
  ASSERT_TRUE(plain.at("success").as_bool());
  EXPECT_EQ(plain.at("result").at("frontierStats").dump(),
            last.at("frontierStats").dump());
}

TEST(Server, NdjsonFrontierFailureEndsStreamWithErrorLine) {
  // maxDuration 1 ns: every probe is infeasible, so the exploration itself
  // fails after probe-error lines have gone out. The committed 200 stream
  // must end with an explicit error line, never a clean-looking EOF.
  const char* kDoomedJob = R"({
    "schemaVersion": 2,
    "logicalCounts": {"numQubits": 10, "tCount": 100000},
    "qubitParams": {"name": "qubit_gate_ns_e3"},
    "constraints": {"maxDuration": 1},
    "frontier": {"maxProbes": 8}
  })";
  ServerFixture fx;
  Client::Result r = fx.client().post("/v2/estimate", kDoomedJob,
                                      {{"Accept", "application/x-ndjson"}});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 200);  // headers were committed before the failure
  const std::size_t last_start = r.body.rfind('\n', r.body.size() - 2);
  json::Value last = json::parse(
      r.body.substr(last_start == std::string::npos ? 0 : last_start + 1));
  ASSERT_NE(last.find("error"), nullptr);
  EXPECT_EQ(last.at("error").at("code").as_string(), "estimation-failed");
}

TEST(Server, MetricsCountersMoveWithTraffic) {
  ServerFixture fx;
  json::Value before = json::parse(fx.client().get("/metrics").body);
  ASSERT_TRUE(fx.client().post("/v2/estimate", kSingleJob).ok);
  ASSERT_EQ(fx.client().post("/v2/jobs", kSingleJob).status, 202);
  json::Value after = json::parse(fx.client().get("/metrics").body);

  EXPECT_GT(after.at("server").at("requestsTotal").as_uint(),
            before.at("server").at("requestsTotal").as_uint());
  EXPECT_GT(after.at("estimateCache").at("misses").as_uint(),
            before.at("estimateCache").at("misses").as_uint());
  EXPECT_GT(after.at("server").at("responsesByStatus").at("2xx").as_uint(),
            before.at("server").at("responsesByStatus").at("2xx").as_uint());

  // The histogram counted every request.
  std::uint64_t histogram_total = 0;
  for (const json::Value& count :
       after.at("server").at("latencyMs").at("counts").as_array()) {
    histogram_total += count.as_uint();
  }
  EXPECT_EQ(histogram_total, after.at("server").at("requestsTotal").as_uint());

  // Route labels are normalized patterns.
  EXPECT_NE(after.at("server").at("requestsByRoute").find("POST /v2/estimate"), nullptr);
  EXPECT_NE(after.at("jobs"), json::Value());
}

TEST(Server, ValidateEndpointDryRuns) {
  ServerFixture fx;
  Client::Result good = fx.client().post("/v2/validate", kSingleJob);
  ASSERT_TRUE(good.ok) << good.error;
  EXPECT_EQ(good.status, 200);
  EXPECT_TRUE(json::parse(good.body).at("valid").as_bool());

  Client::Result bad = fx.client().post("/v2/validate", R"({"schemaVersion": 2})");
  ASSERT_TRUE(bad.ok) << bad.error;
  EXPECT_EQ(bad.status, 422);
  json::Value verdict = json::parse(bad.body);
  EXPECT_FALSE(verdict.at("valid").as_bool());
  EXPECT_GE(verdict.at("diagnostics").as_array().size(), 1u);
  // Validation never runs the estimator.
  EXPECT_EQ(fx.service().engine().cache().misses(), 0u);
}

TEST(Server, ProfilesEndpointDumpsTheRegistry) {
  ServerFixture fx;
  Client::Result r = fx.client().get("/v2/profiles");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, fx.registry().to_json().dump() + "\n");
}

TEST(Server, HealthVersionAndErrorRoutes) {
  ServerFixture fx;
  EXPECT_EQ(json::parse(fx.client().get("/healthz").body).at("status").as_string(), "ok");

  json::Value version = json::parse(fx.client().get("/version").body);
  EXPECT_FALSE(version.at("version").as_string().empty());
  EXPECT_EQ(version.at("schemaVersion").as_int(), 2);

  EXPECT_EQ(fx.client().get("/no/such/endpoint").status, 404);

  Client::Result wrong_method = fx.client().get("/v2/estimate");
  EXPECT_EQ(wrong_method.status, 405);
  const std::string* allow = wrong_method.header("Allow");
  ASSERT_NE(allow, nullptr);
  EXPECT_EQ(*allow, "POST");

  EXPECT_EQ(fx.client().post("/v2/estimate", "this is not json").status, 400);
  EXPECT_EQ(fx.client().get("/v2/jobs/not-a-number").status, 400);

  // Invalid documents get the full diagnostic envelope with a 400.
  Client::Result invalid = fx.client().post("/v2/estimate", R"({"schemaVersion": 2})");
  EXPECT_EQ(invalid.status, 400);
  json::Value envelope = json::parse(invalid.body);
  EXPECT_FALSE(envelope.at("success").as_bool());
  EXPECT_GE(envelope.at("diagnostics").as_array().size(), 1u);
}

TEST(Server, OversizedDistillationUnitListIsA400) {
  // A long unit list would make one T-factory search run for seconds; it is
  // rejected at validation instead. Up to the cap, the job runs.
  auto job_with_units = [](std::size_t n) {
    std::string units;
    for (std::size_t i = 0; i < n; ++i) {
      if (i != 0) units += ",";
      units += i % 2 == 0 ? R"({"name": "15-to-1 RM prep"})"
                          : R"({"name": "15-to-1 space efficient"})";
    }
    return R"({"logicalCounts": {"numQubits": 10, "tCount": 1000000}, )"
           R"("distillationUnitSpecifications": [)" + units + "]}";
  };
  ServerFixture fx;
  for (std::size_t n : {std::size_t{9}, std::size_t{256}}) {
    Client::Result r = fx.client().post("/v2/estimate", job_with_units(n));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status, 400) << n << " units";
    const json::Value envelope = json::parse(r.body);
    const json::Array& diagnostics = envelope.at("diagnostics").as_array();
    ASSERT_EQ(diagnostics.size(), 1u) << n << " units";
    EXPECT_EQ(diagnostics[0].at("code").as_string(), "value-range");
    EXPECT_EQ(diagnostics[0].at("path").as_string(), "/distillationUnitSpecifications");
  }
  EXPECT_EQ(fx.client().post("/v2/estimate", job_with_units(api::kMaxDistillationUnits)).status,
            200);
}

TEST(Server, DeeplyNestedBodyIsA400AndTheServerStaysUp) {
  ServerFixture fx;
  Client::Result r = fx.client().post("/v2/estimate", std::string(100 * 1024, '['));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 400);
  const json::Value error = json::parse(r.body).at("error");
  EXPECT_EQ(error.at("code").as_string(), "invalid-json");
  const std::string want = "nesting deeper than " + std::to_string(json::kMaxNestingDepth);
  EXPECT_NE(error.at("message").as_string().find(want), std::string::npos);
  EXPECT_EQ(fx.client().get("/healthz").status, 200);
}

TEST(Server, RestartedServerAnswersFromTheStoreWithZeroRawEstimates) {
  char dir_pattern[] = "/tmp/qre_server_store.XXXXXX";
  ASSERT_NE(::mkdtemp(dir_pattern), nullptr);
  server::ServiceOptions options;
  options.cache_dir = dir_pattern;

  // First server lifecycle: estimate once, then shut down (the Service
  // destructor persists the store, like qre_serve's drain path).
  std::string cold_body;
  {
    ServerFixture fx(options);
    Client::Result r = fx.client().post("/v2/estimate", kSingleJob);
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.status, 200);
    cold_body = r.body;
  }

  // The T-factory cache is process-global; clearing it means any raw
  // estimation after the "restart" would have to repopulate it.
  FactoryCache::global().clear();

  // Second lifecycle over the same cache dir: the answer must come from
  // the store, byte-identically, with zero raw estimates.
  ServerFixture fx(options);
  Client::Result warm = fx.client().post("/v2/estimate", kSingleJob);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.body, cold_body);
  EXPECT_EQ(FactoryCache::global().misses(), 0u);
  ASSERT_NE(fx.service().store(), nullptr);
  EXPECT_EQ(fx.service().store()->hits(), 1u);

  // /metrics carries the store counters.
  Client::Result metrics = fx.client().get("/metrics");
  ASSERT_TRUE(metrics.ok);
  const json::Value metrics_doc = json::parse(metrics.body);
  const json::Value* block = metrics_doc.find("store");
  ASSERT_NE(block, nullptr);
  EXPECT_TRUE(block->at("enabled").as_bool());
  EXPECT_EQ(block->at("hits").as_int(), 1);
  EXPECT_GE(block->at("loaded").as_int(), 1);

  std::error_code ec;
  std::filesystem::remove_all(dir_pattern, ec);
}

// ------------------------------------------------------- observability ---

TEST(Server, RequestIdIsEchoedGeneratedAndInErrorDocuments) {
  ServerFixture fx;

  // A well-formed client id is echoed back verbatim.
  Client::Result echoed =
      fx.client().get("/healthz", {{"X-Request-Id", "client-id.42"}});
  ASSERT_TRUE(echoed.ok) << echoed.error;
  const std::string* id = echoed.header("X-Request-Id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(*id, "client-id.42");

  // A malformed client id (spaces) is replaced by a server-assigned one.
  Client::Result replaced =
      fx.client().get("/healthz", {{"X-Request-Id", "not a valid id"}});
  id = replaced.header("X-Request-Id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->compare(0, 4, "qre-"), 0);

  // Without a client id the server assigns one; consecutive ids differ.
  Client::Result first = fx.client().get("/healthz");
  Client::Result second = fx.client().get("/healthz");
  ASSERT_NE(first.header("X-Request-Id"), nullptr);
  ASSERT_NE(second.header("X-Request-Id"), nullptr);
  EXPECT_NE(*first.header("X-Request-Id"), *second.header("X-Request-Id"));

  // Error documents carry the same id the response header does, so a
  // client-side error report correlates with the server-side log line.
  Client::Result error =
      fx.client().post("/v2/estimate", "not json", {{"X-Request-Id", "err-7"}});
  EXPECT_EQ(error.status, 400);
  ASSERT_NE(error.header("X-Request-Id"), nullptr);
  EXPECT_EQ(*error.header("X-Request-Id"), "err-7");
  EXPECT_EQ(json::parse(error.body).at("requestId").as_string(), "err-7");
}

TEST(Server, PrometheusFormatRendersTheLiveDocument) {
  ServerFixture fx;
  ASSERT_EQ(fx.client().post("/v2/estimate", kSingleJob).status, 200);

  Client::Result r = fx.client().get("/metrics?format=prometheus");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 200);
  const std::string* content_type = r.header("Content-Type");
  ASSERT_NE(content_type, nullptr);
  EXPECT_EQ(*content_type, server::kPrometheusContentType);

  EXPECT_NE(r.body.find("# TYPE qre_requests_total counter"), std::string::npos);
  EXPECT_NE(r.body.find(R"(qre_requests_by_route_total{route="POST /v2/estimate"} 1)"),
            std::string::npos);
  EXPECT_NE(r.body.find(R"(qre_cache_misses_total{cache="estimate"} 1)"),
            std::string::npos);
  EXPECT_NE(r.body.find(R"(qre_request_latency_ms_bucket{le="+Inf"})"),
            std::string::npos);

  // The default format is unchanged: plain /metrics still returns JSON.
  Client::Result plain = fx.client().get("/metrics");
  EXPECT_TRUE(json::parse(plain.body).at("server").is_object());

  // Only a query parameter that is exactly format=prometheus selects the
  // text format; near misses keep the JSON document.
  for (const char* target : {"/metrics?xformat=prometheus", "/metrics?format=prometheusX",
                             "/metrics?a=format=prometheus", "/metrics?format=json"}) {
    Client::Result other = fx.client().get(target);
    ASSERT_TRUE(other.ok) << other.error;
    ASSERT_NE(other.header("Content-Type"), nullptr);
    EXPECT_EQ(*other.header("Content-Type"), "application/json") << target;
    EXPECT_TRUE(json::parse(other.body).at("server").is_object()) << target;
  }
  Client::Result among = fx.client().get("/metrics?a=1&format=prometheus&b=2");
  ASSERT_NE(among.header("Content-Type"), nullptr);
  EXPECT_EQ(*among.header("Content-Type"), server::kPrometheusContentType);
}

/// The "section.field" keys of a /metrics document, in document order.
std::vector<std::string> metric_paths(const json::Value& document) {
  std::vector<std::string> paths;
  for (const auto& [section, fields] : document.as_object()) {
    for (const auto& field : fields.as_object()) paths.push_back(section + "." + field.first);
  }
  return paths;
}

TEST(Server, MetricsDocumentKeepsItsShape) {
  // servebench, the smoke script and dashboards read these paths: the
  // layout changes only on purpose.
  std::vector<std::string> expected = {
      "server.requestsTotal",         "server.uptimeSeconds",
      "server.connectionsInFlight",   "server.deadlineExceededTotal",
      "server.cancelRequestsTotal",   "server.requestsByRoute",
      "server.responsesByStatus",     "server.latencyMs",
      "estimateCache.hits",           "estimateCache.misses",
      "estimateCache.evictions",      "estimateCache.size",
      "estimateCache.capacity",       "factoryCache.hits",
      "factoryCache.misses",          "factoryCache.evictions",
      "factoryCache.size",            "factoryCache.capacity",
      "factoryCache.enabled",         "store.enabled",
      "jobs.queued",                  "jobs.running",
      "jobs.succeeded",               "jobs.failed",
      "jobs.cancelled",               "jobs.backlogLimit",
      "jobs.workers",                 "client.retriesTotal",
      "failpoints.compiledIn",        "failpoints.active",
      "failpoints.triggered",         "trace.enabled",
      "trace.events",                 "trace.dropped",
      "trace.capacity",
  };
  ASSERT_EQ(expected.size(), 35u);
  {
    ServerFixture fx;
    EXPECT_EQ(metric_paths(json::parse(fx.client().get("/metrics").body)), expected);
  }

  const std::vector<std::string> store_fields = {
      "store.hits",   "store.misses",      "store.records",  "store.payloadBytes",
      "store.loaded", "store.loadSkipped", "store.persists", "store.path"};
  const auto after_enabled = std::find(expected.begin(), expected.end(), "store.enabled") + 1;
  expected.insert(after_enabled, store_fields.begin(), store_fields.end());
  ASSERT_EQ(expected.size(), 43u);
  char dir_pattern[] = "/tmp/qre_server_shape.XXXXXX";
  ASSERT_NE(::mkdtemp(dir_pattern), nullptr);
  server::ServiceOptions options;
  options.cache_dir = dir_pattern;
  {
    ServerFixture fx(options);
    EXPECT_EQ(metric_paths(json::parse(fx.client().get("/metrics").body)), expected);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir_pattern, ec);
}

TEST(Server, TraceEndpointGatesOnTracingAndExportsSpans) {
  struct TracerGuard {
    ~TracerGuard() {
      trace::disable();
      trace::clear();
    }
  } guard;
  trace::disable();

  ServerFixture fx;
  // Tracing off: the endpoint refuses with a structured 409.
  Client::Result off = fx.client().get("/v2/trace");
  EXPECT_EQ(off.status, 409);
  EXPECT_EQ(json::parse(off.body).at("error").at("code").as_string(),
            "tracing-disabled");

  trace::enable(4096);
  ASSERT_EQ(fx.client().post("/v2/estimate", kSingleJob).status, 200);
  Client::Result on = fx.client().get("/v2/trace");
  ASSERT_TRUE(on.ok) << on.error;
  EXPECT_EQ(on.status, 200);

  const json::Value events = json::parse(on.body);
  ASSERT_TRUE(events.is_array());
  bool saw_request_span = false;
  bool saw_api_run = false;
  for (const json::Value& event : events.as_array()) {
    const std::string& name = event.at("name").as_string();
    if (name == "server.request") saw_request_span = true;
    if (name == "api.run") saw_api_run = true;
  }
  EXPECT_TRUE(saw_request_span);
  EXPECT_TRUE(saw_api_run);
}

/// Sends raw bytes over a fresh loopback connection and returns whatever
/// the server wrote back (for requests Client cannot express).
std::string raw_round_trip(std::uint16_t port, const std::string& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  std::string response;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      ::send(fd, bytes.data(), bytes.size(), 0) ==
          static_cast<ssize_t>(bytes.size())) {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      response.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return response;
}

TEST(Server, PreRouterRejectsAreCountedLoggedAndCarryRequestIds) {
  char log_pattern[] = "/tmp/qre_access_log.XXXXXX";
  const int log_fd = ::mkstemp(log_pattern);
  ASSERT_GE(log_fd, 0);
  ::close(log_fd);

  // A stack with tiny body limits and the transport observability wired the
  // way qre_serve wires it: ServerOptions::metrics/access_log point at the
  // Service's instances.
  api::Registry registry = api::Registry::with_builtins();
  server::ServiceOptions service_options;
  service_options.access_log_path = log_pattern;
  server::Service service(registry, service_options);
  server::Router router(service);
  server::ServerOptions server_options;
  server_options.port = 0;
  server_options.num_workers = 2;
  server_options.limits.max_body_bytes = 64;
  server_options.metrics = &service.metrics();
  server_options.access_log = service.access_log();
  server::Server server(router, server_options);
  server.start();

  const std::string malformed = raw_round_trip(server.port(), "NONSENSE\r\n\r\n");
  EXPECT_NE(malformed.find("400"), std::string::npos);
  EXPECT_NE(malformed.find("X-Request-Id:"), std::string::npos);
  EXPECT_NE(malformed.find("bad-request"), std::string::npos);

  const std::string body(100, 'x');  // over the 64-byte limit
  const std::string oversized = raw_round_trip(
      server.port(), "POST /v2/estimate HTTP/1.1\r\nContent-Length: " +
                         std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_NE(oversized.find("413"), std::string::npos);
  EXPECT_NE(oversized.find("too-large"), std::string::npos);

  // Both rejects are visible in the metrics document under their reserved
  // route labels, alongside normally-dispatched traffic.
  Client client("127.0.0.1", server.port());
  const json::Value metrics = json::parse(client.get("/metrics").body);
  const json::Value& by_route = metrics.at("server").at("requestsByRoute");
  ASSERT_NE(by_route.find("(malformed)"), nullptr);
  EXPECT_EQ(by_route.at("(malformed)").as_uint(), 1u);
  ASSERT_NE(by_route.find("(too-large)"), nullptr);
  EXPECT_EQ(by_route.at("(too-large)").as_uint(), 1u);
  EXPECT_GE(metrics.at("server").at("responsesByStatus").at("4xx").as_uint(), 2u);

  server.stop();

  // The access log recorded every request — the two rejects under their
  // route labels and the /metrics read — as one JSON object per line.
  std::ifstream log(log_pattern);
  std::string line;
  int malformed_lines = 0;
  int too_large_lines = 0;
  int dispatched_lines = 0;
  while (std::getline(log, line)) {
    const json::Value entry = json::parse(line);
    EXPECT_FALSE(entry.at("id").as_string().empty());
    EXPECT_FALSE(entry.at("ts").as_string().empty());
    const std::string& route = entry.at("route").as_string();
    if (route == "(malformed)") {
      ++malformed_lines;
      EXPECT_EQ(entry.at("status").as_int(), 400);
    } else if (route == "(too-large)") {
      ++too_large_lines;
      EXPECT_EQ(entry.at("status").as_int(), 413);
    } else if (route == "GET /metrics") {
      ++dispatched_lines;
      EXPECT_EQ(entry.at("status").as_int(), 200);
    }
  }
  EXPECT_EQ(malformed_lines, 1);
  EXPECT_EQ(too_large_lines, 1);
  EXPECT_EQ(dispatched_lines, 1);

  std::error_code ec;
  std::filesystem::remove(log_pattern, ec);
}

/// A loopback connection with a small receive buffer, set before connect so
/// the window it advertises stays small; -1 on failure.
int connect_small_window(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// A one-shot HTTP request ("Connection: close") for a raw socket.
std::string http_request(const std::string& method, const std::string& target,
                         const std::string& body, const std::string& extra_headers = "") {
  return method + " " + target + " HTTP/1.1\r\nHost: x\r\nConnection: close\r\n" +
         extra_headers + "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// Writes all of `bytes` to `fd`; false on a write error.
bool send_bytes(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Waits `first_pause`, then reads until EOF (or the socket's receive
/// timeout) in 1 KiB reads with a 1 ms pause every 32 of them.
std::string read_slowly(int fd, std::chrono::milliseconds first_pause) {
  std::this_thread::sleep_for(first_pause);
  std::string wire;
  char buf[1024];
  for (int reads = 1;; ++reads) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    wire.append(buf, static_cast<std::size_t>(n));
    if (reads % 32 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return wire;
}

/// A live server with one worker whose writes give up after
/// `send_timeout_seconds` without room in the socket buffer.
struct ShortSendTimeoutServer {
  explicit ShortSendTimeoutServer(int send_timeout_seconds = 1)
      : registry(api::Registry::with_builtins()),
        service(registry),
        router(service),
        server(router, {.num_workers = 1, .send_timeout_seconds = send_timeout_seconds}) {
    server.start();
  }

  /// Posts `body` to /v2/estimate over a small-window connection, pauses
  /// `pause` before reading, reads slowly and parses the response.
  server::ParsedResponse post_slowly(const std::string& body, bool ndjson,
                                     std::chrono::milliseconds pause) {
    const int fd = connect_small_window(server.port());
    EXPECT_GE(fd, 0);
    EXPECT_TRUE(send_bytes(fd, http_request("POST", "/v2/estimate", body,
                                            ndjson ? "Accept: application/x-ndjson\r\n" : "")));
    const std::string wire = read_slowly(fd, pause);
    ::close(fd);
    std::string buffer;
    server::ParsedResponse response;
    EXPECT_EQ(read_response(memory_source(wire), buffer, response), ReadStatus::kOk);
    return response;
  }

  api::Registry registry;
  server::Service service;
  server::Router router;
  server::Server server;
};

/// A connected loopback pair: `reader` with a small receive window, and
/// the accepted `sender`.
struct LoopbackPair {
  LoopbackPair() {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    socklen_t len = sizeof addr;
    if (listener >= 0 && ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
        ::listen(listener, 1) == 0 &&
        ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      reader = connect_small_window(ntohs(addr.sin_port));
      if (reader >= 0) sender = ::accept(listener, nullptr, nullptr);
    }
    if (listener >= 0) ::close(listener);
  }
  ~LoopbackPair() {
    if (reader >= 0) ::close(reader);
    if (sender >= 0) ::close(sender);
  }

  int reader = -1;
  int sender = -1;
};

/// `count` pieces of 1 to `count` bytes, and their concatenation.
struct Pieces {
  explicit Pieces(std::size_t count) {
    for (std::size_t i = 1; i <= count; ++i) {
      storage.emplace_back(i, static_cast<char>('a' + i % 26));
      joined += storage.back();
    }
    views.assign(storage.begin(), storage.end());
  }

  std::vector<std::string> storage;
  std::vector<std::string_view> views;
  std::string joined;
};

TEST(Http, SendAllResumesPartialWritesMidPiece) {
  // 3000 pieces of 1 to 3000 bytes (about 4.5 MB): more pieces than one
  // call takes (IOV_MAX, 1024 on Linux), and more bytes than loopback
  // buffers (about 3 MB), so calls stop partway through a piece. The reader
  // pauses 1.5 s, within send_all's 3 s timeout, and then reads it all.
  LoopbackPair pair;
  ASSERT_GE(pair.reader, 0);
  ASSERT_GE(pair.sender, 0);
  // send_all leaves the socket's own send timeout alone.
  timeval timeout{};
  timeout.tv_sec = 3;
  ::setsockopt(pair.sender, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);

  const Pieces pieces(3000);
  std::string wire;
  std::thread drain([&] { wire = read_slowly(pair.reader, std::chrono::milliseconds(1500)); });
  std::size_t sent = 0;
  EXPECT_TRUE(server::send_all(pair.sender, pieces.views, &sent, 3));
  timeval after{};
  socklen_t size = sizeof after;
  ASSERT_EQ(::getsockopt(pair.sender, SOL_SOCKET, SO_SNDTIMEO, &after, &size), 0);
  EXPECT_EQ(after.tv_sec, 3);
  EXPECT_EQ(after.tv_usec, 0);
  ::shutdown(pair.sender, SHUT_WR);
  drain.join();
  EXPECT_EQ(sent, pieces.joined.size());
  EXPECT_TRUE(wire == pieces.joined) << "received " << wire.size() << " of "
                                     << pieces.joined.size() << " bytes, or different ones";
}

TEST(Http, SendAllServesASlowReaderPastTheTimeout) {
  // The send timeout is on progress: a reader that keeps reading, however
  // slowly, gets the whole message even when it takes longer than the
  // timeout. A small send buffer and a reader that sleeps 10 ms after each
  // read stretch about 1 MB over well more than the 1 s timeout.
  LoopbackPair pair;
  ASSERT_GE(pair.reader, 0);
  ASSERT_GE(pair.sender, 0);
  const int sndbuf = 16 * 1024;
  ::setsockopt(pair.sender, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof sndbuf);

  const Pieces pieces(1400);
  std::string wire;
  std::thread drain([&] {
    char buf[16 * 1024];
    for (;;) {
      const ssize_t n = ::recv(pair.reader, buf, sizeof buf, 0);
      if (n <= 0) break;
      wire.append(buf, static_cast<std::size_t>(n));
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  const auto start = std::chrono::steady_clock::now();
  std::size_t sent = 0;
  EXPECT_TRUE(server::send_all(pair.sender, pieces.views, &sent, 1));
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  ::shutdown(pair.sender, SHUT_WR);
  drain.join();
  EXPECT_GT(took, 1.2) << "the reader was not slow enough to outlast the timeout";
  EXPECT_EQ(sent, pieces.joined.size());
  EXPECT_TRUE(wire == pieces.joined) << "received " << wire.size() << " of "
                                     << pieces.joined.size() << " bytes, or different ones";
}

TEST(Http, SendAllGivesUpOneTimeoutAfterTheReaderStops) {
  // A reader that never reads: the buffers fill at once, and send_all
  // returns false one 1 s timeout later, with the bytes that went.
  LoopbackPair pair;
  ASSERT_GE(pair.reader, 0);
  ASSERT_GE(pair.sender, 0);
  const Pieces pieces(3000);
  const auto start = std::chrono::steady_clock::now();
  std::size_t sent = 0;
  EXPECT_FALSE(server::send_all(pair.sender, pieces.views, &sent, 1));
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_GT(sent, 0u);
  EXPECT_LT(sent, pieces.joined.size());
  EXPECT_GE(took, 0.9);
  EXPECT_LE(took, 2.0);
}

TEST(Server, LargeBatchIsSentByteForByteThroughPartialWrites) {
  // 1500 distinct items, about 4.5 MB: the body has more pieces (each
  // result plus the text between results) than one sendmsg call takes
  // (IOV_MAX, 1024 on Linux), and more bytes than loopback buffers while the
  // reader pauses (about 3 MB), so writes stop partway and wait for room.
  // The pause is shorter than the send timeout, which bounds each wait.
  std::string job = R"({"schemaVersion": 2, "qubitParams": {"name": "qubit_gate_ns_e3"},
    "errorBudget": 0.01, "logicalCounts": {"numQubits": 10, "tCount": 1000}, "items": [)";
  constexpr std::size_t kItems = 1500;
  for (std::size_t i = 0; i < kItems; ++i) {
    if (i != 0) job += ",";
    job += R"({"logicalCounts": {"numQubits": )" + std::to_string(10 + i) + R"(, "tCount": 1000}})";
  }
  job += "]}";

  // The bytes a cold engine writes in process; every item is a miss there
  // and on each fresh server below, so batchStats agree too.
  api::Registry registry = api::Registry::with_builtins();
  server::Service reference(registry);
  const api::EstimateRequest request = api::EstimateRequest::parse(json::parse(job), registry);
  ASSERT_TRUE(request.ok()) << request.diagnostics.summary();
  const json::Value envelope =
      api::run(request, reference.engine().options(), registry).to_json();
  ASSERT_TRUE(envelope.at("success").as_bool());
  const std::string expected = envelope.dump() + "\n";
  const json::Array& results = envelope.at("result").at("results").as_array();
  ASSERT_EQ(results.size(), kItems);
  constexpr std::chrono::milliseconds kPause(500);

  {
    ShortSendTimeoutServer live(2);
    const server::ParsedResponse sync = live.post_slowly(job, false, kPause);
    EXPECT_EQ(sync.status, 200);
    const std::string* length = sync.header("Content-Length");
    ASSERT_NE(length, nullptr);
    EXPECT_EQ(*length, std::to_string(expected.size()));
    EXPECT_TRUE(sync.body == expected) << "sync body differs from the in-process dump";
  }
  {
    // The NDJSON form keeps its line format: {"item":N,"result":...} per
    // item, then {"batchStats":...}, each line one chunk.
    ShortSendTimeoutServer live(2);
    const server::ParsedResponse stream = live.post_slowly(job, true, kPause);
    EXPECT_EQ(stream.status, 200);
    std::string lines;
    for (std::size_t i = 0; i < kItems; ++i) {
      lines += json::Value(json::Object{{"item", json::Value(static_cast<std::uint64_t>(i))},
                                        {"result", results[i]}})
                   .dump() +
               "\n";
    }
    lines += json::Value(json::Object{{"batchStats", envelope.at("result").at("batchStats")}})
                 .dump() +
             "\n";
    EXPECT_TRUE(stream.body == lines) << "NDJSON body differs from the line format";
  }
}

TEST(Server, StalledReaderFreesTheOnlyWorkerAfterTheSendTimeout) {
  ShortSendTimeoutServer live;

  // The sweep-dense grid at 350 budgets instead of 33 (2100 items, about
  // 6 MB) from a client that never reads. Loopback takes about 3 MB into
  // its buffers, so the 580 KB sweep-dense body would fit and never block;
  // this one fills the socket, and the only worker's write must give up
  // at the send timeout instead of waiting on.
  const std::string sweep = R"({"logicalCounts": {"numQubits": 867167, "tCount": 1000000,
    "rotationCount": 30000, "rotationDepth": 11000, "cczCount": 250000,
    "measurementCount": 150000}, "sweep": {"qubitParams": [{"name": "qubit_gate_ns_e3"},
    {"name": "qubit_gate_ns_e4"}, {"name": "qubit_gate_us_e3"}, {"name": "qubit_gate_us_e4"},
    {"name": "qubit_maj_ns_e4"}, {"name": "qubit_maj_ns_e6"}], "errorBudget": {"start": 0.0001,
    "stop": 0.01, "steps": 350, "scale": "log"}}})";
  const int stalled = connect_small_window(live.server.port());
  ASSERT_GE(stalled, 0);
  ASSERT_TRUE(send_bytes(stalled, http_request("POST", "/v2/estimate", sweep)));
  // The first response byte means the only worker is writing (computing
  // the sweep takes seconds under sanitizers). Peeking leaves the window
  // as small as it was.
  timeval patience{};
  patience.tv_sec = 120;
  ::setsockopt(stalled, SOL_SOCKET, SO_RCVTIMEO, &patience, sizeof patience);
  char first_byte = 0;
  ASSERT_EQ(::recv(stalled, &first_byte, 1, MSG_PEEK), 1);

  // A second connection waits behind it, then gets its answer within one
  // send timeout: the writer waits for room at most that long. A blocking
  // sendmsg under SO_SNDTIMEO would take up to three periods here (a call
  // that moved any bytes returns them: 2.8 MB, then 180 KB, then EAGAIN on
  // Linux loopback), and a writer that retried EAGAIN would hold the
  // worker until the peer closes.
  const auto start = std::chrono::steady_clock::now();
  const int probe = connect_small_window(live.server.port());
  ASSERT_GE(probe, 0);
  timeval limit{};
  limit.tv_sec = 1 + 1;  // one 1 s send timeout plus 1 s
  ::setsockopt(probe, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof limit);
  ASSERT_TRUE(send_bytes(probe, http_request("GET", "/healthz", "")));
  const std::string wire = read_slowly(probe, std::chrono::milliseconds(0));
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  ::close(probe);
  ::close(stalled);

  std::string buffer;
  server::ParsedResponse response;
  ASSERT_EQ(read_response(memory_source(wire), buffer, response), ReadStatus::kOk)
      << "no /healthz answer within " << limit.tv_sec << " s";
  EXPECT_EQ(response.status, 200);
  EXPECT_LE(waited, static_cast<double>(limit.tv_sec));
}

TEST(Server, GracefulStopRefusesNewConnections) {
  auto fx = std::make_unique<ServerFixture>();
  ASSERT_TRUE(fx->client().get("/healthz").ok);
  const std::uint16_t port = fx->http_server().port();
  fx->http_server().stop();
  fx->http_server().stop();  // idempotent

  Client fresh("127.0.0.1", port);
  EXPECT_FALSE(fresh.get("/healthz").ok);
}

}  // namespace
}  // namespace qre
