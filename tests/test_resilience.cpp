// Resilience-layer tests: CancelToken/deadline semantics, the failpoint
// registry and spec grammar, cancellation observed at run_batch item
// boundaries, client retry/backoff against a scripted fake server, and
// fork()-based crash-recovery drills proving the store's atomic-rename
// contract (a crash between temp-write and rename leaves the previous
// snapshot fully readable), and the server's write failpoint.
//
// NOT part of the ThreadSanitizer ctest subset: the crash drills fork(),
// which TSan instrumented binaries handle poorly, and the injection tests
// mutate the process-global failpoint registry.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "json/json.hpp"
#include "server/client.hpp"
#include "server/router.hpp"
#include "server/server.hpp"
#include "service/engine.hpp"
#include "store/estimate_store.hpp"
#include "store/store.hpp"

namespace qre {
namespace {

using store::Record;
using store::StoreReader;

/// A scratch directory removed at scope exit.
struct TempDir {
  TempDir() {
    char pattern[] = "/tmp/qre_resilience_test.XXXXXX";
    const char* made = ::mkdtemp(pattern);
    EXPECT_NE(made, nullptr);
    path = made;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string file(const std::string& name) const { return path + "/" + name; }
  std::string path;
};

/// Disarms every failpoint when a test scope exits, so injection state
/// never leaks between tests.
struct FailpointGuard {
  ~FailpointGuard() { failpoint::reset(); }
};

// ------------------------------------------------------------ CancelToken ---

TEST(CancelToken, NullTokenNeverStops) {
  CancelToken token;
  EXPECT_FALSE(token.cancel_requested());
  EXPECT_FALSE(token.deadline_exceeded());
  EXPECT_FALSE(token.should_stop());
  token.request_cancel();  // no-op on the null token
  EXPECT_FALSE(token.should_stop());
  EXPECT_NO_THROW(token.throw_if_cancelled("test"));
}

TEST(CancelToken, CancellableCopiesShareTheFlag) {
  CancelToken token = CancelToken::cancellable();
  CancelToken copy = token;
  EXPECT_FALSE(copy.should_stop());
  token.request_cancel();
  EXPECT_TRUE(copy.cancel_requested());
  EXPECT_TRUE(copy.should_stop());
  EXPECT_THROW(copy.throw_if_cancelled("unit"), CancelledError);
}

TEST(CancelToken, DeadlineExpiresAndOutranksTheFlag) {
  CancelToken token = CancelToken::cancellable().with_deadline(0.005);
  // Not yet: freshly minted deadlines are in the future.
  EXPECT_FALSE(token.deadline_exceeded());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(token.deadline_exceeded());
  EXPECT_TRUE(token.should_stop());
  // Both conditions hold; the deadline is the reported cause.
  token.request_cancel();
  EXPECT_THROW(token.throw_if_cancelled("unit"), DeadlineExceededError);
}

TEST(CancelToken, WithDeadlineBoundsDerivedScopesIndependently) {
  CancelToken parent = CancelToken::cancellable();
  CancelToken bounded = parent.with_deadline(0.001);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(bounded.should_stop());
  EXPECT_FALSE(parent.should_stop());  // the parent carries no deadline
  bounded.request_cancel();            // ...but the flag is shared both ways
  EXPECT_TRUE(parent.cancel_requested());
}

// -------------------------------------------------------------- failpoints ---

TEST(Failpoint, MalformedSpecsAreRejected) {
  FailpointGuard guard;
  EXPECT_THROW(failpoint::configure("no-equals-sign"), Error);
  EXPECT_THROW(failpoint::configure("UPPER.case=error"), Error);
  EXPECT_THROW(failpoint::configure("site=launch_missiles"), Error);
  EXPECT_THROW(failpoint::configure("site=delay"), Error);        // missing (MS)
  EXPECT_THROW(failpoint::configure("site=150%error"), Error);    // percent > 100
  EXPECT_THROW(failpoint::configure("site=-5%error"), Error);
  EXPECT_NO_THROW(failpoint::configure(""));  // empty spec is always fine
}

TEST(Failpoint, ErrorActionInjectsAtTheNamedSite) {
  if (!failpoint::compiled_in()) GTEST_SKIP() << "built with QRE_FAILPOINTS=OFF";
  FailpointGuard guard;
  failpoint::configure("engine.evaluate.before=error");

  std::vector<json::Value> items(3, json::Value(json::Object{}));
  service::EngineOptions options;
  options.num_workers = 1;
  options.use_cache = false;
  json::Array results = service::run_batch(
      items, [](const json::Value&) { return json::Value(json::Object{}); }, options);

  ASSERT_EQ(results.size(), 3u);
  for (const json::Value& result : results) {
    const json::Value* error = result.find("error");
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->at("code").as_string(), "estimation-failed");
    EXPECT_NE(error->at("message").as_string().find("failpoint"), std::string::npos);
  }
  EXPECT_EQ(failpoint::hits("engine.evaluate.before"), 3u);
}

TEST(Failpoint, OffDisarmsAndResetClearsCounters) {
  if (!failpoint::compiled_in()) GTEST_SKIP() << "built with QRE_FAILPOINTS=OFF";
  FailpointGuard guard;
  failpoint::configure("engine.evaluate.before=error");
  failpoint::configure("engine.evaluate.before=off");

  std::vector<json::Value> items(1, json::Value(json::Object{}));
  service::EngineOptions options;
  options.use_cache = false;
  json::Array results = service::run_batch(
      items, [](const json::Value&) { return json::Value(json::Object{}); }, options);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].find("error"), nullptr);

  failpoint::reset();
  EXPECT_EQ(failpoint::hits("engine.evaluate.before"), 0u);
}

TEST(Failpoint, StatsReportTriggeredSites) {
  if (!failpoint::compiled_in()) GTEST_SKIP() << "built with QRE_FAILPOINTS=OFF";
  FailpointGuard guard;
  failpoint::configure("engine.evaluate.before=delay(1)");
  std::vector<json::Value> items(2, json::Value(json::Object{}));
  service::EngineOptions options;
  options.use_cache = false;
  service::run_batch(items, [](const json::Value&) { return json::Value(json::Object{}); },
                     options);

  const std::vector<std::pair<std::string, std::uint64_t>> triggered = failpoint::triggered();
  EXPECT_TRUE(failpoint::compiled_in());
  ASSERT_EQ(triggered.size(), 1u);  // the "active" gauge
  EXPECT_EQ(triggered[0].first, "engine.evaluate.before");
  EXPECT_EQ(triggered[0].second, 2u);
}

// ------------------------------------------------- cancellation in batches ---

TEST(RunBatchCancel, CancelledTokenSkipsEveryItemWithoutRunning) {
  CancelToken token = CancelToken::cancellable();
  token.request_cancel();

  std::atomic<int> executed{0};
  std::vector<json::Value> items(5, json::Value(json::Object{}));
  service::EngineOptions options;
  options.cancel = token;
  options.num_workers = 2;
  json::Array results = service::run_batch(
      items,
      [&executed](const json::Value&) {
        executed.fetch_add(1);
        return json::Value(json::Object{});
      },
      options);

  EXPECT_EQ(executed.load(), 0);
  ASSERT_EQ(results.size(), 5u);
  for (const json::Value& result : results) {
    const json::Value* error = result.find("error");
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->at("code").as_string(), "cancelled");
    EXPECT_EQ(error->at("message").as_string(), "item skipped: request cancelled");
  }
}

TEST(RunBatchCancel, DeadlineReportsItsOwnMessage) {
  CancelToken token = CancelToken().with_deadline(0.001);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  std::vector<json::Value> items(2, json::Value(json::Object{}));
  service::EngineOptions options;
  options.cancel = token;
  json::Array results = service::run_batch(
      items, [](const json::Value&) { return json::Value(json::Object{}); }, options);

  ASSERT_EQ(results.size(), 2u);
  for (const json::Value& result : results) {
    EXPECT_EQ(result.at("error").at("message").as_string(),
              "item skipped: request deadline exceeded");
  }
}

TEST(RunBatchCancel, CancelledEntriesNeverPoisonASharedCache) {
  service::EstimateCache cache(16);
  json::Object item_body;
  item_body.emplace_back("point", json::Value(std::uint64_t{7}));
  const std::vector<json::Value> items(1, json::Value(std::move(item_body)));

  CancelToken token = CancelToken::cancellable();
  token.request_cancel();
  service::EngineOptions cancelled_options;
  cancelled_options.cancel = token;
  cancelled_options.cache = &cache;
  service::run_batch(items, [](const json::Value&) { return json::Value(json::Object{}); },
                     cancelled_options);
  EXPECT_EQ(cache.size(), 0u);  // the skip left no cache entry behind

  // The same grid point now runs for real and caches a real result.
  service::EngineOptions options;
  options.cache = &cache;
  json::Array results = service::run_batch(
      items,
      [](const json::Value&) {
        json::Object o;
        o.emplace_back("real", json::Value(true));
        return json::Value(std::move(o));
      },
      options);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_NE(results[0].find("real"), nullptr);
  EXPECT_EQ(cache.size(), 1u);
}

// ------------------------------------------------------ crash-recovery drills ---

std::vector<Record> snapshot_records(std::size_t n, const std::string& tag,
                                     std::size_t value_bytes = 16) {
  std::vector<Record> records;
  for (std::size_t i = 0; i < n; ++i) {
    records.push_back({"{\"job\":\"" + tag + std::to_string(i) + "\"}",
                       "{\"v\":\"" + std::string(value_bytes, 'x') + "\"}"});
  }
  return records;
}

/// Forks; the child arms `spec` and overwrites `path` with `next`, which
/// the armed crash failpoint turns into _exit(42). Returns the child's
/// exit status.
int crash_persist(const std::string& spec, const std::string& path,
                  const std::vector<Record>& next) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: no gtest machinery, no inherited failpoint state beyond the
    // copy-on-write registry we re-arm explicitly.
    try {
      failpoint::configure(spec);
      store::write_store_file(path, next);
    } catch (...) {
      ::_exit(99);  // the failpoint should have crashed us first
    }
    ::_exit(98);  // write completed: the crash never fired
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

TEST(CrashRecovery, CrashBeforeRenameLeavesPreviousSnapshotReadable) {
  if (!failpoint::compiled_in()) GTEST_SKIP() << "built with QRE_FAILPOINTS=OFF";
  TempDir dir;
  const std::string path = dir.file("estimates.qrestore");
  const std::vector<Record> original = snapshot_records(10, "old");
  store::write_store_file(path, original);

  const int status =
      crash_persist("store.persist.before_rename=crash", path, snapshot_records(20, "new"));
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 42) << "the crash failpoint did not fire";

  // The previous snapshot survived, byte-complete: every record reads back.
  StoreReader reader(path);
  EXPECT_EQ(reader.record_count(), 10u);
  std::size_t seen = 0;
  EXPECT_EQ(reader.for_each([&seen](std::string_view, std::string_view) { ++seen; }), 0u);
  EXPECT_EQ(seen, 10u);
  EXPECT_EQ(reader.corrupt_skipped(), 0u);
}

TEST(CrashRecovery, CrashMidWriteLeavesOnlyATornTempBehind) {
  if (!failpoint::compiled_in()) GTEST_SKIP() << "built with QRE_FAILPOINTS=OFF";
  TempDir dir;
  const std::string path = dir.file("estimates.qrestore");
  const std::vector<Record> original = snapshot_records(5, "old");
  store::write_store_file(path, original);

  // A >64 KiB image guarantees the chunked writer crosses at least one
  // mid-write failpoint check before finishing.
  const int status = crash_persist("store.persist.mid_write=crash", path,
                                   snapshot_records(40, "big", 4096));
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 42) << "the crash failpoint did not fire";

  // The live snapshot is untouched; the torn temp is the only debris.
  StoreReader reader(path);
  EXPECT_EQ(reader.record_count(), 5u);
  EXPECT_EQ(reader.corrupt_skipped(), 0u);
  bool saw_temp = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    if (name != "estimates.qrestore") {
      EXPECT_EQ(name.find("estimates.qrestore.tmp."), 0u) << name;
      saw_temp = true;
    }
  }
  EXPECT_TRUE(saw_temp);

  // A restarted store opens the snapshot cleanly despite the debris.
  store::EstimateStore restarted(dir.path);
  const store::LoadResult loaded = restarted.load();
  EXPECT_TRUE(loaded.usable);
  EXPECT_EQ(loaded.records_loaded, 5u);
  EXPECT_EQ(loaded.records_skipped, 0u);
}

TEST(CrashRecovery, InjectedErrorBeforeRenameCleansUpItsTemp) {
  if (!failpoint::compiled_in()) GTEST_SKIP() << "built with QRE_FAILPOINTS=OFF";
  FailpointGuard guard;
  TempDir dir;
  const std::string path = dir.file("estimates.qrestore");
  store::write_store_file(path, snapshot_records(3, "old"));

  failpoint::configure("store.persist.before_rename=error");
  EXPECT_THROW(store::write_store_file(path, snapshot_records(6, "new")), Error);
  failpoint::reset();

  // The failed persist unlinked its temp; only the live snapshot remains.
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  StoreReader reader(path);
  EXPECT_EQ(reader.record_count(), 3u);
}

TEST(CrashRecovery, StoreOpenFaultDegradesToColdStart) {
  if (!failpoint::compiled_in()) GTEST_SKIP() << "built with QRE_FAILPOINTS=OFF";
  FailpointGuard guard;
  TempDir dir;
  store::write_store_file(dir.file("estimates.qrestore"), snapshot_records(4, "old"));

  failpoint::configure("store.open.before_read=error");
  store::EstimateStore store(dir.path);
  const store::LoadResult loaded = store.load();
  EXPECT_FALSE(loaded.usable);  // cold start, not a crash
  EXPECT_EQ(loaded.records_loaded, 0u);

  failpoint::reset();
  const store::LoadResult reloaded = store.load();
  EXPECT_TRUE(reloaded.usable);
  EXPECT_EQ(reloaded.records_loaded, 4u);
}

// ------------------------------------------------------- server writes ---

TEST(Failpoint, BeforeWriteDropsTheResponseUntilReset) {
  if (!failpoint::compiled_in()) GTEST_SKIP() << "built with QRE_FAILPOINTS=OFF";
  FailpointGuard guard;
  api::Registry registry = api::Registry::with_builtins();
  server::Service service(registry);
  server::Router router(service);
  server::Server server(router);
  server.start();
  failpoint::configure("server.conn.before_write=error");

  // The injected write fault abandons the response: the client reads EOF
  // and not one byte. The whole response is one sink call, so the site
  // fires once.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const std::string request = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  char buffer[256];
  EXPECT_EQ(::recv(fd, buffer, sizeof buffer, 0), 0);
  ::close(fd);
  EXPECT_EQ(failpoint::hits("server.conn.before_write"), 1u);

  failpoint::reset();
  server::Client client("127.0.0.1", server.port());
  const server::Client::Result result = client.get("/healthz");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.status, 200);
  server.stop();
}

// ---------------------------------------------------------- client retries ---

/// A scripted one-shot HTTP server: each accepted connection gets the next
/// canned response, then the connection closes.
class FakeServer {
 public:
  explicit FakeServer(std::vector<std::string> responses)
      : responses_(std::move(responses)) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    EXPECT_EQ(::listen(fd_, 8), 0);
    socklen_t len = sizeof addr;
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }

  ~FakeServer() {
    thread_.join();
    ::close(fd_);
  }

  std::uint16_t port() const { return port_; }

 private:
  void serve() {
    for (const std::string& response : responses_) {
      const int conn = ::accept(fd_, nullptr, nullptr);
      if (conn < 0) return;
      // Drain the request headers (enough of them to let the client finish
      // writing), then answer with the canned response and close.
      char buffer[4096];
      (void)::recv(conn, buffer, sizeof buffer, 0);
      (void)::send(conn, response.data(), response.size(), MSG_NOSIGNAL);
      ::close(conn);
    }
  }

  std::vector<std::string> responses_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

const char k503[] =
    "HTTP/1.1 503 Service Unavailable\r\n"
    "Retry-After: 0\r\n"
    "Content-Length: 0\r\n"
    "Connection: close\r\n\r\n";
const char k200[] =
    "HTTP/1.1 200 OK\r\n"
    "Content-Length: 2\r\n"
    "Connection: close\r\n\r\nok";

TEST(ClientRetry, IdempotentRequestRetriesThrough503) {
  FakeServer server({k503, k503, k200});
  server::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 2;
  server::Client client("127.0.0.1", server.port(), policy);

  const std::uint64_t process_before = server::Client::process_retries();
  const server::Client::Result result = client.get("/healthz");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.body, "ok");
  EXPECT_EQ(client.retries(), 2u);
  EXPECT_EQ(server::Client::process_retries(), process_before + 2);
}

TEST(ClientRetry, NonIdempotentPostDoesNotRetryA503) {
  FakeServer server({k503});
  server::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 1;
  server::Client client("127.0.0.1", server.port(), policy);

  const server::Client::Result result = client.post("/v2/estimate", "{}");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.status, 503);  // handed back, not retried
  EXPECT_EQ(client.retries(), 0u);
}

TEST(ClientRetry, ConnectFailureRetriesAndGivesUpCleanly) {
  // Nothing listens here: bind+close reserves a port that then refuses.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t dead_port = ntohs(addr.sin_port);
  ::close(probe);

  server::RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff_ms = 1;
  server::Client client("127.0.0.1", dead_port, policy);
  const server::Client::Result result = client.get("/healthz");
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(client.retries(), 1u);  // one backoff wait, then surrender
}

}  // namespace
}  // namespace qre
