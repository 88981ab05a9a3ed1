// Concurrency stress test for server::JobQueue: many client threads racing
// submit/status/cancel against a small worker pool, checking the lifecycle
// invariants hold under contention and that a drain always terminates.
// This file is the primary target of the ThreadSanitizer CI job — data
// races in the queue surface here even when the assertions still pass.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "json/json.hpp"
#include "server/job_queue.hpp"

namespace qre {
namespace {

using server::JobQueue;
using server::JobQueueOptions;

json::Value tiny_document(std::uint64_t payload) {
  json::Object o;
  o.emplace_back("payload", payload);
  return json::Value(std::move(o));
}

TEST(JobQueueStress, RacingSubmitPollCancelKeepsInvariants) {
  JobQueueOptions options;
  options.num_workers = 2;  // deliberately starved relative to the clients
  options.max_backlog = 32;
  options.max_retained = 4096;  // retain everything this test submits

  std::atomic<std::uint64_t> executed{0};
  JobQueue queue(
      [&executed](const json::Value& document, const CancelToken&) {
        executed.fetch_add(1, std::memory_order_relaxed);
        // Occasionally fail so the failed path races too.
        if (document.at("payload").as_uint() % 7 == 0) {
          throw Error("synthetic failure");
        }
        json::Object o;
        o.emplace_back("echo", document.at("payload").as_uint());
        return json::Value(std::move(o));
      },
      options);

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kOpsPerThread = 200;
  std::vector<std::vector<std::uint64_t>> submitted_per_thread(kThreads);
  // Ids whose cancel was accepted. Repeating a cancel while a job is still
  // cancelling answers kCancelling again, so jobs are counted, not calls.
  std::vector<std::set<std::uint64_t>> cancelled_per_thread(kThreads);
  std::atomic<std::uint64_t> rejected{0};

  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      std::mt19937_64 rng(t);
      std::vector<std::uint64_t>& mine = submitted_per_thread[t];
      std::set<std::uint64_t>& mine_cancelled = cancelled_per_thread[t];
      for (std::size_t op = 0; op < kOpsPerThread; ++op) {
        switch (rng() % 4) {
          case 0:
          case 1: {  // submit (half the traffic)
            const std::optional<std::uint64_t> id =
                queue.submit(tiny_document(rng() % 1000));
            if (id.has_value()) {
              mine.push_back(*id);
            } else {
              rejected.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
          case 2: {  // poll someone's job (or a bogus id)
            const std::uint64_t id = mine.empty() ? rng() % 2048 : mine[rng() % mine.size()];
            const std::optional<json::Value> status = queue.status(id);
            if (status.has_value()) {
              const std::string& state = status->at("status").as_string();
              EXPECT_TRUE(state == "queued" || state == "running" ||
                          state == "cancelling" || state == "succeeded" ||
                          state == "failed" || state == "cancelled")
                  << state;
            }
            break;
          }
          default: {  // cancel one of ours
            if (!mine.empty()) {
              const std::uint64_t id = mine[rng() % mine.size()];
              const JobQueue::CancelResult result = queue.cancel(id);
              // kCancelled (was queued) and kCancelling (was running) both
              // guarantee a terminal "cancelled" — cancel wins over a runner
              // that happens to finish.
              if (result == JobQueue::CancelResult::kCancelled ||
                  result == JobQueue::CancelResult::kCancelling) {
                mine_cancelled.insert(id);
              }
            }
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // Ids are unique across all threads (monotonic allocation never reuses).
  std::set<std::uint64_t> all_ids;
  std::size_t total_submitted = 0;
  for (const auto& ids : submitted_per_thread) {
    total_submitted += ids.size();
    all_ids.insert(ids.begin(), ids.end());
  }
  EXPECT_EQ(all_ids.size(), total_submitted);

  queue.drain();  // must terminate: running jobs finish, queued jobs cancel

  // After the drain every submitted job is terminal, and the terminal
  // counters account for exactly the accepted submissions.
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled_terminal = 0;
  for (std::uint64_t id : all_ids) {
    const std::optional<json::Value> status = queue.status(id);
    ASSERT_TRUE(status.has_value()) << "job " << id << " evicted despite retention";
    const std::string& state = status->at("status").as_string();
    if (state == "succeeded") {
      ++succeeded;
      EXPECT_NE(status->find("response"), nullptr);
    } else if (state == "failed") {
      ++failed;
    } else if (state == "cancelled") {
      ++cancelled_terminal;
    } else {
      ADD_FAILURE() << "job " << id << " not terminal after drain: " << state;
    }
  }
  EXPECT_EQ(succeeded + failed + cancelled_terminal, total_submitted);
  std::set<std::uint64_t> cancelled_ids;
  for (const auto& ids : cancelled_per_thread) {
    cancelled_ids.insert(ids.begin(), ids.end());
  }
  for (std::uint64_t id : cancelled_ids) {
    EXPECT_EQ(queue.status(id)->at("status").as_string(), "cancelled")
        << "job " << id << " accepted a cancel but did not end cancelled";
  }
  EXPECT_GE(cancelled_terminal, cancelled_ids.size());  // drain cancels the rest
  // Cancel-wins: a job whose runner executed can still terminate cancelled
  // (its response is discarded), so executed bounds the counted terminals
  // from above instead of matching exactly.
  EXPECT_GE(executed.load(), succeeded + failed);

  const JobQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.succeeded, succeeded);
  EXPECT_EQ(stats.failed, failed);
  EXPECT_EQ(stats.cancelled, cancelled_terminal);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
}

TEST(JobQueueStress, BoundedBacklogShedsLoadUnderBurst) {
  JobQueueOptions options;
  options.num_workers = 0;  // frozen: nothing ever starts
  options.max_backlog = 8;
  JobQueue queue(
      [](const json::Value&, const CancelToken&) { return json::Value(json::Object{}); },
      options);

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected{0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < 8; ++t) {
    clients.emplace_back([&] {
      for (std::size_t i = 0; i < 64; ++i) {
        if (queue.submit(tiny_document(i)).has_value()) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        } else {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  // The backlog bound held no matter the interleaving...
  EXPECT_EQ(accepted.load(), 8u);
  // ...and every refusal was load shedding, not loss.
  EXPECT_EQ(accepted.load() + rejected.load(), 8u * 64u);
  queue.drain();
  EXPECT_EQ(queue.stats().cancelled, 8u);
}

TEST(JobQueueStress, CancelInterruptsRunningJob) {
  JobQueueOptions options;
  options.num_workers = 1;
  std::atomic<std::uint64_t> started{0};
  JobQueue queue(
      [&started](const json::Value&, const CancelToken& cancel) {
        started.fetch_add(1, std::memory_order_relaxed);
        // Simulated sweep: poll the token at 1ms "item boundaries"; without
        // a cancel this outlives the test's polling budget by design.
        for (int i = 0; i < 4000 && !cancel.should_stop(); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        json::Object o;
        o.emplace_back("done", json::Value(true));
        return json::Value(std::move(o));
      },
      options);

  const std::optional<std::uint64_t> id = queue.submit(tiny_document(1));
  ASSERT_TRUE(id.has_value());
  for (int i = 0; i < 4000 && started.load(std::memory_order_relaxed) == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(started.load(std::memory_order_relaxed), 0u) << "worker never started the job";

  const JobQueue::CancelResult result = queue.cancel(*id);
  EXPECT_TRUE(result == JobQueue::CancelResult::kCancelling ||
              result == JobQueue::CancelResult::kCancelled);

  // Cooperative cancellation lands within one item boundary (1ms here) —
  // far inside this polling budget.
  std::string state;
  for (int i = 0; i < 4000; ++i) {
    const std::optional<json::Value> status = queue.status(*id);
    ASSERT_TRUE(status.has_value());
    state = status->at("status").as_string();
    if (state == "cancelled") break;
    EXPECT_TRUE(state == "running" || state == "cancelling") << state;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(state, "cancelled");
  // Partial results are discarded: cancelled jobs never expose a response.
  EXPECT_EQ(queue.status(*id)->find("response"), nullptr);
  // Cancelling again is answered consistently (already finished).
  EXPECT_EQ(queue.cancel(*id), JobQueue::CancelResult::kNotCancellable);
  queue.drain();
}

TEST(JobQueueStress, RetentionEvictionRacesDeleteAndPolls) {
  JobQueueOptions options;
  options.num_workers = 2;
  options.max_backlog = 64;
  options.max_retained = 8;  // aggressive eviction while clients still poll
  JobQueue queue(
      [](const json::Value& document, const CancelToken&) {
        json::Object o;
        o.emplace_back("echo", document.at("payload").as_uint());
        return json::Value(std::move(o));
      },
      options);

  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      std::mt19937_64 rng(t + 100);
      std::vector<std::uint64_t> mine;
      for (std::size_t op = 0; op < 300; ++op) {
        switch (rng() % 3) {
          case 0: {
            const std::optional<std::uint64_t> id = queue.submit(tiny_document(rng() % 100));
            if (id.has_value()) mine.push_back(*id);
            break;
          }
          case 1: {  // poll: an evicted id is indistinguishable from unknown
            if (!mine.empty()) {
              const std::optional<json::Value> status =
                  queue.status(mine[rng() % mine.size()]);
              if (status.has_value()) {
                const std::string& state = status->at("status").as_string();
                EXPECT_TRUE(state == "queued" || state == "running" ||
                            state == "cancelling" || state == "succeeded" ||
                            state == "failed" || state == "cancelled")
                    << state;
              }
            }
            break;
          }
          default: {  // DELETE races eviction and the running worker
            if (!mine.empty()) (void)queue.cancel(mine[rng() % mine.size()]);
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  queue.drain();

  const JobQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
}

TEST(JobQueueStress, ConcurrentDrainsAreIdempotent) {
  JobQueueOptions options;
  options.num_workers = 2;
  JobQueue queue(
      [](const json::Value&, const CancelToken&) { return json::Value(json::Object{}); },
      options);
  for (std::size_t i = 0; i < 16; ++i) (void)queue.submit(tiny_document(i));
  std::vector<std::thread> drains;
  for (std::size_t t = 0; t < 4; ++t) drains.emplace_back([&] { queue.drain(); });
  for (std::thread& t : drains) t.join();
  EXPECT_EQ(queue.stats().queued, 0u);
  EXPECT_FALSE(queue.submit(tiny_document(0)).has_value());  // drained = closed
}

}  // namespace
}  // namespace qre
