#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "exec/exec_context.h"
#include "fs/mem_filesystem.h"
#include "pinned_rows.h"
#include "server/hive_server.h"
#include "server/workload_loader.h"

namespace hive {
namespace {

/// Morsel-driven intra-query parallelism: the engine must return the same
/// result at any executor count — pipelines gather their output in morsel
/// order and partial aggregates merge in first-seen input order, so the
/// output is not merely set-equal but identical row for row to the pinned
/// result of the serial operator chain (tests/data/pinned_rows.txt).
class ParallelExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fs_ = new MemFileSystem();
    Config config;
    config.container_startup_us = 0;
    config.num_executors = 8;  // pool size; sessions scale workers below it
    server_ = new HiveServer2(fs_, config);
    Connection loader = server_->Connect();
    TpcdsOptions options;
    options.days = 6;  // keep the suite fast
    ASSERT_TRUE(LoadTpcds(loader, options).ok());
  }
  static void TearDownTestSuite() {
    delete server_;
    delete fs_;
  }

  static MemFileSystem* fs_;
  static HiveServer2* server_;
};

MemFileSystem* ParallelExecTest::fs_ = nullptr;
HiveServer2* ParallelExecTest::server_ = nullptr;

/// Session configured for a given worker count: 1 is serial execution, and
/// 0 stands for the MR engine (no LLAP, no executor pool: one worker).
Connection SessionFor(HiveServer2* server, int workers) {
  Connection session = server->Connect();
  session.config().result_cache_enabled = false;
  if (workers == 0) {
    session.config().execution_engine = "mr";
    session.config().llap_enabled = false;
  } else {
    session.config().num_executors = workers;
  }
  return session;
}

std::string Fingerprint(const QueryResult& result) {
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const auto& row : result.rows) {
    std::string line;
    for (const Value& v : row) {
      line += v.ToString();
      line += '|';
    }
    rows.push_back(std::move(line));
  }
  return pinned::Fingerprint(rows);
}

/// Runs every query of `queries` at each executor count and on the MR
/// engine, asserting the pinned result `<suite>/<query name>` everywhere.
void ExpectPinnedAtEveryWorkerCount(HiveServer2* server, const std::string& suite,
                                    const std::vector<BenchQuery>& queries) {
  for (const BenchQuery& q : queries) {
    const std::string expected = pinned::Expected(suite + "/" + q.name);
    for (int workers : {0, 1, 2, 8}) {
      Connection session = SessionFor(server, workers);
      auto result = session.Execute(q.sql);
      ASSERT_TRUE(result.ok())
          << q.name << " @" << workers << ": " << result.status().ToString();
      EXPECT_EQ(Fingerprint(*result), expected)
          << q.name << " differs at " << (workers ? std::to_string(workers) : "mr")
          << " executors";
    }
  }
}

TEST_F(ParallelExecTest, TpcdsIdenticalAcrossExecutorCounts) {
  ExpectPinnedAtEveryWorkerCount(server_, "tpcds_days6", TpcdsQueries());
}

TEST_F(ParallelExecTest, UnorderedScanPreservesSerialRowOrder) {
  // No ORDER BY: the ordered morsel gather must still reproduce the serial
  // engine's row order exactly, and aggregates their first-seen group order
  // (over a scan, and over a join), at every worker count.
  ExpectPinnedAtEveryWorkerCount(
      server_, "parallel_exec",
      {{"unordered_scan",
        "SELECT ss_item_sk, ss_quantity, ss_sales_price FROM store_sales "
        "WHERE ss_quantity > 10"},
       {"unordered_agg",
        "SELECT ss_store_sk, ss_item_sk % 7 AS bucket, COUNT(*), "
        "SUM(ss_quantity) FROM store_sales GROUP BY ss_store_sk, ss_item_sk % 7"},
       {"unordered_join_agg",
        "SELECT i_brand, COUNT(*), SUM(ss_sales_price) FROM store_sales, item "
        "WHERE ss_item_sk = i_item_sk GROUP BY i_brand"}});
}

TEST(SsbParallelExecTest, SsbIdenticalAcrossExecutorCounts) {
  // SSB's joins stack on joins and its dimensions are spooled, so most of
  // its probes and aggregates read operator sources on one worker while
  // the lineorder leaves fan out: both kinds of pipeline source, pinned.
  MemFileSystem fs;
  Config config;
  config.container_startup_us = 0;
  config.num_executors = 8;
  HiveServer2 server(&fs, config);
  Connection loader = server.Connect();
  ASSERT_TRUE(LoadSsb(loader, SsbOptions()).ok());
  ExpectPinnedAtEveryWorkerCount(&server, "ssb", SsbQueries());
}

TEST_F(ParallelExecTest, ScanPipelinesFanOutAcrossExecutors) {
  // A parallel aggregation over the partitioned fact table must actually
  // fan worker fragments out to the LLAP executor pool (the coordinator
  // fragment alone would leave the counter at +1).
  Connection session = SessionFor(server_, 8);
  int64_t before = server_->llap()->fragments_submitted();
  auto result = session.Execute("SELECT ss_store_sk, COUNT(*), SUM(ss_quantity) FROM store_sales "
      "GROUP BY ss_store_sk");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(server_->llap()->fragments_submitted(), before + 1)
      << "expected intra-query worker fragments beyond the coordinator";
}

TEST(ThreadPoolTest, SubmitOrRunFallsBackInlineWhenSaturated) {
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> blocked{0};
  // Saturate both pool threads.
  for (int i = 0; i < 2; ++i)
    pool.Submit([&] {
      blocked.fetch_add(1);
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    });
  while (blocked.load() < 2) std::this_thread::yield();

  // With no free executor the task must run inline on the caller — this is
  // what makes nested coordinator->worker fan-out deadlock-free.
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.SubmitOrRun([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.Wait();

  // An idle pool runs SubmitOrRun tasks on pool threads, not the caller.
  ThreadPool idle(2);
  std::atomic<bool> done{false};
  std::thread::id async_id;
  idle.SubmitOrRun([&] {
    async_id = std::this_thread::get_id();
    done.store(true);
  });
  while (!done.load()) std::this_thread::yield();
  EXPECT_NE(async_id, caller);
  idle.Wait();
}

TEST(RuntimeStatsTest, RecordAccumulatesAcrossWorkers) {
  // Parallel workers each record their partial row counts under the same
  // operator digest; totals must be the sum, not the last writer's value.
  RuntimeStats stats;
  stats.Record("scan-digest", 5);
  stats.Record("scan-digest", 7);
  stats.Record("filter-digest", 3);
  MutexLock lock(&stats.mu);
  EXPECT_EQ(stats.rows_produced["scan-digest"], 12);
  EXPECT_EQ(stats.rows_produced["filter-digest"], 3);
}

}  // namespace
}  // namespace hive
