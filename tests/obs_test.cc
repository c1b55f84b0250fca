#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "fs/mem_filesystem.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "server/hive_server.h"
#include "server/workload_loader.h"

namespace hive {
namespace {

// --- MetricsRegistry ---

TEST(MetricsRegistryTest, ConcurrentIncrementsSumExactly) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Resolve once, then hammer the sharded fast path like a component
      // holding a cached pointer would.
      obs::Counter* c = registry.counter("test.hits");
      for (int i = 0; i < kIncrements; ++i) c->Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.Value("test.hits"), kThreads * kIncrements);
  EXPECT_EQ(registry.Snapshot().Get("test.hits"), kThreads * kIncrements);
}

TEST(MetricsRegistryTest, SnapshotDuringConcurrentWritesIsMonotone) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.counter("test.events");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) c->Inc();
    });
  }
  // Snapshots taken mid-flight must never go backwards and never exceed a
  // later settled total.
  int64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    int64_t now = registry.Snapshot().Get("test.events");
    EXPECT_GE(now, last);
    last = now;
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  EXPECT_GE(registry.Value("test.events"), last);
}

TEST(MetricsRegistryTest, GaugesSetAndAdd) {
  obs::MetricsRegistry registry;
  obs::Gauge* g = registry.gauge("pool.active");
  g->Set(5);
  g->Add(-2);
  EXPECT_EQ(registry.Value("pool.active"), 3);
}

TEST(MetricsRegistryTest, HistogramSummaryAndPercentiles) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.histogram("scan.latency_us");
  // 90 fast scans and 10 slow ones: p50 lands in the fast band, p95 in the
  // slow one. Buckets are powers of two, so bounds are exact.
  for (int i = 0; i < 90; ++i) h->Record(100);   // bucket (64,128]
  for (int i = 0; i < 10; ++i) h->Record(9000);  // bucket (8192,16384]
  EXPECT_EQ(h->count(), 100);
  EXPECT_EQ(h->sum(), 90 * 100 + 10 * 9000);
  EXPECT_EQ(h->max(), 9000);
  EXPECT_EQ(h->ValueAtPercentile(0.5), 128);
  EXPECT_EQ(h->ValueAtPercentile(0.95), 16384);
  // Snapshot flattens the summary under dotted suffixes; Value() resolves
  // the same names without creating anything.
  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Get("scan.latency_us.count"), 100);
  EXPECT_EQ(snap.Get("scan.latency_us.max"), 9000);
  EXPECT_EQ(registry.Value("scan.latency_us.p50"), 128);
  EXPECT_EQ(registry.Value("scan.latency_us.p95"), 16384);
  EXPECT_EQ(registry.Value("scan.latency_us.sum"), h->sum());
}

TEST(MetricsRegistryTest, CallbackGaugesPolledAtSnapshotTime) {
  obs::MetricsRegistry registry;
  int polls = 0;
  int64_t level = 42;
  registry.RegisterCallback("component.level", [&] {
    ++polls;
    return level;
  });
  EXPECT_EQ(polls, 0) << "registration must not invoke the callback";
  EXPECT_EQ(registry.Snapshot().Get("component.level"), 42);
  level = 7;
  EXPECT_EQ(registry.Value("component.level"), 7);
  EXPECT_EQ(polls, 2);
}

TEST(MetricsRegistryTest, ValueOfUnknownMetricIsZeroAndCreatesNothing) {
  obs::MetricsRegistry registry;
  registry.counter("known")->Inc();
  EXPECT_EQ(registry.Value("unknown.metric"), 0);
  EXPECT_EQ(registry.Snapshot().values.size(), 1u)
      << "Value() lookups must not materialize metrics";
}

// --- QueryProfile ---

TEST(QueryProfileTest, SelfTimeSubtractsChildren) {
  auto root = std::make_shared<obs::OperatorProfileNode>();
  root->name = "HashAgg";
  root->wall_us = 1000;
  root->virtual_us = 500;
  auto child = std::make_shared<obs::OperatorProfileNode>();
  child->name = "Scan";
  child->wall_us = 700;
  child->virtual_us = 500;
  root->children.push_back(child);

  EXPECT_EQ(root->SelfWallUs(), 300);
  EXPECT_EQ(root->SelfVirtualUs(), 0);
  EXPECT_EQ(child->SelfWallUs(), 700);

  obs::QueryProfile profile;
  profile.AttachRoot(root);
  // Self times over the tree sum back to the root's inclusive time.
  EXPECT_EQ(profile.TreeWallUs(), 1000);
  EXPECT_EQ(profile.TreeVirtualUs(), 500);
}

TEST(QueryProfileTest, ResetDropsSpansButKeepsCounters) {
  obs::QueryProfile profile;
  profile.SetCounter(obs::qc::kRowsReturned, 9);
  profile.AttachRoot(std::make_shared<obs::OperatorProfileNode>());
  profile.ResetOperatorTree();
  EXPECT_EQ(profile.root(), nullptr);
  EXPECT_EQ(profile.counter(obs::qc::kRowsReturned), 9);
}

TEST(QueryProfileTest, ToJsonContainsCountersAndPlan) {
  obs::QueryProfile profile;
  profile.SetCounter(obs::qc::kRowsReturned, 3);
  auto root = std::make_shared<obs::OperatorProfileNode>();
  root->name = "Scan";
  root->rows_out = 3;
  profile.AttachRoot(root);
  std::string json = profile.ToJson();
  EXPECT_NE(json.find("\"exec.rows_returned\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"op\":\"Scan\""), std::string::npos) << json;
}

TEST(QueryProfileTest, QueryResultProfileCountersRoundTrip) {
  QueryResult result;
  result.profile().SetCounter(obs::qc::kFromResultCache, 1);
  result.profile().SetCounter(obs::qc::kReexecutions, 1);
  result.profile().SetCounter(obs::qc::kMvRewrites, 2);
  result.profile().SetCounter(obs::qc::kWallUs, 1234);
  result.profile().SetCounter(obs::qc::kTaskRetries, 3);
  const QueryResult& view = result;
  EXPECT_EQ(view.profile().counter(obs::qc::kFromResultCache), 1);
  EXPECT_EQ(view.profile().counter(obs::qc::kReexecutions), 1);
  EXPECT_EQ(view.profile().counter(obs::qc::kMvRewrites), 2);
  EXPECT_EQ(view.profile().counter(obs::qc::kWallUs), 1234);
  EXPECT_EQ(view.profile().counter(obs::qc::kTaskRetries), 3);
}

// --- end-to-end: EXPLAIN ANALYZE + SHOW METRICS over TPC-DS ---

class ObsEndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fs_ = new MemFileSystem();
    Config config;
    config.container_startup_us = 0;
    server_ = new HiveServer2(fs_, config);
    Connection loader = server_->Connect();
    TpcdsOptions options;
    options.days = 4;  // keep the suite fast
    ASSERT_TRUE(LoadTpcds(loader, options).ok());
  }
  static void TearDownTestSuite() {
    delete server_;
    delete fs_;
  }

  /// Reads one metric row out of a SHOW METRICS result.
  static int64_t MetricRow(const QueryResult& metrics, const std::string& name) {
    for (const auto& row : metrics.rows)
      if (row.size() == 2 && row[0].ToString() == name) return row[1].i64();
    return -1;
  }

  static MemFileSystem* fs_;
  static HiveServer2* server_;
};

MemFileSystem* ObsEndToEndTest::fs_ = nullptr;
HiveServer2* ObsEndToEndTest::server_ = nullptr;

/// Every profiled span must contain its children (inclusive timing), so the
/// rendered tree's numbers add up for a reader.
void ExpectNestedSpans(const obs::OperatorProfileNode& node) {
  int64_t child_wall = 0, child_virtual = 0;
  for (const auto& c : node.children) {
    child_wall += c->wall_us;
    child_virtual += c->virtual_us;
    ExpectNestedSpans(*c);
  }
  EXPECT_GE(node.wall_us, child_wall) << node.name << "[" << node.detail << "]";
  EXPECT_GE(node.virtual_us, child_virtual)
      << node.name << "[" << node.detail << "]";
}

TEST_F(ObsEndToEndTest, ProfileTreeRowsAndTimesConsistent) {
  Connection session = server_->Connect();
  session.config().result_cache_enabled = false;
  for (const BenchQuery& q : TpcdsQueries()) {
    auto result = session.Execute(q.sql);
    ASSERT_TRUE(result.ok()) << q.name << ": " << result.status().ToString();
    const obs::QueryProfile& profile = result->profile();
    ASSERT_NE(profile.root(), nullptr) << q.name;
    // The root operator's row count is the query's row count, which is also
    // the rows_returned counter.
    EXPECT_EQ(profile.root()->rows_out,
              static_cast<int64_t>(result->rows.size()))
        << q.name;
    EXPECT_EQ(profile.counter(obs::qc::kRowsReturned),
              static_cast<int64_t>(result->rows.size()))
        << q.name;
    for (const auto& root : profile.roots()) ExpectNestedSpans(*root);
    // Summing self times over the main plan's spans reconstructs the root's
    // inclusive totals exactly (the identity EXPLAIN ANALYZE's numbers rely
    // on). Auxiliary roots are excluded: they run nested inside the main
    // plan's scan Open, so the main root already contains them.
    EXPECT_EQ(profile.TreeWallUs(), profile.root()->wall_us) << q.name;
    EXPECT_EQ(profile.TreeVirtualUs(), profile.root()->virtual_us) << q.name;
    // The plan's time is part of the query's measured time.
    EXPECT_LE(profile.TreeWallUs(), profile.counter(obs::qc::kWallUs)) << q.name;
    EXPECT_LE(profile.TreeVirtualUs(), profile.counter(obs::qc::kVirtualUs))
        << q.name;
  }
}

TEST_F(ObsEndToEndTest, ExplainAnalyzeAnnotatesPlanWithActualRowCounts) {
  Connection session = server_->Connect();
  session.config().result_cache_enabled = false;
  const BenchQuery q = TpcdsQueries().front();
  auto plain = session.Execute(q.sql);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  auto analyzed = session.Execute("EXPLAIN ANALYZE " + q.sql);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  ASSERT_EQ(analyzed->schema.field(0).name, "plan");
  ASSERT_FALSE(analyzed->rows.empty());
  // Root line: the plan's top operator annotated with the real row count.
  std::string root_line = analyzed->rows[0][0].ToString();
  EXPECT_NE(root_line.find("rows=" + std::to_string(plain->rows.size())),
            std::string::npos)
      << root_line;
  // The tree must mention a table scan and per-operator timings.
  std::string all;
  for (const auto& row : analyzed->rows) all += row[0].ToString() + "\n";
  EXPECT_NE(all.find("Scan"), std::string::npos) << all;
  EXPECT_NE(all.find("wall="), std::string::npos) << all;
  // The counter block follows the tree (flat counters, one per line).
  EXPECT_NE(all.find(std::string(obs::qc::kRowsReturned) + " = " +
                     std::to_string(plain->rows.size())),
            std::string::npos)
      << all;
}

TEST_F(ObsEndToEndTest, ExplainAnalyzeBypassesResultCache) {
  Connection session = server_->Connect();
  session.config().result_cache_enabled = true;
  const BenchQuery q = TpcdsQueries().front();
  ASSERT_TRUE(session.Execute(q.sql).ok());  // fill the cache
  auto analyzed = session.Execute("EXPLAIN ANALYZE " + q.sql);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  std::string all;
  for (const auto& row : analyzed->rows) all += row[0].ToString() + "\n";
  EXPECT_EQ(all.find("result-cache hit"), std::string::npos)
      << "EXPLAIN ANALYZE must measure a real execution:\n" << all;
  EXPECT_NE(all.find("Scan"), std::string::npos) << all;
}

TEST_F(ObsEndToEndTest, ShowMetricsReflectsLlapCacheAcrossWarmRerun) {
  Connection session = server_->Connect();
  session.config().result_cache_enabled = false;
  ASSERT_TRUE(session.config().llap_enabled);
  server_->llap()->cache()->Clear();

  const BenchQuery q = TpcdsQueries().front();
  ASSERT_TRUE(session.Execute(q.sql).ok());
  auto cold = session.Execute("SHOW METRICS");
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  int64_t cold_hits = MetricRow(*cold, "llap.cache.hits");
  int64_t cold_misses = MetricRow(*cold, "llap.cache.misses");
  ASSERT_GE(cold_hits, 0);
  EXPECT_GT(cold_misses, 0) << "cold run must miss the cleared cache";

  // Warm re-run: same chunks, so hits rise and misses stay put.
  auto warm_run = session.Execute(q.sql);
  ASSERT_TRUE(warm_run.ok());
  auto warm = session.Execute("SHOW METRICS");
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_GT(MetricRow(*warm, "llap.cache.hits"), cold_hits);
  EXPECT_EQ(MetricRow(*warm, "llap.cache.misses"), cold_misses);
  // The per-query profile agrees: the warm run recorded cache hits.
  EXPECT_GT(warm_run->profile().counter(obs::qc::kLlapCacheHits), 0);
  EXPECT_EQ(warm_run->profile().counter(obs::qc::kLlapCacheMisses), 0);

  // Engine totals exposed alongside component callbacks.
  EXPECT_GT(MetricRow(*warm, "server.statements"), 0);
  EXPECT_GT(MetricRow(*warm, "server.queries"), 0);
}

/// Pre-order (depth, name, rows) outline of a span tree.
void Outline(const obs::OperatorProfileNode& node, int depth,
             std::vector<std::string>* out) {
  out->push_back(std::string(static_cast<size_t>(depth) * 2, ' ') + node.name +
                 " rows=" + std::to_string(node.rows_out));
  for (const auto& c : node.children) Outline(*c, depth + 1, out);
}

const obs::OperatorProfileNode* FindNode(const obs::OperatorProfileNode& node,
                                         const std::string& name) {
  if (node.name == name) return &node;
  for (const auto& c : node.children)
    if (const obs::OperatorProfileNode* hit = FindNode(*c, name)) return hit;
  return nullptr;
}

TEST_F(ObsEndToEndTest, ExplainAnalyzeKeepsOneNodePerPlanNodeInsidePipelines) {
  // Scans, filters and projections run as stages of a pipeline, possibly
  // on several workers, yet EXPLAIN ANALYZE keeps one span per plan node
  // and each reports its rows summed over workers: the outline is the same
  // at one worker (serial) and at four.
  for (const BenchQuery& q : TpcdsQueries()) {
    std::vector<std::string> outlines[2];
    for (int i = 0; i < 2; ++i) {
      Connection session = server_->Connect();
      session.config().result_cache_enabled = false;
      session.config().num_executors = i == 0 ? 1 : 4;
      auto result = session.Execute(q.sql);
      ASSERT_TRUE(result.ok()) << q.name << ": " << result.status().ToString();
      for (const auto& root : result->profile().roots())
        Outline(*root, 0, &outlines[i]);
    }
    EXPECT_EQ(outlines[0], outlines[1]) << q.name;
  }

  // q07 joins the store_sales fact table (probe side) with item: its join
  // span lists both inputs, the probe-side scan included.
  Connection session = server_->Connect();
  session.config().result_cache_enabled = false;
  auto result = session.Execute(TpcdsQueries()[1].sql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const obs::OperatorProfileNode* join = FindNode(*result->profile().root(), "HashJoin");
  ASSERT_NE(join, nullptr);
  ASSERT_EQ(join->children.size(), 2u);
  EXPECT_EQ(join->children[0]->name, "Scan");
  EXPECT_EQ(join->children[0]->detail, "default.store_sales");
  EXPECT_GT(join->children[0]->rows_out, 0);
  EXPECT_EQ(join->children[1]->detail, "default.item,spooled");
}

TEST_F(ObsEndToEndTest, RowwiseFallbackCounterSeparatesKernelsFromBoxedRows) {
  Connection session = server_->Connect();
  session.config().result_cache_enabled = false;
  auto metrics_before = session.Execute("SHOW METRICS");
  ASSERT_TRUE(metrics_before.ok());
  const int64_t engine_before =
      std::max<int64_t>(0, MetricRow(*metrics_before, obs::qc::kEvalRowwiseRows));

  // q88's eight ss_quantity BETWEEN filters run on the native kernel.
  auto q88 = session.Execute(TpcdsQ88Style());
  ASSERT_TRUE(q88.ok()) << q88.status().ToString();
  EXPECT_EQ(q88->profile().counter(obs::qc::kEvalRowwiseRows), 0);

  // LIKE has no kernel: every row of the filtered scan is boxed.
  const std::string like = "SELECT COUNT(*) FROM item WHERE i_brand LIKE '%1%'";
  auto boxed = session.Execute(like);
  ASSERT_TRUE(boxed.ok()) << boxed.status().ToString();
  const int64_t rowwise = boxed->profile().counter(obs::qc::kEvalRowwiseRows);
  EXPECT_GT(rowwise, 0);

  auto analyzed = session.Execute("EXPLAIN ANALYZE " + like);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  std::string all;
  for (const auto& row : analyzed->rows) all += row[0].ToString() + "\n";
  EXPECT_NE(all.find(std::string(obs::qc::kEvalRowwiseRows) + " = " +
                     std::to_string(rowwise)),
            std::string::npos)
      << all;

  auto metrics_after = session.Execute("SHOW METRICS");
  ASSERT_TRUE(metrics_after.ok());
  EXPECT_GE(MetricRow(*metrics_after, obs::qc::kEvalRowwiseRows) - engine_before,
            2 * rowwise);
}

TEST_F(ObsEndToEndTest, ExecuteScriptReturnsEveryStatementsResult) {
  Connection session = server_->Connect();
  auto results = session.ExecuteScript("SELECT 1; SELECT 2; SELECT 3");
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 3u);
  EXPECT_EQ((*results)[0].rows[0][0].ToString(), "1");
  EXPECT_EQ((*results)[2].rows[0][0].ToString(), "3");

  auto empty = session.ExecuteScript("  ");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty()) << "blank script should yield no results";
}

}  // namespace
}  // namespace hive
