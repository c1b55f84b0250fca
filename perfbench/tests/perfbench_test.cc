// Tests of the benchmark's own code: statistics, failure accounting, the
// ACID reference model, tracing, the counting file system, the metric
// names, and that every workload's check passes on the engine and catches
// a planted wrong expectation.
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "fs/mem_filesystem.h"
#include "src/acid_model.h"
#include "src/counting_fs.h"
#include "src/harness.h"
#include "src/metrics.h"
#include "src/rows.h"
#include "src/stats.h"
#include "src/trace.h"
#include "src/workload.h"

namespace perfbench {
namespace {

using hive::Status;
using hive::Value;

TEST(TailTest, HighestPercentileWithTenSamplesBeyond) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  const Tail tail = TailOf(samples);
  EXPECT_EQ(tail.value, 90);
  EXPECT_DOUBLE_EQ(tail.percentile, 90.0);
  EXPECT_EQ(tail.samples, 100u);
  EXPECT_EQ(tail.beyond, 10u);
  int above = 0;
  for (double s : samples) above += s > tail.value;
  EXPECT_EQ(above, 10);
}

TEST(TailTest, SmallSamples) {
  std::vector<double> eleven;
  for (int i = 1; i <= 11; ++i) eleven.push_back(i);
  Tail tail = TailOf(eleven);
  EXPECT_EQ(tail.value, 1);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_NEAR(tail.percentile, 100.0 / 11, 1e-9);

  // Ten samples cannot have ten beyond any of them: report the maximum and
  // say that nothing lies beyond it.
  eleven.pop_back();
  tail = TailOf(eleven);
  EXPECT_EQ(tail.value, 10);
  EXPECT_EQ(tail.beyond, 0u);
  EXPECT_EQ(TailOf({}).samples, 0u);
}

TEST(TailTest, ChunkedTailIsMedianOfChunkTails) {
  // Client A: 1000 samples in two chunks whose tails are 490 and 990;
  // client B: 30 samples (one chunk, tail 20); client C: nothing.
  std::vector<double> a, b;
  for (int i = 1; i <= 1000; ++i) a.push_back(i);
  for (int i = 1; i <= 30; ++i) b.push_back(i);
  const Tail tail = ChunkedTail({a, b, {}}, 500);
  EXPECT_EQ(tail.chunks, 3u);
  EXPECT_EQ(tail.samples, 1030u);
  EXPECT_EQ(tail.value, 490);
  EXPECT_EQ(tail.beyond, 10u);
  // 1100 samples: two chunks, the second absorbing the remainder (600).
  for (int i = 1001; i <= 1100; ++i) a.push_back(i);
  const Tail two = ChunkedTail({a}, 500);
  EXPECT_EQ(two.chunks, 2u);
  EXPECT_EQ(two.value, (490 + 1090) / 2.0);
  EXPECT_EQ(ChunkedTail({}, 500).samples, 0u);
  // Chunk 0: each client's stream is one chunk.
  const Tail whole = ChunkedTail({a}, 0);
  EXPECT_EQ(whole.chunks, 1u);
  EXPECT_EQ(whole.value, 1090);
}

TEST(StatsTest, Median) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(FailureAccountingTest, EveryKindCountsAgainstAttempted) {
  Outcomes o;
  o.Record(Outcome::kOk);
  o.Record(Outcome::kError);
  o.Record(Outcome::kRefused);
  o.Record(Outcome::kTimeout);
  o.Record(Outcome::kWrongResult);
  EXPECT_EQ(o.attempted, 5);
  EXPECT_EQ(o.ok, 1);
  EXPECT_EQ(o.failed(), 4);
  EXPECT_DOUBLE_EQ(o.failed_frac(), 0.8);
  Outcomes sum;
  sum.Merge(o);
  sum.Merge(o);
  EXPECT_EQ(sum.attempted, 10);
  EXPECT_EQ(sum.failed(), 8);
}

TEST(FailureAccountingTest, ClassifiesRefusalsAndTimeouts) {
  EXPECT_EQ(ClassifyFailure(Status::ResourceExhausted(
                "admission queue deadline expired after 5 ms waiting for a slot "
                "in pool 'bi' (wlm.queue.timeout.ms)")),
            Outcome::kTimeout);
  EXPECT_EQ(ClassifyFailure(Status::ResourceExhausted("all pools at capacity")),
            Outcome::kRefused);
  EXPECT_EQ(ClassifyFailure(Status::ExecError("boom")), Outcome::kError);
  EXPECT_EQ(ClassifyFailure(Status::ParseError("bad")), Outcome::kError);
}

TEST(RowsTest, MatchIgnoresOrderAndRoundingOnly) {
  const Rows a = {{Value::Bigint(1), Value::Double(0.1 + 0.2)},
                  {Value::Bigint(2), Value::String("x")}};
  const Rows b = {{Value::Bigint(2), Value::String("x")},
                  {Value::Bigint(1), Value::Double(0.3)}};
  EXPECT_TRUE(RowsMatch(a, b));
  Rows c = b;
  c[0][1] = Value::String("y");
  EXPECT_FALSE(RowsMatch(a, c));
  c = b;
  c.pop_back();
  EXPECT_FALSE(RowsMatch(a, c));
  EXPECT_FALSE(RowsMatch({{Value::Null()}}, {{Value::Bigint(0)}}));
  Rows sorted = b;
  SortRows(&sorted);
  EXPECT_TRUE(RowsMatch(sorted, a));
  sorted[0][1] = Value::String("z");
  EXPECT_FALSE(RowsMatch(sorted, a));
  EXPECT_EQ(UserBytes(a), 8u + 8u + 8u + 1u);
}

TEST(AcidModelTest, AppliesDmlLikeTheEngineShould) {
  AcidModel m;
  m.Insert(1, 0, 10);
  m.Insert(2, 1, 20);
  m.Insert(5, 0, 50);
  EXPECT_EQ(m.CountGroup(0), 2);
  EXPECT_EQ(m.AddToGroup(0, 3), 2);       // ids 1, 5
  EXPECT_EQ(m.CountRange(2, 5), 2);
  EXPECT_EQ(m.AddToRange(2, 5, -1), 2);   // ids 2, 5
  EXPECT_EQ(m.Merge({{2, 9, 7}, {3, 1, 4}}), 2);  // 2 matched, 3 inserted
  EXPECT_EQ(m.DeleteRange(1, 1), 1);
  EXPECT_EQ(m.DeleteRange(100, 200), 0);

  const Rows all = {{Value::Bigint(2), Value::Bigint(1), Value::Bigint(26)},
                    {Value::Bigint(3), Value::Bigint(1), Value::Bigint(4)},
                    {Value::Bigint(5), Value::Bigint(0), Value::Bigint(52)}};
  EXPECT_TRUE(RowsMatch(all, m.AllRows()));
  const Rows summary = {{Value::Bigint(0), Value::Bigint(1), Value::Bigint(52)},
                        {Value::Bigint(1), Value::Bigint(2), Value::Bigint(30)}};
  EXPECT_TRUE(RowsMatch(summary, m.GroupSummary()));
  EXPECT_EQ(m.LiveBytes(), 3u * 24u);
}

TEST(TraceTest, SelfTimeSubtractsCoveredChildIntervals) {
  // stmt [0,100] with children a [10,40] and b [30,60] (overlapping) and a
  // grandchild under a; fs span with no parent.
  std::vector<SpanRecord> spans = {
      {1, 0, 7, "stmt", 0, 100},         {2, 1, 7, "server.execute", 10, 40},
      {3, 1, 7, "exec.run", 30, 60},     {4, 2, 7, "fs.read", 15, 20},
      {5, 0, 7, "fs.read", 70, 75},
  };
  const std::map<std::string, int64_t> self = SelfTimeByLayer(spans);
  EXPECT_EQ(self.at("stmt"), 100 - 50);
  EXPECT_EQ(self.at("server"), 30 - 5);
  EXPECT_EQ(self.at("exec"), 30);
  EXPECT_EQ(self.at("fs"), 5 + 5);
  const auto totals = TotalsByName(spans);
  EXPECT_EQ(totals.at("fs.read").count, 2);
  EXPECT_EQ(totals.at("fs.read").ns, 10);
}

TEST(TraceTest, ScopesNestPerThreadAndTagStatements) {
  Tracer tracer;
  {
    Tracer::Scope root(&tracer, "stmt", 42);
    Tracer::Scope child(&tracer, "server.execute");
  }
  {
    Tracer::Scope orphan(&tracer, "fs.read");  // no open span: no parent
  }
  { Tracer::Scope off(nullptr, "sql.parse"); }  // null tracer records nothing
  const std::vector<SpanRecord> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 3u);
  std::map<std::string, SpanRecord> by_name;
  for (const SpanRecord& s : spans) by_name[s.name] = s;
  EXPECT_EQ(by_name["stmt"].parent, 0u);
  EXPECT_EQ(by_name["server.execute"].parent, by_name["stmt"].id);
  EXPECT_EQ(by_name["server.execute"].stmt, 42u);
  EXPECT_EQ(by_name["fs.read"].parent, 0u);
  EXPECT_EQ(by_name["fs.read"].stmt, 42u);  // latest statement started
}

TEST(CountingFsTest, CountsCallsAndBytesPerOperation) {
  hive::MemFileSystem mem;
  CountingFileSystem fs(&mem);
  Tracer tracer;
  fs.set_tracer(&tracer);
  ASSERT_TRUE(fs.MakeDirs("/d").ok());
  ASSERT_TRUE(fs.WriteFile("/d/a", "hello").ok());
  ASSERT_TRUE(fs.Rename("/d/a", "/d/b").ok());
  ASSERT_TRUE(fs.ReadFile("/d/b").ok());
  ASSERT_TRUE(fs.ReadRange("/d/b", 1, 2).ok());
  EXPECT_TRUE(fs.Exists("/d/b"));
  fs.set_tracer(nullptr);
  ASSERT_TRUE(fs.ListDir("/d").ok());
  const CountingFileSystem::Totals t = fs.Snapshot();
  EXPECT_EQ(t[CountingFileSystem::kWrite].calls, 1u);
  EXPECT_EQ(t[CountingFileSystem::kWrite].bytes, 5u);
  EXPECT_EQ(t[CountingFileSystem::kRename].calls, 1u);
  EXPECT_EQ(t[CountingFileSystem::kRead].calls, 2u);
  EXPECT_EQ(t[CountingFileSystem::kRead].bytes, 7u);
  EXPECT_EQ(t[CountingFileSystem::kList].calls, 1u);
  EXPECT_EQ(tracer.size(), 6u);  // the ListDir ran untraced
}

std::vector<std::string> JsonSectionNames(const std::string& json, const std::string& key) {
  const size_t start = json.find("\"" + key + "\"");
  const size_t end = json.find(']', start);
  const std::string section = json.substr(start, end - start);
  std::vector<std::string> names;
  const std::regex name_re("\"name\": \"([^\"]+)\"");
  for (auto it = std::sregex_iterator(section.begin(), section.end(), name_re);
       it != std::sregex_iterator(); ++it)
    names.push_back((*it)[1]);
  return names;
}

TEST(MetricNamesTest, LegalUniqueAndListedInBenchmarkJson) {
  std::set<std::string> seen;
  for (const auto* specs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& spec : *specs) {
      EXPECT_TRUE(std::regex_match(spec.name, std::regex("[A-Za-z0-9_.-]+"))) << spec.name;
      EXPECT_TRUE(std::regex_match(spec.name, std::regex("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")))
          << spec.name;
      EXPECT_TRUE(std::regex_match(spec.unit, std::regex("[A-Za-z0-9_/%.-]{1,16}")))
          << spec.unit;
      EXPECT_TRUE(seen.insert(spec.name).second) << "duplicate " << spec.name;
    }
  }

  std::ifstream in(PERFBENCH_JSON);
  ASSERT_TRUE(in.good()) << PERFBENCH_JSON;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  auto names = [](const std::vector<MetricSpec>& specs) {
    std::vector<std::string> out;
    for (const MetricSpec& s : specs) out.push_back(s.name);
    return out;
  };
  EXPECT_EQ(JsonSectionNames(json, "end_to_end"), names(EndToEndMetrics()));
  EXPECT_EQ(JsonSectionNames(json, "per_layer"), names(PerLayerMetrics()));
  EXPECT_EQ(JsonSectionNames(json, "workloads"), WorkloadNames());
}

/// Statements scripted by the test: one correct, one the engine rejects,
/// one whose check fails.
class ScriptedWorkload : public Workload {
 public:
  hive::Status Load(hive::HiveServer2*) override { return Status::OK(); }
  hive::Status Warm(std::vector<hive::Connection>*) override { return Status::OK(); }
  hive::Status CaptureReferences(hive::HiveServer2*) override { return Status::OK(); }
  Stmt Next(int) override {
    Stmt stmt;
    stmt.read = true;
    switch (next_++ % 3) {
      case 0: stmt.sql = "SELECT 1"; break;
      case 1: stmt.sql = "SELEKT 1"; break;
      default:
        stmt.sql = "SELECT 2";
        stmt.check = [](const hive::QueryResult&) { return false; };
    }
    return stmt;
  }
  bool AtBoundary(int) const override { return next_ % 3 == 0; }
  uint64_t LiveUserBytes() const override { return 1; }
  std::vector<std::string> LayerQueries() const override { return {}; }
  std::string MainTable() const override { return "none"; }
  void Describe(Metadata*) const override {}
  void PlantWrongExpectation() override {}

 private:
  int next_ = 0;
};

TEST(FailureAccountingTest, RunPhaseCountsErrorsAndWrongRows) {
  Instance instance;
  instance.mem = std::make_unique<hive::MemFileSystem>();
  instance.server = std::make_unique<hive::HiveServer2>(instance.mem.get());
  instance.workload = std::make_unique<ScriptedWorkload>();
  instance.clients.push_back(instance.server->Connect("etl"));
  const PhaseResult phase = RunPhase(&instance, 0.05, nullptr);
  ASSERT_GE(phase.outcomes.attempted, 3);
  EXPECT_EQ(phase.outcomes.attempted % 3, 0);
  const int64_t rounds = phase.outcomes.attempted / 3;
  EXPECT_EQ(phase.outcomes.ok, rounds);
  EXPECT_EQ(phase.outcomes.errors, rounds);
  EXPECT_EQ(phase.outcomes.wrong, rounds);
  EXPECT_EQ(static_cast<int64_t>(Pooled(phase.read_ms).size()), rounds);  // successes only
}

TEST(FailureAccountingTest, FixedRoundsRunExactlyTheirStatementsAndAppend) {
  Instance instance;
  instance.mem = std::make_unique<hive::MemFileSystem>();
  instance.server = std::make_unique<hive::HiveServer2>(instance.mem.get());
  instance.workload = std::make_unique<ScriptedWorkload>();
  instance.clients.push_back(instance.server->Connect("etl"));
  // 7 stops inside a scripted triple: a round ignores boundaries and time.
  PhaseResult total = RunPhase(&instance, 60, nullptr, 7);
  EXPECT_EQ(total.outcomes.attempted, 7);
  EXPECT_EQ(total.outcomes.ok, 3);
  const PhaseResult second = RunPhase(&instance, 60, nullptr, 5);
  EXPECT_EQ(second.outcomes.attempted, 5);
  const double wall_s = total.wall_s + second.wall_s;
  total.Append(second);
  EXPECT_EQ(total.outcomes.attempted, 12);
  EXPECT_EQ(total.outcomes.failed(), 8);
  EXPECT_EQ(total.read_ms.size(), 2u);  // each round's stream stays its own
  EXPECT_EQ(Pooled(total.read_ms).size(), 4u);
  EXPECT_DOUBLE_EQ(total.wall_s, wall_s);
}

class WorkloadCheckTest : public ::testing::TestWithParam<std::string> {};

// At this commit every workload's statements pass their checks, and the
// same checks reject the engine's answers once one expected row is wrong.
TEST_P(WorkloadCheckTest, PassesOnEngineAndCatchesWrongExpectation) {
  hive::Result<std::unique_ptr<Instance>> made = perfbench::SetUp(GetParam(), 7, false);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  Instance* instance = made->get();
  ASSERT_TRUE(instance->workload->CaptureReferences(instance->server.get()).ok());

  const PhaseResult clean = RunPhase(instance, 0.3, nullptr);
  EXPECT_GT(clean.outcomes.attempted, 0);
  EXPECT_EQ(clean.outcomes.failed(), 0);
  EXPECT_TRUE(instance->workload->FinalCheck(&instance->clients[0]));

  instance->workload->PlantWrongExpectation();
  const PhaseResult planted = RunPhase(instance, 0.3, nullptr);
  EXPECT_GT(planted.outcomes.wrong, 0);
  EXPECT_EQ(planted.outcomes.errors + planted.outcomes.refused + planted.outcomes.timeouts,
            0);
  if (GetParam() == "acid_etl") {
    EXPECT_FALSE(instance->workload->FinalCheck(&instance->clients[0]));
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadCheckTest,
                         ::testing::ValuesIn(WorkloadNames()));

// Engine defect found by bi_sessions' ad-hoc filter check: BETWEEN on a
// DECIMAL column drops rows equal to a bound, while the equivalent >= / <=
// keeps them. The benchmark writes its filters with >= / <=; this test
// fails until the engine is fixed.
TEST(EngineDefectTest, DecimalBetweenIncludesBounds) {
  hive::MemFileSystem fs;
  hive::HiveServer2 server(&fs);
  hive::Connection conn = server.Connect("etl");
  ASSERT_TRUE(conn.Execute("CREATE TABLE prices (id INT, price DECIMAL(7,2))").ok());
  ASSERT_TRUE(conn.Execute("INSERT INTO prices VALUES (1, 11.11), (2, 8.43)").ok());
  auto count = [&conn](const std::string& where) {
    hive::Result<hive::QueryResult> r =
        conn.Execute("SELECT COUNT(*) FROM prices WHERE " + where);
    return r.ok() ? r->rows[0][0].AsInt64() : -1;
  };
  EXPECT_EQ(count("price >= 8.43 AND price <= 11.11"), 2);
  EXPECT_EQ(count("price BETWEEN 8.43 AND 11.11"), 2);
}

TEST(TracedRunTest, ReplaysReadsAndFillsLayerSpans) {
  Tracer tracer;
  hive::Result<std::unique_ptr<Instance>> made = perfbench::SetUp("acid_etl", 3, true);
  ASSERT_TRUE(made.ok());
  Instance* instance = made->get();
  ASSERT_TRUE(instance->workload->CaptureReferences(instance->server.get()).ok());
  instance->counting->set_tracer(&tracer);
  // Long enough for several reads (one statement in five) even in a
  // sanitizer build.
  const PhaseResult phase = RunPhase(instance, 1.5, &tracer);
  instance->counting->set_tracer(nullptr);
  EXPECT_EQ(phase.outcomes.failed(), 0);
  ASSERT_GT(phase.replayed, 0);
  const auto totals = TotalsByName(tracer.Spans());
  for (const char* name : {"stmt", "server.execute", "sql.parse", "optimizer.bind",
                           "optimizer.optimize", "exec.compile", "exec.run", "fs.write"})
    EXPECT_GT(totals.count(name), 0u) << name;
  EXPECT_EQ(totals.at("exec.run").count, phase.replayed);
}

}  // namespace
}  // namespace perfbench
