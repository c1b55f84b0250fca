// Morsel-parallel hash join scaling: a fact x dim star join (perfect-hash
// territory: the build keys are a dense duplicate-free integer domain) and a
// fact x fact join (duplicate keys on both sides, generic flat table), each
// executed at 1/2/4/8 executors (exec.num.executors; 1 is serial execution:
// the probe pipeline and the build run on one worker) with cold and warm
// LLAP cache. Timings follow the repo convention of wall time plus modeled
// virtual time: probe CPU (Config::join_cpu_ns_per_row, halved when the
// perfect-hash table engages) and the partitioned build are charged per
// executor critical path, so the speedup reflects a host with num_executors
// cores. Results must stay byte-identical at every executor count and table
// variant.
//
// Emits BENCH_join.json. `--smoke` runs a tiny scale for ctest.

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"

using namespace hive;
using namespace hive::bench;

namespace {

// Star join over the dense item dimension. The dimension filter keeps the
// build side small and the emit sparse, so timing tracks the probe (the
// part that parallelizes), not result materialization — and the filtered
// i_item_sk domain stays dense enough for the perfect-hash table.
constexpr const char* kFactDim =
    "SELECT i_category, COUNT(*) AS cnt, SUM(ss_quantity) AS qty "
    "FROM store_sales, item WHERE ss_item_sk = i_item_sk "
    "AND i_category = 'Sports' GROUP BY i_category";

// Fact x fact on the shared ticket number: the ~360k-row fact table probes
// a build side drawn from another fact table. Tickets span the whole fact
// domain (range >> 2*rows), so the perfect-hash table must decline and the
// generic flat table carries the probe; the build-side amount filter keeps
// the emit sparse so the probe dominates timing.
constexpr const char* kFactFact =
    "SELECT COUNT(*) AS pairs, SUM(sr_return_amt) AS amt "
    "FROM store_sales JOIN store_returns "
    "ON ss_ticket_number = sr_ticket_number WHERE sr_return_amt > 90";

std::string RowsKey(const QueryResult& result) {
  std::string key;
  for (const auto& row : result.rows) {
    for (const Value& v : row) {
      key += v.ToString();
      key += '|';
    }
    key += '\n';
  }
  return key;
}

Connection SessionFor(HiveServer2* server, int executors, bool perfect_hash) {
  Connection session = server->Connect();
  session.config().result_cache_enabled = false;
  // Semijoin reduction would prune the probe scan to near-nothing on these
  // selective build sides — great for TPC-DS, but this bench measures the
  // probe pipeline itself, so every fact row must reach the join.
  session.config().semijoin_reduction_enabled = false;
  session.config().num_executors = executors;
  session.config().perfect_hash_join_enabled = perfect_hash;
  return session;
}

struct Sample {
  std::string query;
  std::string variant;
  int executors;
  double cold_ms;
  double warm_ms;
  size_t rows;
};

/// Cold run (cache cleared) + warm best-of-five; aborts on any result
/// mismatch against `expected_key` (set from the first variant measured).
Sample Measure(HiveServer2* server, const std::string& name,
               const std::string& variant, const std::string& sql,
               int executors, bool perfect_hash, std::string* expected_key) {
  Connection session = SessionFor(server, executors, perfect_hash);
  server->llap()->cache()->Clear();
  Timing cold = RunTimed(session, sql);
  if (!cold.ok) std::exit(1);

  double warm_ms = 0;
  QueryResult warm_result;
  for (int rep = 0; rep < 5; ++rep) {
    Timing t = RunTimed(session, sql);
    if (!t.ok) std::exit(1);
    if (rep == 0 || t.millis < warm_ms) warm_ms = t.millis;
    warm_result = std::move(t.result);
  }

  std::string key = RowsKey(warm_result);
  if (RowsKey(cold.result) != key) {
    std::fprintf(stderr, "%s/%s: cold/warm results differ at %d executors\n",
                 name.c_str(), variant.c_str(), executors);
    std::exit(1);
  }
  if (expected_key->empty()) {
    *expected_key = key;
  } else if (key != *expected_key) {
    std::fprintf(stderr, "%s/%s: results differ at %d executors\n",
                 name.c_str(), variant.c_str(), executors);
    std::exit(1);
  }
  return {name, variant, executors, cold.millis, warm_ms,
          warm_result.rows.size()};
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  MemFileSystem fs;
  Config config;
  config.container_startup_us = 0;
  config.num_executors = 8;  // pool size; per-run sessions scale below it
  HiveServer2 server(&fs, config);
  Connection loader = server.Connect();
  TpcdsOptions options;
  options.scale = smoke ? 1 : 12;  // ~30k fact rows per unit of scale
  Must(LoadTpcds(loader, options));

  const std::vector<int> sweep = smoke ? std::vector<int>{1, 8}
                                       : std::vector<int>{1, 2, 4, 8};
  std::vector<Sample> samples;

  PrintHeader("Morsel-parallel hash join scaling (warm = LLAP cache hot)");
  std::printf("%-12s %-10s %-10s %12s %12s %10s\n", "query", "variant",
              "executors", "cold (ms)", "warm (ms)", "speedup");

  auto run_sweep = [&](const std::string& name, const std::string& sql,
                       bool perfect_hash, const std::string& variant) {
    std::string expected_key;
    double warm_at_1 = 0;
    for (int executors : sweep) {
      Sample s = Measure(&server, name, variant, sql, executors, perfect_hash,
                         &expected_key);
      if (executors == sweep.front()) warm_at_1 = s.warm_ms;
      std::printf("%-12s %-10s %-10d %12.2f %12.2f %9.2fx\n", name.c_str(),
                  variant.c_str(), executors, s.cold_ms, s.warm_ms,
                  warm_at_1 / std::max(s.warm_ms, 0.001));
      samples.push_back(std::move(s));
    }
  };

  // Perfect-hash on vs off on the same dense-key star join: the array
  // table must engage (exec.join.perfect_hash moves) and win.
  int64_t ph_before = server.metrics()->counter("exec.join.perfect_hash")->value();
  run_sweep("fact_dim", kFactDim, /*perfect_hash=*/true, "perfect");
  int64_t ph_after = server.metrics()->counter("exec.join.perfect_hash")->value();
  if (ph_after <= ph_before) {
    std::fprintf(stderr, "perfect hash never engaged on the dense item key\n");
    return 1;
  }
  run_sweep("fact_dim", kFactDim, /*perfect_hash=*/false, "generic");
  run_sweep("fact_fact", kFactFact, /*perfect_hash=*/true, "generic");

  std::printf("\nresults identical across executor counts and variants: yes\n");
  std::printf("perfect-hash engagements this run: %lld\n",
              static_cast<long long>(ph_after - ph_before));

  std::ofstream json("BENCH_join.json");
  json << "{\n  \"benchmark\": \"join\",\n  \"smoke\": "
       << (smoke ? "true" : "false") << ",\n  \"samples\": [\n";
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    // Speedup is relative to the same query+variant at the lowest executor
    // count in the sweep.
    double base = s.warm_ms;
    for (const Sample& b : samples) {
      if (b.query == s.query && b.variant == s.variant &&
          b.executors == sweep.front()) {
        base = b.warm_ms;
        break;
      }
    }
    json << "    {\"query\": \"" << s.query << "\", \"variant\": \""
         << s.variant << "\", \"executors\": " << s.executors
         << ", \"cold_ms\": " << s.cold_ms << ", \"warm_ms\": " << s.warm_ms
         << ", \"warm_speedup_vs_1\": " << base / std::max(s.warm_ms, 0.001)
         << ", \"rows\": " << s.rows << "}"
         << (i + 1 < samples.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote BENCH_join.json\n");
  return 0;
}
