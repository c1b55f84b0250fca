// Morsel-driven scan scaling: one scan-heavy aggregate over the partitioned
// TPC-DS fact table, executed at 1/2/4/8 executors (exec.num.executors; 1 is
// serial execution, the same pipeline on one worker) with cold and warm LLAP
// cache. The morsel queue splits the scan into (location, file, row_group)
// units claimed by executor threads; timings follow the repo convention of
// wall time plus modeled virtual time (scan CPU is charged per executor
// critical path, see Config::scan_cpu_ns_per_row), so the speedup reflects
// a host with num_executors cores even when this one serializes the
// threads. Results must stay identical at every executor count.
//
// Emits BENCH_parallel_scan.json with the timing trajectory.

#include <fstream>
#include <vector>

#include "bench_util.h"

using namespace hive;
using namespace hive::bench;

namespace {

constexpr const char* kQuery =
    "SELECT ss_store_sk, COUNT(*) AS cnt, SUM(ss_quantity) AS qty, "
    "SUM(ss_sales_price) AS amt "
    "FROM store_sales GROUP BY ss_store_sk";

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

double RunMs(Connection& session, QueryResult* out) {
  Timing t = RunTimed(session, kQuery);
  if (!t.ok) std::exit(1);
  *out = std::move(t.result);
  return t.millis;
}

}  // namespace

int main() {
  MemFileSystem fs;
  Config config;
  config.container_startup_us = 0;
  config.num_executors = 8;  // pool size; per-run sessions scale below it
  HiveServer2 server(&fs, config);
  Connection loader = server.Connect();
  TpcdsOptions options;
  options.scale = 12;  // enough morsels that fan-out dominates overheads
  if (Status load = LoadTpcds(loader, options); !load.ok()) {
    std::fprintf(stderr, "load failed: %s\n", load.ToString().c_str());
    return 1;
  }

  struct Sample {
    int executors;
    double cold_ms;
    double warm_ms;
    size_t rows;
  };
  std::vector<Sample> samples;
  std::string baseline_key;

  PrintHeader("Morsel-driven parallel scan scaling (warm = LLAP cache hot)");
  std::printf("%-10s %12s %12s %10s\n", "executors", "cold (ms)", "warm (ms)",
              "speedup");

  double warm_at_1 = 0;
  for (int executors : {1, 2, 4, 8}) {
    Connection session = server.Connect();
    session.config().result_cache_enabled = false;
    session.config().num_executors = executors;

    server.llap()->cache()->Clear();
    QueryResult cold_result;
    double cold_ms = RunMs(session, &cold_result);

    // Warm: best of three with the cache populated.
    double warm_ms = 0;
    QueryResult warm_result;
    for (int rep = 0; rep < 3; ++rep) {
      QueryResult r;
      double ms = RunMs(session, &r);
      if (rep == 0 || ms < warm_ms) warm_ms = ms;
      warm_result = std::move(r);
    }

    std::string key = RowsKey(warm_result);
    if (RowsKey(cold_result) != key) {
      std::fprintf(stderr, "cold/warm results differ at %d executors\n", executors);
      return 1;
    }
    if (baseline_key.empty()) {
      baseline_key = key;
      warm_at_1 = warm_ms;
    } else if (key != baseline_key) {
      std::fprintf(stderr, "results differ at %d executors\n", executors);
      return 1;
    }

    samples.push_back({executors, cold_ms, warm_ms, warm_result.rows.size()});
    std::printf("%-10d %12.2f %12.2f %9.2fx\n", executors, cold_ms, warm_ms,
                warm_at_1 / std::max(warm_ms, 0.001));
  }

  std::printf("\nresults identical across executor counts: yes\n");
  std::printf("I/O elevator prefetches issued: %lld; cache decodes: %llu, "
              "single-flight waits: %llu\n",
              static_cast<long long>(server.llap()->prefetches_issued()),
              static_cast<unsigned long long>(server.llap()->cache()->data_decodes()),
              static_cast<unsigned long long>(
                  server.llap()->cache()->singleflight_waits()));

  std::ofstream json("BENCH_parallel_scan.json");
  json << "{\n  \"benchmark\": \"parallel_scan\",\n  \"query\": \"tpcds store_sales "
          "group-by aggregate\",\n  \"samples\": [\n";
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    json << "    {\"executors\": " << s.executors << ", \"cold_ms\": " << s.cold_ms
         << ", \"warm_ms\": " << s.warm_ms
         << ", \"warm_speedup_vs_1\": " << warm_at_1 / std::max(s.warm_ms, 0.001)
         << ", \"rows\": " << s.rows << "}" << (i + 1 < samples.size() ? "," : "")
         << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote BENCH_parallel_scan.json\n");
  return 0;
}
