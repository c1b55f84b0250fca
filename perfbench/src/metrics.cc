#include "src/metrics.h"

#include <cmath>
#include <cstdio>

#include "obs/metric_names.h"

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"stmts_per_s", "1/s"},
      {"read_p50_ms", "ms"},
      {"peak_rss_mb", "MiB"},
      {"space_amp", "ratio"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"sql.parse_us", "us"},
      {"optimizer.bind_us", "us"},
      {"optimizer.optimize_us", "us"},
      {"exec.compile_us", "us"},
      {"server.overhead_us", "us"},
      {"server.admission_wait_us", "us"},
      {"server.queued_frac", "ratio"},
      {"server.plan_cache_hit_ratio", "ratio"},
      {"server.result_cache_hit_ratio", "ratio"},
      {"exec.run_ms", "ms"},
      {"exec.parallel_util", "ratio"},
      {"exec.morsel_queue_wait_us", "us"},
      {"exec.task_retries", "count"},
      {"exec.filter_eval_ns_per_row", "ns"},
      {"exec.hash_build_ns_per_row", "ns"},
      {"exec.hash_probe_ns_per_row", "ns"},
      {"exec.probe_hit_ratio", "ratio"},
      {"exec.agg_ns_per_row", "ns"},
      {"exec.sort_ns_per_row", "ns"},
      {"llap.hit_ratio", "ratio"},
      {"llap.hit_ns_per_chunk", "ns"},
      {"llap.miss_us_per_chunk", "us"},
      {"llap.evictions_per_stmt", "count"},
      {"llap.singleflight_waits_per_stmt", "count"},
      {"storage.open_us_per_file", "us"},
      {"storage.decode_ns_per_value", "ns"},
      {"storage.rowgroup_skip_ratio", "ratio"},
      {"exec.spill_bytes_per_stmt", "bytes"},
      {"exec.spill_write_mb_s", "MB/s"},
      {"exec.spill_read_mb_s", "MB/s"},
      {"exec.denied_reservations", "count"},
      {"storage.write_ns_per_row", "ns"},
      {"storage.acid_read_ns_per_row", "ns"},
      {"storage.delta_dirs", "count"},
      {"metastore.txn_us", "us"},
      {"metastore.compactions_per_kstmt", "count"},
      {"metastore.txn_aborted", "count"},
      {"fs.read_calls_per_stmt", "count"},
      {"fs.read_bytes_per_stmt", "bytes"},
      {"fs.read_us_per_stmt", "us"},
      {"fs.write_us_per_stmt", "us"},
      {"fs.renames_per_stmt", "count"},
      {"fs.write_bytes_per_user_byte", "ratio"},
      {"server.self_us_per_stmt", "us"},
      {"exec.self_us_per_stmt", "us"},
      {"fs.self_us_per_stmt", "us"},
      {"modeled.virtual_ms_per_stmt", "ms"},
      {"trace.overhead_frac", "ratio"},
  };
  return specs;
}

std::string Num(double value) {
  if (!std::isfinite(value)) value = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

MetricValues TracedMetrics(const PhaseResult& phase, const std::vector<SpanRecord>& spans,
                           const CountingFileSystem::Totals& fs_before,
                           const CountingFileSystem::Totals& fs_after,
                           double untraced_execute_ns_per_stmt, int executors) {
  namespace m = hive::obs::metric;
  namespace qc = hive::obs::qc;
  const std::map<std::string, int64_t>& c = phase.counters;
  auto counter = [&c](const std::string& name) {
    return static_cast<double>(c.at(name));
  };
  const double stmts = static_cast<double>(std::max<int64_t>(phase.outcomes.attempted, 1));
  const std::map<std::string, SpanTotal> totals = TotalsByName(spans);
  auto mean_us = [&totals](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : Ratio(it->second.ns / 1e3, it->second.count);
  };

  MetricValues v;
  v["sql.parse_us"] = mean_us("sql.parse");
  v["optimizer.bind_us"] = mean_us("optimizer.bind");
  v["optimizer.optimize_us"] = mean_us("optimizer.optimize");
  v["exec.compile_us"] = mean_us("exec.compile");
  v["exec.run_ms"] = mean_us("exec.run") / 1e3;
  v["server.overhead_us"] = Ratio(phase.overhead_ns / 1e3, phase.overhead_stmts);

  const double admitted = counter(m::kWlmAdmitted);
  v["server.admission_wait_us"] =
      Ratio(counter(std::string(m::kWlmWaitUs) + ".sum"), admitted);
  v["server.queued_frac"] = Ratio(counter(m::kWlmQueued), admitted);
  const double plan_hits = counter(m::kPlanCacheHits);
  v["server.plan_cache_hit_ratio"] =
      Ratio(plan_hits, plan_hits + counter(m::kPlanCacheMisses));
  const double result_hits = counter(m::kResultCacheHits);
  v["server.result_cache_hit_ratio"] =
      Ratio(result_hits, result_hits + counter(m::kResultCacheMisses));

  v["exec.parallel_util"] =
      Ratio(static_cast<double>(phase.run_cpu_ns),
            static_cast<double>(phase.run_wall_ns) * std::max(executors, 1));
  v["exec.morsel_queue_wait_us"] =
      Ratio(counter(std::string(qc::kMorselQueueWaitUs) + ".sum"),
            counter(std::string(qc::kMorselQueueWaitUs) + ".count"));
  v["exec.task_retries"] = counter(qc::kTaskRetries);

  const double llap_hits = counter(m::kLlapCacheHits);
  v["llap.hit_ratio"] = Ratio(llap_hits, llap_hits + counter(m::kLlapCacheMisses));
  v["llap.evictions_per_stmt"] = counter(m::kLlapCacheEvictions) / stmts;
  v["llap.singleflight_waits_per_stmt"] = counter(m::kLlapCacheSingleflightWaits) / stmts;
  const double skipped = counter(qc::kMorselsSkipped);
  v["storage.rowgroup_skip_ratio"] = Ratio(skipped, skipped + counter(qc::kMorselsClaimed));

  v["exec.spill_bytes_per_stmt"] = counter(qc::kSpillBytes) / stmts;
  v["exec.denied_reservations"] = counter(qc::kSpillDeniedReservations);
  v["metastore.compactions_per_kstmt"] = counter(m::kCompactionRuns) * 1e3 / stmts;
  v["metastore.txn_aborted"] = counter(m::kTxnAborted);
  v["modeled.virtual_ms_per_stmt"] = counter(m::kVirtualUs) / 1e3 / stmts;

  auto fs = [&](CountingFileSystem::Op op) {
    CountingFileSystem::OpTotals d;
    d.calls = fs_after[op].calls - fs_before[op].calls;
    d.bytes = fs_after[op].bytes - fs_before[op].bytes;
    d.ns = fs_after[op].ns - fs_before[op].ns;
    return d;
  };
  const CountingFileSystem::OpTotals reads = fs(CountingFileSystem::kRead);
  const CountingFileSystem::OpTotals writes = fs(CountingFileSystem::kWrite);
  v["fs.read_calls_per_stmt"] = reads.calls / stmts;
  v["fs.read_bytes_per_stmt"] = reads.bytes / stmts;
  v["fs.read_us_per_stmt"] = reads.ns / 1e3 / stmts;
  v["fs.write_us_per_stmt"] = writes.ns / 1e3 / stmts;
  v["fs.renames_per_stmt"] = fs(CountingFileSystem::kRename).calls / stmts;
  v["fs.write_bytes_per_user_byte"] =
      Ratio(static_cast<double>(writes.bytes), static_cast<double>(phase.user_bytes_written));

  const std::map<std::string, int64_t> self = SelfTimeByLayer(spans);
  for (const char* layer : {"server", "exec", "fs"}) {
    auto it = self.find(layer);
    v[std::string(layer) + ".self_us_per_stmt"] =
        it == self.end() ? 0 : it->second / 1e3 / stmts;
  }
  v["trace.overhead_frac"] =
      Ratio(phase.execute_ns / stmts, untraced_execute_ns_per_stmt) - 1;
  return v;
}

void PrintResult(const Metadata& meta, const Outcomes& outcomes,
                 const std::vector<MetricSpec>& specs, const MetricValues& values) {
  std::string line = "{\"metadata\": {";
  bool first = true;
  for (const auto& [key, value] : meta) {
    line += (first ? "" : ", ") + Quote(key) + ": " + Quote(value);
    first = false;
  }
  std::printf("%s}}\n", line.c_str());

  line = "{\"correct\": ";
  line += outcomes.failed() == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(outcomes.attempted);
  line += ", \"failed\": " + std::to_string(outcomes.failed());
  line += ", \"metrics\": {";
  first = true;
  for (const MetricSpec& spec : specs) {
    auto it = values.find(spec.name);
    const double value = it == values.end() ? 0 : it->second;
    line += (first ? "" : ", ") + Quote(spec.name) + ": {\"value\": " + Num(value) +
            ", \"unit\": " + Quote(spec.unit) + "}";
    first = false;
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
