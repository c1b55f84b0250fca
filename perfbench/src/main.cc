// hive-cpp wall-clock benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// --trace 0: sets the workload up kSetupRuns times (setup_s is the median),
// then runs the clients in a closed loop for <s> seconds, or in rounds of a
// fixed statement count until <s> seconds are done, and reports the
// end-to-end metrics. --trace 1: runs the same seeded stream untraced and
// then traced for <s>/2 seconds each, replays every read phase by phase,
// measures each layer directly, and reports the per-layer metrics. Either
// way the last stdout line is the JSON result; the line before it is the
// run's metadata.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "src/harness.h"
#include "src/layers.h"
#include "src/metrics.h"

namespace perfbench {
namespace {

constexpr int kSetupRuns = 5;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && MakeWorkload(args->workload, 0) != nullptr &&
         args->seconds >= 1 && (args->trace == 0 || args->trace == 1);
}

std::string BuildType() {
#ifdef PERFBENCH_BUILD_TYPE
  return PERFBENCH_BUILD_TYPE;
#else
  return "unknown";
#endif
}

void CommonMetadata(const Args& args, Metadata* meta) {
  (*meta)["workload"] = args.workload;
  (*meta)["seed"] = std::to_string(args.seed);
  (*meta)["seconds"] = Num(args.seconds);
  (*meta)["trace"] = std::to_string(args.trace);
  (*meta)["hardware_concurrency"] = std::to_string(std::thread::hardware_concurrency());
  (*meta)["build_type"] = BuildType();
#ifdef HIVE_LOCK_ORDER_CHECKS
  (*meta)["hive_lock_order_checks"] = "on";
#else
  (*meta)["hive_lock_order_checks"] = "off";
#endif
  (*meta)["num_executors"] = std::to_string(hive::Config().num_executors);
  (*meta)["execution_engine"] = hive::Config().execution_engine;
}

/// Seed of round `round` > 0 of a timed run; round 0 uses the run's seed.
uint64_t RoundSeed(uint64_t seed, int round) { return seed * 1000003 + round; }

/// Runs the final-state check, counting it as one more attempted statement.
void FinalCheck(Instance* instance, Outcomes* outcomes) {
  hive::Connection& conn = instance->clients[0];
  outcomes->Record(instance->workload->FinalCheck(&conn) ? Outcome::kOk
                                                         : Outcome::kWrongResult);
}

int RunTimed(const Args& args) {
  Metadata meta;
  CommonMetadata(args, &meta);
  std::vector<double> setup_s;
  std::unique_ptr<Instance> instance;
  for (int i = 0; i < kSetupRuns; ++i) {
    instance.reset();
    hive::Result<std::unique_ptr<Instance>> made = SetUp(args.workload, args.seed, false);
    if (!made.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", made.status().ToString().c_str());
      return 1;
    }
    instance = std::move(*made);
    setup_s.push_back(instance->load_s + instance->warm_s);
    meta["setup_s.run" + std::to_string(i)] = Num(setup_s.back());
  }
  meta["peak_rss_mb.after_setup"] = Num(PeakRssMb());
  // One timed round for the whole run, or rounds of a fixed statement count
  // until they have run for the given seconds, each on a server set up for
  // it from a seed of its own.
  const int64_t round_stmts = instance->workload->RoundStatements();
  std::vector<double> round_rates;
  PhaseResult phase;
  Outcomes final_checks;
  for (int round = 0; round == 0 || (round_stmts > 0 && phase.wall_s < args.seconds);
       ++round) {
    if (round > 0) {
      instance.reset();
      hive::Result<std::unique_ptr<Instance>> made =
          SetUp(args.workload, RoundSeed(args.seed, round), false);
      if (!made.ok()) {
        std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                     made.status().ToString().c_str());
        return 1;
      }
      instance = std::move(*made);
      setup_s.push_back(instance->load_s + instance->warm_s);
    }
    if (hive::Status st = instance->workload->CaptureReferences(instance->server.get());
        !st.ok()) {
      std::fprintf(stderr, "perfbench: reference capture failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    PhaseResult timed = RunPhase(instance.get(), args.seconds, nullptr, round_stmts);
    round_rates.push_back(timed.outcomes.ok / timed.wall_s);
    FinalCheck(instance.get(), &final_checks);
    phase.Append(timed);
  }
  const Outcomes& o = phase.outcomes;
  const size_t chunk = instance->workload->TailChunk();
  const Tail read_tail = ChunkedTail(phase.read_ms, chunk);
  const Tail write_tail = ChunkedTail(phase.write_ms, chunk);
  const std::vector<double> writes = Pooled(phase.write_ms);
  const double completed = static_cast<double>(std::max<int64_t>(o.ok, 1));

  MetricValues metrics;
  metrics["setup_s"] = Median(setup_s);
  metrics["stmts_per_s"] = o.ok / phase.wall_s;
  metrics["read_p50_ms"] = Median(Pooled(phase.read_ms));
  metrics["peak_rss_mb"] = PeakRssMb();
  metrics["space_amp"] = Median(phase.space_amp);

  phase.outcomes.Merge(final_checks);
  instance->workload->Describe(&meta);
  if (round_stmts > 0) {
    meta["round_statements"] = std::to_string(round_stmts);
    std::string rates;
    for (double rate : round_rates) rates += (rates.empty() ? "" : ",") + Num(rate);
    meta["round_stmts_per_s"] = rates;
  }
  meta["cpu_ms_per_stmt"] = Num(phase.cpu_s * 1e3 / completed);
  meta["read_tail_ms"] = Num(read_tail.value);
  meta["read_tail_percentile"] = Num(read_tail.percentile);
  meta["read_samples"] = std::to_string(read_tail.samples);
  meta["read_samples_beyond_tail"] = std::to_string(read_tail.beyond);
  meta["read_tail_chunks"] = std::to_string(read_tail.chunks);
  if (!writes.empty()) {
    meta["write_p50_ms"] = Num(Median(writes));
    meta["write_tail_ms"] = Num(write_tail.value);
    meta["write_tail_percentile"] = Num(write_tail.percentile);
    meta["write_samples"] = std::to_string(write_tail.samples);
  }
  meta["failed_frac"] = Num(o.failed_frac());
  meta["failed.errors"] = std::to_string(o.errors);
  meta["failed.refused"] = std::to_string(o.refused);
  meta["failed.timeouts"] = std::to_string(o.timeouts);
  meta["failed.wrong_results"] = std::to_string(o.wrong);
  meta["repeated_stmt_frac"] = Num(o.attempted ? double(phase.repeated) / o.attempted : 0);
  meta["timed_wall_s"] = Num(phase.wall_s);
  meta["modeled.virtual_ms_per_stmt"] =
      Num(phase.counters.at(hive::obs::metric::kVirtualUs) / 1e3 / completed);
  PrintResult(meta, o, EndToEndMetrics(), metrics);
  return 0;
}

int RunTraced(const Args& args) {
  Metadata meta;
  CommonMetadata(args, &meta);
  const double half = args.seconds / 2;
  // Untraced baseline of the same seeded stream, for trace.overhead_frac.
  Outcomes outcomes;
  double untraced_execute_ns_per_stmt = 0;
  {
    hive::Result<std::unique_ptr<Instance>> plain = SetUp(args.workload, args.seed, false);
    if (!plain.ok() ||
        !(*plain)->workload->CaptureReferences((*plain)->server.get()).ok()) {
      std::fprintf(stderr, "perfbench: set-up failed\n");
      return 1;
    }
    PhaseResult base = RunPhase(plain->get(), half, nullptr);
    outcomes.Merge(base.outcomes);
    untraced_execute_ns_per_stmt =
        static_cast<double>(base.execute_ns) / std::max<int64_t>(base.outcomes.attempted, 1);
  }

  // Declared before the instance: engine threads may still hold a span
  // open on it while the instance shuts down.
  Tracer tracer;
  hive::Result<std::unique_ptr<Instance>> made = SetUp(args.workload, args.seed, true);
  if (!made.ok() || !(*made)->workload->CaptureReferences((*made)->server.get()).ok()) {
    std::fprintf(stderr, "perfbench: traced set-up failed\n");
    return 1;
  }
  Instance* instance = made->get();
  const CountingFileSystem::Totals fs_before = instance->counting->Snapshot();
  instance->counting->set_tracer(&tracer);
  PhaseResult phase = RunPhase(instance, half, &tracer);
  instance->counting->set_tracer(nullptr);
  const CountingFileSystem::Totals fs_after = instance->counting->Snapshot();
  FinalCheck(instance, &phase.outcomes);
  outcomes.Merge(phase.outcomes);

  const std::vector<SpanRecord> spans = tracer.Spans();
  MetricValues metrics = TracedMetrics(phase, spans, fs_before, fs_after,
                                       untraced_execute_ns_per_stmt,
                                       instance->SessionConfig().num_executors);
  for (const auto& [name, value] : MeasureLayers(instance, std::max(2.0, half / 2)))
    metrics[name] = value;

  instance->workload->Describe(&meta);
  meta["traced_stmts"] = std::to_string(phase.outcomes.attempted);
  meta["replayed_stmts"] = std::to_string(phase.replayed);
  meta["spans"] = std::to_string(spans.size());
  if (!args.trace_out.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(args.trace_out).parent_path(), ec);
    if (tracer.WriteJson(args.trace_out)) meta["trace_file"] = args.trace_out;
  }
  PrintResult(meta, outcomes, PerLayerMetrics(), metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <tpcds_warm|ssb_over_memory|bi_sessions|acid_etl> "
                 "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  return args.trace ? perfbench::RunTraced(args) : perfbench::RunTimed(args);
}
