#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <map>
#include <string>
#include <vector>

#include "src/counting_fs.h"
#include "src/harness.h"
#include "src/stats.h"
#include "src/trace.h"
#include "src/workload.h"

namespace perfbench {

/// A reported metric: its name and unit, as listed in BENCHMARK.json.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Metrics a user of the engine sees; reported by `--trace 0`.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Metrics of single layers; reported by `--trace 1`.
const std::vector<MetricSpec>& PerLayerMetrics();

using MetricValues = std::map<std::string, double>;

/// Formats a number with all its significant digits (non-finite as 0).
std::string Num(double value);

/// Per-layer metrics derived from the traced phase: span totals, engine
/// counter deltas and the counting file system's deltas.
/// `untraced_execute_ns_per_stmt` is the mean Connection::Execute time of
/// the untraced half, the base of trace.overhead_frac.
MetricValues TracedMetrics(const PhaseResult& phase, const std::vector<SpanRecord>& spans,
                           const CountingFileSystem::Totals& fs_before,
                           const CountingFileSystem::Totals& fs_after,
                           double untraced_execute_ns_per_stmt, int executors);

/// Prints the metadata line and then the result line
/// {"correct","attempted","failed","metrics"} with every metric of `specs`
/// (a metric the run could not measure is reported as 0).
void PrintResult(const Metadata& meta, const Outcomes& outcomes,
                 const std::vector<MetricSpec>& specs, const MetricValues& values);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
