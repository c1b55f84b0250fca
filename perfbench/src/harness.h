#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fs/mem_filesystem.h"
#include "server/hive_server.h"
#include "src/counting_fs.h"
#include "src/stats.h"
#include "src/trace.h"
#include "src/workload.h"

namespace perfbench {

/// Process CPU time (user + sys, all threads), nanoseconds.
int64_t ProcessCpuNs();
/// Peak resident set size of the process, MiB.
double PeakRssMb();

/// One set-up server with its workload and client connections. Members are
/// declared in dependency order, so destruction closes the clients first
/// and the file systems last.
struct Instance {
  std::unique_ptr<hive::MemFileSystem> mem;
  /// Present only in the traced run; the server then runs on it.
  std::unique_ptr<CountingFileSystem> counting;
  std::unique_ptr<hive::HiveServer2> server;
  std::unique_ptr<Workload> workload;
  std::vector<hive::Connection> clients;
  double load_s = 0;
  double warm_s = 0;

  hive::FileSystem* fs() {
    return counting ? static_cast<hive::FileSystem*>(counting.get()) : mem.get();
  }
  /// The configuration the clients' statements run under.
  hive::Config SessionConfig() const;
};

/// Builds a fresh server for `workload`, loads it and warms it, timing load
/// and warm-up. With `counting` the server runs on a CountingFileSystem
/// (set-up I/O is counted; spans start once a tracer is attached).
hive::Result<std::unique_ptr<Instance>> SetUp(const std::string& workload,
                                              uint64_t seed, bool counting);

/// What one timed phase measured.
struct PhaseResult {
  Outcomes outcomes;
  // Latencies of successful statements, per client in completion order.
  std::vector<std::vector<double>> read_ms, write_ms;
  // Warehouse bytes / live user bytes, sampled every 200 statements of
  // client 0 (untraced phases only).
  std::vector<double> space_amp;
  int64_t repeated = 0;                   // statements whose text was sent before
  double wall_s = 0;
  double cpu_s = 0;
  // Engine counters over the phase: value after minus value before.
  std::map<std::string, int64_t> counters;
  // Traced phase only.
  int64_t replayed = 0;
  int64_t overhead_stmts = 0;
  int64_t overhead_ns = 0;  // sum of (execute - replayed phases)
  int64_t execute_ns = 0;   // sum of server.execute over all statements
  int64_t run_wall_ns = 0;
  int64_t run_cpu_ns = 0;
  uint64_t user_bytes_written = 0;

  /// Adds `other`, a later phase, to this one: its latency streams as
  /// streams of their own, its samples, sums and counter deltas.
  void Append(const PhaseResult& other);
};

/// All of `streams` in one vector.
std::vector<double> Pooled(const std::vector<std::vector<double>>& streams);

/// Engine counters the run reads before and after a phase.
const std::vector<std::string>& TrackedCounters();

/// Runs every client in a closed loop until `seconds` have passed (and the
/// workload is at a boundary), checking each answer. With `statements` > 0
/// each client instead runs exactly that many statements, however long they
/// take, and `seconds` is not used. With `tracer`, each
/// statement gets a `stmt` root span with `server.execute` under it, and
/// each read is replayed phase by phase (sql.parse, optimizer.bind,
/// optimizer.optimize, exec.compile, exec.run) and compared with the
/// executed rows.
PhaseResult RunPhase(Instance* instance, double seconds, Tracer* tracer,
                     int64_t statements = 0);

/// Sum of file sizes under the catalog's warehouse root.
uint64_t WarehouseBytes(hive::HiveServer2* server);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
