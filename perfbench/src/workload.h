#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "server/hive_server.h"
#include "src/rows.h"

namespace perfbench {

/// One statement the load generator sends. The engine receives only `sql`.
struct Stmt {
  std::string sql;
  /// The SELECT the traced run replays phase by phase (for an EXECUTE, the
  /// equivalent ad-hoc text); empty for writes.
  std::string replay_sql;
  bool read = false;
  /// Checks the engine's answer; false counts the statement as a wrong
  /// result. Empty means the statement has nothing to compare.
  std::function<bool(const hive::QueryResult&)> check;
  /// Runs once the engine acknowledged the statement (keeps the acid_etl
  /// reference model in step with the table).
  std::function<void()> on_ok;
};

/// Metadata values, printed as one JSON object per run.
using Metadata = std::map<std::string, std::string>;

/// One workload bound to one server. A fresh instance is made for every
/// server the run sets up; all of its inputs derive from the seed.
class Workload {
 public:
  virtual ~Workload() = default;

  /// The engine's default "Hive 3.1" configuration plus this workload's
  /// deployment settings (cache size, memory limits).
  virtual hive::Config ServerConfig() const { return hive::Config(); }
  /// Per-session settings applied to every client connection and to the
  /// traced replay (the result-cache switch).
  virtual void SessionOverrides(hive::Config* /*config*/) const {}
  /// Application name of each client; the size is the client count.
  virtual std::vector<std::string> ClientApps() const { return {"etl"}; }

  /// Creates the schema and data (timed as set-up).
  virtual hive::Status Load(hive::HiveServer2* server) = 0;
  /// Per-client session set-up (PREPARE), timed as set-up.
  virtual hive::Status PrepareClient(hive::Connection* /*conn*/) {
    return hive::Status::OK();
  }
  /// Brings caches to their steady state (timed as set-up).
  virtual hive::Status Warm(std::vector<hive::Connection>* clients) = 0;
  /// Captures the expected results the checks compare against. Not part of
  /// set-up time; must not disturb the caches the run measures.
  virtual hive::Status CaptureReferences(hive::HiveServer2* server) = 0;

  /// Next statement of client `client`. Called only from that client's
  /// thread.
  virtual Stmt Next(int client) = 0;
  /// Whether `client` may stop once the time is up; suite workloads stop
  /// only after a complete pass, so every query weighs the same in a run.
  virtual bool AtBoundary(int /*client*/) const { return true; }
  /// Reads per tail chunk (see ChunkedTail); 0 takes the tail over the
  /// whole run.
  virtual size_t TailChunk() const { return 100; }
  /// Statements per timed round, or 0 to time one closed loop on one server.
  /// A workload whose engine state grows with every statement it runs is
  /// timed in rounds of a fixed size, each on a freshly set-up server, so
  /// the work a measurement covers does not depend on how fast the host ran.
  virtual int64_t RoundStatements() const { return 0; }
  /// Checks the final state after the timed phase; false is one wrong
  /// result.
  virtual bool FinalCheck(hive::Connection* /*conn*/) { return true; }

  /// Bytes of live user rows, as the benchmark counts them (UserBytes).
  virtual uint64_t LiveUserBytes() const = 0;
  /// Bytes of user rows the workload wrote during the timed phase.
  virtual uint64_t UserBytesWritten() const { return 0; }
  /// SELECTs whose plans feed the per-layer operator measurements.
  virtual std::vector<std::string> LayerQueries() const = 0;
  /// Table whose files feed the storage, cache and spill measurements.
  virtual std::string MainTable() const = 0;
  /// Sizes and settings recorded in the run's metadata.
  virtual void Describe(Metadata* meta) const = 0;

  /// Makes one expected row of every reference wrong, so tests can show
  /// that the checks catch a wrong answer.
  virtual void PlantWrongExpectation() = 0;
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();
/// Makes a workload instance; null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
