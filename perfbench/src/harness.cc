#include "src/harness.h"

#include <sys/resource.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "exec/compiler.h"
#include "metastore/compaction_manager.h"
#include "obs/metric_names.h"
#include "optimizer/binder.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"

namespace perfbench {

using hive::Config;
using hive::Connection;
using hive::HiveServer2;
using hive::QueryResult;
using hive::Result;
using hive::Status;

int64_t ProcessCpuNs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1000000000 +
           static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Config Instance::SessionConfig() const {
  Config config = server->default_config();
  workload->SessionOverrides(&config);
  return config;
}

Result<std::unique_ptr<Instance>> SetUp(const std::string& name, uint64_t seed,
                                        bool counting) {
  auto instance = std::make_unique<Instance>();
  instance->workload = MakeWorkload(name, seed);
  if (!instance->workload) return Status::InvalidArgument("unknown workload " + name);
  instance->mem = std::make_unique<hive::MemFileSystem>();
  if (counting)
    instance->counting = std::make_unique<CountingFileSystem>(instance->mem.get());
  Workload* workload = instance->workload.get();

  const int64_t load_start = NowNs();
  instance->server =
      std::make_unique<HiveServer2>(instance->fs(), workload->ServerConfig());
  HIVE_RETURN_IF_ERROR(workload->Load(instance->server.get()));
  for (const std::string& app : workload->ClientApps()) {
    Connection conn = instance->server->Connect(app);
    workload->SessionOverrides(&conn.config());
    HIVE_RETURN_IF_ERROR(workload->PrepareClient(&conn));
    instance->clients.push_back(std::move(conn));
  }
  const int64_t warm_start = NowNs();
  HIVE_RETURN_IF_ERROR(workload->Warm(&instance->clients));
  const int64_t warm_end = NowNs();
  instance->load_s = (warm_start - load_start) / 1e9;
  instance->warm_s = (warm_end - warm_start) / 1e9;
  return instance;
}

const std::vector<std::string>& TrackedCounters() {
  namespace m = hive::obs::metric;
  namespace qc = hive::obs::qc;
  static const std::vector<std::string> names = {
      m::kPlanCacheHits,
      m::kPlanCacheMisses,
      m::kResultCacheHits,
      m::kResultCacheMisses,
      m::kWlmAdmitted,
      m::kWlmQueued,
      std::string(m::kWlmWaitUs) + ".sum",
      m::kLlapCacheHits,
      m::kLlapCacheMisses,
      m::kLlapCacheEvictions,
      m::kLlapCacheSingleflightWaits,
      qc::kMorselsClaimed,
      qc::kMorselsSkipped,
      std::string(qc::kMorselQueueWaitUs) + ".sum",
      std::string(qc::kMorselQueueWaitUs) + ".count",
      qc::kTaskRetries,
      qc::kSpillBytes,
      qc::kSpillDeniedReservations,
      m::kCompactionRuns,
      m::kTxnAborted,
      m::kVirtualUs,
  };
  return names;
}

namespace {

std::map<std::string, int64_t> ReadCounters(HiveServer2* server) {
  std::map<std::string, int64_t> values;
  for (const std::string& name : TrackedCounters())
    values[name] = server->metrics()->Value(name);
  return values;
}

/// The replay's view of one statement: its rows, and the exec.run wall
/// and process-CPU time.
struct Replayed {
  Rows rows;
  int64_t phases_ns = 0;
  int64_t run_wall_ns = 0;
  int64_t run_cpu_ns = 0;
};

/// Re-runs one SELECT through the engine's public per-layer entry points
/// (Parser::Parse, Binder::BindSelect, Optimizer::Optimize, CompilePlan,
/// then a drain of the operator tree on an LLAP executor), each phase in
/// its own span. The ExecContext is built here the way the server builds
/// its own: the server's catalog, snapshot, LLAP cache, executors and
/// memory governor.
Result<Replayed> Replay(HiveServer2* server, const Config& config,
                        const std::string& sql, Tracer* tracer) {
  static std::atomic<uint64_t> next_query{0};
  Replayed out;
  hive::StatementPtr parsed;
  {
    Tracer::Scope span(tracer, "sql.parse");
    HIVE_ASSIGN_OR_RETURN(parsed, hive::Parser::Parse(sql));
    out.phases_ns += span.End();
  }
  if (parsed->kind() != hive::StatementKind::kSelect)
    return Status::InvalidArgument("replay needs a SELECT: " + sql);
  const hive::SelectStmt& select =
      static_cast<const hive::SelectStatement*>(parsed.get())->select;
  hive::RelNodePtr plan;
  {
    Tracer::Scope span(tracer, "optimizer.bind");
    hive::Binder binder(server->catalog(), &config, "default");
    HIVE_ASSIGN_OR_RETURN(plan, binder.BindSelect(select));
    out.phases_ns += span.End();
  }
  {
    Tracer::Scope span(tracer, "optimizer.optimize");
    hive::Optimizer optimizer(server->catalog(), &config);
    HIVE_ASSIGN_OR_RETURN(plan, optimizer.Optimize(plan));
    out.phases_ns += span.End();
  }

  hive::CompactionManager::ReadScope read_scope(server->compaction());
  const hive::TxnSnapshot snapshot = server->txns()->GetSnapshot();
  hive::TransactionManager* txns = server->txns();
  hive::LlapDaemon* llap = server->llap();
  hive::ExecContext ctx;
  ctx.fs = server->filesystem();
  ctx.catalog = server->catalog();
  ctx.config = &config;
  ctx.clock = server->clock();
  ctx.mode = hive::RuntimeMode::kLlap;
  ctx.chunks = llap->cache();
  ctx.snapshot_for = [txns, snapshot](const std::string& table) {
    return txns->GetValidWriteIds(table, snapshot);
  };
  ctx.metrics = server->metrics();
  ctx.max_parallel_workers = config.num_executors;
  ctx.submit_worker = [llap](std::function<Status()> fn) {
    return llap->SubmitWorkFragment(std::move(fn));
  };
  ctx.prefetch_chunk = [llap](std::shared_ptr<hive::CofReader> reader, size_t row_group,
                              size_t column) {
    llap->PrefetchChunk(std::move(reader), row_group, column);
  };
  hive::QueryMemory query_memory(server->memory_governor(),
                                 config.query_memory_limit_bytes);
  ctx.query_memory = &query_memory;
  const std::string spill_dir =
      "/perfbench/replay/q" + std::to_string(next_query.fetch_add(1));
  ctx.spill_dir = spill_dir;

  hive::OperatorPtr root;
  {
    Tracer::Scope span(tracer, "exec.compile");
    HIVE_ASSIGN_OR_RETURN(root, hive::CompilePlan(&ctx, plan));
    out.phases_ns += span.End();
  }
  Status run_status;
  {
    Tracer::Scope span(tracer, "exec.run");
    const int64_t cpu_start = ProcessCpuNs();
    auto drain = [&]() -> Status {
      HIVE_RETURN_IF_ERROR(root->Open());
      bool done = false;
      for (;;) {
        auto batch = root->Next(&done);
        if (!batch.ok()) return batch.status();
        if (done) break;
        for (size_t i = 0; i < batch->SelectedSize(); ++i)
          out.rows.push_back(batch->GetRow(i));
      }
      return root->Close();
    };
    run_status = llap->SubmitFragment(drain).get();
    out.run_cpu_ns = ProcessCpuNs() - cpu_start;
    out.run_wall_ns = span.End();
    out.phases_ns += out.run_wall_ns;
  }
  // lint: allow-discard(best-effort cleanup of this replay's spill namespace)
  (void)server->filesystem()->DeleteRecursive(spill_dir);
  HIVE_RETURN_IF_ERROR(run_status);
  return out;
}

constexpr int64_t kSpaceSampleEvery = 200;

/// Per-client tallies, merged into the phase result when the client ends.
struct ClientTally {
  Outcomes outcomes;
  std::vector<double> read_ms, write_ms;
  std::vector<double> space_amp;
  int64_t repeated = 0;
  int64_t replayed = 0;
  int64_t overhead_stmts = 0;
  int64_t overhead_ns = 0;
  int64_t execute_ns = 0;
  int64_t run_wall_ns = 0;
  int64_t run_cpu_ns = 0;
};

}  // namespace

PhaseResult RunPhase(Instance* instance, double seconds, Tracer* tracer,
                     int64_t statements) {
  HiveServer2* server = instance->server.get();
  Workload* workload = instance->workload.get();
  const Config replay_config = instance->SessionConfig();
  const uint64_t user_bytes_before = workload->UserBytesWritten();
  std::mutex mu;
  std::unordered_set<std::string> seen;
  std::atomic<uint64_t> next_stmt{1};
  std::atomic<int> error_reports{0};
  PhaseResult result;

  auto client_loop = [&](int client, ClientTally* tally) {
    Connection& conn = instance->clients[client];
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    for (int64_t n = 0;; ++n) {
      if (client == 0 && !tracer && n % kSpaceSampleEvery == 0)
        tally->space_amp.push_back(static_cast<double>(WarehouseBytes(server)) /
                                   std::max<uint64_t>(workload->LiveUserBytes(), 1));
      if (statements > 0 ? n == statements
                         : NowNs() >= deadline && workload->AtBoundary(client))
        break;
      Stmt stmt = workload->Next(client);
      {
        std::lock_guard<std::mutex> lock(mu);
        if (!seen.insert(stmt.sql).second) ++tally->repeated;
      }
      Tracer::Scope root(tracer, "stmt", next_stmt.fetch_add(1));
      Result<QueryResult> answer = Status::OK();
      const int64_t start = NowNs();
      {
        Tracer::Scope span(tracer, "server.execute");
        answer = conn.Execute(stmt.sql);
      }
      const int64_t execute_ns = NowNs() - start;
      tally->execute_ns += execute_ns;
      Outcome outcome = Outcome::kOk;
      std::string why;
      if (!answer.ok()) {
        outcome = ClassifyFailure(answer.status());
        why = answer.status().ToString();
      } else {
        if (stmt.on_ok) stmt.on_ok();
        if (stmt.check && !stmt.check(*answer)) {
          outcome = Outcome::kWrongResult;
          why = "wrong result";
        }
      }
      if (outcome == Outcome::kOk && tracer && !stmt.replay_sql.empty()) {
        Result<Replayed> replayed = Replay(server, replay_config, stmt.replay_sql, tracer);
        if (!replayed.ok()) {
          outcome = Outcome::kError;
          why = "replay: " + replayed.status().ToString();
        } else if (!RowsMatch(answer->rows, replayed->rows)) {
          outcome = Outcome::kWrongResult;
          why = "replay rows differ from executed rows";
        } else {
          ++tally->replayed;
          tally->run_wall_ns += replayed->run_wall_ns;
          tally->run_cpu_ns += replayed->run_cpu_ns;
          if (answer->profile().counter(hive::obs::qc::kFromResultCache) == 0) {
            ++tally->overhead_stmts;
            tally->overhead_ns += execute_ns - replayed->phases_ns;
          }
        }
      }
      tally->outcomes.Record(outcome);
      if (outcome == Outcome::kOk) {
        (stmt.read ? tally->read_ms : tally->write_ms).push_back(execute_ns / 1e6);
      } else if (error_reports.fetch_add(1) < 5) {
        std::fprintf(stderr, "perfbench: statement failed (%s): %s\n", why.c_str(),
                     stmt.sql.substr(0, 200).c_str());
      }
    }
  };

  const size_t clients = instance->clients.size();
  std::vector<ClientTally> tallies(clients);
  const std::map<std::string, int64_t> before = ReadCounters(server);
  const int64_t cpu_start = ProcessCpuNs();
  const int64_t wall_start = NowNs();
  if (clients == 1) {
    client_loop(0, &tallies[0]);
  } else {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c)
      threads.emplace_back(client_loop, static_cast<int>(c), &tallies[c]);
    for (std::thread& t : threads) t.join();
  }
  result.wall_s = (NowNs() - wall_start) / 1e9;
  result.cpu_s = (ProcessCpuNs() - cpu_start) / 1e9;
  const std::map<std::string, int64_t> after = ReadCounters(server);
  for (const auto& [name, value] : after) result.counters[name] = value - before.at(name);
  result.user_bytes_written = workload->UserBytesWritten() - user_bytes_before;

  for (const ClientTally& t : tallies) {
    result.outcomes.Merge(t.outcomes);
    result.read_ms.push_back(t.read_ms);
    result.write_ms.push_back(t.write_ms);
    result.space_amp.insert(result.space_amp.end(), t.space_amp.begin(), t.space_amp.end());
    result.repeated += t.repeated;
    result.replayed += t.replayed;
    result.overhead_stmts += t.overhead_stmts;
    result.overhead_ns += t.overhead_ns;
    result.execute_ns += t.execute_ns;
    result.run_wall_ns += t.run_wall_ns;
    result.run_cpu_ns += t.run_cpu_ns;
  }
  return result;
}

void PhaseResult::Append(const PhaseResult& other) {
  outcomes.Merge(other.outcomes);
  read_ms.insert(read_ms.end(), other.read_ms.begin(), other.read_ms.end());
  write_ms.insert(write_ms.end(), other.write_ms.begin(), other.write_ms.end());
  space_amp.insert(space_amp.end(), other.space_amp.begin(), other.space_amp.end());
  repeated += other.repeated;
  wall_s += other.wall_s;
  cpu_s += other.cpu_s;
  for (const auto& [name, value] : other.counters) counters[name] += value;
  replayed += other.replayed;
  overhead_stmts += other.overhead_stmts;
  overhead_ns += other.overhead_ns;
  execute_ns += other.execute_ns;
  run_wall_ns += other.run_wall_ns;
  run_cpu_ns += other.run_cpu_ns;
  user_bytes_written += other.user_bytes_written;
}

std::vector<double> Pooled(const std::vector<std::vector<double>>& streams) {
  std::vector<double> all;
  for (const std::vector<double>& s : streams) all.insert(all.end(), s.begin(), s.end());
  return all;
}

uint64_t WarehouseBytes(HiveServer2* server) {
  hive::FileSystem* fs = server->filesystem();
  uint64_t bytes = 0;
  std::vector<std::string> dirs = {server->catalog()->warehouse_root()};
  while (!dirs.empty()) {
    const std::string dir = dirs.back();
    dirs.pop_back();
    Result<std::vector<hive::FileInfo>> entries = fs->ListDir(dir);
    if (!entries.ok()) continue;
    for (const hive::FileInfo& entry : *entries) {
      if (entry.is_dir) {
        dirs.push_back(entry.path);
      } else {
        bytes += entry.size;
      }
    }
  }
  return bytes;
}

}  // namespace perfbench
