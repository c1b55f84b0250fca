#ifndef HIVE_COMMON_CONFIG_H_
#define HIVE_COMMON_CONFIG_H_

#include <cstdint>
#include <map>
#include <string>

namespace hive {

/// Session/engine configuration. The keys mirror the Hive knobs that the
/// paper's experiments toggle; the defaults correspond to the "Hive 3.1"
/// configuration. The Figure 7 baseline ("Hive 1.2 mode") is produced by
/// flipping the execution/optimizer flags via `SetLegacyV12Mode()`.
class Config {
 public:
  Config() = default;

  // --- execution runtime ---
  /// "tez" (DAG runtime) or "mr" (stage-materializing MapReduce emulation).
  std::string execution_engine = "tez";
  /// LLAP daemons: persistent executors + data cache (Section 5.1).
  bool llap_enabled = true;
  /// Simulated YARN container allocation latency charged per container
  /// launch when LLAP is off (microseconds of virtual time).
  int64_t container_startup_us = 150000;
  /// Extra per-stage materialization cost factor in MR mode: each stage
  /// writes its shuffle output through the file system.
  bool mr_materialize_shuffle = true;
  /// Worker parallelism (stand-in for cluster executors): the most workers
  /// one pipeline or hash build fans out to. 1 is serial execution; MR mode
  /// always runs one worker.
  int num_executors = 4;
  /// Modeled per-row scan CPU cost in nanoseconds of virtual time (~3M
  /// rows/s per executor core at the default). Executors are modeled the
  /// same way container start-up is: a pipeline charges only its slowest
  /// worker — the critical path of a morsel queue drained by num_executors
  /// cores, whether or not the host physically has them (one worker pays
  /// for every row it reads).
  int64_t scan_cpu_ns_per_row = 350;
  /// Perfect-hash join for single dense-integer build-key domains
  /// (date_dim/item-style dimensions): probe = bounds check + array load.
  bool perfect_hash_join_enabled = true;
  /// Modeled per-row join CPU cost (build insert / probe lookup), charged
  /// like scan_cpu_ns_per_row: for the slowest worker.
  int64_t join_cpu_ns_per_row = 200;
  /// Rows per vectorized batch.
  int vector_batch_size = 1024;
  /// Memory guard on hash-join build sides (rows); exceeding it raises an
  /// execution error, the trigger for query re-optimization (Section 4.2).
  int64_t join_build_row_limit = INT64_MAX;

  // --- memory governance & spill ---
  /// "exec.memory.limit.bytes": process-wide byte budget blocking operators
  /// (hash-join build, aggregation state, sort buffers) draw reservations
  /// from. <= 0 disables the process cap.
  int64_t exec_memory_limit_bytes = 0;
  /// "query.memory.limit.bytes": one query's share of the process budget,
  /// checked before the governor. <= 0 means bounded only by the process
  /// cap.
  int64_t query_memory_limit_bytes = 0;
  /// "exec.spill.enabled": a denied reservation makes the operator spill
  /// through hive::fs (grace hash join, external merge sort, agg partition
  /// flush). When false the query instead fails with a budget-exceeded
  /// ResourceExhausted status.
  bool spill_enabled = true;
  /// Root directory for spill files; each query gets a unique subdirectory,
  /// deleted when the query finishes.
  std::string spill_dir = "/tmp/spill";
  /// Hash-prefix fan-out of one spill pass: grace-join partition pairs, agg
  /// flush partitions, and the external-sort merge fan-in.
  int spill_partitions = 8;
  /// Grace-join recursion bound: a build partition still over budget after
  /// this many repartition passes (duplicate-heavy keys cannot split
  /// further) is joined in memory best-effort instead of failing.
  int spill_max_recursion = 4;

  // --- fault tolerance (task retries, speculation, deadlines) ---
  /// "task.max.attempts": attempts for a task whose failure is transient —
  /// a morsel read inside a pipeline, or a whole query fragment
  /// (Tez re-runs failed task attempts the same way). 1 disables retries.
  int task_max_attempts = 3;
  /// Base backoff between attempts, doubling per retry; charged to the
  /// virtual clock so tests stay fast (microseconds of virtual time).
  int64_t task_retry_backoff_us = 2000;
  /// "speculation.enabled": when a morsel task runs slower than
  /// speculation_slowdown_factor x the median completed task, launch a
  /// speculative duplicate attempt and keep the first finisher
  /// (deterministic tie-break: the original wins ties), mirroring Tez
  /// speculative execution for stragglers.
  bool speculation_enabled = true;
  /// "speculation.slowdown.factor": straggler threshold multiplier.
  double speculation_slowdown_factor = 2.0;
  /// "cache.poison.threshold": consecutive chunk-checksum failures on one
  /// file before the LLAP cache degrades that file to direct reads.
  int cache_poison_threshold = 3;
  /// "query.timeout.ms": elapsed (wall + virtual) budget per query; the
  /// deadline is evaluated at morsel/batch boundaries and kills the query
  /// with a ResourceExhausted status naming the trigger. <= 0 disables.
  int64_t query_timeout_ms = 0;

  // --- optimizer ---
  /// Cost-based optimization (join reordering etc., Section 4.1).
  bool cbo_enabled = true;
  /// Shared work optimizer (Section 4.5).
  bool shared_work_enabled = true;
  /// Dynamic semijoin reduction + Bloom pushdown (Section 4.6).
  bool semijoin_reduction_enabled = true;
  /// Dynamic partition pruning (Section 4.6).
  bool dynamic_partition_pruning_enabled = true;
  /// Materialized view based rewriting (Section 4.4).
  bool materialized_view_rewriting_enabled = true;
  /// Query result cache (Section 4.3).
  bool result_cache_enabled = true;
  /// Query reoptimization on execution error (Section 4.2): "off",
  /// "overlay" or "reoptimize".
  std::string reexecution_strategy = "reoptimize";
  /// Max joins considered by exhaustive join reordering before falling back
  /// to a greedy heuristic.
  int join_reorder_max_relations = 7;

  // --- SQL compatibility ---
  /// When true, reject SQL constructs Hive 1.2 lacked (set operations,
  /// correlated scalar subqueries with non-equi conditions, ...). Used to
  /// reproduce the "only 50 of 99 queries run" effect in Figure 7.
  bool legacy_sql_only = false;

  // --- LLAP cache ---
  int64_t llap_cache_capacity_bytes = 256LL << 20;
  double llap_lrfu_lambda = 0.05;
  int llap_io_threads = 2;

  // --- ACID ---
  /// Delta-file count threshold that triggers minor compaction.
  int compaction_delta_threshold = 10;
  /// delta/base size ratio that triggers major compaction.
  double compaction_ratio_threshold = 0.1;

  // --- sessions & admission control ---
  /// "wlm.queue.timeout.ms": how long a query may wait in its resource
  /// pool's admission queue for a concurrency slot before failing with a
  /// ResourceExhausted status naming the pool. <= 0 restores the historic
  /// reject-on-full behavior (no queueing).
  int64_t wlm_queue_timeout_ms = 0;
  /// "server.plan.cache.enabled": reuse compiled plans for EXECUTE of
  /// prepared statements via the server-wide LRU plan cache (keyed on
  /// normalized AST + catalog version).
  bool plan_cache_enabled = true;
  /// "server.plan.cache.capacity": max cached plans before LRU eviction.
  int plan_cache_capacity = 128;

  /// Switches every knob to the Hive v1.2-era configuration used as the
  /// Figure 7 baseline: MapReduce-style runtime, no LLAP, rule-based-only
  /// optimizer, no shared work / semijoin / result cache / MV rewriting,
  /// restricted SQL surface.
  void SetLegacyV12Mode() {
    execution_engine = "mr";
    llap_enabled = false;
    perfect_hash_join_enabled = false;
    cbo_enabled = false;
    shared_work_enabled = false;
    semijoin_reduction_enabled = false;
    dynamic_partition_pruning_enabled = false;
    materialized_view_rewriting_enabled = false;
    result_cache_enabled = false;
    reexecution_strategy = "off";
    legacy_sql_only = true;
  }
};

/// Every Config field with its public dotted name, for code that must treat
/// the knob set uniformly (the session/server layering merge below, SET
/// handling, docs). A new knob only needs to be added here once to
/// participate — and tools/hivelint's drift pass enforces that every Config
/// member IS here ([knob-unregistered]), that every registered knob is read
/// somewhere in src/ ([knob-dead]), and that every public name below has a
/// row in README.md's configuration reference ([knob-undocumented]).
#define HIVE_CONFIG_FIELDS(X)                                               \
  X(execution_engine, "execution.engine")                                   \
  X(llap_enabled, "llap.enabled")                                           \
  X(container_startup_us, "container.startup.us")                           \
  X(mr_materialize_shuffle, "mr.materialize.shuffle")                       \
  X(num_executors, "exec.num.executors")                                    \
  X(scan_cpu_ns_per_row, "exec.scan.cpu.ns.per.row")                        \
  X(perfect_hash_join_enabled, "exec.perfect.hash.join.enabled")            \
  X(join_cpu_ns_per_row, "exec.join.cpu.ns.per.row")                        \
  X(vector_batch_size, "exec.vector.batch.size")                            \
  X(join_build_row_limit, "exec.join.build.row.limit")                      \
  X(exec_memory_limit_bytes, "exec.memory.limit.bytes")                     \
  X(query_memory_limit_bytes, "query.memory.limit.bytes")                   \
  X(spill_enabled, "exec.spill.enabled")                                    \
  X(spill_dir, "exec.spill.dir")                                            \
  X(spill_partitions, "exec.spill.num.partitions")                          \
  X(spill_max_recursion, "exec.spill.max.recursion")                        \
  X(task_max_attempts, "task.max.attempts")                                 \
  X(task_retry_backoff_us, "task.retry.backoff.us")                         \
  X(speculation_enabled, "speculation.enabled")                             \
  X(speculation_slowdown_factor, "speculation.slowdown.factor")             \
  X(cache_poison_threshold, "cache.poison.threshold")                       \
  X(query_timeout_ms, "query.timeout.ms")                                   \
  X(cbo_enabled, "optimizer.cbo.enabled")                                   \
  X(shared_work_enabled, "optimizer.shared.work.enabled")                   \
  X(semijoin_reduction_enabled, "optimizer.semijoin.reduction.enabled")     \
  X(dynamic_partition_pruning_enabled,                                      \
    "optimizer.dynamic.partition.pruning.enabled")                          \
  X(materialized_view_rewriting_enabled, "optimizer.mv.rewriting.enabled")  \
  X(result_cache_enabled, "cache.result.enabled")                           \
  X(reexecution_strategy, "query.reexecution.strategy")                     \
  X(join_reorder_max_relations, "optimizer.join.reorder.max.relations")     \
  X(legacy_sql_only, "sql.legacy.v12.only")                                 \
  X(llap_cache_capacity_bytes, "llap.cache.capacity.bytes")                 \
  X(llap_lrfu_lambda, "llap.cache.lrfu.lambda")                             \
  X(llap_io_threads, "llap.io.threads")                                     \
  X(compaction_delta_threshold, "compaction.delta.threshold")               \
  X(compaction_ratio_threshold, "compaction.ratio.threshold")               \
  X(wlm_queue_timeout_ms, "wlm.queue.timeout.ms")                           \
  X(plan_cache_enabled, "server.plan.cache.enabled")                        \
  X(plan_cache_capacity, "server.plan.cache.capacity")

/// THE config layering rule, defined in exactly one place: a session's
/// effective configuration starts from the server's *current* defaults and
/// applies, per field, only the knobs the session itself changed since it
/// was opened (`session` differs from `open_snapshot`, the server defaults
/// captured at open time). So a server-level default change made after a
/// session opened is visible to that session — unless the session overrode
/// the same knob, in which case the session override wins.
inline Config LayerConfig(const Config& server_now, const Config& open_snapshot,
                          const Config& session) {
  Config effective = server_now;
#define HIVE_CONFIG_LAYER_FIELD(f, pub) \
  if (!(session.f == open_snapshot.f)) effective.f = session.f;
  HIVE_CONFIG_FIELDS(HIVE_CONFIG_LAYER_FIELD)
#undef HIVE_CONFIG_LAYER_FIELD
  return effective;
}

}  // namespace hive

#endif  // HIVE_COMMON_CONFIG_H_
