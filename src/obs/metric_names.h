#ifndef HIVE_OBS_METRIC_NAMES_H_
#define HIVE_OBS_METRIC_NAMES_H_

// Central registry of every metric name in the system. Call sites reference
// these constants instead of spelling the string — a typo'd name becomes a
// compile error instead of a counter that silently reads zero forever, and
// tools/hivelint's drift pass enforces both directions: a string literal at
// a counter()/gauge()/histogram()/RegisterCallback() call site is
// [metric-literal], a constant here that no src/ file references is
// [metric-dead], and two constants with the same string are
// [metric-duplicate].
//
// Naming scheme: dotted paths, subsystem first (exec.*, llap.*, server.*,
// wlm.*, cache.result.*, time.*), _us suffix for microsecond quantities.

namespace hive {
namespace obs {
namespace metric {

// --- per-query profile counters (QueryProfile) ----------------------------
inline constexpr char kWallUs[] = "time.wall_us";
inline constexpr char kVirtualUs[] = "time.virtual_us";
inline constexpr char kRowsReturned[] = "exec.rows_returned";
inline constexpr char kFromResultCache[] = "cache.result.hit";
inline constexpr char kReexecutions[] = "query.reexecutions";
inline constexpr char kMvRewrites[] = "query.mv_rewrites";
inline constexpr char kTaskAttempts[] = "task.attempts";
inline constexpr char kTaskRetries[] = "task.retries";
inline constexpr char kSpeculativeTasks[] = "task.speculative";
inline constexpr char kSpeculativeWins[] = "task.speculative_wins";
inline constexpr char kLlapCacheHits[] = "llap.cache.hits";
inline constexpr char kLlapCacheMisses[] = "llap.cache.misses";

// --- execution engine -----------------------------------------------------
inline constexpr char kJoinBuildRows[] = "exec.join.build_rows";
inline constexpr char kJoinPerfectHash[] = "exec.join.perfect_hash";
inline constexpr char kJoinProbeHits[] = "exec.join.probe.hits";
inline constexpr char kJoinProbeMisses[] = "exec.join.probe.misses";
inline constexpr char kMorselsClaimed[] = "exec.morsels.claimed";
inline constexpr char kMorselsSkipped[] = "exec.morsels.skipped";
inline constexpr char kMorselCostUs[] = "exec.morsel.cost_us";
inline constexpr char kMorselQueueWaitUs[] = "exec.morsel.queue_wait_us";
inline constexpr char kSpillBytes[] = "exec.spill.bytes";
inline constexpr char kSpillPartitions[] = "exec.spill.partitions";
inline constexpr char kSpillMergePasses[] = "exec.spill.merge_passes";
inline constexpr char kSpillDeniedReservations[] = "exec.spill.denied_reservations";
/// Rows evaluated through vector_eval's boxed row-wise fallback (CASE, LIKE,
/// CAST, ...): per query in the profile, engine-wide in SHOW METRICS.
inline constexpr char kEvalRowwiseRows[] = "exec.eval.rowwise_rows";

// --- LLAP daemon ----------------------------------------------------------
inline constexpr char kLlapCacheEvictions[] = "llap.cache.evictions";
inline constexpr char kLlapCacheUsedBytes[] = "llap.cache.used_bytes";
inline constexpr char kLlapCacheChunks[] = "llap.cache.chunks";
inline constexpr char kLlapCacheDecodes[] = "llap.cache.decodes";
inline constexpr char kLlapCacheSingleflightWaits[] = "llap.cache.singleflight_waits";
inline constexpr char kLlapCacheMetadataHits[] = "llap.cache.metadata_hits";
inline constexpr char kLlapCachePoisonDetected[] = "llap.cache.poison_detected";
inline constexpr char kLlapCacheDegradedReads[] = "llap.cache.degraded_reads";
inline constexpr char kLlapCacheDegradedFiles[] = "llap.cache.degraded_files";
inline constexpr char kLlapFragmentsSubmitted[] = "llap.fragments.submitted";
inline constexpr char kLlapFragmentsCompleted[] = "llap.fragments.completed";
inline constexpr char kLlapIoPrefetches[] = "llap.io.prefetches";

// --- server ---------------------------------------------------------------
inline constexpr char kServerStatements[] = "server.statements";
inline constexpr char kServerQueries[] = "server.queries";
inline constexpr char kServerQueryErrors[] = "server.query_errors";
inline constexpr char kServerQueryWallUs[] = "server.query.wall_us";
inline constexpr char kSessionsOpened[] = "server.sessions.opened";
inline constexpr char kSessionsClosed[] = "server.sessions.closed";
inline constexpr char kSessionsActive[] = "server.sessions.active";
inline constexpr char kPlanCacheHits[] = "server.plan_cache.hits";
inline constexpr char kPlanCacheMisses[] = "server.plan_cache.misses";
inline constexpr char kPlanCacheInvalidations[] = "server.plan_cache.invalidations";
inline constexpr char kPlanCacheEntries[] = "server.plan_cache.entries";
inline constexpr char kResultCacheHits[] = "cache.result.hits";
inline constexpr char kResultCacheMisses[] = "cache.result.misses";
inline constexpr char kResultCacheEntries[] = "cache.result.entries";
inline constexpr char kTxnAborted[] = "txn.aborted";
inline constexpr char kCompactionRuns[] = "compaction.runs";
inline constexpr char kCompactionPendingCleans[] = "compaction.pending_cleans";

// --- workload management --------------------------------------------------
inline constexpr char kWlmQueued[] = "wlm.queue.queued";
inline constexpr char kWlmAdmitted[] = "wlm.queue.admitted";
inline constexpr char kWlmTimeouts[] = "wlm.queue.timeouts";
inline constexpr char kWlmRejected[] = "wlm.queue.rejected";
inline constexpr char kWlmWaitUs[] = "wlm.queue.wait_us";
inline constexpr char kWlmQueueDepth[] = "wlm.queue.depth";

}  // namespace metric

/// Historical alias: the per-query counter block predates the central
/// registry and was spelled qc::. Both names refer to the same constants.
namespace qc = metric;

}  // namespace obs
}  // namespace hive

#endif  // HIVE_OBS_METRIC_NAMES_H_
