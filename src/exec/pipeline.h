#ifndef HIVE_EXEC_PIPELINE_H_
#define HIVE_EXEC_PIPELINE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "exec/operators.h"

namespace hive {

/// The one execution path for scans, filters, projections and hash-join
/// probes: morsel-driven pipelines (Leis et al., SIGMOD 2014). A pipeline
/// has three parts:
///  - a source: either a native table scan, whose (location, file, row
///    group) morsels up to ExecContext::MaxWorkers() workers claim from an
///    atomic counter, or any other operator (spool, external scan, join,
///    union, ...), which one worker reads batch by batch;
///  - the filter/project stages stacked on it, bottom-up;
///  - an optional final probe of every surviving batch against a built
///    HashJoinCore.
///
/// One worker-loop body (claim a unit, read it — with task retries and
/// straggler speculation for morsels — then apply the stages) serves both a
/// pushed Run(workers, sink) and the pulled Next, so serial execution is
/// simply one worker: a one-worker pipeline streams batch by batch, a wider
/// one runs to completion and gathers its output in unit order. Either way
/// the output is byte-identical at any worker count.
///
/// A pipeline runs once, pushed or pulled. Accounting is per run: modeled
/// scan + probe CPU is charged once, for the slowest worker (with one
/// worker, every row); per-digest runtime stats and EXPLAIN ANALYZE stage
/// nodes report totals summed over workers.
class Pipeline {
 public:
  /// Receives (worker, unit, batch) during Run. `unit` orders the batch
  /// within the source: the morsel index of a scan, the batch ordinal of an
  /// operator source. Called concurrently with distinct worker ids.
  using Sink = std::function<Status(int, size_t, RowBatch&&)>;

  /// Native-scan source. A non-empty `digest` records the scan's produced
  /// row count in the runtime stats.
  Pipeline(ExecContext* ctx, const RelNode& scan, std::string digest);
  /// Operator source, read by one worker.
  Pipeline(ExecContext* ctx, OperatorPtr source);
  ~Pipeline();

  /// Stacks a filter stage; a non-empty `digest` records its row count.
  void AddFilter(ExprPtr predicate, std::string digest);
  void AddProject(std::vector<ExprPtr> exprs, Schema schema);
  /// Hands the pipeline the EXPLAIN ANALYZE node of its current top stage
  /// (the scan when there is no stage yet): the pipeline fills in that
  /// node's rows, batches and its share of the pipeline's time.
  void AdoptProfileNode(obs::OperatorProfileNode* node);
  /// Final stage: joins every surviving batch against `core`, which must be
  /// built before the first Run/Next.
  void SetProbe(HashJoinCore* core) { probe_ = core; }

  /// Output schema of the last filter/project stage (the probe's input).
  const Schema& schema() const;

  /// Opens the source (a scan resolves semijoin reducers and enumerates its
  /// morsels here).
  Status Open();
  /// The worker count: min(ExecContext::MaxWorkers(), morsels) for a scan
  /// source, 1 for an operator source.
  int DecideWorkers() const;
  /// Drives the pipeline to completion on `workers` workers, handing every
  /// surviving batch to `sink`. Worker 0 runs on the calling thread.
  Status Run(int workers, const Sink& sink);
  /// Pulls the next output batch (probe output when a probe is set). One
  /// worker streams; more run to completion first, then emit in unit order.
  Result<RowBatch> Next(bool* done);
  Status Close();

 private:
  struct Stage {
    bool is_filter = false;
    ExprPtr predicate;
    std::vector<ExprPtr> exprs;
    Schema schema;
    std::string digest;
    obs::OperatorProfileNode* node = nullptr;
  };
  /// What one step of the pipeline did on one worker: step 0 is the source,
  /// 1..stages the filter/project stages, and the last one the consumer
  /// (probe or sink). Times are inclusive of nothing but the step itself.
  struct StepTally {
    int64_t rows = 0;
    int64_t batches = 0;
    uint64_t bytes = 0;
    uint64_t max_batch_bytes = 0;
    int64_t wall_us = 0;
    int64_t virtual_us = 0;
  };
  struct Worker {
    std::vector<StepTally> steps;
    int64_t cpu_ns = 0;  // modeled scan + probe CPU this worker spent
  };
  class ObservedCall;

  /// The worker-loop body: claims the next unit and pushes it through the
  /// stages (and the probe). Sets *exhausted when the source has no more
  /// units, and *produced when *batch holds output for unit *unit (not when
  /// the sarg skipped the unit or a filter or the probe emptied it).
  Status Step(Worker* w, bool* exhausted, size_t* unit, RowBatch* batch,
              bool* produced);
  /// Reads morsel `m` with task retries, then speculation against stragglers.
  Result<RowBatch> ReadMorsel(Worker* w, size_t m, bool* skipped);
  /// Straggler mitigation (Tez speculative execution): a morsel task slower
  /// than speculation.slowdown.factor x the median completed task gets a
  /// duplicate attempt; the cheaper attempt's batch is kept (ties keep the
  /// original, deterministically) and the loser's injected latency is
  /// refunded from the virtual clock.
  Result<RowBatch> MaybeSpeculate(size_t morsel, RowBatch&& original,
                                  int64_t cpu_us, int64_t injected_us,
                                  int64_t* kept_cost_us);
  /// Records a completed task cost; returns the straggler threshold (0 while
  /// fewer than 3 tasks have completed: no baseline yet).
  int64_t RecordCostAndThreshold(int64_t cost_us);
  /// Starts the pipeline's one run, on `workers` workers.
  void BeginRun(int workers);
  /// Folds the worker tallies into the totals and records the runtime
  /// stats, once per pipeline.
  void FinishRun();
  /// Run without the observed-time bracket (Next's gather calls it).
  Status RunWorkers(int workers, const Sink& sink);
  /// Charges the slowest worker's modeled CPU not yet charged.
  void ChargeCpu();
  int64_t VirtualNow() const;
  /// Writes adopted stage nodes' rows and time shares (at Close).
  void FillProfile();

  ExecContext* ctx_;
  std::unique_ptr<TableScan> scan_;  // scan source, or
  OperatorPtr source_;               // operator source
  std::string scan_digest_;
  obs::OperatorProfileNode* scan_node_ = nullptr;
  std::vector<Stage> stages_;
  HashJoinCore* probe_ = nullptr;

  int workers_ = 0;  // 0 until the first Run/Next decides
  std::vector<Worker> worker_state_;
  std::vector<StepTally> totals_;
  int64_t charged_cpu_us_ = 0;
  bool finished_ = false;
  std::atomic<size_t> next_unit_{0};
  std::atomic<bool> failed_{false};
  /// Observed wall/virtual time of this pipeline's own calls; FillProfile
  /// spreads it over the stage nodes in proportion to their step times.
  int64_t observed_wall_us_ = 0;
  int64_t observed_virtual_us_ = 0;

  /// Gathered output of a multi-worker Next: one slot per unit.
  std::vector<RowBatch> slots_;
  std::vector<uint8_t> present_;
  size_t emit_ = 0;

  /// Completed morsel task costs (us of modeled CPU + injected latency), the
  /// baseline the straggler detector takes its median from.
  Mutex cost_mu_{"exec.morsel.cost.mu"};
  std::vector<int64_t> completed_costs_ HIVE_GUARDED_BY(cost_mu_);
  /// Engine-metrics instruments, resolved once (the registry lookup takes a
  /// lock; per-morsel recording is lock-free). Null without a registry.
  obs::Counter* morsels_claimed_ = nullptr;
  obs::Counter* morsels_skipped_ = nullptr;
  obs::Histogram* morsel_cost_us_ = nullptr;
  obs::Histogram* morsel_queue_wait_us_ = nullptr;
  int64_t run_start_wall_us_ = 0;  // start of a pushed run; 0 when pulled
};

/// Operator face of a pipeline whose output no join or aggregate consumes
/// directly (a bare scan, a filter/project chain under a sort, a spool, ...).
/// The compiler detaches the pipeline again when a consumer stacks on it.
class PipelineOperator : public Operator {
 public:
  PipelineOperator(ExecContext* ctx, std::unique_ptr<Pipeline> pipeline)
      : Operator(ctx), pipeline_(std::move(pipeline)) {}

  Status Open() override { return pipeline_->Open(); }
  Result<RowBatch> Next(bool* done) override { return pipeline_->Next(done); }
  Status Close() override { return pipeline_->Close(); }
  const Schema& schema() const override { return pipeline_->schema(); }

  std::unique_ptr<Pipeline> Release() { return std::move(pipeline_); }

 private:
  std::unique_ptr<Pipeline> pipeline_;
};

}  // namespace hive

#endif  // HIVE_EXEC_PIPELINE_H_
