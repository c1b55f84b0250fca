#include "exec/pipeline.h"

#include <algorithm>
#include <future>

#include "exec/vector_eval.h"
#include "obs/metric_names.h"

namespace hive {

namespace {

/// `observed * part / total`: one stage's share of the pipeline's time.
int64_t Share(int64_t observed, int64_t part, int64_t total) {
  return total > 0 ? static_cast<int64_t>(static_cast<long double>(observed) *
                                          part / total)
                   : 0;
}

}  // namespace

/// Adds the enclosing public call's wall/virtual time to the pipeline's
/// observed total.
class Pipeline::ObservedCall {
 public:
  explicit ObservedCall(Pipeline* p)
      : p_(p), wall0_(SimClock::WallMicros()), virt0_(p->VirtualNow()) {}
  ~ObservedCall() {
    p_->observed_wall_us_ += SimClock::WallMicros() - wall0_;
    p_->observed_virtual_us_ += p_->VirtualNow() - virt0_;
  }
  ObservedCall(const ObservedCall&) = delete;
  ObservedCall& operator=(const ObservedCall&) = delete;

 private:
  Pipeline* p_;
  int64_t wall0_;
  int64_t virt0_;
};

Pipeline::Pipeline(ExecContext* ctx, const RelNode& scan, std::string digest)
    : ctx_(ctx),
      scan_(std::make_unique<TableScan>(ctx, scan)),
      scan_digest_(std::move(digest)) {}

Pipeline::Pipeline(ExecContext* ctx, OperatorPtr source)
    : ctx_(ctx), source_(std::move(source)) {}

Pipeline::~Pipeline() = default;

void Pipeline::AddFilter(ExprPtr predicate, std::string digest) {
  Stage stage;
  stage.is_filter = true;
  stage.predicate = std::move(predicate);
  stage.digest = std::move(digest);
  stages_.push_back(std::move(stage));
}

void Pipeline::AddProject(std::vector<ExprPtr> exprs, Schema schema) {
  Stage stage;
  stage.exprs = std::move(exprs);
  stage.schema = std::move(schema);
  stages_.push_back(std::move(stage));
}

void Pipeline::AdoptProfileNode(obs::OperatorProfileNode* node) {
  if (!stages_.empty())
    stages_.back().node = node;
  else if (scan_)
    scan_node_ = node;
}

const Schema& Pipeline::schema() const {
  for (auto it = stages_.rbegin(); it != stages_.rend(); ++it)
    if (!it->is_filter) return it->schema;
  return scan_ ? scan_->schema() : source_->schema();
}

int64_t Pipeline::VirtualNow() const {
  return ctx_->clock ? ctx_->clock->virtual_us() : 0;
}

Status Pipeline::Open() {
  ObservedCall call(this);
  totals_.assign(stages_.size() + 2, StepTally());
  const int64_t wall0 = SimClock::WallMicros(), virt0 = VirtualNow();
  Status status = scan_ ? scan_->Open() : source_->Open();
  totals_[0].wall_us += SimClock::WallMicros() - wall0;
  totals_[0].virtual_us += VirtualNow() - virt0;
  return status;
}

int Pipeline::DecideWorkers() const {
  if (!scan_) return 1;
  return static_cast<int>(std::clamp<size_t>(
      scan_->num_morsels(), 1, static_cast<size_t>(ctx_->MaxWorkers())));
}

void Pipeline::BeginRun(int workers) {
  // Operator sources are not thread-safe, and without an executor pool the
  // extra workers would have nowhere to run.
  workers_ = scan_ && ctx_->submit_worker ? std::max(1, workers) : 1;
  worker_state_.assign(static_cast<size_t>(workers_), Worker());
  for (Worker& w : worker_state_) w.steps.assign(stages_.size() + 2, StepTally());
  if (!scan_) return;
  if (ctx_->metrics && !morsels_claimed_) {
    morsels_claimed_ = ctx_->metrics->counter(obs::metric::kMorselsClaimed);
    morsels_skipped_ = ctx_->metrics->counter(obs::metric::kMorselsSkipped);
    morsel_cost_us_ = ctx_->metrics->histogram(obs::metric::kMorselCostUs);
    morsel_queue_wait_us_ = ctx_->metrics->histogram(obs::metric::kMorselQueueWaitUs);
  }
  // Warm the first wave through the I/O elevator before workers start.
  for (int i = 0; i < workers_; ++i) scan_->PrefetchMorsel(static_cast<size_t>(i));
}

Status Pipeline::Step(Worker* w, bool* exhausted, size_t* unit, RowBatch* batch,
                      bool* produced) {
  *produced = false;
  // Unit boundaries are the pipeline's interruption points: deadline
  // evaluation + workload-manager kill flag.
  HIVE_RETURN_IF_ERROR(ctx_->CheckInterrupted());
  int64_t wall = SimClock::WallMicros(), virt = VirtualNow();
  // Closes the current step: charges it the time since the previous lap and
  // tallies the batch it passed on (its bytes only for a profiled step).
  auto lap = [&](StepTally* t, const RowBatch* out,
                 const obs::OperatorProfileNode* node = nullptr) {
    const int64_t now = SimClock::WallMicros(), v = VirtualNow();
    t->wall_us += now - wall;
    t->virtual_us += v - virt;
    wall = now;
    virt = v;
    if (!out) return;
    t->rows += static_cast<int64_t>(out->SelectedSize());
    ++t->batches;
    if (node) {
      const uint64_t bytes = out->ByteSize();
      t->bytes += bytes;
      t->max_batch_bytes = std::max(t->max_batch_bytes, bytes);
    }
  };

  if (scan_) {
    const size_t m = next_unit_.fetch_add(1, std::memory_order_relaxed);
    if (m >= scan_->num_morsels()) {
      *exhausted = true;
      return Status::OK();
    }
    if (morsels_claimed_) morsels_claimed_->Inc();
    // I/O elevator read-ahead: decode the morsel one wave ahead while this
    // one is processed (duplicates collapse via cache single-flight).
    scan_->PrefetchMorsel(m + static_cast<size_t>(workers_));
    bool skipped = false;
    HIVE_ASSIGN_OR_RETURN(*batch, ReadMorsel(w, m, &skipped));
    lap(&w->steps[0], skipped ? nullptr : batch, scan_node_);
    if (skipped) return Status::OK();
    *unit = m;
  } else {
    bool done = false;
    HIVE_ASSIGN_OR_RETURN(*batch, source_->Next(&done));
    lap(&w->steps[0], done ? nullptr : batch);
    if (done) {
      *exhausted = true;
      return Status::OK();
    }
    *unit = next_unit_.fetch_add(1, std::memory_order_relaxed);
  }

  for (size_t s = 0; s < stages_.size(); ++s) {
    const Stage& stage = stages_[s];
    if (stage.is_filter) {
      HIVE_ASSIGN_OR_RETURN(
          std::vector<int32_t> selection,
          FilterSelection(*stage.predicate, *batch, ctx_->rowwise_rows()));
      if (selection.empty()) {
        lap(&w->steps[s + 1], nullptr);
        return Status::OK();
      }
      batch->SetSelection(std::move(selection));
    } else {
      RowBatch out(stage.schema);
      for (size_t e = 0; e < stage.exprs.size(); ++e) {
        HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr col,
                              EvalVector(*stage.exprs[e], *batch, ctx_->rowwise_rows()));
        out.SetColumn(e, std::move(col));
      }
      out.set_num_rows(batch->num_rows());
      if (batch->has_selection()) out.SetSelection(batch->selection());
      *batch = std::move(out);
    }
    lap(&w->steps[s + 1], batch, stage.node);
  }

  if (probe_) {
    bool emitted = false;
    HIVE_ASSIGN_OR_RETURN(RowBatch out, probe_->ProbeBatch(*batch, &emitted));
    const int64_t cpu_ns =
        static_cast<int64_t>(batch->SelectedSize()) * probe_->probe_ns_per_row();
    w->cpu_ns += cpu_ns;
    StepTally& consumer = w->steps.back();
    lap(&consumer, nullptr);
    consumer.virtual_us += cpu_ns / 1000;  // charged later, by ChargeCpu
    if (!emitted) return Status::OK();
    *batch = std::move(out);
  }
  *produced = true;
  return Status::OK();
}

Result<RowBatch> Pipeline::ReadMorsel(Worker* w, size_t m, bool* skipped) {
  // Queue wait: how long this morsel sat in the queue before a worker picked
  // it up. Only pushed runs measure it; a pulled pipeline's morsels wait on
  // the consumer, not on the scheduler.
  if (morsel_queue_wait_us_ && run_start_wall_us_ > 0)
    morsel_queue_wait_us_->Record(SimClock::WallMicros() - run_start_wall_us_);
  int64_t injected_us = 0;
  Result<RowBatch> read = Status::OK();
  {
    // Mirror virtual-clock charges made during this attempt (injected fault
    // latency, modeled I/O) so the task's cost is attributable.
    SimClock::TaskScope task_scope(&injected_us);
    read = scan_->ReadMorselWithRetry(m, skipped);
  }
  if (!read.ok()) return read;
  if (*skipped) {
    if (morsels_skipped_) morsels_skipped_->Inc();
    return read;
  }
  const int64_t ns_per_row = ctx_->config->scan_cpu_ns_per_row;
  const int64_t cpu_us = static_cast<int64_t>(read->num_rows()) * ns_per_row / 1000;
  int64_t kept_cost_us = 0;
  HIVE_ASSIGN_OR_RETURN(
      RowBatch batch,
      MaybeSpeculate(m, std::move(*read), cpu_us, injected_us, &kept_cost_us));
  if (morsel_cost_us_) morsel_cost_us_->Record(kept_cost_us);
  w->cpu_ns += static_cast<int64_t>(batch.num_rows()) * ns_per_row;
  w->steps[0].virtual_us += cpu_us;  // charged later, by ChargeCpu
  return batch;
}

int64_t Pipeline::RecordCostAndThreshold(int64_t cost_us) {
  MutexLock lock(&cost_mu_);
  int64_t threshold = 0;
  // The baseline is the median of *previously* completed tasks, so a task
  // never dilutes the very baseline it is judged against; at least 3
  // completions are required before anyone can be called a straggler.
  if (completed_costs_.size() >= 3) {
    std::vector<int64_t> copy = completed_costs_;
    size_t mid = copy.size() / 2;
    std::nth_element(copy.begin(), copy.begin() + static_cast<long>(mid), copy.end());
    threshold = static_cast<int64_t>(
        ctx_->config->speculation_slowdown_factor * static_cast<double>(copy[mid]));
  }
  completed_costs_.push_back(cost_us);
  return threshold;
}

Result<RowBatch> Pipeline::MaybeSpeculate(size_t morsel, RowBatch&& original,
                                          int64_t cpu_us, int64_t injected_us,
                                          int64_t* kept_cost_us) {
  int64_t cost_us = cpu_us + injected_us;
  *kept_cost_us = cost_us;
  int64_t threshold = RecordCostAndThreshold(cost_us);
  if (!ctx_->config->speculation_enabled || threshold <= 0 || cost_us <= threshold)
    return std::move(original);
  // Straggler: launch a duplicate attempt of the same morsel. Both attempts
  // produce byte-identical batches on success (corruption is always caught
  // by checksums before a batch is built), so keeping either is safe — the
  // choice only decides whose latency the query pays.
  if (ctx_->runtime_stats)
    ctx_->runtime_stats->speculative_tasks.fetch_add(1, std::memory_order_relaxed);
  bool spec_skipped = false;
  int64_t spec_injected_us = 0;
  Result<RowBatch> spec = Status::OK();
  {
    SimClock::TaskScope task_scope(&spec_injected_us);
    spec = scan_->ReadMorselWithRetry(morsel, &spec_skipped);
  }
  int64_t spec_cost_us = cpu_us + spec_injected_us;
  if (spec.ok() && !spec_skipped && spec_cost_us < cost_us) {
    // The duplicate finished first. Refund the original attempt's injected
    // latency: the cluster's critical path followed the winner. Ties keep
    // the original (strict <), making the winner deterministic.
    if (ctx_->clock) ctx_->clock->Charge(-injected_us);
    if (ctx_->runtime_stats)
      ctx_->runtime_stats->speculative_wins.fetch_add(1, std::memory_order_relaxed);
    *kept_cost_us = spec_cost_us;
    return spec;
  }
  // Original wins (or the duplicate failed): abandon the duplicate and
  // refund whatever latency it attracted.
  if (ctx_->clock) ctx_->clock->Charge(-spec_injected_us);
  return std::move(original);
}

void Pipeline::ChargeCpu() {
  // Modeled CPU pays the critical path — the slowest worker — the way
  // container start-up is modeled, so the morsel queue's speedup shows in
  // virtual time even when the host serializes the threads.
  int64_t critical_ns = 0;
  for (const Worker& w : worker_state_) critical_ns = std::max(critical_ns, w.cpu_ns);
  const int64_t due_us = critical_ns / 1000 - charged_cpu_us_;
  if (due_us <= 0) return;
  if (ctx_->clock) ctx_->clock->Charge(due_us);
  charged_cpu_us_ += due_us;
}

void Pipeline::FinishRun() {
  if (finished_) return;
  finished_ = true;
  totals_.resize(stages_.size() + 2);
  for (const Worker& w : worker_state_) {
    for (size_t k = 0; k < totals_.size(); ++k) {
      StepTally& t = totals_[k];
      const StepTally& s = w.steps[k];
      t.rows += s.rows;
      t.batches += s.batches;
      t.bytes += s.bytes;
      t.max_batch_bytes = std::max(t.max_batch_bytes, s.max_batch_bytes);
      t.wall_us += s.wall_us;
      t.virtual_us += s.virtual_us;
    }
  }
  // Per-digest totals over all workers: the re-optimization input.
  if (!ctx_->runtime_stats) return;
  if (!scan_digest_.empty()) ctx_->runtime_stats->Record(scan_digest_, totals_[0].rows);
  for (size_t s = 0; s < stages_.size(); ++s)
    if (!stages_[s].digest.empty())
      ctx_->runtime_stats->Record(stages_[s].digest, totals_[s + 1].rows);
}

Status Pipeline::Run(int workers, const Sink& sink) {
  ObservedCall call(this);
  return RunWorkers(workers, sink);
}

Status Pipeline::RunWorkers(int workers, const Sink& sink) {
  BeginRun(workers);
  run_start_wall_us_ = SimClock::WallMicros();
  auto loop = [this, &sink](int index) -> Status {
    Worker* w = &worker_state_[static_cast<size_t>(index)];
    for (;;) {
      if (failed_.load(std::memory_order_acquire)) return Status::OK();
      bool exhausted = false, produced = false;
      size_t unit = 0;
      RowBatch batch;
      Status status = Step(w, &exhausted, &unit, &batch, &produced);
      if (status.ok() && produced) {
        const int64_t wall0 = SimClock::WallMicros(), virt0 = VirtualNow();
        status = sink(index, unit, std::move(batch));
        w->steps.back().wall_us += SimClock::WallMicros() - wall0;
        w->steps.back().virtual_us += VirtualNow() - virt0;
      }
      if (!status.ok()) {
        failed_.store(true, std::memory_order_release);
        return status;
      }
      if (exhausted) return Status::OK();
    }
  };
  std::vector<std::future<Status>> futures;
  for (int w = 1; w < workers_; ++w)
    futures.push_back(ctx_->submit_worker([&loop, w] { return loop(w); }));
  Status status = loop(0);
  for (auto& f : futures) {
    Status s = f.get();
    if (status.ok() && !s.ok()) status = s;
  }
  ChargeCpu();
  FinishRun();
  return status;
}

Result<RowBatch> Pipeline::Next(bool* done) {
  ObservedCall call(this);
  *done = false;
  if (workers_ == 0) {
    const int workers = DecideWorkers();
    if (workers > 1) {
      // Gather exchange: workers write each unit's output into its own slot
      // (no locks), emitted below in unit order.
      slots_.resize(scan_->num_morsels());
      present_.assign(scan_->num_morsels(), 0);
      HIVE_RETURN_IF_ERROR(
          RunWorkers(workers, [this](int, size_t unit, RowBatch&& batch) -> Status {
            slots_[unit] = std::move(batch);
            present_[unit] = 1;
            return Status::OK();
          }));
    } else {
      BeginRun(1);
    }
  }
  if (workers_ > 1) {
    while (emit_ < slots_.size() && !present_[emit_]) ++emit_;
    if (emit_ >= slots_.size()) {
      *done = true;
      return RowBatch();
    }
    present_[emit_] = 0;
    return std::move(slots_[emit_++]);
  }
  // One worker: stream, charging modeled CPU as each batch completes.
  while (!finished_) {
    bool exhausted = false, produced = false;
    size_t unit = 0;
    RowBatch batch;
    Status status = Step(&worker_state_[0], &exhausted, &unit, &batch, &produced);
    ChargeCpu();
    HIVE_RETURN_IF_ERROR(status);
    if (exhausted) FinishRun();
    if (produced) return batch;
  }
  *done = true;
  return RowBatch();
}

void Pipeline::FillProfile() {
  // Adopted stage nodes get their rows from the tallies and a share of the
  // pipeline's observed time proportional to the steps at or below them, so
  // each is inclusive of its input the way an operator span is.
  int64_t total_wall = 0, total_virtual = 0;
  for (const StepTally& t : totals_) {
    total_wall += t.wall_us;
    total_virtual += t.virtual_us;
  }
  int64_t cum_wall = 0, cum_virtual = 0;
  for (size_t k = 0; k <= stages_.size(); ++k) {
    cum_wall += totals_[k].wall_us;
    cum_virtual += totals_[k].virtual_us;
    obs::OperatorProfileNode* node = k == 0 ? scan_node_ : stages_[k - 1].node;
    if (!node) continue;
    const StepTally& t = totals_[k];
    node->rows_out += t.rows;
    node->batches += t.batches;
    node->bytes_out += t.bytes;
    node->peak_mem_bytes = std::max(node->peak_mem_bytes, t.max_batch_bytes);
    node->wall_us += Share(observed_wall_us_, cum_wall, total_wall);
    node->virtual_us += Share(observed_virtual_us_, cum_virtual, total_virtual);
  }
}

Status Pipeline::Close() {
  Status status = Status::OK();
  {
    ObservedCall call(this);
    // A consumer that stopped early (LIMIT) still records what ran.
    FinishRun();
    if (source_) {
      const int64_t wall0 = SimClock::WallMicros(), virt0 = VirtualNow();
      status = source_->Close();
      totals_[0].wall_us += SimClock::WallMicros() - wall0;
      totals_[0].virtual_us += VirtualNow() - virt0;
    }
  }
  FillProfile();
  return status;
}

}  // namespace hive
