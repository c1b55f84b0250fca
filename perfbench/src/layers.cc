#include "src/layers.h"

#include <functional>
#include <unordered_map>

#include "exec/compiler.h"
#include "exec/spill.h"
#include "exec/vector_eval.h"
#include "llap/llap_cache.h"
#include "optimizer/binder.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"
#include "storage/acid.h"

namespace perfbench {

using hive::Config;
using hive::HiveServer2;
using hive::RelKind;
using hive::RelNode;
using hive::RelNodePtr;
using hive::Result;
using hive::RowBatch;
using hive::Status;

namespace {

// Inputs larger than this are skipped, to bound the time and memory of the
// operator measurements.
constexpr size_t kMaxInputRows = 400000;
constexpr int kTxnSamples = 200;
constexpr size_t kAcidWriteRows = 50000;
constexpr char kScratchDir[] = "/perfbench/layers";

/// Replays materialized batches as an operator (the build side of a
/// hand-run join, the input of a hand-run sort).
class BatchSource : public hive::Operator {
 public:
  BatchSource(hive::ExecContext* ctx, const std::vector<RowBatch>* batches,
              hive::Schema schema)
      : Operator(ctx), batches_(batches), schema_(std::move(schema)) {}
  Status Open() override {
    next_ = 0;
    return Status::OK();
  }
  Result<RowBatch> Next(bool* done) override {
    *done = next_ == batches_->size();
    if (*done) return RowBatch(schema_);
    return (*batches_)[next_++];
  }
  const hive::Schema& schema() const override { return schema_; }

 private:
  const std::vector<RowBatch>* batches_;
  hive::Schema schema_;
  size_t next_ = 0;
};

/// A deep copy with the selection applied, so later Next calls of the
/// producing operator cannot alter it.
RowBatch Materialize(const RowBatch& batch) {
  RowBatch copy(batch.schema());
  for (size_t c = 0; c < batch.num_columns(); ++c)
    copy.SetColumn(c, std::make_shared<hive::ColumnVector>(*batch.column(c)));
  copy.set_num_rows(batch.num_rows());
  if (batch.has_selection()) copy.SetSelection(batch.selection());
  copy.Flatten();
  return copy;
}

size_t RowCount(const std::vector<RowBatch>& batches) {
  size_t rows = 0;
  for (const RowBatch& b : batches) rows += b.num_rows();
  return rows;
}

/// Accumulated time and work units of one measured operation.
struct Sample {
  int64_t ns = 0;
  double units = 0;
  double Per(double scale) const { return units > 0 ? ns / scale / units : 0; }
};

class LayerMeter {
 public:
  LayerMeter(Instance* instance, double budget_s)
      : instance_(instance),
        server_(instance->server.get()),
        config_(instance->SessionConfig()),
        deadline_(NowNs() + static_cast<int64_t>(budget_s * 1e9)) {
    ctx_.fs = server_->filesystem();
    ctx_.catalog = server_->catalog();
    ctx_.config = &config_;
    ctx_.clock = server_->clock();
    ctx_.mode = hive::RuntimeMode::kLlap;
    ctx_.chunks = server_->llap()->cache();
    hive::TransactionManager* txns = server_->txns();
    const hive::TxnSnapshot snapshot = txns->GetSnapshot();
    ctx_.snapshot_for = [txns, snapshot](const std::string& table) {
      return txns->GetValidWriteIds(table, snapshot);
    };
    ctx_.metrics = &metrics_;  // private: join hit/miss counts of these calls only
    ctx_.max_parallel_workers = config_.num_executors;
    hive::LlapDaemon* llap = server_->llap();
    ctx_.submit_worker = [llap](std::function<Status()> fn) {
      return llap->SubmitWorkFragment(std::move(fn));
    };
    ctx_.spill_dir = std::string(kScratchDir) + "/spill";
  }

  std::map<std::string, double> Run() {
    for (const std::string& sql : instance_->workload->LayerQueries()) {
      if (NowNs() > deadline_) break;
      Result<RelNodePtr> plan = Plan(sql);
      if (plan.ok()) Visit(*plan);
      inputs_.clear();
    }
    std::map<std::string, double> out;
    out["exec.filter_eval_ns_per_row"] = filter_.Per(1);
    out["exec.hash_build_ns_per_row"] = build_.Per(1);
    out["exec.hash_probe_ns_per_row"] = probe_.Per(1);
    const double hits = static_cast<double>(metrics_.Value("exec.join.probe.hits"));
    const double misses = static_cast<double>(metrics_.Value("exec.join.probe.misses"));
    out["exec.probe_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
    out["exec.agg_ns_per_row"] = agg_.Per(1);
    out["exec.sort_ns_per_row"] = sort_.Per(1);
    MeasureStorage(&out);
    return out;
  }

 private:
  Result<RelNodePtr> Plan(const std::string& sql) {
    HIVE_ASSIGN_OR_RETURN(hive::StatementPtr parsed, hive::Parser::Parse(sql));
    if (parsed->kind() != hive::StatementKind::kSelect)
      return Status::InvalidArgument("not a SELECT");
    const auto& select = static_cast<const hive::SelectStatement*>(parsed.get())->select;
    hive::Binder binder(server_->catalog(), &config_, "default");
    HIVE_ASSIGN_OR_RETURN(RelNodePtr plan, binder.BindSelect(select));
    hive::Optimizer optimizer(server_->catalog(), &config_);
    return optimizer.Optimize(plan);
  }

  /// Output of `node`, computed once per node by the engine's own compiler.
  Result<const std::vector<RowBatch>*> Input(const RelNodePtr& node) {
    auto it = inputs_.find(node);
    if (it != inputs_.end()) return &it->second;
    HIVE_ASSIGN_OR_RETURN(hive::OperatorPtr op, hive::CompilePlan(&ctx_, node));
    HIVE_RETURN_IF_ERROR(op->Open());
    std::vector<RowBatch> batches;
    size_t rows = 0;
    for (bool done = false;;) {
      HIVE_ASSIGN_OR_RETURN(RowBatch batch, op->Next(&done));
      if (done) break;
      if (batch.SelectedSize() == 0) continue;
      batches.push_back(Materialize(batch));
      rows += batches.back().num_rows();
      if (rows > kMaxInputRows) break;
    }
    HIVE_RETURN_IF_ERROR(op->Close());
    if (rows > kMaxInputRows) batches.clear();
    return &inputs_.emplace(node, std::move(batches)).first->second;
  }

  void Visit(const RelNodePtr& node) {
    for (const RelNodePtr& input : node->inputs) Visit(input);
    if (NowNs() > deadline_) return;
    switch (node->kind) {
      case RelKind::kScan: MeasureFilter(node); break;
      case RelKind::kJoin: MeasureJoin(*node); break;
      case RelKind::kAggregate: MeasureAgg(*node); break;
      case RelKind::kSort: MeasureSort(*node); break;
      default: break;
    }
  }

  void MeasureFilter(const RelNodePtr& scan) {
    if (scan->scan_filters.empty() || !scan->table.storage_handler.empty()) return;
    auto bare = std::make_shared<RelNode>(*scan);
    bare->scan_filters.clear();
    bare->semijoin_reducers.clear();
    Result<const std::vector<RowBatch>*> batches = Input(bare);
    if (!batches.ok()) return;
    for (const hive::ExprPtr& predicate : scan->scan_filters) {
      for (const RowBatch& batch : **batches) {
        const int64_t start = NowNs();
        Result<std::vector<int32_t>> selection = hive::FilterSelection(*predicate, batch);
        filter_.ns += NowNs() - start;
        if (!selection.ok()) return;
        filter_.units += batch.num_rows();
      }
    }
  }

  void MeasureJoin(const RelNode& join) {
    using JoinType = hive::TableRef::JoinType;
    if (!join.condition || join.inputs.size() != 2 || join.join_type == JoinType::kRight ||
        join.join_type == JoinType::kFull)
      return;
    Result<const std::vector<RowBatch>*> probe = Input(join.inputs[0]);
    Result<const std::vector<RowBatch>*> build = Input(join.inputs[1]);
    if (!probe.ok() || !build.ok() || (*probe)->empty() || (*build)->empty()) return;
    hive::HashJoinCore core(&ctx_, join.join_type, join.condition, &join.schema);
    if (!core.BindCondition(join.inputs[0]->schema).ok()) return;
    const size_t left_width = join.inputs[0]->schema.num_fields();
    core.set_perfect_hash_hint(config_.perfect_hash_join_enabled &&
                               hive::HashJoinCore::PerfectHashEligible(
                                   join.condition, static_cast<int>(left_width)));
    BatchSource source(&ctx_, *build, join.inputs[1]->schema);
    if (!source.Open().ok()) return;
    int64_t start = NowNs();
    if (!core.Build(&source).ok()) return;
    build_.ns += NowNs() - start;
    build_.units += RowCount(**build);
    for (const RowBatch& batch : **probe) {
      bool emitted = false;
      start = NowNs();
      Result<RowBatch> out = core.ProbeBatch(batch, &emitted);
      probe_.ns += NowNs() - start;
      if (!out.ok()) return;
      probe_.units += batch.num_rows();
    }
  }

  void MeasureAgg(const RelNode& agg) {
    Result<const std::vector<RowBatch>*> input = Input(agg.inputs[0]);
    if (!input.ok() || (*input)->empty()) return;
    hive::GroupedAggState state(&agg.group_keys, &agg.aggs);
    uint64_t seq = 0;
    const int64_t start = NowNs();
    for (const RowBatch& batch : **input) {
      if (!state.Consume(batch, seq).ok()) return;
      seq += batch.num_rows();
    }
    state.Seal();
    agg_.ns += NowNs() - start;
    agg_.units += static_cast<double>(seq);
  }

  void MeasureSort(const RelNode& sort) {
    Result<const std::vector<RowBatch>*> input = Input(sort.inputs[0]);
    if (!input.ok() || (*input)->empty()) return;
    hive::SortOperator op(&ctx_,
                          std::make_unique<BatchSource>(&ctx_, *input, sort.inputs[0]->schema),
                          sort.sort_keys, sort.limit);
    const int64_t start = NowNs();
    if (!op.Open().ok()) return;
    for (bool done = false;;) {
      Result<RowBatch> batch = op.Next(&done);
      if (!batch.ok()) return;
      if (done) break;
    }
    if (!op.Close().ok()) return;
    sort_.ns += NowNs() - start;
    sort_.units += RowCount(**input);
  }

  /// Directories under `dir` (inclusive) that directly hold ACID
  /// base/delta directories: the table root, or each partition.
  void AcidRoots(const std::string& dir, std::vector<std::string>* roots,
                 std::vector<std::string>* files, int64_t* delta_dirs) {
    Result<std::vector<hive::FileInfo>> entries = ctx_.fs->ListDir(dir);
    if (!entries.ok()) return;
    bool is_root = false;
    for (const hive::FileInfo& entry : *entries) {
      if (!entry.is_dir) {
        files->push_back(entry.path);
        continue;
      }
      const hive::AcidDirKind kind = hive::ParseAcidDirName(entry.path).kind;
      if (kind != hive::AcidDirKind::kOther) is_root = true;
      if (kind == hive::AcidDirKind::kDelta || kind == hive::AcidDirKind::kDeleteDelta)
        ++*delta_dirs;
      AcidRoots(entry.path, roots, files, delta_dirs);
    }
    if (is_root) roots->push_back(dir);
  }

  void MeasureStorage(std::map<std::string, double>* out) {
    hive::FileSystem* fs = ctx_.fs;
    Result<hive::TableDesc> desc =
        server_->catalog()->GetTable("default", instance_->workload->MainTable());
    if (!desc.ok()) return;
    std::vector<std::string> roots, files;
    int64_t delta_dirs = 0;
    AcidRoots(desc->location, &roots, &files, &delta_dirs);
    (*out)["storage.delta_dirs"] = static_cast<double>(delta_dirs);

    // COF open + decode, then the LLAP cache on resident and invalidated
    // chunks (a private cache instance over the same files).
    Sample open, decode, hit, miss;
    Config cache_config = config_;
    cache_config.llap_cache_capacity_bytes = Config().llap_cache_capacity_bytes;
    hive::LlapCacheProvider cache(fs, cache_config);
    for (const std::string& path : files) {
      int64_t start = NowNs();
      Result<std::shared_ptr<hive::CofReader>> reader = hive::CofReader::Open(fs, path);
      if (!reader.ok()) continue;  // not a COF data file
      open.ns += NowNs() - start;
      open.units += 1;
      const hive::CofReader& r = **reader;
      const size_t columns = r.schema().num_fields();
      for (size_t rg = 0; rg < r.num_row_groups(); ++rg) {
        for (size_t c = 0; c < columns; ++c) {
          start = NowNs();
          Result<hive::ColumnVectorPtr> chunk = (*reader)->ReadColumnChunk(rg, c);
          decode.ns += NowNs() - start;
          if (chunk.ok()) decode.units += r.row_group(rg).num_rows;
        }
      }
      Result<std::shared_ptr<hive::CofReader>> cached = cache.OpenReader(path);
      if (!cached.ok()) continue;
      for (int pass = 0; pass < 3; ++pass) {
        if (pass == 2) cache.InvalidateFile((*cached)->file_id());
        Sample* sample = pass == 1 ? &hit : pass == 2 ? &miss : nullptr;
        for (size_t rg = 0; rg < r.num_row_groups(); ++rg) {
          for (size_t c = 0; c < columns; ++c) {
            start = NowNs();
            Result<hive::ColumnVectorPtr> chunk = cache.ReadChunk(*cached, rg, c);
            if (sample && chunk.ok()) {
              sample->ns += NowNs() - start;
              sample->units += 1;
            }
          }
        }
      }
    }
    (*out)["storage.open_us_per_file"] = open.Per(1e3);
    (*out)["storage.decode_ns_per_value"] = decode.Per(1);
    (*out)["llap.hit_ns_per_chunk"] = hit.Per(1);
    (*out)["llap.miss_us_per_chunk"] = miss.Per(1e3);

    // Merge-on-read over the live table directories; the batches read feed
    // the spill and write measurements.
    const hive::ValidWriteIdList valid = server_->txns()->GetValidWriteIds(
        desc->FullName(), server_->txns()->GetSnapshot());
    hive::AcidScanOptions scan;
    for (size_t c = 0; c < desc->schema.num_fields(); ++c) scan.columns.push_back(c);
    Sample acid_read;
    std::vector<RowBatch> batches;
    for (const std::string& root : roots) {
      hive::AcidReader reader(fs, root, desc->schema);
      const int64_t start = NowNs();
      if (!reader.Open(valid, scan).ok()) continue;
      for (bool done = false;;) {
        Result<RowBatch> batch = reader.NextBatch(&done);
        if (!batch.ok() || done) break;
        acid_read.units += batch->SelectedSize();
        batches.push_back(std::move(*batch));
      }
      acid_read.ns += NowNs() - start;
    }
    (*out)["storage.acid_read_ns_per_row"] = acid_read.Per(1);

    // Spill stream round trip of the table's rows.
    const std::string prefix = std::string(kScratchDir) + "/spill/run";
    hive::SpillChunkWriter writer(&ctx_, prefix);
    int64_t start = NowNs();
    bool spill_ok = true;
    for (const RowBatch& batch : batches)
      spill_ok = spill_ok && writer.AppendRecord(hive::SerializeSpillBatch(batch, nullptr)).ok();
    spill_ok = spill_ok && writer.Finish().ok();
    const int64_t write_ns = NowNs() - start;
    int64_t read_ns = 0;
    if (spill_ok) {
      hive::SpillChunkReader reader(&ctx_, prefix, writer.num_chunks());
      std::string record;
      start = NowNs();
      for (;;) {
        Result<bool> more = reader.NextRecord(&record);
        if (!more.ok() || !*more) break;
      }
      read_ns = NowNs() - start;
    }
    const double mb = writer.bytes_written() / 1e6;
    (*out)["exec.spill_write_mb_s"] = spill_ok && write_ns > 0 ? mb / (write_ns / 1e9) : 0;
    (*out)["exec.spill_read_mb_s"] = spill_ok && read_ns > 0 ? mb / (read_ns / 1e9) : 0;

    // ACID write path: one delta of the table's rows.
    Sample acid_write;
    {
      hive::AcidWriter acid(fs, std::string(kScratchDir) + "/acid", desc->schema, 1);
      start = NowNs();
      for (const RowBatch& batch : batches) {
        for (size_t i = 0; i < batch.SelectedSize() && acid_write.units < kAcidWriteRows; ++i) {
          acid.Insert(batch.GetRow(i));
          acid_write.units += 1;
        }
      }
      if (acid.Commit().ok()) acid_write.ns = NowNs() - start;
    }
    (*out)["storage.write_ns_per_row"] = acid_write.ns ? acid_write.Per(1) : 0;
    // lint: allow-discard(best-effort cleanup of the scratch files above)
    (void)fs->DeleteRecursive(kScratchDir);

    // Transaction round trip on the live metastore.
    start = NowNs();
    for (int i = 0; i < kTxnSamples; ++i) {
      const int64_t txn = server_->txns()->OpenTxn();
      if (!server_->txns()->AllocateWriteId(txn, desc->FullName()).ok()) break;
      if (!server_->txns()->CommitTxn(txn).ok()) break;
    }
    (*out)["metastore.txn_us"] = (NowNs() - start) / 1e3 / kTxnSamples;
  }

  Instance* instance_;
  HiveServer2* server_;
  Config config_;
  int64_t deadline_;
  hive::obs::MetricsRegistry metrics_;
  hive::ExecContext ctx_;
  /// Drained operator inputs of the current plan, keyed by (and keeping
  /// alive) the node that produced them.
  std::unordered_map<RelNodePtr, std::vector<RowBatch>> inputs_;
  Sample filter_, build_, probe_, agg_, sort_;
};

}  // namespace

std::map<std::string, double> MeasureLayers(Instance* instance, double budget_s) {
  LayerMeter meter(instance, budget_s);
  return meter.Run();
}

}  // namespace perfbench
