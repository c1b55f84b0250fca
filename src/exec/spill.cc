#include "exec/spill.h"

#include <algorithm>
#include <atomic>

#include "common/hash.h"
#include "common/serde.h"
#include "exec/task_retry.h"
#include "storage/cof.h"
#include "obs/metric_names.h"

namespace hive {

namespace {

constexpr char kSpillMagic[4] = {'S', 'P', 'L', '1'};
/// Chunk flush threshold: spill streams hold at most this much buffered.
constexpr size_t kSpillChunkBytes = 256 * 1024;
/// Checksum seed, distinct from the join/group hash seed.
constexpr uint64_t kSpillChecksumSeed = 0x53504c4c31ULL;

}  // namespace

Status BudgetExceededStatus(const char* op, int64_t bytes, ExecContext* ctx) {
  std::string msg = std::string(op) + " exceeded the memory budget (needs >" +
                    std::to_string(bytes) + " bytes";
  if (ctx && ctx->query_memory) {
    if (ctx->query_memory->query_limit() > 0)
      msg += ", query.memory.limit.bytes=" +
             std::to_string(ctx->query_memory->query_limit());
    if (ctx->query_memory->governor() && ctx->query_memory->governor()->limit() > 0)
      msg += ", exec.memory.limit.bytes=" +
             std::to_string(ctx->query_memory->governor()->limit());
  }
  msg += ") and spilling is unavailable";
  return Status::ResourceExhausted(std::move(msg));
}

uint64_t NextSpillStreamId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void CountSpillMetric(ExecContext* ctx, const char* name, int64_t delta) {
  if (ctx && ctx->metrics && delta != 0) ctx->metrics->counter(name)->Add(delta);
}

std::string SerializeSpillBatch(const RowBatch& batch,
                                const std::vector<uint64_t>* seqs) {
  std::string out;
  const size_t rows = batch.num_rows();
  const size_t cols = batch.num_columns();
  serde::PutU32(&out, static_cast<uint32_t>(rows));
  serde::PutU32(&out, static_cast<uint32_t>(cols));
  out.push_back(seqs ? 1 : 0);
  if (seqs)
    for (size_t r = 0; r < rows; ++r) serde::PutU64(&out, (*seqs)[r]);
  for (size_t r = 0; r < rows; ++r)
    for (size_t c = 0; c < cols; ++c)
      SerializeValue(&out, batch.column(c)->GetValue(r));
  return out;
}

Status DeserializeSpillBatch(const std::string& record, const Schema& schema,
                             RowBatch* batch, std::vector<uint64_t>* seqs) {
  size_t offset = 0;
  uint32_t rows = 0, cols = 0;
  if (!serde::GetU32(record, &offset, &rows) ||
      !serde::GetU32(record, &offset, &cols) || offset >= record.size())
    return Status::Corruption("spill batch header").MarkTransient();
  if (cols != schema.num_fields())
    return Status::Corruption("spill batch column count").MarkTransient();
  const bool has_seqs = record[offset++] != 0;
  if (seqs) seqs->clear();
  if (has_seqs) {
    for (uint32_t r = 0; r < rows; ++r) {
      uint64_t seq = 0;
      if (!serde::GetU64(record, &offset, &seq))
        return Status::Corruption("spill batch seqs").MarkTransient();
      if (seqs) seqs->push_back(seq);
    }
  }
  *batch = RowBatch(schema);
  for (uint32_t r = 0; r < rows; ++r) {
    for (uint32_t c = 0; c < cols; ++c) {
      auto v = DeserializeValue(record, &offset);
      if (!v.ok()) return Status::Corruption("spill batch value").MarkTransient();
      batch->column(c)->AppendValue(*v);
    }
  }
  batch->set_num_rows(rows);
  return Status::OK();
}

// --- SpillChunkWriter ---

SpillChunkWriter::SpillChunkWriter(ExecContext* ctx, std::string prefix)
    : ctx_(ctx), prefix_(std::move(prefix)) {}

Status SpillChunkWriter::AppendRecord(const std::string& record) {
  serde::PutU32(&buffer_, static_cast<uint32_t>(record.size()));
  buffer_.append(record);
  ++num_records_;
  if (buffer_.size() >= kSpillChunkBytes) return WriteChunk();
  return Status::OK();
}

Status SpillChunkWriter::Finish() {
  if (!buffer_.empty()) return WriteChunk();
  return Status::OK();
}

Status SpillChunkWriter::WriteChunk() {
  std::string file;
  file.append(kSpillMagic, sizeof kSpillMagic);
  serde::PutU64(&file, Murmur64(buffer_.data(), buffer_.size(), kSpillChecksumSeed));
  serde::PutU32(&file, static_cast<uint32_t>(buffer_.size()));
  file.append(buffer_);
  const std::string path = prefix_ + ".c" + std::to_string(num_chunks_);
  const std::string tmp = path + ".tmp";
  FileSystem* fs = ctx_->fs;
  HIVE_RETURN_IF_ERROR(fs->WriteFile(tmp, file));
  // Rename into place under the task-attempt policy: a torn rename applied
  // but lost its ack, so every attempt probes the destination first.
  Status renamed = RunTaskAttempts(
      ctx_->config, ctx_->clock, ctx_->runtime_stats, [&]() -> Status {
        if (fs->Exists(path)) return Status::OK();
        return fs->Rename(tmp, path);
      });
  HIVE_RETURN_IF_ERROR(renamed);
  bytes_written_ += file.size();
  CountSpillMetric(ctx_, obs::metric::kSpillBytes, static_cast<int64_t>(file.size()));
  ++num_chunks_;
  buffer_.clear();
  return Status::OK();
}

// --- SpillChunkReader ---

SpillChunkReader::SpillChunkReader(ExecContext* ctx, std::string prefix,
                                   int num_chunks)
    : ctx_(ctx), prefix_(std::move(prefix)), num_chunks_(num_chunks) {}

Result<std::string> SpillChunkReader::ReadChunk(int index) {
  const std::string path = prefix_ + ".c" + std::to_string(index);
  return RunTaskAttempts(
      ctx_->config, ctx_->clock, ctx_->runtime_stats,
      [&]() -> Result<std::string> {
        HIVE_ASSIGN_OR_RETURN(std::string file, ctx_->fs->ReadFile(path));
        size_t offset = sizeof kSpillMagic;
        uint64_t checksum = 0;
        uint32_t len = 0;
        if (file.size() < offset ||
            file.compare(0, offset, kSpillMagic, offset) != 0 ||
            !serde::GetU64(file, &offset, &checksum) ||
            !serde::GetU32(file, &offset, &len) || file.size() - offset != len)
          return Status::Corruption("spill chunk framing: " + path).MarkTransient();
        std::string payload = file.substr(offset);
        if (Murmur64(payload.data(), payload.size(), kSpillChecksumSeed) != checksum)
          return Status::Corruption("spill chunk checksum mismatch: " + path)
              .MarkTransient();
        return payload;
      });
}

Result<bool> SpillChunkReader::NextRecord(std::string* record) {
  for (;;) {
    if (offset_ < payload_.size()) {
      uint32_t len = 0;
      if (!serde::GetU32(payload_, &offset_, &len) ||
          offset_ + len > payload_.size())
        return Status::Corruption("spill record framing: " + prefix_)
            .MarkTransient();
      record->assign(payload_, offset_, len);
      offset_ += len;
      return true;
    }
    if (next_chunk_ >= num_chunks_) return false;
    HIVE_ASSIGN_OR_RETURN(payload_, ReadChunk(next_chunk_++));
    offset_ = 0;
  }
}

// --- SpillBatchWriter / SpillBatchReader ---

SpillBatchWriter::SpillBatchWriter(ExecContext* ctx, std::string prefix,
                                   const Schema& schema, bool with_seqs)
    : ctx_(ctx),
      writer_(ctx, std::move(prefix)),
      schema_(schema),
      with_seqs_(with_seqs),
      buffer_(schema) {}

Status SpillBatchWriter::AppendRows(const RowBatch& batch, const int32_t* rows,
                                    size_t n, const uint64_t* seqs) {
  const size_t batch_rows = std::max<size_t>(
      1, ctx_->config ? static_cast<size_t>(ctx_->config->vector_batch_size) : 1024);
  // Fill the buffer up to a whole batch, flush, repeat: every record but the
  // last holds exactly batch_rows rows, however the rows were handed in.
  for (size_t done = 0; done < n;) {
    const size_t take = std::min(n - done, batch_rows - buffered_);
    buffer_.AppendRows(batch, rows + done, take);
    if (with_seqs_) seqs_.insert(seqs_.end(), seqs + done, seqs + done + take);
    buffered_ += take;
    num_rows_ += take;
    done += take;
    if (buffered_ >= batch_rows) HIVE_RETURN_IF_ERROR(FlushBuffer());
  }
  return Status::OK();
}

Status SpillBatchWriter::AppendAll(const RowBatch& dense, const uint64_t* seqs) {
  std::vector<int32_t> rows(dense.num_rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<int32_t>(i);
  return AppendRows(dense, rows.data(), rows.size(), seqs);
}

Status SpillBatchWriter::FlushBuffer() {
  if (buffered_ == 0) return Status::OK();
  buffer_.set_num_rows(buffered_);
  HIVE_RETURN_IF_ERROR(writer_.AppendRecord(
      SerializeSpillBatch(buffer_, with_seqs_ ? &seqs_ : nullptr)));
  buffer_ = RowBatch(schema_);
  seqs_.clear();
  buffered_ = 0;
  return Status::OK();
}

Status SpillBatchWriter::Finish() {
  HIVE_RETURN_IF_ERROR(FlushBuffer());
  return writer_.Finish();
}

SpillBatchReader::SpillBatchReader(ExecContext* ctx, const SpillBatchWriter& writer)
    : reader_(ctx, writer.prefix(), writer.num_chunks()),
      schema_(writer.schema()) {}

SpillBatchReader::SpillBatchReader(ExecContext* ctx, std::string prefix,
                                   int num_chunks, const Schema& schema)
    : reader_(ctx, std::move(prefix), num_chunks), schema_(schema) {}

Result<bool> SpillBatchReader::NextBatch(RowBatch* batch,
                                         std::vector<uint64_t>* seqs) {
  std::string record;
  HIVE_ASSIGN_OR_RETURN(bool more, reader_.NextRecord(&record));
  if (!more) return false;
  HIVE_RETURN_IF_ERROR(DeserializeSpillBatch(record, schema_, batch, seqs));
  return true;
}

}  // namespace hive
