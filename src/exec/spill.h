#ifndef HIVE_EXEC_SPILL_H_
#define HIVE_EXEC_SPILL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/column_vector.h"
#include "exec/exec_context.h"

namespace hive {

/// Spill file machinery shared by the three spill paths (grace hash join,
/// external merge sort, agg partition flush). Everything goes through the
/// context's injectable FileSystem, so the fault-injection decorator's
/// transient errors, silent corruption and torn renames exercise spill I/O
/// the same way they exercise warehouse reads.
///
/// On-disk format: a spill stream is a numbered sequence of chunk files
/// `<prefix>.c<N>`, each laid out as
///
///   "SPL1" (4 bytes) | u64 Murmur64(payload) | u32 payload_len | payload
///
/// where the payload is a run of length-prefixed records. Chunks are
/// written to `<file>.tmp` and renamed into place (a torn rename that
/// applied but lost its ack is detected by probing the destination).
/// Readers validate the checksum and report a mismatch as a *transient*
/// Corruption — the same contract as COF chunk checksums — so task-attempt
/// retries re-read, and a run lost for good is re-derived by the
/// vertex-level attempt that re-runs the whole fragment.

/// Budget-exceeded failure for an operator that cannot (or may not) spill.
Status BudgetExceededStatus(const char* op, int64_t bytes, ExecContext* ctx);

/// Hash-prefix partition routing shared by every spill path: depth d
/// consumes the d-th byte from the top of the key hash, so recursive
/// repartitioning always splits on fresh bits (bytes past the 8th reuse the
/// lowest byte; the recursion bound fires long before that matters).
inline uint32_t SpillPartitionOf(uint64_t hash, int depth, int parts) {
  int shift = 56 - 8 * (depth > 7 ? 7 : depth);
  return static_cast<uint32_t>((hash >> shift) & 0xFF) %
         static_cast<uint32_t>(parts > 0 ? parts : 1);
}

/// Process-unique id for naming spill streams. Fresh per use, so a task
/// attempt that re-derives spilled state never collides with a half-written
/// predecessor's files.
uint64_t NextSpillStreamId();

/// Bumps one of the exec.spill.* counters; no-op without a registry.
void CountSpillMetric(ExecContext* ctx, const char* name, int64_t delta);

/// Serializes a dense RowBatch (and an optional parallel array of sequence
/// numbers positioning each row in the global input order) as one record.
std::string SerializeSpillBatch(const RowBatch& batch,
                                const std::vector<uint64_t>* seqs);
/// Inverse of SerializeSpillBatch. `seqs` may be null when the stream was
/// written without sequence numbers.
Status DeserializeSpillBatch(const std::string& record, const Schema& schema,
                             RowBatch* batch, std::vector<uint64_t>* seqs);

/// Buffered writer of one spill stream. AppendRecord buffers; chunks flush
/// once the buffer crosses the chunk threshold and on Finish.
class SpillChunkWriter {
 public:
  SpillChunkWriter(ExecContext* ctx, std::string prefix);

  Status AppendRecord(const std::string& record);
  /// Flushes the tail chunk. Call exactly once, before reading the stream.
  Status Finish();

  int num_chunks() const { return num_chunks_; }
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t num_records() const { return num_records_; }
  const std::string& prefix() const { return prefix_; }

 private:
  Status WriteChunk();

  ExecContext* ctx_;
  std::string prefix_;
  std::string buffer_;
  int num_chunks_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t num_records_ = 0;
};

/// Streaming reader over a finished spill stream: yields records in write
/// order across chunk files. Chunk reads run under the task-attempt retry
/// policy; checksum mismatches surface as transient Corruption.
class SpillChunkReader {
 public:
  SpillChunkReader(ExecContext* ctx, std::string prefix, int num_chunks);

  /// Fetches the next record. Returns false at end of stream.
  Result<bool> NextRecord(std::string* record);

 private:
  Result<std::string> ReadChunk(int index);

  ExecContext* ctx_;
  std::string prefix_;
  int num_chunks_;
  int next_chunk_ = 0;
  std::string payload_;
  size_t offset_ = 0;
};

/// Batch spiller: rows gather into a dense RowBatch and flush as one
/// SerializeSpillBatch record per vector_batch_size rows. The unit the
/// grace join partitions build/probe rows into and the agg flush and
/// external sort write their runs through.
class SpillBatchWriter {
 public:
  SpillBatchWriter(ExecContext* ctx, std::string prefix, const Schema& schema,
                   bool with_seqs);

  /// Appends physical rows `rows[0..n)` of `batch`, tagged `seqs[0..n)`
  /// (ignored, and may be null, without sequence numbers).
  Status AppendRows(const RowBatch& batch, const int32_t* rows, size_t n,
                    const uint64_t* seqs);
  /// Appends every row of a batch without selection.
  Status AppendAll(const RowBatch& dense, const uint64_t* seqs);
  Status Finish();

  uint64_t num_rows() const { return num_rows_; }
  uint64_t bytes_written() const { return writer_.bytes_written(); }
  int num_chunks() const { return writer_.num_chunks(); }
  const std::string& prefix() const { return writer_.prefix(); }
  const Schema& schema() const { return schema_; }

 private:
  Status FlushBuffer();

  ExecContext* ctx_;
  SpillChunkWriter writer_;
  Schema schema_;
  bool with_seqs_;
  RowBatch buffer_;
  std::vector<uint64_t> seqs_;
  size_t buffered_ = 0;
  uint64_t num_rows_ = 0;
};

/// Streaming batch reader over a SpillBatchWriter stream.
class SpillBatchReader {
 public:
  SpillBatchReader(ExecContext* ctx, const SpillBatchWriter& writer);
  SpillBatchReader(ExecContext* ctx, std::string prefix, int num_chunks,
                   const Schema& schema);

  /// Fetches the next batch (and its row sequence numbers, when present).
  /// Returns false at end of stream.
  Result<bool> NextBatch(RowBatch* batch, std::vector<uint64_t>* seqs);

 private:
  SpillChunkReader reader_;
  Schema schema_;
};

}  // namespace hive

#endif  // HIVE_EXEC_SPILL_H_
