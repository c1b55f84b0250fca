#include "storage/cof.h"

#include <algorithm>
#include <unordered_map>

#include "common/hash.h"
#include "common/serde.h"

namespace hive {

namespace {

constexpr char kMagic[] = "COF1";
constexpr size_t kMagicLen = 4;

/// Seed for the per-chunk Murmur64 checksums carried in the footer.
constexpr uint64_t kChunkChecksumSeed = 0xc0f1c0f1ULL;

enum Encoding : uint8_t {
  kPlainI64 = 0,
  kRleI64 = 1,
  kPlainF64 = 2,
  kPlainString = 3,
  kDictString = 4,
};

void PutValidity(std::string* out, const std::vector<uint8_t>& validity) {
  serde::PutU32(out, static_cast<uint32_t>(validity.size()));
  bool all_valid = true;
  for (uint8_t v : validity)
    if (!v) {
      all_valid = false;
      break;
    }
  out->push_back(all_valid ? 1 : 0);
  if (!all_valid)
    out->append(reinterpret_cast<const char*>(validity.data()), validity.size());
}

bool GetValidity(const std::string& in, size_t* offset, std::vector<uint8_t>* validity) {
  uint32_t n;
  if (!serde::GetU32(in, offset, &n)) return false;
  if (*offset >= in.size()) return false;
  uint8_t all_valid = static_cast<uint8_t>(in[(*offset)++]);
  if (all_valid) {
    validity->assign(n, 1);
    return true;
  }
  if (*offset + n > in.size()) return false;
  validity->resize(n);
  std::memcpy(validity->data(), in.data() + *offset, n);
  *offset += n;
  return true;
}

/// Encodes one column chunk, choosing the cheapest encoding.
void EncodeColumn(const ColumnVector& col, std::string* out) {
  const size_t n = col.size();
  if (col.type().kind == TypeKind::kDouble) {
    out->push_back(static_cast<char>(kPlainF64));
    PutValidity(out, col.validity());
    out->append(reinterpret_cast<const char*>(col.f64_data().data()), n * 8);
    return;
  }
  if (col.type().kind == TypeKind::kString) {
    // Count distinct to decide between plain and dictionary encoding.
    std::unordered_map<std::string, uint32_t> dict;
    size_t plain_cost = 0, dict_str_cost = 0;
    for (size_t i = 0; i < n; ++i) {
      const std::string& s = col.GetStr(i);
      plain_cost += 4 + s.size();
      if (dict.emplace(s, static_cast<uint32_t>(dict.size())).second)
        dict_str_cost += 4 + s.size();
    }
    size_t dict_cost = 4 + dict_str_cost + n * 4;
    if (dict_cost < plain_cost) {
      out->push_back(static_cast<char>(kDictString));
      PutValidity(out, col.validity());
      // Dictionary in first-appearance order.
      std::vector<const std::string*> ordered(dict.size());
      for (const auto& kv : dict) ordered[kv.second] = &kv.first;
      serde::PutU32(out, static_cast<uint32_t>(ordered.size()));
      for (const std::string* s : ordered) serde::PutString(out, *s);
      for (size_t i = 0; i < n; ++i) serde::PutU32(out, dict[col.GetStr(i)]);
    } else {
      out->push_back(static_cast<char>(kPlainString));
      PutValidity(out, col.validity());
      for (size_t i = 0; i < n; ++i) serde::PutString(out, col.GetStr(i));
    }
    return;
  }
  // Integer-backed kinds: plain vs run-length.
  const auto& data = col.i64_data();
  size_t runs = n == 0 ? 0 : 1;
  for (size_t i = 1; i < n; ++i)
    if (data[i] != data[i - 1]) ++runs;
  size_t rle_cost = 4 + runs * 12;
  size_t plain_cost = n * 8;
  if (rle_cost < plain_cost) {
    out->push_back(static_cast<char>(kRleI64));
    PutValidity(out, col.validity());
    serde::PutU32(out, static_cast<uint32_t>(runs));
    size_t i = 0;
    while (i < n) {
      size_t j = i;
      while (j < n && data[j] == data[i]) ++j;
      serde::PutI64(out, data[i]);
      serde::PutU32(out, static_cast<uint32_t>(j - i));
      i = j;
    }
  } else {
    out->push_back(static_cast<char>(kPlainI64));
    PutValidity(out, col.validity());
    out->append(reinterpret_cast<const char*>(data.data()), n * 8);
  }
}

Result<ColumnVectorPtr> DecodeColumn(const std::string& in, DataType type) {
  size_t offset = 0;
  if (in.empty()) return Status::Corruption("empty column chunk");
  auto enc = static_cast<Encoding>(static_cast<uint8_t>(in[0]));
  offset = 1;
  auto col = std::make_shared<ColumnVector>(type);
  std::vector<uint8_t> validity;
  if (!GetValidity(in, &offset, &validity)) return Status::Corruption("cof validity");
  const size_t n = validity.size();
  col->Resize(n);
  col->validity() = validity;
  switch (enc) {
    case kPlainI64: {
      if (offset + n * 8 > in.size()) return Status::Corruption("cof i64 data");
      std::memcpy(col->i64_data().data(), in.data() + offset, n * 8);
      break;
    }
    case kRleI64: {
      uint32_t runs;
      if (!serde::GetU32(in, &offset, &runs)) return Status::Corruption("cof rle");
      size_t pos = 0;
      for (uint32_t r = 0; r < runs; ++r) {
        int64_t v;
        uint32_t count;
        if (!serde::GetI64(in, &offset, &v) || !serde::GetU32(in, &offset, &count))
          return Status::Corruption("cof rle run");
        for (uint32_t k = 0; k < count && pos < n; ++k) col->i64_data()[pos++] = v;
      }
      if (pos != n) return Status::Corruption("cof rle length");
      break;
    }
    case kPlainF64: {
      if (offset + n * 8 > in.size()) return Status::Corruption("cof f64 data");
      std::memcpy(col->f64_data().data(), in.data() + offset, n * 8);
      break;
    }
    case kPlainString: {
      for (size_t i = 0; i < n; ++i)
        if (!serde::GetString(in, &offset, &col->str_data()[i]))
          return Status::Corruption("cof string");
      break;
    }
    case kDictString: {
      uint32_t dict_size;
      if (!serde::GetU32(in, &offset, &dict_size)) return Status::Corruption("cof dict");
      std::vector<std::string> dict(dict_size);
      for (auto& s : dict)
        if (!serde::GetString(in, &offset, &s)) return Status::Corruption("cof dict entry");
      for (size_t i = 0; i < n; ++i) {
        uint32_t idx;
        if (!serde::GetU32(in, &offset, &idx) || idx >= dict_size)
          return Status::Corruption("cof dict index");
        col->str_data()[i] = dict[idx];
      }
      break;
    }
    default:
      return Status::Corruption("cof unknown encoding");
  }
  return col;
}

ColumnChunkStats ComputeStats(const ColumnVector& col) {
  ColumnChunkStats stats;
  stats.value_count = col.size();
  for (size_t i = 0; i < col.size(); ++i) {
    if (col.IsNull(i)) {
      ++stats.null_count;
      continue;
    }
    Value v = col.GetValue(i);
    if (stats.min.is_null() || Value::Compare(v, stats.min) < 0) stats.min = v;
    if (stats.max.is_null() || Value::Compare(v, stats.max) > 0) stats.max = v;
  }
  return stats;
}

void SerializeStats(std::string* out, const ColumnChunkStats& stats) {
  SerializeValue(out, stats.min);
  SerializeValue(out, stats.max);
  serde::PutU64(out, stats.null_count);
  serde::PutU64(out, stats.value_count);
  serde::PutU32(out, stats.has_bloom ? 1 : 0);
}

Result<ColumnChunkStats> DeserializeStats(const std::string& in, size_t* offset) {
  ColumnChunkStats stats;
  HIVE_ASSIGN_OR_RETURN(stats.min, DeserializeValue(in, offset));
  HIVE_ASSIGN_OR_RETURN(stats.max, DeserializeValue(in, offset));
  uint32_t has_bloom;
  if (!serde::GetU64(in, offset, &stats.null_count) ||
      !serde::GetU64(in, offset, &stats.value_count) ||
      !serde::GetU32(in, offset, &has_bloom))
    return Status::Corruption("cof stats");
  stats.has_bloom = has_bloom != 0;
  return stats;
}

}  // namespace

void SerializeValue(std::string* out, const Value& v) {
  if (v.is_null()) {
    out->push_back(0);
    return;
  }
  out->push_back(static_cast<char>(v.kind()));
  switch (v.kind()) {
    case TypeKind::kDouble:
      serde::PutF64(out, v.f64());
      break;
    case TypeKind::kString:
      serde::PutString(out, v.str());
      break;
    case TypeKind::kDecimal:
      serde::PutI64(out, v.i64());
      serde::PutU32(out, static_cast<uint32_t>(v.scale()));
      break;
    default:
      serde::PutI64(out, v.i64());
      break;
  }
}

Result<Value> DeserializeValue(const std::string& data, size_t* offset) {
  if (*offset >= data.size()) return Status::Corruption("value tag");
  auto kind = static_cast<TypeKind>(static_cast<uint8_t>(data[*offset]));
  ++*offset;
  if (kind == TypeKind::kNull) return Value::Null();
  switch (kind) {
    case TypeKind::kDouble: {
      double d;
      if (!serde::GetF64(data, offset, &d)) return Status::Corruption("value f64");
      return Value::Double(d);
    }
    case TypeKind::kString: {
      std::string s;
      if (!serde::GetString(data, offset, &s)) return Status::Corruption("value str");
      return Value::String(std::move(s));
    }
    case TypeKind::kDecimal: {
      int64_t unscaled;
      uint32_t scale;
      if (!serde::GetI64(data, offset, &unscaled) || !serde::GetU32(data, offset, &scale))
        return Status::Corruption("value decimal");
      return Value::Decimal(unscaled, static_cast<int>(scale));
    }
    default: {
      int64_t i;
      if (!serde::GetI64(data, offset, &i)) return Status::Corruption("value i64");
      switch (kind) {
        case TypeKind::kBoolean: return Value::Boolean(i != 0);
        case TypeKind::kDate: return Value::Date(i);
        case TypeKind::kTimestamp: return Value::Timestamp(i);
        default: return Value::Bigint(i);
      }
    }
  }
}

CofWriter::CofWriter(Schema schema, CofWriteOptions options)
    : schema_(std::move(schema)), options_(options) {
  buffer_.append(kMagic, kMagicLen);
  pending_.reserve(schema_.num_fields());
  for (size_t i = 0; i < schema_.num_fields(); ++i)
    pending_.emplace_back(schema_.field(i).type);
  bloom_enabled_.assign(schema_.num_fields(), false);
  for (const std::string& name : options_.bloom_columns) {
    auto idx = schema_.IndexOf(name);
    if (idx) bloom_enabled_[*idx] = true;
  }
}

void CofWriter::AppendRow(const std::vector<Value>& row) {
  for (size_t c = 0; c < pending_.size() && c < row.size(); ++c)
    pending_[c].AppendValue(row[c]);
  for (size_t c = row.size(); c < pending_.size(); ++c) pending_[c].AppendNull();
  ++pending_rows_;
  ++rows_appended_;
  if (pending_rows_ >= options_.row_group_size) FlushRowGroup();
}

void CofWriter::AppendBatch(const RowBatch& batch) {
  std::vector<int32_t> rows(batch.SelectedSize());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = batch.SelectedRow(i);
  // Gather up to the row-group boundary, flush, repeat: row groups break at
  // the same rows as with AppendRow.
  const size_t group_rows = std::max<size_t>(1, options_.row_group_size);
  for (size_t done = 0; done < rows.size();) {
    const size_t take = std::min(rows.size() - done, group_rows - pending_rows_);
    for (size_t c = 0; c < pending_.size() && c < batch.num_columns(); ++c)
      pending_[c].AppendGather(*batch.column(c), rows.data() + done, take);
    pending_rows_ += take;
    rows_appended_ += take;
    done += take;
    if (pending_rows_ >= group_rows) FlushRowGroup();
  }
}

void CofWriter::FlushRowGroup() {
  if (pending_rows_ == 0) return;
  CofRowGroupInfo info;
  info.offset = buffer_.size();
  info.num_rows = static_cast<uint32_t>(pending_rows_);
  for (size_t c = 0; c < pending_.size(); ++c) {
    std::string encoded;
    EncodeColumn(pending_[c], &encoded);
    info.column_offsets.push_back(buffer_.size() - info.offset);
    info.column_lengths.push_back(encoded.size());
    info.column_checksums.push_back(
        Murmur64(encoded.data(), encoded.size(), kChunkChecksumSeed));
    buffer_.append(encoded);
    info.stats.push_back(ComputeStats(pending_[c]));
    if (bloom_enabled_[c]) {
      auto bloom = std::make_shared<BloomFilter>(pending_rows_, options_.bloom_fpp);
      for (size_t i = 0; i < pending_[c].size(); ++i)
        if (!pending_[c].IsNull(i)) bloom->Add(pending_[c].GetValue(i));
      info.stats.back().has_bloom = true;
      info.blooms.push_back(std::move(bloom));
    } else {
      info.blooms.push_back(nullptr);
    }
  }
  info.length = buffer_.size() - info.offset;
  row_groups_.push_back(std::move(info));
  for (auto& col : pending_) col = ColumnVector(col.type());
  pending_rows_ = 0;
}

Result<std::string> CofWriter::Finish() {
  if (finished_) return Status::Internal("CofWriter::Finish called twice");
  finished_ = true;
  FlushRowGroup();
  uint64_t footer_offset = buffer_.size();
  std::string footer;
  schema_.Serialize(&footer);
  serde::PutU32(&footer, static_cast<uint32_t>(row_groups_.size()));
  for (const CofRowGroupInfo& rg : row_groups_) {
    serde::PutU64(&footer, rg.offset);
    serde::PutU64(&footer, rg.length);
    serde::PutU32(&footer, rg.num_rows);
    for (size_t c = 0; c < schema_.num_fields(); ++c) {
      serde::PutU64(&footer, rg.column_offsets[c]);
      serde::PutU64(&footer, rg.column_lengths[c]);
      serde::PutU64(&footer, rg.column_checksums[c]);
      SerializeStats(&footer, rg.stats[c]);
      if (rg.stats[c].has_bloom) rg.blooms[c]->Serialize(&footer);
    }
  }
  buffer_.append(footer);
  // Tail: [footer checksum][footer offset][magic]. The checksum covers the
  // footer bytes so a corrupted footer read is detected before any of its
  // offsets/checksums are trusted (the chunk checksums can only protect the
  // data if the footer carrying them is itself intact).
  serde::PutU64(&buffer_, Murmur64(footer.data(), footer.size(), kChunkChecksumSeed));
  serde::PutU64(&buffer_, footer_offset);
  buffer_.append(kMagic, kMagicLen);
  return std::move(buffer_);
}

Result<std::shared_ptr<CofReader>> CofReader::Open(FileSystem* fs,
                                                   const std::string& path) {
  HIVE_ASSIGN_OR_RETURN(FileInfo info, fs->Stat(path));
  if (info.size < kMagicLen * 2 + 16) return Status::Corruption("cof too small: " + path);
  // Tail and footer integrity failures are marked transient: the bytes on
  // storage are usually fine and only this read of them was bad (torn or
  // corrupted), so the task-attempt layer re-reads instead of failing the
  // query — and a bad footer is never admitted to the metadata cache.
  HIVE_ASSIGN_OR_RETURN(std::string tail, fs->ReadRange(path, info.size - 20, 20));
  if (tail.size() != 20 || tail.substr(16, 4) != kMagic)
    return Status::Corruption("cof bad magic: " + path).MarkTransient();
  size_t off = 0;
  uint64_t footer_checksum = 0, footer_offset = 0;
  if (!serde::GetU64(tail, &off, &footer_checksum) ||
      !serde::GetU64(tail, &off, &footer_offset) || footer_offset >= info.size - 20)
    return Status::Corruption("cof bad footer offset: " + path).MarkTransient();
  HIVE_ASSIGN_OR_RETURN(
      std::string footer,
      fs->ReadRange(path, footer_offset, info.size - 20 - footer_offset));
  if (Murmur64(footer.data(), footer.size(), kChunkChecksumSeed) != footer_checksum)
    return Status::Corruption("cof footer checksum mismatch: " + path).MarkTransient();

  auto reader = std::shared_ptr<CofReader>(new CofReader());
  reader->fs_ = fs;
  reader->path_ = path;
  reader->file_id_ = info.file_id;
  size_t offset = 0;
  HIVE_ASSIGN_OR_RETURN(reader->schema_, Schema::Deserialize(footer, &offset));
  uint32_t num_rgs;
  if (!serde::GetU32(footer, &offset, &num_rgs)) return Status::Corruption("cof rg count");
  for (uint32_t i = 0; i < num_rgs; ++i) {
    CofRowGroupInfo rg;
    if (!serde::GetU64(footer, &offset, &rg.offset) ||
        !serde::GetU64(footer, &offset, &rg.length) ||
        !serde::GetU32(footer, &offset, &rg.num_rows))
      return Status::Corruption("cof rg header");
    for (size_t c = 0; c < reader->schema_.num_fields(); ++c) {
      uint64_t coff, clen, csum;
      if (!serde::GetU64(footer, &offset, &coff) ||
          !serde::GetU64(footer, &offset, &clen) ||
          !serde::GetU64(footer, &offset, &csum))
        return Status::Corruption("cof col range");
      rg.column_offsets.push_back(coff);
      rg.column_lengths.push_back(clen);
      rg.column_checksums.push_back(csum);
      HIVE_ASSIGN_OR_RETURN(ColumnChunkStats stats, DeserializeStats(footer, &offset));
      if (stats.has_bloom) {
        HIVE_ASSIGN_OR_RETURN(BloomFilter bloom, BloomFilter::Deserialize(footer, &offset));
        rg.blooms.push_back(std::make_shared<BloomFilter>(std::move(bloom)));
      } else {
        rg.blooms.push_back(nullptr);
      }
      rg.stats.push_back(std::move(stats));
    }
    reader->row_groups_.push_back(std::move(rg));
  }
  return reader;
}

uint64_t CofReader::NumRows() const {
  uint64_t n = 0;
  for (const auto& rg : row_groups_) n += rg.num_rows;
  return n;
}

ColumnChunkStats CofReader::FileStats(size_t column) const {
  ColumnChunkStats out;
  for (const auto& rg : row_groups_) {
    const ColumnChunkStats& s = rg.stats[column];
    out.null_count += s.null_count;
    out.value_count += s.value_count;
    if (!s.min.is_null() && (out.min.is_null() || Value::Compare(s.min, out.min) < 0))
      out.min = s.min;
    if (!s.max.is_null() && (out.max.is_null() || Value::Compare(s.max, out.max) > 0))
      out.max = s.max;
  }
  return out;
}

bool CofReader::MightMatch(size_t rg, const SearchArgument& sarg) const {
  if (sarg.empty()) return true;
  const CofRowGroupInfo& info = row_groups_[rg];
  std::vector<std::string> names;
  names.reserve(schema_.num_fields());
  for (const Field& f : schema_.fields()) names.push_back(f.name);
  // Augment stats with Bloom filters for equality probes.
  for (const SargPredicate& pred : sarg.conjuncts) {
    auto idx = schema_.IndexOf(pred.column);
    if (!idx) continue;
    if (!pred.ChunkMightMatch(info.stats[*idx])) return false;
    if (info.blooms[*idx] && (pred.op == SargOp::kEq || pred.op == SargOp::kIn) &&
        !pred.values.empty()) {
      bool any = false;
      for (const Value& v : pred.values)
        if (info.blooms[*idx]->MightContain(v)) {
          any = true;
          break;
        }
      if (!any) return false;
    }
  }
  return true;
}

Result<ColumnVectorPtr> CofReader::ReadColumnChunk(size_t rg, size_t column) {
  const CofRowGroupInfo& info = row_groups_[rg];
  HIVE_ASSIGN_OR_RETURN(
      std::string bytes,
      fs_->ReadRange(path_, info.offset + info.column_offsets[column],
                     info.column_lengths[column]));
  // Checksum before decode: a short read or a flipped bit must never decode
  // into wrong-but-plausible data. Marked transient — the chunk on disk may
  // be fine and only this read of it bad — so the task-attempt retry layer
  // re-reads instead of failing the query.
  if (bytes.size() != info.column_lengths[column])
    return Status::Corruption("cof chunk short read: " + path_)
        .MarkTransient();
  if (Murmur64(bytes.data(), bytes.size(), kChunkChecksumSeed) !=
      info.column_checksums[column])
    return Status::Corruption("cof chunk checksum mismatch: " + path_)
        .MarkTransient();
  return DecodeColumn(bytes, schema_.field(column).type);
}

Result<RowBatch> CofReader::ReadRowGroup(size_t rg, const std::vector<size_t>& columns) {
  Schema projected;
  for (size_t c : columns) projected.AddField(schema_.field(c).name, schema_.field(c).type);
  RowBatch batch(projected);
  for (size_t i = 0; i < columns.size(); ++i) {
    HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr col, ReadColumnChunk(rg, columns[i]));
    batch.SetColumn(i, std::move(col));
  }
  batch.set_num_rows(row_groups_[rg].num_rows);
  return batch;
}

}  // namespace hive
