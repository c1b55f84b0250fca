#include "src/counting_fs.h"

namespace perfbench {

using hive::FileInfo;
using hive::Result;
using hive::Status;

namespace {
// Span names, indexed by CountingFileSystem::Op.
constexpr const char* kSpanNames[] = {"fs.read",   "fs.write",  "fs.stat",
                                      "fs.list",   "fs.mkdirs", "fs.delete",
                                      "fs.rename", "fs.exists"};
}  // namespace

void CountingFileSystem::Count(Op op, uint64_t bytes, int64_t ns) {
  Counter& c = counters_[op];
  c.calls.fetch_add(1, std::memory_order_relaxed);
  c.bytes.fetch_add(bytes, std::memory_order_relaxed);
  c.ns.fetch_add(static_cast<uint64_t>(ns), std::memory_order_relaxed);
}

CountingFileSystem::Totals CountingFileSystem::Snapshot() const {
  Totals totals;
  for (int op = 0; op < kNumOps; ++op) {
    totals[op].calls = counters_[op].calls.load(std::memory_order_relaxed);
    totals[op].bytes = counters_[op].bytes.load(std::memory_order_relaxed);
    totals[op].ns = counters_[op].ns.load(std::memory_order_relaxed);
  }
  return totals;
}

Status CountingFileSystem::WriteFile(const std::string& path, const std::string& data) {
  Tracer::Scope span(tracer_.load(std::memory_order_acquire), kSpanNames[kWrite]);
  const int64_t start = NowNs();
  Status status = base_->WriteFile(path, data);
  Count(kWrite, data.size(), NowNs() - start);
  return status;
}

Result<std::string> CountingFileSystem::ReadFile(const std::string& path) {
  Tracer::Scope span(tracer_.load(std::memory_order_acquire), kSpanNames[kRead]);
  const int64_t start = NowNs();
  Result<std::string> data = base_->ReadFile(path);
  const uint64_t bytes = data.ok() ? data->size() : 0;
  Count(kRead, bytes, NowNs() - start);
  if (data.ok()) CountRead(bytes);
  return data;
}

Result<std::string> CountingFileSystem::ReadRange(const std::string& path,
                                                  uint64_t offset, uint64_t len) {
  Tracer::Scope span(tracer_.load(std::memory_order_acquire), kSpanNames[kRead]);
  const int64_t start = NowNs();
  Result<std::string> data = base_->ReadRange(path, offset, len);
  const uint64_t bytes = data.ok() ? data->size() : 0;
  Count(kRead, bytes, NowNs() - start);
  if (data.ok()) CountRead(bytes);
  return data;
}

Result<FileInfo> CountingFileSystem::Stat(const std::string& path) {
  Tracer::Scope span(tracer_.load(std::memory_order_acquire), kSpanNames[kStat]);
  const int64_t start = NowNs();
  Result<FileInfo> info = base_->Stat(path);
  Count(kStat, 0, NowNs() - start);
  return info;
}

Result<std::vector<FileInfo>> CountingFileSystem::ListDir(const std::string& path) {
  Tracer::Scope span(tracer_.load(std::memory_order_acquire), kSpanNames[kList]);
  const int64_t start = NowNs();
  Result<std::vector<FileInfo>> entries = base_->ListDir(path);
  Count(kList, 0, NowNs() - start);
  return entries;
}

Status CountingFileSystem::MakeDirs(const std::string& path) {
  Tracer::Scope span(tracer_.load(std::memory_order_acquire), kSpanNames[kMkdirs]);
  const int64_t start = NowNs();
  Status status = base_->MakeDirs(path);
  Count(kMkdirs, 0, NowNs() - start);
  return status;
}

Status CountingFileSystem::DeleteFile(const std::string& path) {
  Tracer::Scope span(tracer_.load(std::memory_order_acquire), kSpanNames[kDelete]);
  const int64_t start = NowNs();
  Status status = base_->DeleteFile(path);
  Count(kDelete, 0, NowNs() - start);
  return status;
}

Status CountingFileSystem::DeleteRecursive(const std::string& path) {
  Tracer::Scope span(tracer_.load(std::memory_order_acquire), kSpanNames[kDelete]);
  const int64_t start = NowNs();
  Status status = base_->DeleteRecursive(path);
  Count(kDelete, 0, NowNs() - start);
  return status;
}

Status CountingFileSystem::Rename(const std::string& from, const std::string& to) {
  Tracer::Scope span(tracer_.load(std::memory_order_acquire), kSpanNames[kRename]);
  const int64_t start = NowNs();
  Status status = base_->Rename(from, to);
  Count(kRename, 0, NowNs() - start);
  return status;
}

bool CountingFileSystem::Exists(const std::string& path) {
  Tracer::Scope span(tracer_.load(std::memory_order_acquire), kSpanNames[kExists]);
  const int64_t start = NowNs();
  const bool exists = base_->Exists(path);
  Count(kExists, 0, NowNs() - start);
  return exists;
}

}  // namespace perfbench
