#ifndef PERFBENCH_COUNTING_FS_H_
#define PERFBENCH_COUNTING_FS_H_

#include <array>
#include <atomic>
#include <cstdint>

#include "fs/filesystem.h"
#include "src/trace.h"

namespace perfbench {

/// FileSystem decorator for the traced run: forwards every call to `base`
/// and records, per kind of operation, the calls, the bytes moved and the
/// time spent, and (when given a tracer) one `fs.<op>` span per call. The
/// engine sees it as any other hive::FileSystem, so nothing under src/fs
/// changes.
class CountingFileSystem : public hive::FileSystem {
 public:
  enum Op { kRead, kWrite, kStat, kList, kMkdirs, kDelete, kRename, kExists, kNumOps };
  struct OpTotals {
    uint64_t calls = 0;
    uint64_t bytes = 0;
    uint64_t ns = 0;
  };
  using Totals = std::array<OpTotals, kNumOps>;

  /// `base` outlives this object.
  explicit CountingFileSystem(hive::FileSystem* base) : base_(base) {}

  /// Starts (or, with null, stops) recording spans into `tracer`, which
  /// must outlive the recording. Safe while the engine is running.
  void set_tracer(Tracer* tracer) { tracer_.store(tracer, std::memory_order_release); }

  hive::Status WriteFile(const std::string& path, const std::string& data) override;
  hive::Result<std::string> ReadFile(const std::string& path) override;
  hive::Result<std::string> ReadRange(const std::string& path, uint64_t offset,
                                      uint64_t len) override;
  hive::Result<hive::FileInfo> Stat(const std::string& path) override;
  hive::Result<std::vector<hive::FileInfo>> ListDir(const std::string& path) override;
  hive::Status MakeDirs(const std::string& path) override;
  hive::Status DeleteFile(const std::string& path) override;
  hive::Status DeleteRecursive(const std::string& path) override;
  hive::Status Rename(const std::string& from, const std::string& to) override;
  bool Exists(const std::string& path) override;

  /// A consistent-enough copy of the counters (each field is read
  /// atomically; fields are not read together).
  Totals Snapshot() const;

 private:
  struct Counter {
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> bytes{0};
    std::atomic<uint64_t> ns{0};
  };
  void Count(Op op, uint64_t bytes, int64_t ns);

  hive::FileSystem* base_;
  std::atomic<Tracer*> tracer_{nullptr};
  std::array<Counter, kNumOps> counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COUNTING_FS_H_
