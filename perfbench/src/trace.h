#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

/// One finished span. `parent` 0 means a root (or an engine-worker span
/// that has no enclosing span on its thread).
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t stmt = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span recorder for the traced run. Spans are appended under a
/// mutex when they end and written out once, when the run ends. Each thread
/// keeps the stack of its open spans, so a span opened without an explicit
/// parent nests under the innermost open span of its thread; on a thread
/// with no open span (an engine worker) it has no parent and is tagged with
/// the statement most recently started by any client.
class Tracer {
 public:
  class Scope {
   public:
    /// Opens `name` (a static string) under the calling thread's innermost
    /// open span. A null tracer makes the scope a no-op.
    Scope(Tracer* tracer, const char* name);
    /// Opens a new statement root span for statement `stmt`.
    Scope(Tracer* tracer, const char* name, uint64_t stmt);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Ends the span now instead of at scope exit; returns its duration.
    int64_t End();

   private:
    void Open(const char* name, uint64_t stmt);

    Tracer* tracer_;
    SpanRecord record_;
    bool open_ = false;
  };

  std::vector<SpanRecord> Spans() const;
  size_t size() const;
  /// Writes every span as a JSON array of
  /// {"id","parent","stmt","name","start_us","end_us"} objects.
  bool WriteJson(const std::string& path) const;

 private:
  void Add(SpanRecord record);

  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> latest_stmt_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// Self time per layer: each span's duration minus the part of its interval
/// covered by its children, summed by layer (the span name up to its first
/// '.'). Values are nanoseconds.
std::map<std::string, int64_t> SelfTimeByLayer(const std::vector<SpanRecord>& spans);

/// Total duration and count of spans with exactly this name.
struct SpanTotal {
  int64_t ns = 0;
  int64_t count = 0;
};
std::map<std::string, SpanTotal> TotalsByName(const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
