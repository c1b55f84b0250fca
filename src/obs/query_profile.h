#ifndef HIVE_OBS_QUERY_PROFILE_H_
#define HIVE_OBS_QUERY_PROFILE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metric_names.h"

namespace hive {
namespace obs {

/// Per-operator execution span: filled in by the profiling wrapper the
/// compiler inserts around every physical operator. Times are *inclusive*
/// (children included) — self time derives by subtracting the children —
/// and come in two flavors mirroring SimClock: wall microseconds actually
/// spent, and virtual microseconds of modeled cluster latency (container
/// start-up, shuffle, injected faults, modeled scan CPU).
struct OperatorProfileNode {
  std::string name;    // operator kind: "Scan", "Filter", "HashJoin", ...
  std::string detail;  // e.g. table name, join type, "spooled"
  /// Blocking operators materialize their input before emitting (join
  /// build, aggregation, sort, window): their memory peak is the bytes they
  /// held, while streaming operators only ever hold one batch.
  bool blocking = false;

  int64_t rows_out = 0;
  int64_t batches = 0;
  int64_t wall_us = 0;     // inclusive wall time across Open/Next/Close
  int64_t virtual_us = 0;  // inclusive modeled (SimClock) time
  uint64_t bytes_out = 0;  // sum of emitted batch footprints
  uint64_t peak_mem_bytes = 0;  // estimate; see `blocking`

  std::vector<std::shared_ptr<OperatorProfileNode>> children;

  /// Inclusive minus children-inclusive (never below 0).
  int64_t SelfWallUs() const;
  int64_t SelfVirtualUs() const;
};

using OperatorProfileNodePtr = std::shared_ptr<OperatorProfileNode>;

/// The structured execution record attached to every QueryResult: a flat
/// bag of named counters ("task.retries", "time.wall_us", ...) plus the
/// operator-span tree rooted at the query's physical plan. Counter names
/// follow the registry's naming scheme so per-query numbers line up with
/// the engine-wide SHOW METRICS output.
///
/// Not thread-safe: one query's coordinator writes it; readers consume it
/// after the query finishes.
class QueryProfile {
 public:
  // --- counters ---
  void SetCounter(const std::string& name, int64_t v) { counters_[name] = v; }
  void AddCounter(const std::string& name, int64_t delta) {
    counters_[name] += delta;
  }
  /// 0 when the counter was never recorded.
  int64_t counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  const std::map<std::string, int64_t>& counters() const { return counters_; }

  // --- operator tree ---
  /// Attaches a compiled plan's span tree. The first root is the main
  /// query plan; later roots are auxiliary plans (semijoin-reducer builds).
  void AttachRoot(OperatorProfileNodePtr root) {
    roots_.push_back(std::move(root));
  }
  /// Drops all spans; called before a re-execution attempt recompiles so
  /// the retained tree always describes the attempt that produced the rows.
  void ResetOperatorTree() { roots_.clear(); }
  const std::vector<OperatorProfileNodePtr>& roots() const { return roots_; }
  /// Main plan root (null when the statement never compiled a plan).
  const OperatorProfileNode* root() const {
    return roots_.empty() ? nullptr : roots_.front().get();
  }

  /// Sums SelfVirtualUs over the main plan's spans — identically the main
  /// root's inclusive time. Auxiliary roots are *excluded*: semijoin-reducer
  /// builds execute inside the main plan's scan Open, so their time is
  /// already inside the main root and adding them would double-count.
  int64_t TreeVirtualUs() const;
  int64_t TreeWallUs() const;

  /// One-line digest: rows, wall+virtual time, cache hit, retries.
  std::string Summary() const;
  /// Plan tree annotated with actuals (EXPLAIN ANALYZE body) followed by
  /// the counter block.
  std::string ToString() const;
  /// JSON export for benches: {"counters": {...}, "plan": {...}}.
  std::string ToJson() const;

 private:
  std::map<std::string, int64_t> counters_;
  std::vector<OperatorProfileNodePtr> roots_;
};

// The well-known per-query counter names live in obs/metric_names.h with
// every other metric name; qc is an alias of that registry (used by the
// server and tests).

}  // namespace obs
}  // namespace hive

#endif  // HIVE_OBS_QUERY_PROFILE_H_
