#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// Median of `samples` (mean of the two middle values for an even count);
/// 0 for an empty set.
double Median(std::vector<double> samples);

/// The tail latency the benchmark reports: the highest nearest-rank
/// percentile that still has at least `kTailBeyond` samples strictly above
/// it. With n samples that is the (n - kTailBeyond)-th smallest, i.e. the
/// percentile 100 * (n - kTailBeyond) / n. With too few samples the maximum
/// is reported and `beyond` says how many samples lie above it (0).
struct Tail {
  double value = 0;
  double percentile = 0;
  size_t samples = 0;
  size_t beyond = 0;
  size_t chunks = 1;
};
inline constexpr size_t kTailBeyond = 10;
Tail TailOf(std::vector<double> samples);

/// The tail of several clients' latency streams (each in completion
/// order), taken over chunks of `chunk` consecutive samples of one client
/// and reported as the median chunk. A stream shorter than two chunks, or
/// any stream when `chunk` is 0, is one chunk; otherwise its last chunk
/// absorbs the remainder. Chunks keep the tail at the same percentile (about
/// the 90th for chunks of 100) however many statements a run completes,
/// instead of drifting to the single slowest hiccup of a long, fast run.
Tail ChunkedTail(const std::vector<std::vector<double>>& streams, size_t chunk);

/// What happened to one attempted statement.
enum class Outcome { kOk, kError, kRefused, kTimeout, kWrongResult };

/// Maps a failed statement's status to its outcome: admission-queue
/// deadline expiries are timeouts, other resource refusals (pool full,
/// killed) are refusals, everything else is an error.
Outcome ClassifyFailure(const hive::Status& status);

/// Failure accounting: every attempted statement lands in exactly one
/// bucket, and every non-ok bucket counts against `attempted`.
struct Outcomes {
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t errors = 0;
  int64_t refused = 0;
  int64_t timeouts = 0;
  int64_t wrong = 0;

  void Record(Outcome outcome);
  void Merge(const Outcomes& other);
  int64_t failed() const { return errors + refused + timeouts + wrong; }
  double failed_frac() const {
    return attempted ? static_cast<double>(failed()) / attempted : 0.0;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
