#include "src/stats.h"

#include <algorithm>

namespace perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

Tail TailOf(std::vector<double> samples) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n <= kTailBeyond) {
    tail.value = samples.back();
    tail.percentile = 100.0;
    return tail;
  }
  const size_t rank = n - kTailBeyond;  // 1-based nearest rank
  tail.value = samples[rank - 1];
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  tail.beyond = kTailBeyond;
  return tail;
}

Tail ChunkedTail(const std::vector<std::vector<double>>& streams, size_t chunk) {
  std::vector<double> values, percentiles;
  Tail out;
  out.beyond = kTailBeyond;
  for (const std::vector<double>& stream : streams) {
    if (stream.empty()) continue;
    const size_t chunks = chunk ? std::max<size_t>(1, stream.size() / chunk) : 1;
    for (size_t c = 0; c < chunks; ++c) {
      const auto begin = stream.begin() + static_cast<std::ptrdiff_t>(c * chunk);
      const auto end = c + 1 == chunks ? stream.end() : begin + static_cast<std::ptrdiff_t>(chunk);
      const Tail tail = TailOf(std::vector<double>(begin, end));
      values.push_back(tail.value);
      percentiles.push_back(tail.percentile);
      out.beyond = std::min(out.beyond, tail.beyond);
    }
    out.samples += stream.size();
  }
  if (values.empty()) return Tail{};
  out.value = Median(values);
  out.percentile = Median(percentiles);
  out.chunks = values.size();
  return out;
}

Outcome ClassifyFailure(const hive::Status& status) {
  if (status.code() != hive::StatusCode::kResourceExhausted) return Outcome::kError;
  if (status.message().find("wlm.queue.timeout.ms") != std::string::npos)
    return Outcome::kTimeout;
  return Outcome::kRefused;
}

void Outcomes::Record(Outcome outcome) {
  ++attempted;
  switch (outcome) {
    case Outcome::kOk: ++ok; break;
    case Outcome::kError: ++errors; break;
    case Outcome::kRefused: ++refused; break;
    case Outcome::kTimeout: ++timeouts; break;
    case Outcome::kWrongResult: ++wrong; break;
  }
}

void Outcomes::Merge(const Outcomes& other) {
  attempted += other.attempted;
  ok += other.ok;
  errors += other.errors;
  refused += other.refused;
  timeouts += other.timeouts;
  wrong += other.wrong;
}

}  // namespace perfbench
