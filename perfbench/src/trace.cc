#include "src/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {
namespace {

struct OpenSpan {
  uint64_t id;
  uint64_t stmt;
};
thread_local std::vector<OpenSpan> open_spans;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (!tracer_) return;
  const uint64_t stmt = open_spans.empty()
                            ? tracer_->latest_stmt_.load(std::memory_order_relaxed)
                            : open_spans.back().stmt;
  Open(name, stmt);
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t stmt)
    : tracer_(tracer) {
  if (!tracer_) return;
  tracer_->latest_stmt_.store(stmt, std::memory_order_relaxed);
  Open(name, stmt);
}

void Tracer::Scope::Open(const char* name, uint64_t stmt) {
  record_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  record_.parent = open_spans.empty() ? 0 : open_spans.back().id;
  record_.stmt = stmt;
  record_.name = name;
  open_spans.push_back({record_.id, stmt});
  open_ = true;
  record_.start_ns = NowNs();
}

int64_t Tracer::Scope::End() {
  if (!open_) return 0;
  record_.end_ns = NowNs();
  open_ = false;
  // Scopes nest lexically, so this span is the innermost open one.
  if (!open_spans.empty() && open_spans.back().id == record_.id) open_spans.pop_back();
  const int64_t duration = record_.end_ns - record_.start_ns;
  tracer_->Add(std::move(record_));
  return duration;
}

Tracer::Scope::~Scope() { End(); }

void Tracer::Add(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(record));
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJson(const std::string& path) const {
  std::vector<SpanRecord> spans = Spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const int64_t origin = spans.empty() ? 0 : std::min_element(
      spans.begin(), spans.end(), [](const SpanRecord& a, const SpanRecord& b) {
        return a.start_ns < b.start_ns;
      })->start_ns;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"stmt\":%llu,\"name\":\"%s\","
                 "\"start_us\":%.3f,\"end_us\":%.3f}%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.stmt), s.name.c_str(),
                 (s.start_ns - origin) / 1e3, (s.end_ns - origin) / 1e3,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

std::map<std::string, int64_t> SelfTimeByLayer(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans)
    if (s.parent) children[s.parent].push_back(&s);
  std::map<std::string, int64_t> self;
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (const SpanRecord& s : spans) {
    covered.clear();
    if (auto it = children.find(s.id); it != children.end()) {
      for (const SpanRecord* c : it->second) {
        const int64_t lo = std::max(c->start_ns, s.start_ns);
        const int64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0, cur_lo = 0, cur_hi = 0;
    bool any = false;
    for (const auto& [lo, hi] : covered) {
      if (!any || lo > cur_hi) {
        if (any) union_ns += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        any = true;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (any) union_ns += cur_hi - cur_lo;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += (s.end_ns - s.start_ns) - union_ns;
  }
  return self;
}

std::map<std::string, SpanTotal> TotalsByName(const std::vector<SpanRecord>& spans) {
  std::map<std::string, SpanTotal> totals;
  for (const SpanRecord& s : spans) {
    SpanTotal& t = totals[s.name];
    t.ns += s.end_ns - s.start_ns;
    ++t.count;
  }
  return totals;
}

}  // namespace perfbench
