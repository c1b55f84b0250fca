#include "src/rows.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

bool ValuesMatch(const hive::Value& a, const hive::Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  if (a.kind() == hive::TypeKind::kDouble || b.kind() == hive::TypeKind::kDouble) {
    const double x = a.AsDouble(), y = b.AsDouble();
    return std::fabs(x - y) <= 1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
  }
  return hive::Value::Compare(a, b) == 0;
}

bool RowLess(const Row& a, const Row& b) {
  return std::lexicographical_compare(
      a.begin(), a.end(), b.begin(), b.end(),
      [](const hive::Value& x, const hive::Value& y) {
        return hive::Value::Compare(x, y) < 0;
      });
}

}  // namespace

void SortRows(Rows* rows) { std::sort(rows->begin(), rows->end(), RowLess); }

bool RowsMatch(const Rows& expected, const Rows& actual) {
  if (expected.size() != actual.size()) return false;
  Rows sorted_expected;
  const bool canonical = std::is_sorted(expected.begin(), expected.end(), RowLess);
  if (!canonical) {
    sorted_expected = expected;
    SortRows(&sorted_expected);
  }
  const Rows& a = canonical ? expected : sorted_expected;
  Rows b = actual;
  SortRows(&b);
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j)
      if (!ValuesMatch(a[i][j], b[i][j])) return false;
  }
  return true;
}

uint64_t UserBytes(const Rows& rows) {
  uint64_t bytes = 0;
  for (const Row& row : rows) {
    for (const hive::Value& v : row) {
      if (v.is_null()) continue;
      bytes += v.kind() == hive::TypeKind::kString ? v.str().size() : 8;
    }
  }
  return bytes;
}

}  // namespace perfbench
