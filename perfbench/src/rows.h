#ifndef PERFBENCH_ROWS_H_
#define PERFBENCH_ROWS_H_

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace perfbench {

using Row = std::vector<hive::Value>;
using Rows = std::vector<Row>;

/// True when `actual` holds the same rows as `expected`, as multisets.
/// Row order is not compared: the references come from a different
/// executor count, where ties under ORDER BY may legally come out in
/// another order. Doubles match within a relative 1e-9, since partial sums
/// combine in a different order at another parallelism.
/// Expected rows already in canonical order (SortRows) are not re-sorted.
bool RowsMatch(const Rows& expected, const Rows& actual);

/// Puts rows in the canonical order RowsMatch compares in, so references
/// captured once are not sorted again on every check.
void SortRows(Rows* rows);

/// Bytes of user data in `rows`, counted the same way for every table:
/// 8 bytes per non-null fixed-width value, the length of each string, 0 for
/// NULL. The denominator of space amplification.
uint64_t UserBytes(const Rows& rows);

}  // namespace perfbench

#endif  // PERFBENCH_ROWS_H_
