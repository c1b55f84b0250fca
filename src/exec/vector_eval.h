#ifndef HIVE_EXEC_VECTOR_EVAL_H_
#define HIVE_EXEC_VECTOR_EVAL_H_

#include <atomic>

#include "common/column_vector.h"
#include "common/ast.h"

namespace hive {

/// Vectorized expression interpreter: evaluates a bound expression over all
/// *physical* rows of a batch (selection vectors are applied by the caller).
/// Column references alias the input vectors; literals stay scalar inside
/// comparisons. Native kernels run as tight loops over the raw buffers:
/// arithmetic on integer/decimal/double columns; comparisons, BETWEEN and
/// IN on numeric, date/timestamp/boolean and string operands; IS [NOT]
/// NULL, NOT, AND and OR. Each keeps the boxed evaluator's three-valued
/// logic, and DECIMAL meets DOUBLE in double as in Value::Compare. Anything
/// else (CASE, CAST, LIKE, functions, cross-kind comparisons) falls back to
/// a row-wise loop that boxes only the columns the expression references.
/// This mirrors the vectorized operator model of [39] that LLAP executes
/// directly on its RLE data (Section 5.1).
///
/// `rowwise_rows` (optional) counts the rows evaluated through that boxed
/// fallback: the per-query exec.eval.rowwise_rows counter.
Result<ColumnVectorPtr> EvalVector(const Expr& e, const RowBatch& batch,
                                   std::atomic<int64_t>* rowwise_rows = nullptr);

/// Evaluates a boolean predicate and intersects it with the batch's current
/// selection, returning the surviving physical row indexes.
Result<std::vector<int32_t>> FilterSelection(
    const Expr& predicate, const RowBatch& batch,
    std::atomic<int64_t>* rowwise_rows = nullptr);

/// Column-wise key hashing for the join/aggregation hot path: hashes every
/// *physical* row of the evaluated key columns in one pass per column,
/// replacing the per-row boxed std::vector<Value> + Value::Hash() loop. The
/// output is bit-identical to folding Value::Hash() of each key into
/// HashCombine seeded with 0x9e3779b97f4a7c15 (the HashKeys discipline), so
/// flat tables built from either path agree.
///
/// `all_valid` (optional) gets 1 for rows where every key column is
/// non-null — equi-join keys with any NULL never match and are skipped by
/// the build/probe, while GROUP BY keeps NULL groups and ignores it.
void HashKeyColumns(const std::vector<ColumnVectorPtr>& key_cols, size_t num_rows,
                    std::vector<uint64_t>* hashes, std::vector<uint8_t>* all_valid);

}  // namespace hive

#endif  // HIVE_EXEC_VECTOR_EVAL_H_
