#include "exec/vector_eval.h"

#include <algorithm>
#include <functional>

#include "common/hash.h"
#include "optimizer/expr_eval.h"
#include "optimizer/rel.h"

namespace hive {

namespace {

using RowwiseSink = std::atomic<int64_t>;

/// Row-wise fallback: loops the boxed evaluator over the batch. Only the
/// columns the expression references are boxed; the other slots of the row
/// stay NULL and are never read.
Result<ColumnVectorPtr> RowWiseEval(const Expr& e, const RowBatch& batch,
                                    RowwiseSink* rowwise_rows) {
  // Column references are never evaluated here, so the children hold every
  // binding; an out-of-range one stays unboxed and EvalExpr reports it.
  std::vector<bool> used(batch.num_columns(), false);
  for (const ExprPtr& c : e.children) CollectBindings(c, &used);
  std::vector<size_t> refs;
  for (size_t c = 0; c < used.size(); ++c)
    if (used[c]) refs.push_back(c);
  auto out = std::make_shared<ColumnVector>(e.type);
  const size_t n = batch.num_rows();
  std::vector<Value> row(batch.num_columns());
  for (size_t i = 0; i < n; ++i) {
    for (size_t c : refs) row[c] = batch.column(c)->GetValue(i);
    HIVE_ASSIGN_OR_RETURN(Value v, EvalExpr(e, &row));
    out->AppendValue(v);
  }
  if (rowwise_rows)
    rowwise_rows->fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
  return out;
}

template <typename OpFn>
ColumnVectorPtr ArithI64(const ColumnVector& l, const ColumnVector& r, DataType type,
                         OpFn fn) {
  auto out = std::make_shared<ColumnVector>(type);
  const size_t n = l.size();
  out->Resize(n);
  const auto& lv = l.i64_data();
  const auto& rv = r.i64_data();
  const auto& ln = l.validity();
  const auto& rn = r.validity();
  auto& ov = out->i64_data();
  auto& on = out->validity();
  for (size_t i = 0; i < n; ++i) {
    on[i] = ln[i] & rn[i];
    ov[i] = fn(lv[i], rv[i]);
  }
  return out;
}

template <typename OpFn>
ColumnVectorPtr ArithF64(const ColumnVector& l, const ColumnVector& r, OpFn fn) {
  auto out = std::make_shared<ColumnVector>(DataType::Double());
  const size_t n = l.size();
  out->Resize(n);
  auto& ov = out->f64_data();
  auto& on = out->validity();
  const auto& ln = l.validity();
  const auto& rn = r.validity();
  auto get_l = [&](size_t i) {
    return l.type().kind == TypeKind::kDouble
               ? l.f64_data()[i]
               : static_cast<double>(l.i64_data()[i]) /
                     static_cast<double>(Pow10(l.type().scale));
  };
  auto get_r = [&](size_t i) {
    return r.type().kind == TypeKind::kDouble
               ? r.f64_data()[i]
               : static_cast<double>(r.i64_data()[i]) /
                     static_cast<double>(Pow10(r.type().scale));
  };
  for (size_t i = 0; i < n; ++i) {
    on[i] = ln[i] & rn[i];
    ov[i] = fn(get_l(i), get_r(i));
  }
  return out;
}

/// Broadcast a literal to a vector of length n.
ColumnVectorPtr Broadcast(const Value& v, DataType type, size_t n) {
  auto out = std::make_shared<ColumnVector>(type);
  out->Resize(n);
  if (v.is_null()) {
    std::fill(out->validity().begin(), out->validity().end(), 0);
    return out;
  }
  std::fill(out->validity().begin(), out->validity().end(), 1);
  switch (type.kind) {
    case TypeKind::kDouble:
      std::fill(out->f64_data().begin(), out->f64_data().end(), v.AsDouble());
      break;
    case TypeKind::kString:
      std::fill(out->str_data().begin(), out->str_data().end(), v.str());
      break;
    case TypeKind::kDecimal: {
      auto cast = v.CastTo(type);
      int64_t unscaled = cast.ok() && !cast->is_null() ? cast->i64() : 0;
      std::fill(out->i64_data().begin(), out->i64_data().end(), unscaled);
      break;
    }
    default:
      std::fill(out->i64_data().begin(), out->i64_data().end(), v.AsInt64());
      break;
  }
  return out;
}

int ScaleOf(const DataType& t) { return t.kind == TypeKind::kDecimal ? t.scale : 0; }

/// Rescales an i64-backed (decimal) column so both comparison sides share a
/// scale; returns the input when no rescale is needed.
ColumnVectorPtr AlignScale(const ColumnVectorPtr& col, int target_scale) {
  int scale = ScaleOf(col->type());
  if (scale == target_scale) return col;
  auto out = std::make_shared<ColumnVector>(DataType::Decimal(18, target_scale));
  const size_t n = col->size();
  out->Resize(n);
  out->validity() = col->validity();
  int64_t factor = Pow10(target_scale - scale);
  for (size_t i = 0; i < n; ++i) out->i64_data()[i] = col->i64_data()[i] * factor;
  return out;
}

/// DOUBLE view of a numeric column; a decimal converts as Value::AsDouble
/// does (unscaled / 10^scale), so DECIMAL meets DOUBLE in double.
ColumnVectorPtr AsF64(const ColumnVectorPtr& col) {
  if (col->type().kind == TypeKind::kDouble) return col;
  auto out = std::make_shared<ColumnVector>(DataType::Double());
  const size_t n = col->size();
  out->Resize(n);
  out->validity() = col->validity();
  const double div = static_cast<double>(Pow10(ScaleOf(col->type())));
  for (size_t i = 0; i < n; ++i)
    out->f64_data()[i] = static_cast<double>(col->i64_data()[i]) / div;
  return out;
}

/// One comparison operand: a column over the batch, or a literal held as a
/// one-row vector read at index 0 (`step` 0), so a constant is never
/// broadcast to the batch length.
struct Operand {
  ColumnVectorPtr col;
  size_t step = 1;
};

Result<Operand> EvalOperand(const Expr& e, const RowBatch& batch, RowwiseSink* sink) {
  if (e.kind == ExprKind::kLiteral) return Operand{Broadcast(e.literal, e.type, 1), 0};
  HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr col, EvalVector(e, batch, sink));
  return Operand{std::move(col), 1};
}

/// How two operand types compare natively, following Value::Compare: a
/// NULL-typed side makes every row NULL; equal kinds compare by value
/// (decimals after scale alignment); across kinds only numerics compare by
/// value, in double when either side is DOUBLE. Other cross-kind pairs
/// (DATE vs BIGINT, STRING vs numbers) order by kind id in Value::Compare
/// and have no kernel.
enum class CmpKind { kNone, kNull, kI64, kF64, kStr };

CmpKind ComparisonKind(const DataType& a, const DataType& b) {
  if (a.kind == TypeKind::kNull || b.kind == TypeKind::kNull) return CmpKind::kNull;
  if (a.kind == b.kind) {
    if (a.kind == TypeKind::kString) return CmpKind::kStr;
    return a.kind == TypeKind::kDouble ? CmpKind::kF64 : CmpKind::kI64;
  }
  if (!a.IsNumeric() || !b.IsNumeric()) return CmpKind::kNone;
  return a.kind == TypeKind::kDouble || b.kind == TypeKind::kDouble ? CmpKind::kF64
                                                                    : CmpKind::kI64;
}

bool IsComparison(BinaryOp op) {
  return op == BinaryOp::kEq || op == BinaryOp::kNe || op == BinaryOp::kLt ||
         op == BinaryOp::kLe || op == BinaryOp::kGt || op == BinaryOp::kGe;
}

/// A typed operand buffer: row i reads data[i * step] (step 0 = scalar).
template <typename T>
struct Lane {
  const T* data;
  const uint8_t* valid;
  size_t step;
};

template <typename T>
Lane<T> LaneOf(const ColumnVector& col, const std::vector<T>& data, size_t step) {
  return {data.data(), col.validity().data(), step};
}

template <typename T, typename Cmp>
void CompareRows(size_t n, Lane<T> l, Lane<T> r, Cmp cmp, ColumnVector* out) {
  int64_t* value = out->i64_data().data();
  uint8_t* valid = out->validity().data();
  for (size_t i = 0; i < n; ++i) {
    const size_t li = i * l.step, ri = i * r.step;
    valid[i] = l.valid[li] & r.valid[ri];
    value[i] = cmp(l.data[li], r.data[ri]) ? 1 : 0;
  }
}

template <typename T>
void CompareByOp(BinaryOp op, size_t n, Lane<T> l, Lane<T> r, ColumnVector* out) {
  switch (op) {
    case BinaryOp::kEq: CompareRows(n, l, r, std::equal_to<T>(), out); break;
    case BinaryOp::kNe: CompareRows(n, l, r, std::not_equal_to<T>(), out); break;
    case BinaryOp::kLt: CompareRows(n, l, r, std::less<T>(), out); break;
    case BinaryOp::kLe: CompareRows(n, l, r, std::less_equal<T>(), out); break;
    case BinaryOp::kGt: CompareRows(n, l, r, std::greater<T>(), out); break;
    default: CompareRows(n, l, r, std::greater_equal<T>(), out); break;
  }
}

/// `l op r` for every row as a BOOLEAN vector, NULL where either side is
/// NULL; nullptr when the operand types have no native kernel.
ColumnVectorPtr CompareOperands(BinaryOp op, const Operand& l, const Operand& r,
                                size_t n) {
  const CmpKind kind = ComparisonKind(l.col->type(), r.col->type());
  if (kind == CmpKind::kNone) return nullptr;
  auto out = std::make_shared<ColumnVector>(DataType::Boolean());
  out->Resize(n);  // every row NULL until a kernel fills it
  switch (kind) {
    case CmpKind::kI64: {
      const int scale = std::max(ScaleOf(l.col->type()), ScaleOf(r.col->type()));
      ColumnVectorPtr la = AlignScale(l.col, scale), ra = AlignScale(r.col, scale);
      CompareByOp(op, n, LaneOf(*la, la->i64_data(), l.step),
                  LaneOf(*ra, ra->i64_data(), r.step), out.get());
      break;
    }
    case CmpKind::kF64: {
      ColumnVectorPtr la = AsF64(l.col), ra = AsF64(r.col);
      CompareByOp(op, n, LaneOf(*la, la->f64_data(), l.step),
                  LaneOf(*ra, ra->f64_data(), r.step), out.get());
      break;
    }
    case CmpKind::kStr:
      CompareByOp(op, n, LaneOf(*l.col, l.col->str_data(), l.step),
                  LaneOf(*r.col, r.col->str_data(), r.step), out.get());
      break;
    default:
      break;
  }
  return out;
}

/// [NOT] BETWEEN: NULL when the operand or either bound is NULL (the boxed
/// evaluator's rule), else lo <= v <= hi, inverted for NOT BETWEEN.
Result<ColumnVectorPtr> EvalBetween(const Expr& e, const RowBatch& batch,
                                    RowwiseSink* sink) {
  const DataType& t = e.children[0]->type;
  if (ComparisonKind(t, e.children[1]->type) == CmpKind::kNone ||
      ComparisonKind(t, e.children[2]->type) == CmpKind::kNone)
    return RowWiseEval(e, batch, sink);
  const size_t n = batch.num_rows();
  HIVE_ASSIGN_OR_RETURN(Operand v, EvalOperand(*e.children[0], batch, sink));
  HIVE_ASSIGN_OR_RETURN(Operand lo, EvalOperand(*e.children[1], batch, sink));
  HIVE_ASSIGN_OR_RETURN(Operand hi, EvalOperand(*e.children[2], batch, sink));
  ColumnVectorPtr ge = CompareOperands(BinaryOp::kGe, v, lo, n);
  ColumnVectorPtr le = CompareOperands(BinaryOp::kLe, v, hi, n);
  if (!ge || !le) return RowWiseEval(e, batch, sink);
  int64_t* value = ge->i64_data().data();
  uint8_t* valid = ge->validity().data();
  const int64_t flip = e.negated ? 1 : 0;
  for (size_t i = 0; i < n; ++i) {
    valid[i] &= le->validity()[i];
    value[i] = (value[i] & le->i64_data()[i]) ^ flip;
  }
  return ge;
}

/// [NOT] IN over a list: NULL when the operand is NULL, or when nothing
/// matched and some item is NULL; otherwise whether an item matched,
/// inverted for NOT IN. Literal items stay scalar.
Result<ColumnVectorPtr> EvalInList(const Expr& e, const RowBatch& batch,
                                   RowwiseSink* sink) {
  for (size_t k = 1; k < e.children.size(); ++k)
    if (ComparisonKind(e.children[0]->type, e.children[k]->type) == CmpKind::kNone)
      return RowWiseEval(e, batch, sink);
  const size_t n = batch.num_rows();
  HIVE_ASSIGN_OR_RETURN(Operand v, EvalOperand(*e.children[0], batch, sink));
  std::vector<uint8_t> matched(n, 0), item_null(n, 0);
  for (size_t k = 1; k < e.children.size(); ++k) {
    HIVE_ASSIGN_OR_RETURN(Operand item, EvalOperand(*e.children[k], batch, sink));
    ColumnVectorPtr eq = CompareOperands(BinaryOp::kEq, v, item, n);
    if (!eq) return RowWiseEval(e, batch, sink);
    const uint8_t* item_valid = item.col->validity().data();
    const bool null_typed = item.col->type().kind == TypeKind::kNull;
    for (size_t i = 0; i < n; ++i) {
      matched[i] |= eq->validity()[i] & static_cast<uint8_t>(eq->i64_data()[i]);
      item_null[i] |= null_typed || !item_valid[i * item.step];
    }
  }
  auto out = std::make_shared<ColumnVector>(DataType::Boolean());
  out->Resize(n);
  const uint8_t* v_valid = v.col->validity().data();
  const bool v_null_typed = v.col->type().kind == TypeKind::kNull;
  for (size_t i = 0; i < n; ++i) {
    out->validity()[i] =
        !v_null_typed && v_valid[i * v.step] && (matched[i] || !item_null[i]);
    out->i64_data()[i] = matched[i] != e.negated ? 1 : 0;
  }
  return out;
}

}  // namespace

Result<ColumnVectorPtr> EvalVector(const Expr& e, const RowBatch& batch,
                                   std::atomic<int64_t>* rowwise_rows) {
  const size_t n = batch.num_rows();
  switch (e.kind) {
    case ExprKind::kColumnRef: {
      if (e.binding < 0 || static_cast<size_t>(e.binding) >= batch.num_columns())
        return Status::ExecError("vector binding out of range: " + e.ToString());
      return batch.column(e.binding);
    }
    case ExprKind::kLiteral:
      return Broadcast(e.literal, e.type, n);
    case ExprKind::kBetween:
      return EvalBetween(e, batch, rowwise_rows);
    case ExprKind::kInList:
      return EvalInList(e, batch, rowwise_rows);
    case ExprKind::kIsNull: {
      HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr v,
                            EvalVector(*e.children[0], batch, rowwise_rows));
      // A NULL-typed vector boxes every row as NULL, whatever its bytes.
      const bool null_typed = v->type().kind == TypeKind::kNull;
      auto out = std::make_shared<ColumnVector>(DataType::Boolean());
      out->Resize(n);
      std::fill(out->validity().begin(), out->validity().end(), 1);
      for (size_t i = 0; i < n; ++i) {
        const bool is_null = null_typed || !v->validity()[i];
        out->i64_data()[i] = is_null != e.negated ? 1 : 0;
      }
      return out;
    }
    case ExprKind::kUnary: {
      if (e.un_op != UnaryOp::kNot || !e.children[0]->type.IsIntegerBacked())
        return RowWiseEval(e, batch, rowwise_rows);
      HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr v,
                            EvalVector(*e.children[0], batch, rowwise_rows));
      if (!v->type().IsIntegerBacked()) return RowWiseEval(e, batch, rowwise_rows);
      auto out = std::make_shared<ColumnVector>(DataType::Boolean());
      out->Resize(n);
      out->validity() = v->validity();
      for (size_t i = 0; i < n; ++i) out->i64_data()[i] = v->i64_data()[i] == 0 ? 1 : 0;
      return out;
    }
    case ExprKind::kBinary: {
      if (IsComparison(e.bin_op)) {
        if (ComparisonKind(e.children[0]->type, e.children[1]->type) != CmpKind::kNone) {
          HIVE_ASSIGN_OR_RETURN(Operand l,
                                EvalOperand(*e.children[0], batch, rowwise_rows));
          HIVE_ASSIGN_OR_RETURN(Operand r,
                                EvalOperand(*e.children[1], batch, rowwise_rows));
          if (ColumnVectorPtr out = CompareOperands(e.bin_op, l, r, n)) return out;
        }
        return RowWiseEval(e, batch, rowwise_rows);
      }
      if (e.bin_op == BinaryOp::kAdd || e.bin_op == BinaryOp::kSub ||
          e.bin_op == BinaryOp::kMul) {
        HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr l,
                              EvalVector(*e.children[0], batch, rowwise_rows));
        HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr r,
                              EvalVector(*e.children[1], batch, rowwise_rows));
        if (l->type().IsIntegerBacked() && r->type().IsIntegerBacked()) {
          // Align decimal scales; i64 arithmetic stays integer-backed only
          // when the result type agrees.
          int target = std::max(ScaleOf(l->type()), ScaleOf(r->type()));
          if (e.type.kind == TypeKind::kBigint ||
              (e.type.kind == TypeKind::kDecimal && e.type.scale == target) ||
              e.type.kind == TypeKind::kDate || e.type.kind == TypeKind::kTimestamp) {
            ColumnVectorPtr la = AlignScale(l, target);
            ColumnVectorPtr ra = AlignScale(r, target);
            switch (e.bin_op) {
              case BinaryOp::kAdd:
                return ArithI64(*la, *ra, e.type, [](int64_t a, int64_t b) { return a + b; });
              case BinaryOp::kSub:
                return ArithI64(*la, *ra, e.type, [](int64_t a, int64_t b) { return a - b; });
              default:
                if (e.type.kind == TypeKind::kBigint)
                  return ArithI64(*la, *ra, e.type, [](int64_t a, int64_t b) { return a * b; });
                break;  // decimal multiply changes scale: fall through
            }
          }
        }
        if (l->type().IsNumeric() && r->type().IsNumeric() &&
            e.type.kind == TypeKind::kDouble) {
          switch (e.bin_op) {
            case BinaryOp::kAdd: return ArithF64(*l, *r, [](double a, double b) { return a + b; });
            case BinaryOp::kSub: return ArithF64(*l, *r, [](double a, double b) { return a - b; });
            default: return ArithF64(*l, *r, [](double a, double b) { return a * b; });
          }
        }
        return RowWiseEval(e, batch, rowwise_rows);
      }
      if (e.bin_op == BinaryOp::kAnd || e.bin_op == BinaryOp::kOr) {
        HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr l,
                              EvalVector(*e.children[0], batch, rowwise_rows));
        HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr r,
                              EvalVector(*e.children[1], batch, rowwise_rows));
        auto out = std::make_shared<ColumnVector>(DataType::Boolean());
        out->Resize(n);
        bool is_and = e.bin_op == BinaryOp::kAnd;
        for (size_t i = 0; i < n; ++i) {
          bool lnull = l->IsNull(i), rnull = r->IsNull(i);
          bool lv = !lnull && l->GetI64(i) != 0;
          bool rv = !rnull && r->GetI64(i) != 0;
          if (is_and) {
            if ((!lnull && !lv) || (!rnull && !rv)) {
              out->validity()[i] = 1;
              out->i64_data()[i] = 0;
            } else if (lnull || rnull) {
              out->validity()[i] = 0;
            } else {
              out->validity()[i] = 1;
              out->i64_data()[i] = 1;
            }
          } else {
            if (lv || rv) {
              out->validity()[i] = 1;
              out->i64_data()[i] = 1;
            } else if (lnull || rnull) {
              out->validity()[i] = 0;
            } else {
              out->validity()[i] = 1;
              out->i64_data()[i] = 0;
            }
          }
        }
        return out;
      }
      return RowWiseEval(e, batch, rowwise_rows);
    }
    default:
      return RowWiseEval(e, batch, rowwise_rows);
  }
}

namespace {

constexpr uint64_t kNullHash = 0x9e3779b97f4a7c15ULL;  // Value::Hash() of NULL

/// One column's contribution, folded into the running combined hashes. Each
/// kind mirrors the corresponding Value::Hash() case exactly.
void FoldColumnHash(const ColumnVector& col, size_t n, std::vector<uint64_t>* hashes) {
  const auto& valid = col.validity();
  auto fold = [&](size_t i, uint64_t h) {
    (*hashes)[i] = HashCombine((*hashes)[i], h);
  };
  switch (col.type().kind) {
    case TypeKind::kString: {
      const auto& data = col.str_data();
      for (size_t i = 0; i < n; ++i)
        fold(i, valid[i] ? Murmur64(data[i].data(), data[i].size(), 0x5eed)
                         : kNullHash);
      break;
    }
    case TypeKind::kDouble: {
      const auto& data = col.f64_data();
      for (size_t i = 0; i < n; ++i) {
        if (!valid[i]) {
          fold(i, kNullHash);
          continue;
        }
        // Integral doubles hash equal with bigints (Value::Hash contract).
        double d = data[i];
        int64_t asint = static_cast<int64_t>(d);
        if (static_cast<double>(asint) == d) {
          fold(i, Murmur64(&asint, sizeof asint, 0x5eed));
        } else {
          fold(i, Murmur64(&d, sizeof d, 0x5eed));
        }
      }
      break;
    }
    case TypeKind::kDecimal: {
      const auto& data = col.i64_data();
      int64_t pow = Pow10(col.type().scale);
      for (size_t i = 0; i < n; ++i) {
        if (!valid[i]) {
          fold(i, kNullHash);
          continue;
        }
        if (data[i] % pow == 0) {
          int64_t whole = data[i] / pow;
          fold(i, Murmur64(&whole, sizeof whole, 0x5eed));
        } else {
          double d = static_cast<double>(data[i]) / static_cast<double>(pow);
          fold(i, Murmur64(&d, sizeof d, 0x5eed));
        }
      }
      break;
    }
    default: {  // bigint / date / timestamp / boolean share the i64 buffer
      const auto& data = col.i64_data();
      for (size_t i = 0; i < n; ++i)
        fold(i, valid[i] ? Murmur64(&data[i], sizeof data[i], 0x5eed) : kNullHash);
      break;
    }
  }
}

}  // namespace

void HashKeyColumns(const std::vector<ColumnVectorPtr>& key_cols, size_t num_rows,
                    std::vector<uint64_t>* hashes, std::vector<uint8_t>* all_valid) {
  hashes->assign(num_rows, kNullHash);
  if (all_valid) all_valid->assign(num_rows, 1);
  for (const ColumnVectorPtr& col : key_cols) {
    FoldColumnHash(*col, num_rows, hashes);
    if (all_valid) {
      const auto& valid = col->validity();
      for (size_t i = 0; i < num_rows; ++i) (*all_valid)[i] &= valid[i];
    }
  }
}

Result<std::vector<int32_t>> FilterSelection(const Expr& predicate,
                                             const RowBatch& batch,
                                             std::atomic<int64_t>* rowwise_rows) {
  HIVE_ASSIGN_OR_RETURN(ColumnVectorPtr mask, EvalVector(predicate, batch, rowwise_rows));
  std::vector<int32_t> out;
  out.reserve(batch.SelectedSize());
  for (size_t i = 0; i < batch.SelectedSize(); ++i) {
    int32_t row = batch.SelectedRow(i);
    if (!mask->IsNull(row) && mask->GetI64(row) != 0) out.push_back(row);
  }
  return out;
}

}  // namespace hive
