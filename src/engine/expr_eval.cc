#include "engine/expr_eval.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>

#include "common/macros.h"
#include "engine/kernels.h"
#include "engine/pruning.h"

namespace lazyetl::engine {

using sql::BinaryOp;
using sql::BoundExpr;
using sql::ExprKind;
using sql::UnaryOp;
using storage::Column;
using storage::ColumnSlice;
using storage::DataType;
using storage::SelectionVector;
using storage::Table;
using storage::TableSlice;
using storage::Value;

namespace {

// Evaluation source: either a whole table or a batch slice. Column refs
// resolve to batch-local columns — for a slice, only the viewed rows are
// materialised, keeping per-expression memory bounded by the batch size.
struct EvalInput {
  size_t num_rows = 0;
  const Table* table = nullptr;
  const TableSlice* slice = nullptr;

  // Dictionary-encoded string columns are decoded here, so everything the
  // evaluator computes on is plain — encoded predicates take the code-space
  // fast path in EvaluatePredicate instead and never reach this copy.
  Result<Column> Resolve(const std::string& name) const {
    if (table != nullptr) {
      auto c = table->ColumnByName(name);
      if (!c.ok()) return c.status();
      return (*c)->dict_encoded() ? (*c)->Decoded() : **c;
    }
    auto cs = slice->ColumnByName(name);
    if (!cs.ok()) return cs.status();
    Column col = cs->Materialize();
    if (col.dict_encoded()) col.DecodeInPlace();
    return col;
  }
};

EvalInput FromTable(const Table& t) { return {t.num_rows(), &t, nullptr}; }
EvalInput FromSlice(const TableSlice& s) { return {s.num_rows(), nullptr, &s}; }

// Physically integer-valued types. Comparing them through double would
// corrupt nanosecond timestamps (2^63 > 2^53), so the evaluator keeps an
// exact int64 path.
bool IsIntLike(DataType t) {
  return t == DataType::kBool || t == DataType::kInt32 ||
         t == DataType::kInt64 || t == DataType::kTimestamp;
}

std::vector<int64_t> ToInt64Vector(const Column& c) {
  std::vector<int64_t> out(c.size());
  switch (c.type()) {
    case DataType::kBool: {
      const auto& v = c.bool_data();
      for (size_t i = 0; i < v.size(); ++i) out[i] = v[i] ? 1 : 0;
      break;
    }
    case DataType::kInt32: {
      const auto& v = c.int32_data();
      for (size_t i = 0; i < v.size(); ++i) out[i] = v[i];
      break;
    }
    case DataType::kInt64:
    case DataType::kTimestamp:
      out = c.int64_data();
      break;
    case DataType::kDouble: {
      const auto& v = c.double_data();
      for (size_t i = 0; i < v.size(); ++i) {
        out[i] = static_cast<int64_t>(v[i]);
      }
      break;
    }
    case DataType::kString:
      break;  // callers exclude strings
  }
  return out;
}

std::vector<double> ToDoubleVector(const Column& c) {
  std::vector<double> out(c.size());
  for (size_t i = 0; i < c.size(); ++i) out[i] = c.NumericAt(i);
  return out;
}

// Constant column of `n` copies of `v`.
Result<Column> BroadcastLiteral(const Value& v, size_t n) {
  switch (v.type()) {
    case DataType::kBool:
      return Column::FromBool(std::vector<uint8_t>(n, v.bool_value() ? 1 : 0));
    case DataType::kInt32:
      return Column::FromInt32(std::vector<int32_t>(n, v.int32_value()));
    case DataType::kInt64:
      return Column::FromInt64(std::vector<int64_t>(n, v.int64_value()));
    case DataType::kDouble:
      return Column::FromDouble(std::vector<double>(n, v.double_value()));
    case DataType::kString:
      return Column::FromString(std::vector<std::string>(n, v.string_value()));
    case DataType::kTimestamp:
      return Column::FromTimestamp(
          std::vector<int64_t>(n, v.timestamp_value()));
  }
  return Status::Internal("unhandled literal type");
}

template <typename T, typename Cmp>
std::vector<uint8_t> CompareVectors(const std::vector<T>& a,
                                    const std::vector<T>& b, Cmp cmp) {
  std::vector<uint8_t> out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = cmp(a[i], b[i]) ? 1 : 0;
  return out;
}

template <typename T>
Result<Column> ApplyComparison(BinaryOp op, const std::vector<T>& a,
                               const std::vector<T>& b) {
  switch (op) {
    case BinaryOp::kEq:
      return Column::FromBool(CompareVectors(a, b, std::equal_to<T>()));
    case BinaryOp::kNe:
      return Column::FromBool(CompareVectors(a, b, std::not_equal_to<T>()));
    case BinaryOp::kLt:
      return Column::FromBool(CompareVectors(a, b, std::less<T>()));
    case BinaryOp::kLe:
      return Column::FromBool(CompareVectors(a, b, std::less_equal<T>()));
    case BinaryOp::kGt:
      return Column::FromBool(CompareVectors(a, b, std::greater<T>()));
    case BinaryOp::kGe:
      return Column::FromBool(CompareVectors(a, b, std::greater_equal<T>()));
    default:
      return Status::Internal("not a comparison operator");
  }
}

Result<Column> EvaluateComparison(BinaryOp op, const Column& lhs,
                                  const Column& rhs) {
  if (lhs.type() == DataType::kString || rhs.type() == DataType::kString) {
    if (lhs.type() != rhs.type()) {
      return Status::ExecutionError("comparing string with non-string");
    }
    return ApplyComparison(op, lhs.string_data(), rhs.string_data());
  }
  if (IsIntLike(lhs.type()) && IsIntLike(rhs.type())) {
    return ApplyComparison(op, ToInt64Vector(lhs), ToInt64Vector(rhs));
  }
  return ApplyComparison(op, ToDoubleVector(lhs), ToDoubleVector(rhs));
}

// SQL LIKE: '%' matches any run (including empty), '_' one character.
// Classic two-pointer algorithm with backtracking to the last '%'.
bool LikeMatch(const std::string& text, const std::string& pattern) {
  size_t t = 0;
  size_t p = 0;
  size_t star_p = std::string::npos;
  size_t star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<Column> EvaluateLike(const Column& lhs, const Column& rhs) {
  if (lhs.type() != DataType::kString || rhs.type() != DataType::kString) {
    return Status::ExecutionError("LIKE requires string operands");
  }
  const auto& text = lhs.string_data();
  const auto& pattern = rhs.string_data();
  std::vector<uint8_t> out(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    out[i] = LikeMatch(text[i], pattern[i]) ? 1 : 0;
  }
  return Column::FromBool(std::move(out));
}

Result<Column> EvaluateLogical(BinaryOp op, const Column& lhs,
                               const Column& rhs) {
  if (lhs.type() != DataType::kBool || rhs.type() != DataType::kBool) {
    return Status::ExecutionError("logical operator requires booleans");
  }
  const auto& a = lhs.bool_data();
  const auto& b = rhs.bool_data();
  std::vector<uint8_t> out(a.size());
  if (op == BinaryOp::kAnd) {
    for (size_t i = 0; i < a.size(); ++i) out[i] = (a[i] && b[i]) ? 1 : 0;
  } else {
    for (size_t i = 0; i < a.size(); ++i) out[i] = (a[i] || b[i]) ? 1 : 0;
  }
  return Column::FromBool(std::move(out));
}

Result<Column> EvaluateArithmetic(BinaryOp op, DataType result_type,
                                  const Column& lhs, const Column& rhs) {
  if (lhs.type() == DataType::kString || rhs.type() == DataType::kString) {
    return Status::ExecutionError("arithmetic on strings");
  }
  // Division always computes in double (SQL-style true division here).
  bool use_double = result_type == DataType::kDouble ||
                    !IsIntLike(lhs.type()) || !IsIntLike(rhs.type());
  if (op == BinaryOp::kDiv) use_double = true;

  if (use_double) {
    std::vector<double> a = ToDoubleVector(lhs);
    std::vector<double> b = ToDoubleVector(rhs);
    std::vector<double> out(a.size());
    switch (op) {
      case BinaryOp::kAdd:
        for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
        break;
      case BinaryOp::kSub:
        for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
        break;
      case BinaryOp::kMul:
        for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
        break;
      case BinaryOp::kDiv:
        for (size_t i = 0; i < a.size(); ++i) {
          if (b[i] == 0.0) {
            return Status::ExecutionError("division by zero");
          }
          out[i] = a[i] / b[i];
        }
        break;
      case BinaryOp::kMod:
        for (size_t i = 0; i < a.size(); ++i) {
          if (b[i] == 0.0) {
            return Status::ExecutionError("modulo by zero");
          }
          out[i] = std::fmod(a[i], b[i]);
        }
        break;
      default:
        return Status::Internal("not an arithmetic operator");
    }
    return Column::FromDouble(std::move(out));
  }

  std::vector<int64_t> a = ToInt64Vector(lhs);
  std::vector<int64_t> b = ToInt64Vector(rhs);
  std::vector<int64_t> out(a.size());
  switch (op) {
    case BinaryOp::kAdd:
      for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
      break;
    case BinaryOp::kSub:
      for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
      break;
    case BinaryOp::kMul:
      for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
      break;
    case BinaryOp::kMod:
      for (size_t i = 0; i < a.size(); ++i) {
        if (b[i] == 0) return Status::ExecutionError("modulo by zero");
        out[i] = a[i] % b[i];
      }
      break;
    default:
      return Status::Internal("not an int arithmetic operator");
  }
  if (result_type == DataType::kTimestamp) {
    return Column::FromTimestamp(std::move(out));
  }
  return Column::FromInt64(std::move(out));
}

Result<Column> EvaluateExprImpl(const BoundExpr& expr, const EvalInput& input) {
  // Aggregate results and pre-computed expressions (grouping columns) are
  // fetched from the input by name.
  if (expr.is_aggregate) {
    return input.Resolve("#agg" + std::to_string(expr.agg_index));
  }
  if (expr.kind != ExprKind::kColumnRef && expr.kind != ExprKind::kLiteral) {
    auto precomputed = input.Resolve(expr.ToString());
    if (precomputed.ok()) return precomputed;
  }

  switch (expr.kind) {
    case ExprKind::kColumnRef:
      return input.Resolve(expr.display);
    case ExprKind::kLiteral:
      return BroadcastLiteral(expr.literal, input.num_rows);
    case ExprKind::kUnary: {
      LAZYETL_ASSIGN_OR_RETURN(Column operand,
                               EvaluateExprImpl(*expr.children[0], input));
      if (expr.un_op == UnaryOp::kNot) {
        if (operand.type() != DataType::kBool) {
          return Status::ExecutionError("NOT requires a boolean");
        }
        std::vector<uint8_t> out = operand.bool_data();
        for (auto& v : out) v = v ? 0 : 1;
        return Column::FromBool(std::move(out));
      }
      if (operand.type() == DataType::kDouble) {
        std::vector<double> out = operand.double_data();
        for (auto& v : out) v = -v;
        return Column::FromDouble(std::move(out));
      }
      std::vector<int64_t> out = ToInt64Vector(operand);
      for (auto& v : out) v = -v;
      return Column::FromInt64(std::move(out));
    }
    case ExprKind::kBinary: {
      LAZYETL_ASSIGN_OR_RETURN(Column lhs,
                               EvaluateExprImpl(*expr.children[0], input));
      LAZYETL_ASSIGN_OR_RETURN(Column rhs,
                               EvaluateExprImpl(*expr.children[1], input));
      if (lhs.size() != rhs.size()) {
        return Status::Internal("operand cardinality mismatch");
      }
      switch (expr.bin_op) {
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          return EvaluateLogical(expr.bin_op, lhs, rhs);
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          return EvaluateComparison(expr.bin_op, lhs, rhs);
        case BinaryOp::kLike:
          return EvaluateLike(lhs, rhs);
        default:
          return EvaluateArithmetic(expr.bin_op, expr.type, lhs, rhs);
      }
    }
    case ExprKind::kCall: {
      const std::string& fn = expr.function;
      if (fn == "ABS") {
        LAZYETL_ASSIGN_OR_RETURN(Column arg,
                                 EvaluateExprImpl(*expr.children[0], input));
        if (arg.type() == DataType::kDouble) {
          std::vector<double> out = arg.double_data();
          for (auto& v : out) v = std::fabs(v);
          return Column::FromDouble(std::move(out));
        }
        std::vector<int64_t> out = ToInt64Vector(arg);
        for (auto& v : out) v = v < 0 ? -v : v;
        return Column::FromInt64(std::move(out));
      }
      if (fn == "SQRT") {
        LAZYETL_ASSIGN_OR_RETURN(Column arg,
                                 EvaluateExprImpl(*expr.children[0], input));
        std::vector<double> out = ToDoubleVector(arg);
        for (auto& v : out) {
          if (v < 0) return Status::ExecutionError("SQRT of negative value");
          v = std::sqrt(v);
        }
        return Column::FromDouble(std::move(out));
      }
      if (fn == "ROUND" || fn == "FLOOR" || fn == "CEIL") {
        LAZYETL_ASSIGN_OR_RETURN(Column arg,
                                 EvaluateExprImpl(*expr.children[0], input));
        std::vector<double> vals = ToDoubleVector(arg);
        std::vector<int64_t> out(vals.size());
        for (size_t i = 0; i < vals.size(); ++i) {
          double v = fn == "ROUND" ? std::round(vals[i])
                     : fn == "FLOOR" ? std::floor(vals[i])
                                     : std::ceil(vals[i]);
          out[i] = static_cast<int64_t>(v);
        }
        return Column::FromInt64(std::move(out));
      }
      if (fn == "UPPER" || fn == "LOWER") {
        LAZYETL_ASSIGN_OR_RETURN(Column arg,
                                 EvaluateExprImpl(*expr.children[0], input));
        if (arg.type() != DataType::kString) {
          return Status::ExecutionError(fn + " requires strings");
        }
        std::vector<std::string> out = arg.string_data();
        for (auto& s : out) {
          for (char& c : s) {
            c = fn == "UPPER"
                    ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                    : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
          }
        }
        return Column::FromString(std::move(out));
      }
      if (fn == "LENGTH") {
        LAZYETL_ASSIGN_OR_RETURN(Column arg,
                                 EvaluateExprImpl(*expr.children[0], input));
        if (arg.type() != DataType::kString) {
          return Status::ExecutionError("LENGTH requires strings");
        }
        std::vector<int64_t> out(arg.size());
        for (size_t i = 0; i < arg.size(); ++i) {
          out[i] = static_cast<int64_t>(arg.string_data()[i].size());
        }
        return Column::FromInt64(std::move(out));
      }
      if (fn == "TIME_BUCKET") {
        // Width is a bound-time-validated positive literal.
        double width_seconds = expr.children[0]->literal.AsDouble();
        int64_t width = static_cast<int64_t>(width_seconds * 1e9);
        LAZYETL_ASSIGN_OR_RETURN(Column ts,
                                 EvaluateExprImpl(*expr.children[1], input));
        if (ts.type() != DataType::kTimestamp) {
          return Status::ExecutionError("TIME_BUCKET requires a timestamp");
        }
        std::vector<int64_t> out = ts.int64_data();
        for (auto& v : out) {
          int64_t bucket = v / width;
          if (v < 0 && v % width != 0) --bucket;  // floor for negatives
          v = bucket * width;
        }
        return Column::FromTimestamp(std::move(out));
      }
      return Status::ExecutionError("cannot evaluate function " + fn +
                                    " outside an Aggregate");
    }
    case ExprKind::kStar:
      return Status::ExecutionError("cannot evaluate '*'");
  }
  return Status::Internal("unhandled expression kind");
}

Result<SelectionVector> MaskToSelection(const Column& mask) {
  if (mask.type() != DataType::kBool) {
    return Status::ExecutionError("predicate did not evaluate to boolean");
  }
  const auto& bits = mask.bool_data();
  SelectionVector sel;
  sel.reserve(bits.size() / 4);
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) sel.push_back(static_cast<uint32_t>(i));
  }
  return sel;
}

// --- Vectorized fast path for conjunctive comparison predicates ------------
//
// A predicate shaped as AND-tree of {column <cmp> literal} leaves is
// evaluated through engine/kernels without Value boxing or full-width
// intermediate vectors: the first conjunct builds the selection, each later
// conjunct refines it in place. Rows are visited in ascending order and the
// comparisons use the same arithmetic conversions as EvaluateComparison's
// promoted paths, so the result is byte-identical to the generic
// mask-and-AND evaluation. Anything else — LIKE, column-vs-column,
// mismatched string/non-string operands, aggregate refs, precomputed
// expression columns — falls back to the generic evaluator (preserving its
// error behaviour too).

using kernels::CmpOp;

void IdentitySelection(size_t n, SelectionVector* sel) {
  sel->resize(n);
  for (size_t i = 0; i < n; ++i) (*sel)[i] = static_cast<uint32_t>(i);
}

// Select (first == true) or refine on data[base + i] `op` constant, where
// selection indices are batch-relative [0, n).
template <typename T, typename V>
void RunKernel(const T* data, size_t base, size_t n, CmpOp op, V constant,
               bool first, SelectionVector* sel) {
  if (first) {
    kernels::CompareConstSelect(data + base, n, op, constant, sel);
  } else {
    kernels::CompareConstRefine(data + base, op, constant, sel);
  }
}

template <typename V>
bool RunNumericKernel(const Column& col, size_t base, size_t n, CmpOp op,
                      V constant, bool first, SelectionVector* sel) {
  switch (col.type()) {
    case DataType::kBool:
      RunKernel(col.bool_data().data(), base, n, op, constant, first, sel);
      return true;
    case DataType::kInt32:
      RunKernel(col.int32_data().data(), base, n, op, constant, first, sel);
      return true;
    case DataType::kInt64:
    case DataType::kTimestamp:
      RunKernel(col.int64_data().data(), base, n, op, constant, first, sel);
      return true;
    case DataType::kDouble:
      RunKernel(col.double_data().data(), base, n, op, constant, first, sel);
      return true;
    case DataType::kString:
      return false;
  }
  return false;
}

// Dictionary-encoded string comparison in code space: the dictionary is
// sorted and duplicate-free, so codes are order-isomorphic to strings and
// every comparison reduces to a code-threshold compare (equality against an
// absent value matches nothing; inequality against it matches everything).
void RunDictKernel(const Column& col, size_t base, size_t n, CmpOp op,
                   const std::string& lit, bool first, SelectionVector* sel) {
  const auto& dict = *col.dictionary();
  auto it = std::lower_bound(dict.begin(), dict.end(), lit);
  uint32_t idx = static_cast<uint32_t>(it - dict.begin());
  bool found = it != dict.end() && *it == lit;
  const uint32_t* codes = col.dict_codes().data();

  if (op == CmpOp::kEq && !found) {
    sel->clear();
    return;
  }
  if (op == CmpOp::kNe && !found) {
    if (first) IdentitySelection(n, sel);
    return;  // refine: everything already selected still passes
  }
  CmpOp code_op = op;
  switch (op) {
    case CmpOp::kLe: code_op = found ? CmpOp::kLe : CmpOp::kLt; break;
    case CmpOp::kGt: code_op = found ? CmpOp::kGt : CmpOp::kGe; break;
    default: break;  // kEq/kNe (found), kLt, kGe use idx as-is
  }
  RunKernel(codes, base, n, code_op, idx, first, sel);
}

// One conjunct against the raw (possibly encoded) viewed column. `first`
// builds the selection, otherwise refines it. Returns false when the
// column's type does not fit the literal (the generic path decides).
bool RunConjunct(const ColumnComparison& fc, const Column& col, size_t base,
                 size_t n, bool first, SelectionVector* sel) {
  if (col.type() == DataType::kString) {
    if (fc.literal->type() != DataType::kString) return false;
    const std::string& lit = fc.literal->string_value();
    if (col.dict_encoded()) {
      RunDictKernel(col, base, n, fc.op, lit, first, sel);
    } else {
      RunKernel(col.string_data().data(), base, n, fc.op, lit, first, sel);
    }
    return true;
  }
  if (fc.literal->type() == DataType::kString) return false;
  if (IsIntLike(col.type()) && IsIntLike(fc.literal->type())) {
    return RunNumericKernel(col, base, n, fc.op, fc.literal->AsInt64(), first,
                            sel);
  }
  return RunNumericKernel(col, base, n, fc.op, fc.literal->AsDouble(), first,
                          sel);
}

}  // namespace

Result<SelectionVector> EvaluatePredicate(const PreparedPredicate& predicate,
                                          const TableSlice& input) {
  if (!predicate.Matches(input)) {
    return EvaluatePredicate(PreparePredicate(*predicate.expr, input), input);
  }
  // Kernel path. Preparation checked every conjunct's column and operand
  // types before anything runs, so a type error in a later conjunct still
  // surfaces through the generic path even when an earlier conjunct would
  // have emptied the selection.
  if (!predicate.conjuncts.empty()) {
    SelectionVector sel;
    bool ok = true;
    for (size_t k = 0; k < predicate.conjuncts.size() && ok; ++k) {
      ok = RunConjunct(predicate.conjuncts[k],
                       input.column(predicate.columns[k]), input.offset(),
                       input.num_rows(), /*first=*/k == 0, &sel);
      if (sel.empty()) break;
    }
    if (ok) return sel;
  }
  LAZYETL_ASSIGN_OR_RETURN(Column mask,
                           EvaluateExprImpl(*predicate.expr, FromSlice(input)));
  return MaskToSelection(mask);
}

Result<Column> EvaluateExpr(const BoundExpr& expr, const Table& input) {
  return EvaluateExprImpl(expr, FromTable(input));
}

Result<Column> EvaluateExpr(const BoundExpr& expr, const TableSlice& input) {
  return EvaluateExprImpl(expr, FromSlice(input));
}

Result<SelectionVector> EvaluatePredicate(const BoundExpr& expr,
                                          const Table& input) {
  return EvaluatePredicate(expr,
                           TableSlice::FromTable(input, 0, input.num_rows()));
}

Result<SelectionVector> EvaluatePredicate(const BoundExpr& expr,
                                          const TableSlice& input) {
  return EvaluatePredicate(PreparePredicate(expr, input), input);
}

}  // namespace lazyetl::engine
