#include "engine/pruning.h"

#include <cstdlib>

namespace lazyetl::engine {

using kernels::CmpOp;
using sql::BinaryOp;
using sql::BoundExpr;
using sql::ExprKind;
using storage::Column;
using storage::ColumnZoneMap;
using storage::DataType;
using storage::Table;
using storage::TableSlice;
using storage::ZoneMapEntry;

bool ComparisonOp(BinaryOp op, CmpOp* out) {
  switch (op) {
    case BinaryOp::kEq: *out = CmpOp::kEq; return true;
    case BinaryOp::kNe: *out = CmpOp::kNe; return true;
    case BinaryOp::kLt: *out = CmpOp::kLt; return true;
    case BinaryOp::kLe: *out = CmpOp::kLe; return true;
    case BinaryOp::kGt: *out = CmpOp::kGt; return true;
    case BinaryOp::kGe: *out = CmpOp::kGe; return true;
    default: return false;
  }
}

CmpOp FlipComparison(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kLe: return CmpOp::kGe;
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kGe: return CmpOp::kLe;
    default: return op;  // kEq / kNe are symmetric
  }
}

bool MatchColumnComparison(const BoundExpr& e, ColumnComparison* out) {
  if (e.kind != ExprKind::kBinary || e.children.size() != 2) return false;
  CmpOp op;
  if (!ComparisonOp(e.bin_op, &op)) return false;
  const BoundExpr& a = *e.children[0];
  const BoundExpr& b = *e.children[1];
  if (a.kind == ExprKind::kColumnRef && !a.is_aggregate &&
      b.kind == ExprKind::kLiteral) {
    *out = {&a, &b.literal, op};
    return true;
  }
  if (a.kind == ExprKind::kLiteral && b.kind == ExprKind::kColumnRef &&
      !b.is_aggregate) {
    *out = {&b, &a.literal, FlipComparison(op)};
    return true;
  }
  return false;
}

bool CollectConjunctComparisons(
    const BoundExpr& e, const std::function<bool(const std::string&)>& shadowed,
    std::vector<ColumnComparison>* out) {
  if (e.is_aggregate) return false;
  if (shadowed(e.ToString())) return false;
  if (e.kind == ExprKind::kBinary && e.bin_op == BinaryOp::kAnd) {
    return CollectConjunctComparisons(*e.children[0], shadowed, out) &&
           CollectConjunctComparisons(*e.children[1], shadowed, out);
  }
  ColumnComparison cc;
  if (!MatchColumnComparison(e, &cc)) return false;
  out->push_back(cc);
  return true;
}

bool PreparedPredicate::Matches(const TableSlice& batch) const {
  if (batch.num_columns() != num_columns) return false;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (batch.column_name(columns[i]) != column_names[i]) return false;
  }
  return true;
}

PreparedPredicate PreparePredicate(const BoundExpr& expr,
                                   const TableSlice& schema) {
  PreparedPredicate out;
  out.expr = &expr;
  out.num_columns = schema.num_columns();
  std::vector<ColumnComparison> cmps;
  auto shadowed = [&schema](const std::string& name) {
    return schema.ColumnIndex(name).ok();
  };
  if (!CollectConjunctComparisons(expr, shadowed, &cmps)) return out;
  for (const auto& cc : cmps) {
    auto i = schema.ColumnIndex(cc.column->display);
    if (!i.ok()) return out;
    bool col_str = schema.column(*i).type() == DataType::kString;
    bool lit_str = cc.literal->type() == DataType::kString;
    if (col_str != lit_str) return out;
    out.columns.push_back(*i);
    out.column_names.push_back(schema.column_name(*i));
  }
  out.conjuncts = std::move(cmps);
  return out;
}

namespace {

bool IsIntLike(DataType t) {
  return t == DataType::kBool || t == DataType::kInt32 ||
         t == DataType::kInt64 || t == DataType::kTimestamp;
}

// Base-table column index backing slice column `i`, resolved by pointer
// identity (the scan's slice borrows the table's columns directly).
bool BaseColumnIndex(const TableSlice& base, size_t i, const Table& table,
                     size_t* out) {
  const Column* col = &base.column(i);
  for (size_t j = 0; j < table.num_columns(); ++j) {
    if (&table.column(j) == col) {
      *out = j;
      return true;
    }
  }
  return false;
}

template <typename V>
bool BoundsCanMatch(CmpOp op, V lo, V hi, V v) {
  switch (op) {
    case CmpOp::kEq: return !(v < lo) && !(hi < v);
    case CmpOp::kNe: return !(lo == hi && lo == v);
    case CmpOp::kLt: return lo < v;
    case CmpOp::kLe: return !(v < lo);
    case CmpOp::kGt: return hi > v;
    case CmpOp::kGe: return !(hi < v);
  }
  return true;
}

bool EntryCanMatch(const ScanConstraint& c, const ZoneMapEntry& e,
                   DataType col_type) {
  switch (c.domain) {
    case ScanConstraint::Domain::kString:
      if (!e.has_bounds) return false;
      return BoundsCanMatch<const std::string&>(c.op, e.smin, e.smax, c.sval);
    case ScanConstraint::Domain::kInt:
      if (!e.has_bounds) return false;
      return BoundsCanMatch(c.op, e.imin, e.imax, c.ival);
    case ScanConstraint::Domain::kDouble: {
      // NaN rows satisfy `!=` against any literal, and double bounds skip
      // NaNs — so `!=` never prunes in the double domain. Every other
      // comparison is false for NaN rows, making the NaN-skipping bounds
      // sound (an all-NaN chunk has no bounds and prunes).
      if (c.op == CmpOp::kNe) return true;
      if (!e.has_bounds) return false;
      double lo, hi;
      if (col_type == DataType::kDouble) {
        lo = e.dmin;
        hi = e.dmax;
      } else {
        // int64 -> double is monotonic, so cast-then-bound == bound-then-
        // cast and the check stays exact at the chunk level.
        lo = static_cast<double>(e.imin);
        hi = static_cast<double>(e.imax);
      }
      return BoundsCanMatch(c.op, lo, hi, c.dval);
    }
  }
  return true;
}

}  // namespace

bool PruningEnabled() {
  const char* env = std::getenv("LAZYETL_DISABLE_PRUNING");
  if (env == nullptr) return true;
  std::string v(env);
  return v.empty() || v == "0";
}

std::vector<ScanConstraint> ExtractScanConstraints(
    const PreparedPredicate& predicate, const TableSlice& base,
    const Table& table) {
  // An unprepared shape is one the evaluator either rejects or runs
  // generically (an unresolvable column, a string/non-string mix): never
  // prune it, since a pruned morsel must be indistinguishable from an
  // all-drop morsel, errors included.
  std::vector<ScanConstraint> out;
  if (!table.has_stats() || predicate.conjuncts.empty()) return out;
  for (size_t k = 0; k < predicate.conjuncts.size(); ++k) {
    const ColumnComparison& cc = predicate.conjuncts[k];
    size_t ti = 0;
    if (!BaseColumnIndex(base, predicate.columns[k], table, &ti)) return {};
    const ColumnZoneMap* zm = table.zone_map(ti);
    if (zm == nullptr) return {};
    ScanConstraint c;
    c.zone_map = zm;
    c.op = cc.op;
    if (zm->type == DataType::kString) {
      c.domain = ScanConstraint::Domain::kString;
      c.sval = cc.literal->string_value();
    } else if (IsIntLike(zm->type) && IsIntLike(cc.literal->type())) {
      c.domain = ScanConstraint::Domain::kInt;
      c.ival = cc.literal->AsInt64();
    } else {
      c.domain = ScanConstraint::Domain::kDouble;
      c.dval = cc.literal->AsDouble();
    }
    out.push_back(std::move(c));
  }
  return out;
}

bool RangeCanMatch(const std::vector<ScanConstraint>& constraints,
                   size_t start, size_t length) {
  if (constraints.empty() || length == 0) return true;
  size_t first = start / storage::kZoneMapChunkRows;
  size_t last = (start + length - 1) / storage::kZoneMapChunkRows;
  for (size_t ch = first; ch <= last; ++ch) {
    bool all = true;
    for (const auto& c : constraints) {
      if (ch >= c.zone_map->chunks.size()) return true;  // conservative
      if (!EntryCanMatch(c, c.zone_map->chunks[ch], c.zone_map->type)) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

uint64_t EstimateFilteredScanBytes(const Table& table, const TableSlice& base,
                                   const BoundExpr& predicate) {
  // Column indices of the scanned subset; unresolvable or stats-less
  // tables fall back to the scanned columns' full footprint.
  std::vector<const ColumnZoneMap*> maps;
  uint64_t full = 0;
  bool have_maps = table.has_stats();
  for (size_t i = 0; i < base.num_columns(); ++i) {
    full += base.column(i).MemoryBytes();
    size_t ti = 0;
    if (have_maps && BaseColumnIndex(base, i, table, &ti)) {
      maps.push_back(table.zone_map(ti));
    } else {
      have_maps = false;
    }
  }
  if (!have_maps || maps.empty()) return full;

  std::vector<ScanConstraint> constraints =
      ExtractScanConstraints(PreparePredicate(predicate, base), base, table);
  size_t num_chunks = maps[0]->chunks.size();
  uint64_t total = 0;
  for (size_t ch = 0; ch < num_chunks; ++ch) {
    size_t start = ch * storage::kZoneMapChunkRows;
    size_t rows = maps[0]->chunks[ch].rows;
    if (!RangeCanMatch(constraints, start, rows)) continue;
    for (const ColumnZoneMap* zm : maps) {
      if (ch < zm->chunks.size()) total += zm->chunks[ch].bytes;
    }
  }
  return total;
}

}  // namespace lazyetl::engine
