// Zone-map scan pruning: turns a conjunctive comparison predicate into
// per-column range constraints checked against a table's per-chunk min/max
// statistics (storage::ColumnZoneMap), so the scan operators skip whole
// morsels that provably contain no qualifying row — without touching data.
//
// Also home of the predicate-shape helpers shared with the vectorized
// predicate path in expr_eval: both need the same "AND-tree of
// {column <cmp> literal} leaves" recognition, and agreeing on the shape is
// what keeps pruned ≡ unpruned byte-identical (a morsel is only pruned
// when the kernel evaluation would have dropped every row of it).

#ifndef LAZYETL_ENGINE_PRUNING_H_
#define LAZYETL_ENGINE_PRUNING_H_

#include <functional>
#include <string>
#include <vector>

#include "engine/kernels.h"
#include "sql/binder.h"
#include "storage/slice.h"
#include "storage/table.h"

namespace lazyetl::engine {

// --- Predicate shape -------------------------------------------------------

// One {column <cmp> literal} comparison, normalized column-on-the-left.
struct ColumnComparison {
  const sql::BoundExpr* column = nullptr;   // kColumnRef child
  const storage::Value* literal = nullptr;  // kLiteral child's value
  kernels::CmpOp op = kernels::CmpOp::kEq;
};

// Maps a comparison operator to its kernel op; false for non-comparisons.
bool ComparisonOp(sql::BinaryOp op, kernels::CmpOp* out);

// Mirrors the comparison for literal-on-the-left normalization.
kernels::CmpOp FlipComparison(kernels::CmpOp op);

// Matches `e` as {column <cmp> literal} or {literal <cmp> column}.
bool MatchColumnComparison(const sql::BoundExpr& e, ColumnComparison* out);

// Flattens an AND-tree whose leaves are all column-literal comparisons.
// Returns false — disqualifying the whole predicate — on any other leaf,
// on aggregate refs, or when `shadowed(node.ToString())` reports that a
// node would resolve as a precomputed expression column (the evaluator's
// first resolution rule).
bool CollectConjunctComparisons(
    const sql::BoundExpr& e,
    const std::function<bool(const std::string&)>& shadowed,
    std::vector<ColumnComparison>* out);

// A predicate analysed once against the columns of the batches it will
// filter, so per-morsel evaluation runs only the kernels. `conjuncts` is
// the AND-tree of column-literal comparisons when every comparison's
// column resolves in the schema with a kernel-compatible operand type
// (column and literal both strings or both non-strings); it is empty
// when the predicate needs the generic evaluator.
struct PreparedPredicate {
  const sql::BoundExpr* expr = nullptr;
  std::vector<ColumnComparison> conjuncts;
  // Per conjunct: the schema position and name of its column.
  std::vector<size_t> columns;
  std::vector<std::string> column_names;
  size_t num_columns = 0;  // of the schema it was prepared against

  // Whether `batch` has the schema this was prepared against (an
  // operator's batches all share one schema; this is the cheap guard).
  bool Matches(const storage::TableSlice& batch) const;
};

// Analyses `expr` against `schema` (only its column names and types are
// read). The same shape rules as CollectConjunctComparisons, with a node
// shadowed when its display string names a schema column.
PreparedPredicate PreparePredicate(const sql::BoundExpr& expr,
                                   const storage::TableSlice& schema);

// --- Zone-map constraints --------------------------------------------------

// Whether zone-map pruning is active (LAZYETL_DISABLE_PRUNING unset/0/"").
bool PruningEnabled();

// One comparison constraint bound to a base-table column's zone map. The
// comparison domain mirrors the evaluator's promotion rules: exact int64
// when both sides are integer-like, string for string/string, double
// otherwise.
struct ScanConstraint {
  const storage::ColumnZoneMap* zone_map = nullptr;
  kernels::CmpOp op = kernels::CmpOp::kEq;
  enum class Domain { kInt, kDouble, kString } domain = Domain::kInt;
  int64_t ival = 0;
  double dval = 0.0;
  std::string sval;
};

// Extracts constraints for `predicate`, prepared against `base` (the
// scan's renamed, possibly projected view of catalog table `table`), so a
// scan analyses its predicate once for both pruning and evaluation.
// Returns an empty list — disabling pruning — whenever the predicate
// shape, operand types, or missing statistics make pruning unsound
// (including predicates the generic evaluator would reject: a pruned
// morsel must be indistinguishable from an all-drop morsel, errors
// included).
std::vector<ScanConstraint> ExtractScanConstraints(
    const PreparedPredicate& predicate, const storage::TableSlice& base,
    const storage::Table& table);

// Whether rows [start, start + length) of the base table could contain a
// row satisfying every constraint. Conservative: true when in doubt; an
// empty constraint list always matches.
bool RangeCanMatch(const std::vector<ScanConstraint>& constraints,
                   size_t start, size_t length);

// Zone-map-sharpened footprint estimate for a filtered scan: the summed
// bytes of the scanned columns over only the chunks that can match the
// predicate. Falls back to the scanned columns' full bytes when statistics
// or a prunable predicate shape are unavailable.
uint64_t EstimateFilteredScanBytes(const storage::Table& table,
                                   const storage::TableSlice& base,
                                   const sql::BoundExpr& predicate);

}  // namespace lazyetl::engine

#endif  // LAZYETL_ENGINE_PRUNING_H_
