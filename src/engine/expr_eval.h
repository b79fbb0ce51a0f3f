// Vectorised evaluation of bound expressions over intermediate tables and
// batch slices.
//
// Lazy transformations (§3.2) become ordinary relational expressions after
// view expansion; this evaluator executes them column-at-a-time. The batch
// pipeline evaluates the same expressions per-batch over TableSlices:
// column refs materialise only the viewed batch of rows, so evaluation
// cost and memory are bounded by the batch size.

#ifndef LAZYETL_ENGINE_EXPR_EVAL_H_
#define LAZYETL_ENGINE_EXPR_EVAL_H_

#include "common/result.h"
#include "engine/pruning.h"
#include "sql/binder.h"
#include "storage/slice.h"
#include "storage/table.h"

namespace lazyetl::engine {

// Evaluates `expr` for every row of `input`, producing a column of
// input.num_rows() values.
//
// Resolution rules (in order):
//   1. If the whole expression's display string names a column of `input`
//      (e.g. a grouping expression re-evaluated above an Aggregate, or an
//      aggregate result column "#aggN"), that column is returned directly.
//   2. Column refs are fetched by display name.
//   3. Operators and scalar functions are computed recursively.
Result<storage::Column> EvaluateExpr(const sql::BoundExpr& expr,
                                     const storage::Table& input);

// Per-batch evaluation: produces a column of input.num_rows() values for
// the viewed rows only.
Result<storage::Column> EvaluateExpr(const sql::BoundExpr& expr,
                                     const storage::TableSlice& input);

// Evaluates a boolean predicate and returns the selected row ids.
Result<storage::SelectionVector> EvaluatePredicate(const sql::BoundExpr& expr,
                                                   const storage::Table& input);

// Per-batch predicate: the returned row ids are slice-relative.
Result<storage::SelectionVector> EvaluatePredicate(
    const sql::BoundExpr& expr, const storage::TableSlice& input);

// The per-morsel form of a predicate prepared once per scan (see
// PreparePredicate): column-literal conjunctions run straight through the
// comparison kernels, everything else through the generic evaluator. A
// batch whose schema differs from the prepared one is re-analysed.
Result<storage::SelectionVector> EvaluatePredicate(
    const PreparedPredicate& predicate, const storage::TableSlice& input);

}  // namespace lazyetl::engine

#endif  // LAZYETL_ENGINE_EXPR_EVAL_H_
