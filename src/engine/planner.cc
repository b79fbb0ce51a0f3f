#include "engine/planner.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "common/macros.h"
#include "engine/pruning.h"

namespace lazyetl::engine {

using sql::BinaryOp;
using sql::BoundAggregate;
using sql::BoundExpr;
using sql::BoundExprPtr;
using sql::BoundQuery;
using sql::ExprKind;
using storage::ViewDefinition;

std::vector<BoundExprPtr> SplitConjuncts(const BoundExpr& expr) {
  std::vector<BoundExprPtr> out;
  if (expr.kind == ExprKind::kBinary && expr.bin_op == BinaryOp::kAnd) {
    for (const auto& child : expr.children) {
      auto sub = SplitConjuncts(*child);
      for (auto& s : sub) out.push_back(std::move(s));
    }
    return out;
  }
  out.push_back(expr.Clone());
  return out;
}

BoundExprPtr CombineConjuncts(std::vector<BoundExprPtr> conjuncts) {
  BoundExprPtr result;
  for (auto& c : conjuncts) {
    if (!result) {
      result = std::move(c);
      continue;
    }
    auto conj = std::make_unique<BoundExpr>();
    conj->kind = ExprKind::kBinary;
    conj->bin_op = BinaryOp::kAnd;
    conj->type = storage::DataType::kBool;
    conj->children.push_back(std::move(result));
    conj->children.push_back(std::move(c));
    result = std::move(conj);
  }
  return result;
}

namespace {

// Collects (base_table, base_column, display) triples referenced below
// `expr` into `needed` (display names, deduplicated).
void CollectColumns(const BoundExpr& expr,
                    std::map<std::string, std::vector<ScanColumn>>* needed) {
  if (expr.kind == ExprKind::kColumnRef && !expr.base_table.empty()) {
    auto& cols = (*needed)[expr.base_table];
    bool present = false;
    for (const auto& sc : cols) {
      if (sc.output_name == expr.display) {
        present = true;
        break;
      }
    }
    if (!present) cols.push_back({expr.base_column, expr.display});
  }
  for (const auto& c : expr.children) CollectColumns(*c, needed);
}

// All expressions of a query that reference stored columns.
void CollectQueryColumns(const BoundQuery& query,
                         std::map<std::string, std::vector<ScanColumn>>* needed) {
  for (const auto& item : query.select_list) CollectColumns(*item.expr, needed);
  if (query.where) CollectColumns(*query.where, needed);
  for (const auto& g : query.group_by) CollectColumns(*g, needed);
  if (query.having) CollectColumns(*query.having, needed);
  for (const auto& o : query.order_by) CollectColumns(*o.expr, needed);
  for (const auto& a : query.aggregates) {
    if (a.arg) CollectColumns(*a.arg, needed);
  }
}

// Display name a view exports for base_table.base_column.
Result<std::string> ViewDisplayName(const ViewDefinition& view,
                                    const std::string& base_table,
                                    const std::string& base_column) {
  for (const auto& vc : view.columns) {
    if (vc.base_table == base_table && vc.base_column == base_column) {
      return vc.qualifier + "." + vc.name;
    }
  }
  return Status::Internal("view " + view.name + " does not export " +
                          base_table + "." + base_column +
                          " (needed as a join key)");
}

void AddScanColumn(std::vector<ScanColumn>* cols, const std::string& base,
                   const std::string& display) {
  for (const auto& sc : *cols) {
    if (sc.output_name == display) return;
  }
  cols->push_back({base, display});
}

void CollectReferencedNames(const BoundExpr& expr,
                            std::set<std::string>* out) {
  if (expr.kind == ExprKind::kColumnRef) out->insert(expr.display);
  for (const auto& c : expr.children) CollectReferencedNames(*c, out);
}

// Narrows `range` by `conjunct` when it compares data_table.sample_time
// with a timestamp or integer literal (compared as int64 nanoseconds, as
// the Filter compares them); returns false, leaving `range` alone, for
// any other conjunct.
bool AbsorbSampleTimeBound(const BoundExpr& conjunct,
                           const std::string& data_table,
                           SampleTimeRange* range) {
  ColumnComparison cmp;
  if (!MatchColumnComparison(conjunct, &cmp) ||
      cmp.op == kernels::CmpOp::kNe ||
      cmp.column->base_table != data_table ||
      cmp.column->base_column != kSampleTimeColumn ||
      cmp.column->type != storage::DataType::kTimestamp) {
    return false;
  }
  const storage::DataType lit_type = cmp.literal->type();
  if (lit_type != storage::DataType::kTimestamp &&
      lit_type != storage::DataType::kInt64 &&
      lit_type != storage::DataType::kInt32) {
    return false;
  }
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t c = cmp.literal->AsInt64();
  int64_t lo = kMin;
  int64_t hi = kMax;
  // [kMax, kMin] is empty: no int64 is below kMin or above kMax.
  switch (cmp.op) {
    case kernels::CmpOp::kLt:
      if (c == kMin) {
        std::swap(lo, hi);
      } else {
        hi = c - 1;
      }
      break;
    case kernels::CmpOp::kLe:
      hi = c;
      break;
    case kernels::CmpOp::kGt:
      if (c == kMax) {
        std::swap(lo, hi);
      } else {
        lo = c + 1;
      }
      break;
    case kernels::CmpOp::kGe:
      lo = c;
      break;
    default:  // kEq
      lo = c;
      hi = c;
      break;
  }
  range->lo = std::max(range->lo, lo);
  range->hi = std::min(range->hi, hi);
  return true;
}

// Late projection for the run-time join: records on every LazyDataScan the
// column names that the nodes above it reference. The scan then carries
// only those metadata-side columns into its per-sample output, and builds
// only those data columns; a column used only below it (a metadata
// predicate, a join key) or absorbed into its sample-time range is never
// built. A batch carries its row count in its columns, so a scan whose
// rows no node above reads keeps one data column, not the derived
// sample_time when it has another.
void MarkLazyScanOutputs(PlanNode* node, std::set<std::string> used) {
  if (node->type == PlanNodeType::kLazyDataScan) {
    node->used_above.assign(used.begin(), used.end());
    std::vector<ScanColumn> kept;
    for (const ScanColumn& sc : node->scan_columns) {
      if (used.count(sc.output_name) != 0) kept.push_back(sc);
    }
    if (kept.empty() && !node->scan_columns.empty()) {
      auto it = std::find_if(
          node->scan_columns.begin(), node->scan_columns.end(),
          [](const ScanColumn& sc) {
            return sc.base_column != kSampleTimeColumn;
          });
      kept.push_back(it != node->scan_columns.end()
                         ? *it
                         : node->scan_columns.front());
    }
    node->scan_columns = std::move(kept);
  }
  if (node->predicate) CollectReferencedNames(*node->predicate, &used);
  for (const auto& g : node->group_exprs) CollectReferencedNames(*g, &used);
  for (const auto& a : node->aggregates) {
    if (a.arg) CollectReferencedNames(*a.arg, &used);
  }
  for (const auto& e : node->project_exprs) CollectReferencedNames(*e, &used);
  for (const auto& o : node->order_items) {
    CollectReferencedNames(*o.expr, &used);
  }
  if (node->type == PlanNodeType::kHashJoin) {
    used.insert(node->left_keys.begin(), node->left_keys.end());
    used.insert(node->right_keys.begin(), node->right_keys.end());
  }
  for (auto& child : node->children) MarkLazyScanOutputs(child.get(), used);
}

// Marks every grouped Aggregate whose keys read no column of the lazy
// data table: such keys are constant within an mSEED record, so the
// record runs a lazy data scan passes up are runs of equal keys.
void MarkRecordGrouping(PlanNode* node, const std::string& data_table) {
  if (node->type == PlanNodeType::kAggregate && !node->group_exprs.empty()) {
    std::vector<std::string> tables;
    for (const auto& g : node->group_exprs) g->CollectTables(&tables);
    node->keys_constant_per_record =
        std::find(tables.begin(), tables.end(), data_table) == tables.end();
  }
  for (auto& child : node->children) {
    MarkRecordGrouping(child.get(), data_table);
  }
}

// Clones a BoundAggregate (args deep-copied).
BoundAggregate CloneAggregate(const BoundAggregate& a) {
  BoundAggregate out;
  out.function = a.function;
  out.arg = a.arg ? a.arg->Clone() : nullptr;
  out.display = a.display;
  out.type = a.type;
  return out;
}

}  // namespace

Result<PlanNodePtr> Planner::FinishPlan(const BoundQuery& query,
                                        PlanNodePtr input, bool fuse) {
  PlanNodePtr node = std::move(input);

  // Sort + Limit fusion: a LIMIT above an ORDER BY (the Project between
  // them is 1:1) keeps only the top k rows, so the sort never needs to
  // materialise its whole input. DISTINCT changes cardinality above the
  // sort and disables the fusion.
  const bool fuse_top_k =
      fuse && query.limit >= 0 && !query.order_by.empty() && !query.distinct;

  if (query.has_aggregates() || !query.group_by.empty()) {
    auto agg = std::make_unique<PlanNode>();
    agg->type = PlanNodeType::kAggregate;
    for (const auto& g : query.group_by) agg->group_exprs.push_back(g->Clone());
    for (const auto& a : query.aggregates) {
      agg->aggregates.push_back(CloneAggregate(a));
    }
    agg->children.push_back(std::move(node));
    node = std::move(agg);

    if (query.having) {
      node = MakeFilter(std::move(node), query.having->Clone());
    }
  }

  if (!query.order_by.empty()) {
    auto sort = std::make_unique<PlanNode>();
    sort->type = fuse_top_k ? PlanNodeType::kTopK : PlanNodeType::kSort;
    if (fuse_top_k) sort->limit = query.limit;
    for (const auto& o : query.order_by) {
      sql::BoundOrderItem item;
      item.expr = o.expr->Clone();
      item.ascending = o.ascending;
      sort->order_items.push_back(std::move(item));
    }
    sort->children.push_back(std::move(node));
    node = std::move(sort);
  }

  auto project = std::make_unique<PlanNode>();
  project->type = PlanNodeType::kProject;
  for (const auto& item : query.select_list) {
    project->project_exprs.push_back(item.expr->Clone());
    project->project_names.push_back(item.name);
  }
  project->children.push_back(std::move(node));
  node = std::move(project);

  if (query.distinct) {
    auto distinct = std::make_unique<PlanNode>();
    distinct->type = PlanNodeType::kDistinct;
    distinct->children.push_back(std::move(node));
    node = std::move(distinct);
  }

  if (query.limit >= 0 && !fuse_top_k) {
    auto limit = std::make_unique<PlanNode>();
    limit->type = PlanNodeType::kLimit;
    limit->limit = query.limit;
    limit->children.push_back(std::move(node));
    node = std::move(limit);
  }
  return node;
}

Result<PlannedQuery> Planner::PlanBaseTableQuery(const BoundQuery& query) {
  std::map<std::string, std::vector<ScanColumn>> needed;
  CollectQueryColumns(query, &needed);

  // Scan + filter (identical shape in the naive and optimized plans for
  // base tables; only the top-k fusion differs between the two).
  auto build_input = [&]() -> PlanNodePtr {
    PlanNodePtr scan;
    if (IsLazy(query.base_table)) {
      // Direct query on the unmaterialised data table: the worst case of
      // §3.1 — extraction of the entire repository.
      scan = std::make_unique<PlanNode>();
      scan->type = PlanNodeType::kLazyDataScan;
      scan->table = query.base_table;
      scan->scan_columns = needed[query.base_table];
    } else {
      scan = MakeScan(query.base_table, needed[query.base_table]);
    }
    if (query.where) {
      scan = MakeFilter(std::move(scan), query.where->Clone());
    }
    return scan;
  };

  LAZYETL_ASSIGN_OR_RETURN(
      PlanNodePtr naive, FinishPlan(query, build_input(), /*fuse=*/false));
  LAZYETL_ASSIGN_OR_RETURN(PlanNodePtr node,
                           FinishPlan(query, build_input()));

  PlannedQuery out;
  out.naive_plan = naive->ToString();
  out.plan = std::move(node);
  return out;
}

Result<PlannedQuery> Planner::PlanViewQuery(const BoundQuery& query) {
  const ViewDefinition& view = *query.view;

  // 1. Which base tables does the query reference?
  std::map<std::string, std::vector<ScanColumn>> needed;
  CollectQueryColumns(query, &needed);

  // 2. The view's full join path is always planned: dropping an
  //    unreferenced table would change result multiplicity (each file row
  //    fans out per record, each record per sample), so even
  //    SELECT COUNT(*) FROM mseed.dataview must expand all three tables.
  //    Metadata browsing that must not touch actual data queries the base
  //    tables mseed.files / mseed.records directly.
  const size_t last_needed_step = view.joins.size();

  // 3. Ensure join keys are scanned.
  auto ensure_key_columns = [&](const std::string& table,
                                const std::string& base_column) -> Status {
    LAZYETL_ASSIGN_OR_RETURN(std::string display,
                             ViewDisplayName(view, table, base_column));
    AddScanColumn(&needed[table], base_column, display);
    return Status::OK();
  };
  for (size_t i = 0; i < last_needed_step; ++i) {
    const storage::ViewJoinStep& step = view.joins[i];
    for (const auto& [left, right] : step.keys) {
      // Left side: "table.column" of an earlier table.
      size_t dot = left.rfind('.');
      if (dot == std::string::npos) {
        return Status::Internal("malformed view join key '" + left + "'");
      }
      LAZYETL_RETURN_NOT_OK(
          ensure_key_columns(left.substr(0, dot), left.substr(dot + 1)));
      LAZYETL_RETURN_NOT_OK(ensure_key_columns(step.table, right));
    }
  }

  // 4. Split WHERE into per-table and multi-table conjuncts.
  std::map<std::string, std::vector<BoundExprPtr>> table_preds;
  std::vector<std::pair<std::vector<std::string>, BoundExprPtr>> multi_preds;
  if (query.where) {
    for (auto& conjunct : SplitConjuncts(*query.where)) {
      std::vector<std::string> tables;
      conjunct->CollectTables(&tables);
      if (tables.size() == 1) {
        table_preds[tables[0]].push_back(std::move(conjunct));
      } else {
        // Constant predicates (no column refs) are applied at the root.
        if (tables.empty()) tables.push_back(view.root_table);
        multi_preds.emplace_back(std::move(tables), std::move(conjunct));
      }
    }
  }

  // 4b. Metadata-predicate inference (the paper's "metadata is used to
  //     identify the actual data required by a query"): from each
  //     comparison of a contained data column against a literal, derive a
  //     predicate on the containing range columns so whole records/files
  //     are pruned before extraction. Sound because a record whose
  //     [start, end] interval cannot satisfy the conjunct for any sample
  //     cannot contribute any qualifying row.
  auto make_range_ref = [&](const std::string& table,
                            const std::string& column)
      -> Result<BoundExprPtr> {
    LAZYETL_ASSIGN_OR_RETURN(std::string display,
                             ViewDisplayName(view, table, column));
    auto ref = std::make_unique<BoundExpr>();
    ref->kind = ExprKind::kColumnRef;
    ref->type = storage::DataType::kTimestamp;
    ref->display = display;
    ref->base_table = table;
    ref->base_column = column;
    AddScanColumn(&needed[table], column, display);
    return ref;
  };
  auto make_comparison = [](BinaryOp op, BoundExprPtr lhs,
                            const BoundExpr& literal) {
    auto cmp = std::make_unique<BoundExpr>();
    cmp->kind = ExprKind::kBinary;
    cmp->bin_op = op;
    cmp->type = storage::DataType::kBool;
    cmp->children.push_back(std::move(lhs));
    cmp->children.push_back(literal.Clone());
    return cmp;
  };
  for (const auto& rule : view.containment_rules) {
    if (!infer_metadata_predicates_) break;
    auto preds_it = table_preds.find(rule.data_table);
    if (preds_it == table_preds.end()) continue;
    size_t existing = preds_it->second.size();  // don't recurse on inferred
    for (size_t p = 0; p < existing; ++p) {
      const BoundExpr& conjunct = *preds_it->second[p];
      if (conjunct.kind != ExprKind::kBinary) continue;
      BinaryOp op = conjunct.bin_op;
      if (op != BinaryOp::kLt && op != BinaryOp::kLe && op != BinaryOp::kGt &&
          op != BinaryOp::kGe && op != BinaryOp::kEq) {
        continue;
      }
      const BoundExpr* col = conjunct.children[0].get();
      const BoundExpr* lit = conjunct.children[1].get();
      if (col->kind == ExprKind::kLiteral &&
          lit->kind == ExprKind::kColumnRef) {
        std::swap(col, lit);
        // Flip the comparison when the literal was on the left.
        switch (op) {
          case BinaryOp::kLt:
            op = BinaryOp::kGt;
            break;
          case BinaryOp::kLe:
            op = BinaryOp::kGe;
            break;
          case BinaryOp::kGt:
            op = BinaryOp::kLt;
            break;
          case BinaryOp::kGe:
            op = BinaryOp::kLe;
            break;
          default:
            break;
        }
      }
      if (col->kind != ExprKind::kColumnRef ||
          lit->kind != ExprKind::kLiteral ||
          col->base_table != rule.data_table ||
          col->base_column != rule.data_column) {
        continue;
      }
      // D.t < c  => range.start <  c   (some sample before c exists only
      // D.t <= c => range.start <= c    if the interval starts before c)
      // D.t > c  => range.end   >  c
      // D.t >= c => range.end   >= c
      // D.t = c  => range.start <= c AND range.end >= c
      auto& out = table_preds[rule.range_table];
      if (op == BinaryOp::kLt || op == BinaryOp::kLe) {
        LAZYETL_ASSIGN_OR_RETURN(
            BoundExprPtr start_ref,
            make_range_ref(rule.range_table, rule.start_column));
        out.push_back(make_comparison(op, std::move(start_ref), *lit));
      } else if (op == BinaryOp::kGt || op == BinaryOp::kGe) {
        LAZYETL_ASSIGN_OR_RETURN(
            BoundExprPtr end_ref,
            make_range_ref(rule.range_table, rule.end_column));
        out.push_back(make_comparison(op, std::move(end_ref), *lit));
      } else {  // kEq
        LAZYETL_ASSIGN_OR_RETURN(
            BoundExprPtr start_ref,
            make_range_ref(rule.range_table, rule.start_column));
        LAZYETL_ASSIGN_OR_RETURN(
            BoundExprPtr end_ref,
            make_range_ref(rule.range_table, rule.end_column));
        out.push_back(
            make_comparison(BinaryOp::kLe, std::move(start_ref), *lit));
        out.push_back(
            make_comparison(BinaryOp::kGe, std::move(end_ref), *lit));
      }
    }
  }

  // Tables available so far along the join path; used to place multi-table
  // predicates as early as possible.
  std::vector<std::string> available = {view.root_table};
  auto apply_available_multi_preds = [&](PlanNodePtr node) -> PlanNodePtr {
    std::vector<BoundExprPtr> ready;
    for (auto& [tables, pred] : multi_preds) {
      if (!pred) continue;
      bool all_in = std::all_of(
          tables.begin(), tables.end(), [&](const std::string& t) {
            return std::find(available.begin(), available.end(), t) !=
                   available.end();
          });
      if (all_in) ready.push_back(std::move(pred));
    }
    if (BoundExprPtr combined = CombineConjuncts(std::move(ready))) {
      node = MakeFilter(std::move(node), std::move(combined));
    }
    return node;
  };

  // 5. Build the optimized plan bottom-up: every table's own predicates run
  //    directly above its scan — metadata predicates therefore execute
  //    before any join and before any data extraction.
  auto scan_with_filter = [&](const std::string& table) -> PlanNodePtr {
    PlanNodePtr scan = MakeScan(table, needed[table]);
    auto preds = std::move(table_preds[table]);
    if (BoundExprPtr combined = CombineConjuncts(std::move(preds))) {
      return MakeFilter(std::move(scan), std::move(combined));
    }
    return scan;
  };

  // Also assemble the naive ("before reorganisation") plan for the report:
  // all scans joined first, the whole WHERE applied on top.
  PlanNodePtr naive = MakeScan(view.root_table, needed[view.root_table]);

  PlanNodePtr node = scan_with_filter(view.root_table);
  node = apply_available_multi_preds(std::move(node));
  std::string data_table;  // the lazy data table, once its step is planned

  for (size_t i = 0; i < last_needed_step; ++i) {
    const storage::ViewJoinStep& step = view.joins[i];
    std::vector<std::string> left_keys;
    std::vector<std::string> right_keys;
    for (const auto& [left, right] : step.keys) {
      size_t dot = left.rfind('.');
      LAZYETL_ASSIGN_OR_RETURN(
          std::string ldisp,
          ViewDisplayName(view, left.substr(0, dot), left.substr(dot + 1)));
      LAZYETL_ASSIGN_OR_RETURN(std::string rdisp,
                               ViewDisplayName(view, step.table, right));
      left_keys.push_back(ldisp);
      right_keys.push_back(rdisp);
    }

    bool lazy_step =
        IsLazy(step.table) ||
        (!view.lazy_table.empty() && step.table == view.lazy_table);

    if (lazy_step) {
      // The data table is not materialised: a LazyDataScan consumes the
      // metadata side and performs fetch + join at run time.
      auto lazy = std::make_unique<PlanNode>();
      lazy->type = PlanNodeType::kLazyDataScan;
      lazy->table = step.table;
      lazy->scan_columns = needed[step.table];
      // Probe keys: (file_id, seq_no) equivalents on the metadata side.
      if (left_keys.size() != 2) {
        return Status::NotImplemented(
            "lazy data table must join on exactly (file_id, seq_no)");
      }
      lazy->probe_file_id_column = left_keys[0];
      lazy->probe_seq_no_column = left_keys[1];
      lazy->left_keys = left_keys;
      lazy->right_keys = right_keys;
      // Sample-time bounds clip each record inside the scan; the other
      // data-table predicates apply right after extraction.
      std::vector<BoundExprPtr> preds;
      for (auto& conjunct : table_preds[step.table]) {
        if (!AbsorbSampleTimeBound(*conjunct, step.table,
                                   &lazy->sample_times)) {
          preds.push_back(std::move(conjunct));
        }
      }
      data_table = step.table;
      lazy->children.push_back(std::move(node));
      node = std::move(lazy);
      if (BoundExprPtr combined = CombineConjuncts(std::move(preds))) {
        node = MakeFilter(std::move(node), std::move(combined));
      }
    } else {
      node = MakeHashJoin(std::move(node), scan_with_filter(step.table),
                          left_keys, right_keys);
    }

    // Naive plan mirrors the same join tree without any pushdown.
    naive = MakeHashJoin(std::move(naive), MakeScan(step.table, needed[step.table]),
                         left_keys, right_keys);

    available.push_back(step.table);
    node = apply_available_multi_preds(std::move(node));
  }

  // Any leftover multi-table predicates reference tables outside the join
  // prefix — that would be a planner bug.
  for (auto& [tables, pred] : multi_preds) {
    if (pred) {
      return Status::Internal("predicate " + pred->ToString() +
                              " references tables outside the join path");
    }
  }

  if (query.where) {
    naive = MakeFilter(std::move(naive), query.where->Clone());
  }
  LAZYETL_ASSIGN_OR_RETURN(naive,
                           FinishPlan(query, std::move(naive), /*fuse=*/false));

  LAZYETL_ASSIGN_OR_RETURN(node, FinishPlan(query, std::move(node)));
  MarkLazyScanOutputs(node.get(), {});
  if (!data_table.empty()) MarkRecordGrouping(node.get(), data_table);

  PlannedQuery out;
  out.naive_plan = naive->ToString();
  out.plan = std::move(node);
  return out;
}

Result<PlannedQuery> Planner::Plan(const BoundQuery& query) {
  if (query.view != nullptr) return PlanViewQuery(query);
  return PlanBaseTableQuery(query);
}

namespace {

// Zone-map-sharpened bound for a Filter directly over a Scan: only the
// chunks whose statistics admit the predicate count toward the scan's
// output. Falls back to `fallback` (the full scan size) when the table,
// its statistics, or a usable conjunct is unavailable.
uint64_t EstimateFilterOverScan(const PlanNode& filter, const PlanNode& scan,
                                const storage::Catalog& catalog,
                                uint64_t fallback) {
  if (filter.predicate == nullptr) return fallback;
  auto table = catalog.GetTable(scan.table);
  if (!table.ok()) return fallback;
  storage::TableSlice base;
  if (scan.scan_columns.empty()) {
    base = storage::TableSlice::FromTable(**table, 0, 0);
  } else {
    for (const auto& sc : scan.scan_columns) {
      auto c = (*table)->ColumnByName(sc.base_column);
      if (!c.ok()) return fallback;
      base.AddColumn(sc.output_name, *c);
    }
  }
  uint64_t sharp =
      EstimateFilteredScanBytes(**table, base, *filter.predicate);
  return std::min(sharp, fallback);
}

// Cardinality hint for one grouping column resolved to its base-table
// storage: exact for dictionary-encoded strings (the dictionary size), a
// [min, max] value-span bound for integer-like columns with zone maps,
// the domain size for bools. 0 = unknown (expressions, plain strings,
// doubles, missing statistics).
uint64_t ColumnCardinalityHintFor(const storage::Catalog& catalog,
                                  const std::string& base_table,
                                  const std::string& base_column) {
  auto table = catalog.GetTable(base_table);
  if (!table.ok()) return 0;
  auto idx = (*table)->ColumnIndex(base_column);
  if (!idx.ok()) return 0;
  const storage::Column& col = (*table)->column(*idx);
  switch (col.type()) {
    case storage::DataType::kString:
      if (col.dict_encoded() && col.dictionary() != nullptr) {
        return static_cast<uint64_t>(col.dictionary()->size());
      }
      return 0;
    case storage::DataType::kBool:
      return 2;
    case storage::DataType::kDouble:
      return 0;
    default: {  // int32 / int64 / timestamp
      const storage::ColumnZoneMap* zm = (*table)->zone_map(*idx);
      if (zm == nullptr || zm->chunks.empty()) return 0;
      int64_t lo = std::numeric_limits<int64_t>::max();
      int64_t hi = std::numeric_limits<int64_t>::min();
      bool any = false;
      for (const auto& ch : zm->chunks) {
        if (!ch.has_bounds) continue;
        lo = std::min(lo, ch.imin);
        hi = std::max(hi, ch.imax);
        any = true;
      }
      if (!any || hi < lo) return 0;
      uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
      // A span wider than this can't sharpen anything downstream.
      if (span >= (1ull << 32)) return 0;
      return span + 1;
    }
  }
}

uint64_t ColumnCardinalityHint(const storage::Catalog& catalog,
                               const BoundExpr& expr) {
  if (expr.kind != ExprKind::kColumnRef || expr.base_table.empty()) return 0;
  return ColumnCardinalityHintFor(catalog, expr.base_table, expr.base_column);
}

// Resolves a join-key display name (e.g. "B.k") through the build
// subtree's scans to its base-table storage and returns that column's
// cardinality hint. 0 = key not found or cardinality unknown.
uint64_t FindScanColumnCardinality(const PlanNode& node,
                                   const storage::Catalog& catalog,
                                   const std::string& key) {
  if (node.type == PlanNodeType::kScan) {
    if (node.scan_columns.empty()) {
      return ColumnCardinalityHintFor(catalog, node.table, key);
    }
    for (const auto& sc : node.scan_columns) {
      if (sc.output_name == key) {
        return ColumnCardinalityHintFor(catalog, node.table, sc.base_column);
      }
    }
    return 0;
  }
  for (const auto& child : node.children) {
    uint64_t card = FindScanColumnCardinality(*child, catalog, key);
    if (card != 0) return card;
  }
  return 0;
}

// Distinct-key bound for a join's build side: the product of the build
// keys' cardinality hints (0 when any key is unknown — one unbounded key
// makes the product meaningless).
uint64_t JoinBuildKeyCardinality(const PlanNode& join,
                                 const storage::Catalog& catalog) {
  if (join.children.empty()) return 0;
  uint64_t cards = join.left_keys.empty() ? 0 : 1;
  for (const auto& key : join.left_keys) {
    uint64_t card =
        FindScanColumnCardinality(*join.children[0], catalog, key);
    if (card == 0) return 0;
    if (cards > (1ull << 40) / card) return 0;  // overflow / uninformative
    cards *= card;
  }
  return cards;
}

// Distinct-group bound for a grouping column set: the product of the
// per-column cardinality hints. 0 when any column's cardinality is
// unknown (one unbounded column makes the product meaningless).
uint64_t GroupCardinalityHint(const storage::Catalog& catalog,
                              const std::vector<BoundExprPtr>& exprs) {
  uint64_t groups = exprs.empty() ? 0 : 1;
  for (const auto& e : exprs) {
    uint64_t card = ColumnCardinalityHint(catalog, *e);
    if (card == 0) return 0;
    if (groups > (1ull << 40) / card) return 0;  // overflow / uninformative
    groups *= card;
  }
  return groups;
}

// Walks the plan bottom-up carrying an output-size estimate per node and
// accumulating breaker state into *state_bytes. Returns the node's
// estimated output bytes.
uint64_t EstimateNodeOutput(const PlanNode& node,
                            const storage::Catalog& catalog,
                            uint64_t lazy_scan_bytes, uint64_t* state_bytes) {
  std::vector<uint64_t> child_out;
  child_out.reserve(node.children.size());
  uint64_t child_sum = 0;
  for (const auto& child : node.children) {
    child_out.push_back(
        EstimateNodeOutput(*child, catalog, lazy_scan_bytes, state_bytes));
    child_sum += child_out.back();
  }
  switch (node.type) {
    case PlanNodeType::kScan: {
      auto table = catalog.GetTable(node.table);
      return table.ok() ? (*table)->MemoryBytes() : 0;
    }
    case PlanNodeType::kLazyDataScan:
      // The metadata side streams through; the dominant cost is the
      // extracted actual data joined against it.
      return lazy_scan_bytes + child_sum;
    case PlanNodeType::kFilter:
      // Streaming; no state. When the filter sits directly on a base-table
      // scan, zone maps bound how many chunks can survive the predicate —
      // the same statistics the scan uses to skip morsels at run time.
      if (node.children.size() == 1 &&
          node.children[0]->type == PlanNodeType::kScan) {
        return EstimateFilterOverScan(node, *node.children[0], catalog,
                                      child_sum);
      }
      return child_sum;
    case PlanNodeType::kProject:
    case PlanNodeType::kLimit:
      // Streaming operators: no state; selectivity unknown, so the upper
      // bound passes the input through.
      return child_sum;
    case PlanNodeType::kHashJoin: {
      // The build side (children[0]) is materialised as the hash table,
      // plus its key index. The index defaults to ~build/4 (slots, cached
      // hashes and match lists over uint32 rows); when every build key
      // resolves to base storage with a known cardinality, distinct keys
      // bound it instead (~64 B per distinct key), so footprint-aware
      // admission stops over-reserving for low-cardinality key joins.
      uint64_t build = child_out.empty() ? 0 : child_out[0];
      uint64_t index = build / 4;
      uint64_t cards = JoinBuildKeyCardinality(node, catalog);
      if (cards > 0) index = std::min(index, cards * 64);
      *state_bytes += build + index;
      return child_sum;
    }
    case PlanNodeType::kSort:
      *state_bytes += child_sum;
      return child_sum;
    case PlanNodeType::kAggregate:
    case PlanNodeType::kDistinct: {
      // Grouped output and state are O(groups), not O(input). When every
      // grouping column resolves to base storage with a known cardinality
      // (dictionary size, zone-map value span, bool domain), size both by
      // the group-count bound; the old byte heuristic (state = input,
      // output = input / 4) stays as the cap, so estimates only sharpen.
      const std::vector<BoundExprPtr>* exprs = nullptr;
      uint64_t groups = 0;
      size_t width = 1;
      if (node.type == PlanNodeType::kAggregate) {
        exprs = &node.group_exprs;
        width = node.group_exprs.size() + node.aggregates.size() + 1;
        // A grand aggregate has exactly one output row.
        if (node.group_exprs.empty()) groups = 1;
      } else if (node.children.size() == 1 &&
                 node.children[0]->type == PlanNodeType::kProject) {
        // Distinct dedups its child's full output row; sharpen when that
        // row is a plain projection of base columns.
        exprs = &node.children[0]->project_exprs;
        width = exprs->size() + 1;
      }
      if (groups == 0 && exprs != nullptr) {
        groups = GroupCardinalityHint(catalog, *exprs);
      }
      if (groups == 0) {
        *state_bytes += child_sum;
        return child_sum / 4;
      }
      uint64_t per_group = 48 * static_cast<uint64_t>(width);
      *state_bytes += std::min<uint64_t>(child_sum, groups * per_group);
      return std::min<uint64_t>(child_sum / 4, groups * per_group);
    }
    case PlanNodeType::kTopK: {
      // O(k) candidates per worker; a coarse per-row constant suffices.
      uint64_t k = node.limit > 0 ? static_cast<uint64_t>(node.limit) : 1;
      *state_bytes += k * 64;
      return k * 64;
    }
  }
  return child_sum;
}

}  // namespace

uint64_t EstimatePlanFootprint(const PlanNode& plan,
                               const storage::Catalog& catalog,
                               uint64_t lazy_scan_bytes) {
  uint64_t state_bytes = 0;
  uint64_t result_bytes =
      EstimateNodeOutput(plan, catalog, lazy_scan_bytes, &state_bytes);
  // Breaker state + the materialised result; never zero, so an enabled
  // estimate is always visible to the admission gate.
  return std::max<uint64_t>(1, state_bytes + result_bytes);
}

}  // namespace lazyetl::engine
