// Query plan representation.
//
// Plans are operator trees executed bottom-up with fully materialised
// intermediates (column-at-a-time, MonetDB-style). The LazyDataScan node is
// the lazy-ETL hook: at run time, the executor's rewriting step replaces it
// with cache accesses and file extractions for exactly the records its
// metadata-side child selected.

#ifndef LAZYETL_ENGINE_PLAN_H_
#define LAZYETL_ENGINE_PLAN_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sql/binder.h"

namespace lazyetl::engine {

enum class PlanNodeType {
  kScan,          // read a catalog table (optionally qualified/projected)
  kLazyDataScan,  // lazy extraction + join against metadata-side child
  kFilter,
  kHashJoin,
  kAggregate,
  kProject,
  kDistinct,  // drop duplicate rows, keeping first occurrences
  kSort,
  kTopK,  // fused Sort + Limit: bounded top-k heap breaker
  kLimit,
};

const char* PlanNodeTypeToString(PlanNodeType t);

struct PlanNode;
using PlanNodePtr = std::unique_ptr<PlanNode>;

// A scan output column: base column renamed to its qualified display name.
struct ScanColumn {
  std::string base_column;  // name in the stored table
  std::string output_name;  // name in the intermediate ("F.station")
};

// The data-table column a SampleTimeRange bounds.
inline constexpr char kSampleTimeColumn[] = "sample_time";

// The inclusive range [lo, hi] of sample times a lazy data scan keeps; the
// default keeps every sample. lo > hi keeps none.
struct SampleTimeRange {
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();

  bool bounded() const {
    return lo != std::numeric_limits<int64_t>::min() ||
           hi != std::numeric_limits<int64_t>::max();
  }
};

struct PlanNode {
  PlanNodeType type = PlanNodeType::kScan;
  std::vector<PlanNodePtr> children;

  // kScan / kLazyDataScan
  std::string table;               // catalog table name
  std::vector<ScanColumn> scan_columns;

  // kLazyDataScan: display names (in the child's output) of the columns
  // holding the record keys to fetch. Empty child => fetch everything
  // (the paper's worst case: the whole repository).
  std::string probe_file_id_column;  // e.g. "R.file_id"
  std::string probe_seq_no_column;   // e.g. "R.seq_no"
  // kLazyDataScan with a metadata side: the column names that the nodes
  // above the scan reference (sorted). The run-time join carries only
  // these metadata-side columns into its output, next to the data columns.
  std::vector<std::string> used_above;
  // kLazyDataScan: the samples kept of each record, from the sample_time
  // conjuncts the planner absorbed (they leave the Filter above the scan).
  SampleTimeRange sample_times;

  // kFilter
  sql::BoundExprPtr predicate;

  // kHashJoin (children[0] = build/left, children[1] = probe/right)
  std::vector<std::string> left_keys;
  std::vector<std::string> right_keys;

  // kAggregate
  std::vector<sql::BoundExprPtr> group_exprs;  // named by their ToString()
  std::vector<sql::BoundAggregate> aggregates;
  // Every group key is constant within an mSEED record (it reads only
  // metadata-side columns), so a batch's record runs are runs of equal keys.
  bool keys_constant_per_record = false;

  // kProject
  std::vector<sql::BoundExprPtr> project_exprs;
  std::vector<std::string> project_names;

  // kSort / kTopK
  std::vector<sql::BoundOrderItem> order_items;

  // kLimit / kTopK (the k)
  int64_t limit = -1;

  // Pretty-printed plan tree (one node per line, indented).
  std::string ToString() const;
};

// Helper constructors.
PlanNodePtr MakeScan(std::string table, std::vector<ScanColumn> columns);
PlanNodePtr MakeFilter(PlanNodePtr child, sql::BoundExprPtr predicate);
PlanNodePtr MakeHashJoin(PlanNodePtr left, PlanNodePtr right,
                         std::vector<std::string> left_keys,
                         std::vector<std::string> right_keys);

}  // namespace lazyetl::engine

#endif  // LAZYETL_ENGINE_PLAN_H_
