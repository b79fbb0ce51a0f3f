#include "engine/plan.h"

#include <sstream>

#include "common/time.h"

namespace lazyetl::engine {

const char* PlanNodeTypeToString(PlanNodeType t) {
  switch (t) {
    case PlanNodeType::kScan:
      return "Scan";
    case PlanNodeType::kLazyDataScan:
      return "LazyDataScan";
    case PlanNodeType::kFilter:
      return "Filter";
    case PlanNodeType::kHashJoin:
      return "HashJoin";
    case PlanNodeType::kAggregate:
      return "Aggregate";
    case PlanNodeType::kProject:
      return "Project";
    case PlanNodeType::kDistinct:
      return "Distinct";
    case PlanNodeType::kSort:
      return "Sort";
    case PlanNodeType::kTopK:
      return "TopK";
    case PlanNodeType::kLimit:
      return "Limit";
  }
  return "?";
}

namespace {

void PrintNode(const PlanNode& node, int depth, std::ostringstream* os) {
  for (int i = 0; i < depth; ++i) *os << "  ";
  *os << PlanNodeTypeToString(node.type);
  switch (node.type) {
    case PlanNodeType::kScan: {
      *os << "(" << node.table;
      if (!node.scan_columns.empty()) {
        *os << " -> ";
        for (size_t i = 0; i < node.scan_columns.size(); ++i) {
          if (i) *os << ", ";
          *os << node.scan_columns[i].output_name;
        }
      }
      *os << ")";
      break;
    }
    case PlanNodeType::kLazyDataScan: {
      *os << "(" << node.table << " keyed by ";
      if (node.children.empty()) {
        *os << "<entire repository>";
      } else {
        *os << node.probe_file_id_column << ", " << node.probe_seq_no_column;
      }
      if (node.sample_times.bounded()) {
        auto bound = [](int64_t t, int64_t unbounded, const char* inf) {
          return t == unbounded ? std::string(inf)
                                : "'" + FormatTimestamp(t) + "'";
        };
        *os << "; sample_time in ["
            << bound(node.sample_times.lo,
                     std::numeric_limits<int64_t>::min(), "-inf")
            << ", "
            << bound(node.sample_times.hi,
                     std::numeric_limits<int64_t>::max(), "+inf")
            << "]";
      }
      *os << ")";
      break;
    }
    case PlanNodeType::kFilter:
      *os << "(" << node.predicate->ToString() << ")";
      break;
    case PlanNodeType::kHashJoin: {
      *os << "(";
      for (size_t i = 0; i < node.left_keys.size(); ++i) {
        if (i) *os << " AND ";
        *os << node.left_keys[i] << " = " << node.right_keys[i];
      }
      *os << ")";
      break;
    }
    case PlanNodeType::kAggregate: {
      *os << "(groups: ";
      if (node.group_exprs.empty()) *os << "<all>";
      for (size_t i = 0; i < node.group_exprs.size(); ++i) {
        if (i) *os << ", ";
        *os << node.group_exprs[i]->ToString();
      }
      *os << "; aggs: ";
      for (size_t i = 0; i < node.aggregates.size(); ++i) {
        if (i) *os << ", ";
        *os << node.aggregates[i].function << "("
            << (node.aggregates[i].arg ? node.aggregates[i].arg->ToString()
                                       : "*")
            << ")";
      }
      *os << ")";
      break;
    }
    case PlanNodeType::kProject: {
      *os << "(";
      for (size_t i = 0; i < node.project_names.size(); ++i) {
        if (i) *os << ", ";
        *os << node.project_names[i];
      }
      *os << ")";
      break;
    }
    case PlanNodeType::kDistinct:
      break;
    case PlanNodeType::kSort:
    case PlanNodeType::kTopK: {
      *os << "(";
      if (node.type == PlanNodeType::kTopK) *os << "k=" << node.limit << "; ";
      for (size_t i = 0; i < node.order_items.size(); ++i) {
        if (i) *os << ", ";
        *os << node.order_items[i].expr->ToString()
            << (node.order_items[i].ascending ? " ASC" : " DESC");
      }
      *os << ")";
      break;
    }
    case PlanNodeType::kLimit:
      *os << "(" << node.limit << ")";
      break;
  }
  *os << "\n";
  for (const auto& child : node.children) {
    PrintNode(*child, depth + 1, os);
  }
}

}  // namespace

std::string PlanNode::ToString() const {
  std::ostringstream os;
  PrintNode(*this, 0, &os);
  return os.str();
}

PlanNodePtr MakeScan(std::string table, std::vector<ScanColumn> columns) {
  auto node = std::make_unique<PlanNode>();
  node->type = PlanNodeType::kScan;
  node->table = std::move(table);
  node->scan_columns = std::move(columns);
  return node;
}

PlanNodePtr MakeFilter(PlanNodePtr child, sql::BoundExprPtr predicate) {
  auto node = std::make_unique<PlanNode>();
  node->type = PlanNodeType::kFilter;
  node->children.push_back(std::move(child));
  node->predicate = std::move(predicate);
  return node;
}

PlanNodePtr MakeHashJoin(PlanNodePtr left, PlanNodePtr right,
                         std::vector<std::string> left_keys,
                         std::vector<std::string> right_keys) {
  auto node = std::make_unique<PlanNode>();
  node->type = PlanNodeType::kHashJoin;
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  node->left_keys = std::move(left_keys);
  node->right_keys = std::move(right_keys);
  return node;
}

}  // namespace lazyetl::engine
