#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/schema.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "storage/catalog.h"
#include "test_util.h"

namespace lazyetl::engine {
namespace {

using storage::Catalog;
using storage::Column;
using storage::DataType;
using storage::Table;

// Fixture: an eager-style catalog with a handful of files/records/data
// rows inserted directly (no mSEED involved) so plans and operators can be
// tested in isolation.
class PlannerExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_STATUS_OK(core::RegisterSchema(&catalog_, /*lazy=*/false));
    auto files = *catalog_.GetTable(core::kFilesTable);
    auto records = *catalog_.GetTable(core::kRecordsTable);
    auto data = *catalog_.GetTable(core::kDataTable);
    using storage::Value;
    // Two files: ISK/BHE and HGN/BHZ.
    ASSERT_STATUS_OK(files->AppendRow(
        {Value::Int64(1), Value::String("/repo/isk"), Value::String("D"),
         Value::String("KO"), Value::String("ISK"), Value::String(""),
         Value::String("BHE"), Value::Timestamp(1000), Value::Timestamp(2000),
         Value::Int64(2), Value::Double(40.0), Value::Int64(1024),
         Value::Timestamp(5)}));
    ASSERT_STATUS_OK(files->AppendRow(
        {Value::Int64(2), Value::String("/repo/hgn"), Value::String("D"),
         Value::String("NL"), Value::String("HGN"), Value::String("02"),
         Value::String("BHZ"), Value::Timestamp(1000), Value::Timestamp(2000),
         Value::Int64(1), Value::Double(40.0), Value::Int64(512),
         Value::Timestamp(5)}));
    // Records: file 1 has seq 1-2, file 2 has seq 1.
    auto add_record = [&](int64_t fid, int64_t seq, int64_t t0) {
      ASSERT_TRUE(records
                      ->AppendRow({Value::Int64(fid), Value::Int64(seq),
                                   Value::Timestamp(t0),
                                   Value::Timestamp(t0 + 500),
                                   Value::Int64(3), Value::Double(40.0),
                                   Value::String("steim2")})
                      .ok());
    };
    add_record(1, 1, 1000);
    add_record(1, 2, 1500);
    add_record(2, 1, 1000);
    // Data: 3 samples per record.
    auto add_samples = [&](int64_t fid, int64_t seq, int64_t t0,
                           std::vector<int32_t> vals) {
      for (size_t i = 0; i < vals.size(); ++i) {
        ASSERT_TRUE(data->AppendRow({Value::Int64(fid), Value::Int64(seq),
                                     Value::Timestamp(t0 + 10 * (int64_t)i),
                                     Value::Int32(vals[i])})
                        .ok());
      }
    };
    add_samples(1, 1, 1000, {5, -3, 8});
    add_samples(1, 2, 1500, {100, 50, -40});
    add_samples(2, 1, 1000, {7, 7, 7});
  }

  Result<Table> Run(const std::string& sql, ExecutionReport* report_out = nullptr) {
    auto stmt = sql::Parse(sql);
    if (!stmt.ok()) return stmt.status();
    sql::Binder binder(&catalog_);
    auto bound = binder.Bind(*stmt);
    if (!bound.ok()) return bound.status();
    Planner planner(&catalog_, {});
    auto planned = planner.Plan(*bound);
    if (!planned.ok()) return planned.status();
    ExecutionReport report;
    report.plan_before = planned->naive_plan;
    report.plan_after = planned->plan->ToString();
    Executor executor(&catalog_, nullptr);
    auto result = executor.Execute(*planned->plan, &report);
    if (report_out) *report_out = report;
    return result;
  }

  Catalog catalog_;
};

TEST_F(PlannerExecutorTest, BaseTableScanAndFilter) {
  auto t = Run("SELECT station FROM mseed.files WHERE network = 'NL'");
  ASSERT_OK(t);
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->GetValue(0, 0).string_value(), "HGN");
}

TEST_F(PlannerExecutorTest, ViewJoinProducesSampleRows) {
  auto t = Run("SELECT COUNT(*) FROM mseed.dataview");
  ASSERT_OK(t);
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 9);  // 3 records x 3 samples
}

TEST_F(PlannerExecutorTest, MetadataPredicateFiltersJoin) {
  auto t = Run(
      "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK'");
  ASSERT_OK(t);
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 6);
}

TEST_F(PlannerExecutorTest, RecordAndDataPredicates) {
  auto t = Run(
      "SELECT COUNT(*) FROM mseed.dataview "
      "WHERE R.seq_no = 2 AND D.sample_value > 0");
  ASSERT_OK(t);
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 2);  // 100 and 50
}

TEST_F(PlannerExecutorTest, GroupByAggregates) {
  auto t = Run(
      "SELECT F.station, MIN(D.sample_value), MAX(D.sample_value), "
      "AVG(D.sample_value), COUNT(*) "
      "FROM mseed.dataview GROUP BY F.station ORDER BY F.station");
  ASSERT_OK(t);
  ASSERT_EQ(t->num_rows(), 2u);
  // HGN: 7,7,7 -> min 7 max 7 avg 7 count 3
  EXPECT_EQ(t->GetValue(0, 0).string_value(), "HGN");
  EXPECT_EQ(t->GetValue(0, 1).int32_value(), 7);
  EXPECT_EQ(t->GetValue(0, 2).int32_value(), 7);
  EXPECT_DOUBLE_EQ(t->GetValue(0, 3).double_value(), 7.0);
  EXPECT_EQ(t->GetValue(0, 4).int64_value(), 3);
  // ISK: {5,-3,8,100,50,-40}
  EXPECT_EQ(t->GetValue(1, 0).string_value(), "ISK");
  EXPECT_EQ(t->GetValue(1, 1).int32_value(), -40);
  EXPECT_EQ(t->GetValue(1, 2).int32_value(), 100);
  EXPECT_DOUBLE_EQ(t->GetValue(1, 3).double_value(), 20.0);
  EXPECT_EQ(t->GetValue(1, 4).int64_value(), 6);
}

TEST_F(PlannerExecutorTest, AggregateExpressionPostProjection) {
  auto t = Run(
      "SELECT MAX(D.sample_value) - MIN(D.sample_value) AS spread "
      "FROM mseed.dataview WHERE F.station = 'ISK'");
  ASSERT_OK(t);
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 140);
  EXPECT_EQ(t->column_name(0), "spread");
}

TEST_F(PlannerExecutorTest, HavingFiltersGroups) {
  auto t = Run(
      "SELECT F.station FROM mseed.dataview GROUP BY F.station "
      "HAVING COUNT(*) > 3");
  ASSERT_OK(t);
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->GetValue(0, 0).string_value(), "ISK");
}

TEST_F(PlannerExecutorTest, OrderByDescAndLimit) {
  auto t = Run(
      "SELECT D.sample_value FROM mseed.dataview "
      "ORDER BY D.sample_value DESC LIMIT 2");
  ASSERT_OK(t);
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetValue(0, 0).int32_value(), 100);
  EXPECT_EQ(t->GetValue(1, 0).int32_value(), 50);
}

TEST_F(PlannerExecutorTest, OrderByNonProjectedColumn) {
  auto t = Run(
      "SELECT D.sample_value FROM mseed.dataview "
      "WHERE F.station = 'ISK' AND R.seq_no = 1 ORDER BY D.sample_time DESC");
  ASSERT_OK(t);
  ASSERT_EQ(t->num_rows(), 3u);
  EXPECT_EQ(t->GetValue(0, 0).int32_value(), 8);
  EXPECT_EQ(t->GetValue(2, 0).int32_value(), 5);
}

TEST_F(PlannerExecutorTest, GrandAggregateOverEmptySelection) {
  auto t = Run(
      "SELECT COUNT(*), AVG(D.sample_value) FROM mseed.dataview "
      "WHERE F.station = 'NOPE'");
  ASSERT_OK(t);
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 0);
  EXPECT_DOUBLE_EQ(t->GetValue(0, 1).double_value(), 0.0);
}

TEST_F(PlannerExecutorTest, GroupByOverEmptySelectionYieldsNoRows) {
  auto t = Run(
      "SELECT F.station, COUNT(*) FROM mseed.dataview "
      "WHERE F.station = 'NOPE' GROUP BY F.station");
  ASSERT_OK(t);
  EXPECT_EQ(t->num_rows(), 0u);
}

TEST_F(PlannerExecutorTest, PlanReorganisationPushesMetadataPredicates) {
  ExecutionReport report;
  auto t = Run(
      "SELECT COUNT(*) FROM mseed.dataview "
      "WHERE F.station = 'ISK' AND D.sample_value > 0",
      &report);
  ASSERT_OK(t);
  // Naive plan: one Filter above the joins.
  EXPECT_NE(report.plan_before.find("HashJoin"), std::string::npos);
  // Optimized: the station predicate sits directly above the files scan —
  // i.e., it appears *below* (after, in printed order) the join in the tree
  // and references only F.
  EXPECT_NE(report.plan_after.find("Filter((F.station = 'ISK'))"),
            std::string::npos);
  EXPECT_NE(report.plan_after.find("Filter((D.sample_value > 0))"),
            std::string::npos);
}

TEST_F(PlannerExecutorTest, MultiTablePredicateAppliedAfterJoin) {
  auto t = Run(
      "SELECT COUNT(*) FROM mseed.dataview "
      "WHERE R.start_time = F.start_time");
  ASSERT_OK(t);
  // Records with t0 1000 match file start 1000: file1/seq1 (3 samples) +
  // file2/seq1 (3 samples).
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 6);
}

TEST_F(PlannerExecutorTest, ProjectionOfArithmetic) {
  auto t = Run(
      "SELECT D.sample_value * 2 AS doubled FROM mseed.dataview "
      "WHERE F.station = 'HGN'");
  ASSERT_OK(t);
  ASSERT_EQ(t->num_rows(), 3u);
  EXPECT_EQ(t->GetValue(0, 0).int64_value(), 14);
}

TEST_F(PlannerExecutorTest, LazyScanWithoutProviderFails) {
  // Plan against a lazy view but execute without a provider.
  Planner planner(&catalog_, {core::kDataTable});
  auto stmt = sql::Parse("SELECT COUNT(*) FROM mseed.dataview");
  ASSERT_OK(stmt);
  sql::Binder binder(&catalog_);
  auto bound = binder.Bind(*stmt);
  ASSERT_OK(bound);
  auto planned = planner.Plan(*bound);
  ASSERT_OK(planned);
  EXPECT_NE(planned->plan->ToString().find("LazyDataScan"),
            std::string::npos);
  ExecutionReport report;
  Executor executor(&catalog_, nullptr);
  auto result = executor.Execute(*planned->plan, &report);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsExecutionError());
}

// Plans `sql` with the data table lazy (planning only: no provider runs).
Result<PlannedQuery> PlanLazy(Catalog* catalog, const std::string& sql) {
  auto stmt = sql::Parse(sql);
  if (!stmt.ok()) return stmt.status();
  sql::Binder binder(catalog);
  auto bound = binder.Bind(*stmt);
  if (!bound.ok()) return bound.status();
  Planner planner(catalog, {core::kDataTable});
  return planner.Plan(*bound);
}

const PlanNode* FindNode(const PlanNode& node, PlanNodeType type) {
  if (node.type == type) return &node;
  for (const auto& child : node.children) {
    if (const PlanNode* found = FindNode(*child, type)) return found;
  }
  return nullptr;
}

TEST_F(PlannerExecutorTest, SampleTimeBoundsMoveIntoTheLazyScan) {
  // 2010-01-12T00:00:00.000 = 1263254400000000000 ns.
  struct Case {
    const char* where;
    int64_t lo;
    int64_t hi;
  };
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t c = 1263254400000000000LL;
  const Case cases[] = {
      {"D.sample_time < '2010-01-12T00:00:00.000'", kMin, c - 1},
      {"D.sample_time <= '2010-01-12T00:00:00.000'", kMin, c},
      {"D.sample_time > '2010-01-12T00:00:00.000'", c + 1, kMax},
      {"D.sample_time >= '2010-01-12T00:00:00.000'", c, kMax},
      {"D.sample_time = '2010-01-12T00:00:00.000'", c, c},
      {"'2010-01-12T00:00:00.000' > D.sample_time", kMin, c - 1},
      {"D.sample_time >= 1000 AND D.sample_time < 1020 AND "
       "D.sample_time > 1005",
       1006, 1019},
  };
  for (const Case& k : cases) {
    SCOPED_TRACE(k.where);
    auto planned = PlanLazy(
        &catalog_, std::string("SELECT COUNT(*) FROM mseed.dataview WHERE ") +
                       k.where);
    ASSERT_OK(planned);
    const std::string plan = planned->plan->ToString();
    EXPECT_EQ(plan.find("Filter((D.sample_time"), std::string::npos) << plan;
    const PlanNode* scan =
        FindNode(*planned->plan, PlanNodeType::kLazyDataScan);
    ASSERT_NE(scan, nullptr);
    EXPECT_EQ(scan->sample_times.lo, k.lo);
    EXPECT_EQ(scan->sample_times.hi, k.hi);
    EXPECT_NE(plan.find("sample_time in ["), std::string::npos) << plan;
    // No node above reads a data column: the scan builds one, and not the
    // absorbed sample_time.
    ASSERT_EQ(scan->scan_columns.size(), 1u);
    EXPECT_NE(scan->scan_columns[0].base_column, "sample_time");
  }

  auto planned = PlanLazy(&catalog_,
                          "SELECT COUNT(*) FROM mseed.dataview WHERE "
                          "D.sample_time < '2010-01-12T00:00:00.000'");
  ASSERT_OK(planned);
  EXPECT_NE(planned->plan->ToString().find(
                "sample_time in [-inf, '2010-01-11T23:59:59.999999999']"),
            std::string::npos)
      << planned->plan->ToString();
}

TEST_F(PlannerExecutorTest, OtherSampleTimePredicatesStayInTheFilter) {
  for (const char* where :
       {"D.sample_time <> '2010-01-12T00:00:00.000'",
        "(D.sample_time < 1005 OR D.sample_time > 1015)",
        "D.sample_time > R.start_time", "D.sample_value > 0"}) {
    SCOPED_TRACE(where);
    auto planned = PlanLazy(
        &catalog_,
        std::string("SELECT COUNT(*) FROM mseed.dataview WHERE ") + where);
    ASSERT_OK(planned);
    const std::string plan = planned->plan->ToString();
    EXPECT_NE(plan.find("Filter("), std::string::npos) << plan;
    const PlanNode* scan =
        FindNode(*planned->plan, PlanNodeType::kLazyDataScan);
    ASSERT_NE(scan, nullptr);
    EXPECT_FALSE(scan->sample_times.bounded());
    EXPECT_EQ(plan.find("sample_time in"), std::string::npos) << plan;
  }
  // An absorbed bound and a kept predicate: only the kept one filters.
  auto planned = PlanLazy(&catalog_,
                          "SELECT COUNT(*) FROM mseed.dataview WHERE "
                          "D.sample_time >= 1000 AND D.sample_value > 0");
  ASSERT_OK(planned);
  const std::string plan = planned->plan->ToString();
  EXPECT_NE(plan.find("Filter((D.sample_value > 0))"), std::string::npos)
      << plan;
  EXPECT_EQ(plan.find("Filter((D.sample_time"), std::string::npos) << plan;
}

TEST_F(PlannerExecutorTest, LazyScanBuildsOnlyDataColumnsUsedAbove) {
  auto planned = PlanLazy(&catalog_,
                          "SELECT F.station, SUM(D.sample_value) FROM "
                          "mseed.dataview WHERE D.sample_time > 1000 "
                          "GROUP BY F.station");
  ASSERT_OK(planned);
  const PlanNode* scan = FindNode(*planned->plan, PlanNodeType::kLazyDataScan);
  ASSERT_NE(scan, nullptr);
  ASSERT_EQ(scan->scan_columns.size(), 1u);
  EXPECT_EQ(scan->scan_columns[0].output_name, "D.sample_value");
  const PlanNode* agg = FindNode(*planned->plan, PlanNodeType::kAggregate);
  ASSERT_NE(agg, nullptr);
  EXPECT_TRUE(agg->keys_constant_per_record);

  // A data column among the keys is not constant within a record.
  planned = PlanLazy(&catalog_,
                     "SELECT F.station, D.sample_value, COUNT(*) FROM "
                     "mseed.dataview GROUP BY F.station, D.sample_value");
  ASSERT_OK(planned);
  agg = FindNode(*planned->plan, PlanNodeType::kAggregate);
  ASSERT_NE(agg, nullptr);
  EXPECT_FALSE(agg->keys_constant_per_record);
}

TEST(HashJoinTablesTest, JoinsOnCompositeKeys) {
  Table left;
  ASSERT_STATUS_OK(left.AddColumn("a", Column::FromInt64({1, 1, 2})));
  ASSERT_STATUS_OK(left.AddColumn("b", Column::FromInt64({10, 20, 10})));
  ASSERT_STATUS_OK(
      left.AddColumn("tag", Column::FromString({"x", "y", "z"})));
  Table right;
  ASSERT_STATUS_OK(right.AddColumn("c", Column::FromInt64({1, 2, 3})));
  ASSERT_STATUS_OK(right.AddColumn("d", Column::FromInt64({10, 10, 10})));
  ASSERT_STATUS_OK(right.AddColumn("v", Column::FromInt32({100, 200, 300})));

  auto joined = HashJoinTables(left, right, {"a", "b"}, {"c", "d"});
  ASSERT_OK(joined);
  ASSERT_EQ(joined->num_rows(), 2u);  // (1,10) and (2,10)
  EXPECT_EQ(joined->num_columns(), 6u);
  // Probe order drives output order: right row 0 matches left "x".
  EXPECT_EQ(joined->GetValue(0, 2).string_value(), "x");
  EXPECT_EQ(joined->GetValue(0, 5).int32_value(), 100);
  EXPECT_EQ(joined->GetValue(1, 2).string_value(), "z");
}

TEST(HashJoinTablesTest, DuplicateBuildKeysFanOut) {
  Table left;
  ASSERT_STATUS_OK(left.AddColumn("k", Column::FromInt64({1, 1})));
  Table right;
  ASSERT_STATUS_OK(right.AddColumn("k", Column::FromInt64({1})));
  auto joined = HashJoinTables(left, right, {"k"}, {"k"});
  ASSERT_OK(joined);
  EXPECT_EQ(joined->num_rows(), 2u);
}

TEST(HashJoinTablesTest, EmptySidesYieldEmpty) {
  Table left;
  ASSERT_STATUS_OK(left.AddColumn("k", Column::FromInt64({})));
  Table right;
  ASSERT_STATUS_OK(right.AddColumn("k", Column::FromInt64({1, 2})));
  auto joined = HashJoinTables(left, right, {"k"}, {"k"});
  ASSERT_OK(joined);
  EXPECT_EQ(joined->num_rows(), 0u);
  EXPECT_FALSE(HashJoinTables(left, right, {}, {}).ok());
}

}  // namespace
}  // namespace lazyetl::engine
