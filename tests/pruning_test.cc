// Metadata-predicate inference (TimeContainmentRule): D.sample_time
// predicates must prune records and files via their [start_time, end_time]
// metadata before any extraction happens.

#include <gtest/gtest.h>

#include "core/schema.h"
#include "core/warehouse.h"
#include "engine/planner.h"
#include "mseed/repository.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "test_util.h"
#include "warehouse_test_util.h"

namespace lazyetl::core {
namespace {

using lazyetl::testing::MustGenerate;
using lazyetl::testing::MustOpen;
using lazyetl::testing::ScopedTempDir;

class PruningPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_STATUS_OK(RegisterSchema(&catalog_, /*lazy=*/true));
  }

  std::string PlanFor(const std::string& sql) {
    auto stmt = sql::Parse(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    sql::Binder binder(&catalog_);
    auto bound = binder.Bind(*stmt);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    engine::Planner planner(&catalog_, {kDataTable});
    auto planned = planner.Plan(*bound);
    EXPECT_TRUE(planned.ok()) << planned.status().ToString();
    return planned->plan->ToString();
  }

  storage::Catalog catalog_;
};

TEST_F(PruningPlanTest, UpperBoundInfersStartTimePredicates) {
  std::string plan = PlanFor(
      "SELECT COUNT(*) FROM mseed.dataview "
      "WHERE D.sample_time < '2010-01-10T00:00:30.000'");
  // Inferred on both the records scan and the files scan.
  EXPECT_NE(plan.find("R.start_time < '2010-01-10T00:00:30.000'"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("F.start_time < '2010-01-10T00:00:30.000'"),
            std::string::npos)
      << plan;
}

TEST_F(PruningPlanTest, LowerBoundInfersEndTimePredicates) {
  std::string plan = PlanFor(
      "SELECT COUNT(*) FROM mseed.dataview "
      "WHERE D.sample_time >= '2010-01-10T00:00:30.000'");
  EXPECT_NE(plan.find("R.end_time >= '2010-01-10T00:00:30.000'"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("F.end_time >= '2010-01-10T00:00:30.000'"),
            std::string::npos)
      << plan;
}

TEST_F(PruningPlanTest, EqualityInfersContainment) {
  std::string plan = PlanFor(
      "SELECT COUNT(*) FROM mseed.dataview "
      "WHERE D.sample_time = '2010-01-10T00:00:30.000'");
  EXPECT_NE(plan.find("R.start_time <= '2010-01-10T00:00:30.000'"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("R.end_time >= '2010-01-10T00:00:30.000'"),
            std::string::npos)
      << plan;
}

TEST_F(PruningPlanTest, FlippedLiteralSideIsNormalised) {
  std::string plan = PlanFor(
      "SELECT COUNT(*) FROM mseed.dataview "
      "WHERE '2010-01-10T00:00:30.000' > D.sample_time");
  EXPECT_NE(plan.find("R.start_time < '2010-01-10T00:00:30.000'"),
            std::string::npos)
      << plan;
}

TEST_F(PruningPlanTest, NoInferenceForValuePredicates) {
  std::string plan = PlanFor(
      "SELECT COUNT(*) FROM mseed.dataview WHERE D.sample_value > 100");
  EXPECT_EQ(plan.find("R.start_time"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("R.end_time"), std::string::npos) << plan;
}

class PruningWarehouseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One station, one channel, 4 segments of 30 s: 4 files per day.
    mseed::RepositoryConfig cfg;
    cfg.stations = {{"NL", "HGN", "02", {"BHZ"}, 40.0}};
    cfg.num_days = 1;
    cfg.segments_per_day = 4;
    cfg.seconds_per_segment = 30.0;
    repo_ = MustGenerate(dir_.path(), cfg);
  }

  ScopedTempDir dir_;
  mseed::GeneratedRepository repo_;
};

TEST_F(PruningWarehouseTest, TimeWindowTouchesOnlyCoveringFiles) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  // A 5-second window inside segment 2 (60-90 s after midnight).
  auto result = wh->Query(
      "SELECT COUNT(*) FROM mseed.dataview "
      "WHERE D.sample_time >= '2010-01-10T00:01:05.000' "
      "AND D.sample_time < '2010-01-10T00:01:10.000'");
  ASSERT_OK(result);
  EXPECT_EQ(result->table.GetValue(0, 0).int64_value(), 5 * 40);
  // Only the one covering file is opened, and only the covering records
  // within it are requested.
  EXPECT_EQ(result->report.files_opened, 1u);
  EXPECT_LT(result->report.records_requested, repo_.total_records / 2);
}

TEST_F(PruningWarehouseTest, PrunedPlanStillMatchesEagerAnswer) {
  auto lazy = MustOpen(LoadStrategy::kLazy, dir_.path());
  auto eager = MustOpen(LoadStrategy::kEager, dir_.path());
  for (const char* sql : {
           // Window straddling two segment files.
           "SELECT COUNT(*), AVG(D.sample_value) FROM mseed.dataview "
           "WHERE D.sample_time >= '2010-01-10T00:00:25.000' "
           "AND D.sample_time < '2010-01-10T00:00:35.000'",
           // Exact boundary instants.
           "SELECT COUNT(*) FROM mseed.dataview "
           "WHERE D.sample_time = '2010-01-10T00:00:30.000'",
           "SELECT COUNT(*) FROM mseed.dataview "
           "WHERE D.sample_time = '2010-01-10T00:00:29.975'",
           // Window before and after all data.
           "SELECT COUNT(*) FROM mseed.dataview "
           "WHERE D.sample_time < '2010-01-09T00:00:00.000'",
           "SELECT COUNT(*) FROM mseed.dataview "
           "WHERE D.sample_time > '2010-01-11T00:00:00.000'",
       }) {
    SCOPED_TRACE(sql);
    auto a = eager->Query(sql);
    auto b = lazy->Query(sql);
    ASSERT_OK(a);
    ASSERT_OK(b);
    ASSERT_EQ(a->table.num_rows(), b->table.num_rows());
    for (size_t c = 0; c < a->table.num_columns(); ++c) {
      EXPECT_TRUE(a->table.GetValue(0, c).Equals(b->table.GetValue(0, c)))
          << a->table.GetValue(0, c).ToString() << " vs "
          << b->table.GetValue(0, c).ToString();
    }
  }
}

TEST_F(PruningWarehouseTest, OutOfRangeWindowExtractsNothing) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  auto result = wh->Query(
      "SELECT COUNT(*) FROM mseed.dataview "
      "WHERE D.sample_time > '2011-01-01T00:00:00.000'");
  ASSERT_OK(result);
  EXPECT_EQ(result->table.GetValue(0, 0).int64_value(), 0);
  EXPECT_EQ(result->report.records_requested, 0u);
  EXPECT_EQ(result->report.files_opened, 0u);
  EXPECT_EQ(result->report.records_extracted, 0u);
}

TEST_F(PruningWarehouseTest, FilenameOnlyModeUsesConservativeDayBounds) {
  auto wh = MustOpen(LoadStrategy::kLazyFilenameOnly, dir_.path());
  // Out-of-day window: pruned from the filename-derived day bounds alone.
  auto result = wh->Query(
      "SELECT COUNT(*) FROM mseed.dataview "
      "WHERE D.sample_time > '2011-01-01T00:00:00.000'");
  ASSERT_OK(result);
  EXPECT_EQ(result->table.GetValue(0, 0).int64_value(), 0);
  EXPECT_EQ(result->report.records_extracted, 0u);
  // In-day window: conservative day bounds keep the file; the answer is
  // still exact because record metadata is hydrated before extraction.
  auto in_day = wh->Query(
      "SELECT COUNT(*) FROM mseed.dataview "
      "WHERE D.sample_time >= '2010-01-10T00:01:05.000' "
      "AND D.sample_time < '2010-01-10T00:01:10.000'");
  ASSERT_OK(in_day);
  EXPECT_EQ(in_day->table.GetValue(0, 0).int64_value(), 5 * 40);
}

// Hydration rewrites a filename-only file's F row in place: its zone maps
// must follow, or pruning on a corrected column drops the file.
TEST_F(PruningWarehouseTest, HydratedFileRowsPruneOnTheirCorrectedValues) {
  auto lazy = MustOpen(LoadStrategy::kLazy, dir_.path());
  auto filename_only = MustOpen(LoadStrategy::kLazyFilenameOnly, dir_.path());
  ASSERT_OK(filename_only->Query("SELECT COUNT(*) FROM mseed.dataview"));
  EXPECT_EQ(filename_only->Stats().num_hydrated_files, repo_.files.size());
  auto count = [](Warehouse* wh, const std::string& sql) -> int64_t {
    auto result = wh->Query(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    return result.ok() ? result->table.GetValue(0, 0).int64_value() : -1;
  };
  for (const char* where : {"sample_rate > 1", "num_records > 0",
                            "end_time < '2010-01-10T12:00:00.000'"}) {
    SCOPED_TRACE(where);
    const std::string sql =
        std::string("SELECT COUNT(*) FROM mseed.files WHERE ") + where;
    const int64_t expected = count(lazy.get(), sql);
    EXPECT_EQ(expected, static_cast<int64_t>(repo_.files.size()));
    EXPECT_EQ(count(filename_only.get(), sql), expected);
  }
}

}  // namespace
}  // namespace lazyetl::core
