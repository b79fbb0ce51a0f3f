// Morsel-driven parallelism parity: for every query shape, execution with
// query_threads ∈ {1, 2, 8} × batch sizes {1, 4096} returns exactly what
// the serial path returns — including empty results, multi-file lazy
// scans, join + aggregate + top-k plans — and the per-operator row counts
// in the ExecutionReport are identical across thread counts. The report's
// query_threads is exactly what the drive-loop sizing rule predicts: a
// loop over m morsels uses min(threads, ceil(m / kMorselsPerWorker))
// workers. Integer and
// string results must be byte-identical; floating-point aggregates merge
// per-batch partials in seq order and are compared with a tight
// tolerance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/warehouse.h"
#include "engine/executor.h"
#include "engine/operators/operator.h"
#include "engine/planner.h"
#include "engine/pruning.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "storage/catalog.h"
#include "test_util.h"
#include "warehouse_test_util.h"

namespace lazyetl::engine {
namespace {

using storage::Catalog;
using storage::Column;
using storage::DataType;
using storage::Table;

const size_t kThreadCounts[] = {1, 2, 8};
const size_t kBatchSizes[] = {1, 4096};

void ExpectTablesEqual(const Table& a, const Table& b,
                       const std::string& context) {
  ASSERT_EQ(a.num_columns(), b.num_columns()) << context;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << context;
  for (size_t c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.column_name(c), b.column_name(c)) << context;
    EXPECT_EQ(a.schema()[c].type, b.schema()[c].type) << context;
    for (size_t r = 0; r < a.num_rows(); ++r) {
      const auto va = a.GetValue(r, c);
      const auto vb = b.GetValue(r, c);
      if (va.type() == DataType::kDouble) {
        EXPECT_NEAR(va.double_value(), vb.double_value(),
                    1e-9 * (1.0 + std::abs(va.double_value())))
            << context << " row " << r << " col " << c;
      } else {
        EXPECT_TRUE(va.Equals(vb))
            << context << " row " << r << " col " << c << ": "
            << va.ToString() << " vs " << vb.ToString();
      }
    }
  }
}

// Per-operator emitted-row totals, keyed by operator name. Batch counts
// and seconds vary with scheduling; row totals must not.
std::map<std::string, uint64_t> RowsByOperator(const ExecutionReport& r) {
  std::map<std::string, uint64_t> rows;
  for (const auto& op : r.operator_stats) rows[op.op] += op.rows;
  return rows;
}

// The workers the sizing rule gives a query whose largest parallel drive
// loop covers `rows` rows (after zone-map pruning) in `batch`-row morsels.
size_t PredictedWorkers(size_t rows, size_t batch, size_t threads) {
  const size_t morsels = (rows + batch - 1) / batch;
  return std::clamp<size_t>(
      (morsels + kMorselsPerWorker - 1) / kMorselsPerWorker, 1, threads);
}

// --- ThreadPool --------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForRunsEveryItemOnce) {
  std::vector<std::atomic<int>> counts(1000);
  for (auto& c : counts) c.store(0);
  common::ThreadPool::Shared().ParallelFor(
      counts.size(), 8, [&](size_t i) { counts[i].fetch_add(1); });
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // A worker driving its own inner ParallelFor must not wait on a
  // saturated pool: the caller participates.
  std::atomic<int> total{0};
  common::ThreadPool::Shared().ParallelFor(16, 8, [&](size_t) {
    common::ThreadPool::Shared().ParallelFor(
        16, 8, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 256);
}

// --- Engine-level parity over hand-built tables ------------------------------

constexpr size_t kRows = 20000;

class ParallelEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Many morsels at batch 1; at batch 4096 only 5, which the sizing
    // rule drives serially.
    std::vector<std::string> grp;
    std::vector<int32_t> i32;
    std::vector<int64_t> i64;
    std::vector<double> d;
    std::vector<std::string> s;
    for (int i = 0; i < static_cast<int>(kRows); ++i) {
      grp.push_back(i % 2 ? "odd" : "even");
      i32.push_back(i * 7 % 31 - 15);
      i64.push_back((1LL << 40) * (i % 3 - 1) + i);
      d.push_back(i * 0.25 - 10.0);
      s.push_back("row" + std::to_string(i % 97));
    }
    auto t = std::make_shared<Table>();
    ASSERT_STATUS_OK(t->AddColumn("grp", Column::FromString(grp)));
    ASSERT_STATUS_OK(t->AddColumn("i32", Column::FromInt32(i32)));
    ASSERT_STATUS_OK(t->AddColumn("i64", Column::FromInt64(i64)));
    ASSERT_STATUS_OK(t->AddColumn("d", Column::FromDouble(d)));
    ASSERT_STATUS_OK(t->AddColumn("s", Column::FromString(s)));
    ASSERT_STATUS_OK(catalog_.RegisterTable("t", t));
  }

  Result<Table> Run(const std::string& sql, size_t batch_rows, size_t threads,
                    ExecutionReport* report) {
    auto stmt = sql::Parse(sql);
    if (!stmt.ok()) return stmt.status();
    sql::Binder binder(&catalog_);
    auto bound = binder.Bind(*stmt);
    if (!bound.ok()) return bound.status();
    Planner planner(&catalog_, {});
    auto planned = planner.Plan(*bound);
    if (!planned.ok()) return planned.status();
    Executor executor(&catalog_, nullptr, {batch_rows, threads});
    return executor.Execute(*planned->plan, report);
  }

  // `driven_rows`: the rows the query's largest parallel drive loop
  // covers after zone-map pruning (0 when every loop is serial).
  void ExpectParity(const std::string& sql, size_t driven_rows = kRows) {
    for (size_t batch : kBatchSizes) {
      ExecutionReport serial_report;
      auto serial = Run(sql, batch, 1, &serial_report);
      ASSERT_OK(serial);
      auto serial_rows = RowsByOperator(serial_report);
      for (size_t threads : kThreadCounts) {
        ExecutionReport report;
        auto got = Run(sql, batch, threads, &report);
        ASSERT_OK(got);
        std::string context = sql + " @batch=" + std::to_string(batch) +
                              " threads=" + std::to_string(threads);
        ExpectTablesEqual(*serial, *got, context);
        EXPECT_EQ(report.query_threads,
                  PredictedWorkers(driven_rows, batch, threads))
            << context;
        // Stats consistency: per-operator emitted rows are exact under
        // concurrency.
        EXPECT_EQ(RowsByOperator(report), serial_rows) << context;
      }
    }
  }

  Catalog catalog_;
};

TEST_F(ParallelEngineTest, FilterShapes) {
  ExpectParity("SELECT i32, d FROM t WHERE i32 > 0");
  // d < 5.0 holds only in the first zone-map chunk.
  ExpectParity("SELECT s FROM t WHERE grp = 'odd' AND d < 5.0",
               PruningEnabled() ? storage::kZoneMapChunkRows : kRows);
  ExpectParity("SELECT i64 FROM t WHERE i32 = -15");  // highly selective
}

TEST_F(ParallelEngineTest, AggregateShapes) {
  ExpectParity("SELECT COUNT(*), SUM(i64), MIN(i32), MAX(i64) FROM t");
  ExpectParity("SELECT AVG(d), SUM(d) FROM t");
  ExpectParity(
      "SELECT grp, s, COUNT(*), SUM(i64), MIN(s) FROM t "
      "GROUP BY grp, s ORDER BY grp, s");
  ExpectParity(
      "SELECT grp FROM t GROUP BY grp HAVING MAX(i32) - MIN(i32) > 1 "
      "ORDER BY grp");
}

TEST_F(ParallelEngineTest, SortTopKDistinctShapes) {
  ExpectParity("SELECT i64, s FROM t ORDER BY i64 DESC, s");
  ExpectParity("SELECT i64, s FROM t ORDER BY i64 DESC, s LIMIT 17");
  ExpectParity("SELECT s FROM t ORDER BY s LIMIT 0");
  // Key-equal rows: top-k tie-breaks must reproduce stable-sort order.
  ExpectParity("SELECT grp, i32 FROM t ORDER BY grp LIMIT 23");
  ExpectParity("SELECT DISTINCT grp, s FROM t ORDER BY s");
  ExpectParity("SELECT DISTINCT i32 FROM t");
  // A Limit root is pulled serially, and nothing below it drives.
  ExpectParity("SELECT i32 FROM t LIMIT 3", 0);
}

TEST_F(ParallelEngineTest, EmptyResults) {
  // The zone maps prune every morsel: the scans hand out none.
  const size_t driven = PruningEnabled() ? 0 : kRows;
  ExpectParity("SELECT i32, s FROM t WHERE i32 > 1000", driven);
  ExpectParity("SELECT COUNT(*) FROM t WHERE i32 > 1000", driven);
  ExpectParity("SELECT grp, COUNT(*) FROM t WHERE i32 > 1000 GROUP BY grp",
               driven);
  ExpectParity("SELECT DISTINCT s FROM t WHERE i32 > 1000 ORDER BY s",
               driven);
  ExpectParity("SELECT i64 FROM t WHERE i32 > 1000 ORDER BY i64 LIMIT 5",
               driven);
}

TEST_F(ParallelEngineTest, LargeInputUsesEveryWorker) {
  // kMorselsPerWorker × 8 morsels at batch 4096: enough for 8 workers.
  const size_t rows = kMorselsPerWorker * 8 * kDefaultBatchRows;
  std::vector<int32_t> i32(rows);
  std::vector<int64_t> i64(rows);
  for (size_t i = 0; i < rows; ++i) {
    i32[i] = static_cast<int32_t>(i * 7 % 31) - 15;
    i64[i] = static_cast<int64_t>(i) * 3;
  }
  auto big = std::make_shared<Table>();
  ASSERT_STATUS_OK(big->AddColumn("i32", Column::FromInt32(std::move(i32))));
  ASSERT_STATUS_OK(big->AddColumn("i64", Column::FromInt64(std::move(i64))));
  ASSERT_STATUS_OK(catalog_.RegisterTable("big", big));

  const char* sql = "SELECT COUNT(*), SUM(i64), MIN(i32) FROM big WHERE i32 > 0";
  ExecutionReport serial_report;
  auto serial = Run(sql, kDefaultBatchRows, 1, &serial_report);
  ASSERT_OK(serial);
  EXPECT_EQ(serial_report.query_threads, 1u);
  ExecutionReport report;
  auto got = Run(sql, kDefaultBatchRows, 8, &report);
  ASSERT_OK(got);
  ExpectTablesEqual(*serial, *got, sql);
  EXPECT_EQ(report.query_threads, 8u);
  EXPECT_GE(report.parallel_drives, 1u);
}

TEST_F(ParallelEngineTest, TopKBoundsMaterialisedState) {
  // The fused top-k must not materialise the whole input the way the
  // unfused Sort does.
  ExecutionReport report;
  auto got = Run("SELECT i64 FROM t ORDER BY i64 LIMIT 10", 4096, 1, &report);
  ASSERT_OK(got);
  ASSERT_EQ(got->num_rows(), 10u);
  uint64_t topk_state = 0;
  bool saw_topk = false;
  for (const auto& op : report.operator_stats) {
    if (op.op == "TopK") {
      saw_topk = true;
      topk_state = op.state_bytes;
    }
    EXPECT_NE(op.op, "Sort") << "Sort+Limit should have fused";
    EXPECT_NE(op.op, "Limit") << "Sort+Limit should have fused";
  }
  EXPECT_TRUE(saw_topk);

  ExecutionReport sort_report;
  auto all = Run("SELECT i64 FROM t ORDER BY i64", 4096, 1, &sort_report);
  ASSERT_OK(all);
  uint64_t sort_state = 0;
  for (const auto& op : sort_report.operator_stats) {
    if (op.op == "Sort") sort_state = op.state_bytes;
  }
  EXPECT_GT(sort_state, 0u);
  EXPECT_LT(topk_state, sort_state / 4) << "top-k state should stay O(k)";
}

TEST_F(ParallelEngineTest, FusedFilterScanReportsBothStages) {
  ExecutionReport report;
  auto got = Run("SELECT i32 FROM t WHERE i32 > 0", 4096, 2, &report);
  ASSERT_OK(got);
  bool saw_scan = false;
  bool saw_filter = false;
  for (const auto& op : report.operator_stats) {
    if (op.op == "Scan(t)") {
      saw_scan = true;
      EXPECT_EQ(op.rows, 20000u);  // scanned rows, not filtered rows
    }
    if (op.op == "Filter") {
      saw_filter = true;
      EXPECT_LT(op.rows, 20000u);
    }
  }
  EXPECT_TRUE(saw_scan);
  EXPECT_TRUE(saw_filter);
}

// --- Warehouse-level parity (lazy multi-file scans, join + agg + top-k) ------

class ParallelWarehouseTest : public ::testing::Test {
 protected:
  static std::unique_ptr<core::Warehouse> OpenWith(
      core::LoadStrategy strategy, const std::string& root, size_t threads,
      size_t batch_rows = engine::kDefaultBatchRows) {
    core::WarehouseOptions options;
    options.strategy = strategy;
    options.batch_rows = batch_rows;
    options.query_threads = threads;
    options.extraction_threads = threads > 1 ? 4 : 1;
    options.enable_result_cache = false;  // compare executions, not caches
    auto wh = core::Warehouse::Open(options);
    EXPECT_TRUE(wh.ok()) << wh.status().ToString();
    auto stats = (*wh)->AttachRepository(root);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    return std::move(*wh);
  }

  void SetUp() override {
    auto cfg = lazyetl::testing::SmallRepoConfig();
    cfg.num_days = 1;
    lazyetl::testing::MustGenerate(dir_.path(), cfg);
  }

  void ExpectParity(const std::string& sql) {
    for (auto strategy : {core::LoadStrategy::kEager,
                          core::LoadStrategy::kLazy,
                          core::LoadStrategy::kLazyFilenameOnly}) {
      auto serial = OpenWith(strategy, dir_.path(), 1);
      auto expected = serial->Query(sql);
      ASSERT_OK(expected);
      auto expected_rows = RowsByOperator(expected->report);
      for (size_t threads : kThreadCounts) {
        SCOPED_TRACE(std::string(core::LoadStrategyToString(strategy)) +
                     " threads=" + std::to_string(threads));
        auto wh = OpenWith(strategy, dir_.path(), threads);
        // Twice: cold then warm record cache.
        auto cold = wh->Query(sql);
        ASSERT_OK(cold);
        ExpectTablesEqual(expected->table, cold->table, "cold: " + sql);
        EXPECT_EQ(RowsByOperator(cold->report), expected_rows) << sql;
        auto warm = wh->Query(sql);
        ASSERT_OK(warm);
        ExpectTablesEqual(expected->table, warm->table, "warm: " + sql);
      }
    }
  }

  lazyetl::testing::ScopedTempDir dir_;
};

TEST_F(ParallelWarehouseTest, PaperQueryAcrossThreadCounts) {
  ExpectParity(lazyetl::testing::kPaperQ1);
}

TEST_F(ParallelWarehouseTest, MultiFileJoinAggregate) {
  ExpectParity(
      "SELECT F.network, F.channel, COUNT(*), MIN(D.sample_value), "
      "MAX(D.sample_value) FROM mseed.dataview "
      "GROUP BY F.network, F.channel ORDER BY F.network, F.channel");
}

TEST_F(ParallelWarehouseTest, JoinAggregateTopK) {
  ExpectParity(
      "SELECT F.station, R.seq_no, D.sample_time, D.sample_value "
      "FROM mseed.dataview WHERE F.channel = 'BHZ' "
      "ORDER BY D.sample_time, F.station, R.seq_no LIMIT 40");
}

TEST_F(ParallelWarehouseTest, EmptySelection) {
  ExpectParity("SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'XX'");
  ExpectParity(
      "SELECT F.station, D.sample_value FROM mseed.dataview "
      "WHERE F.station = 'XX' ORDER BY D.sample_value");
}

TEST_F(ParallelWarehouseTest, SmallBatchesAcrossThreadCounts) {
  // Batch size 1 maximises morsel count and scheduling interleavings.
  auto serial = OpenWith(core::LoadStrategy::kLazy, dir_.path(), 1,
                         /*batch_rows=*/1);
  const char* sql =
      "SELECT F.station, COUNT(*), MIN(D.sample_value), MAX(D.sample_value) "
      "FROM mseed.dataview GROUP BY F.station ORDER BY F.station";
  auto expected = serial->Query(sql);
  ASSERT_OK(expected);
  for (size_t threads : kThreadCounts) {
    auto wh = OpenWith(core::LoadStrategy::kLazy, dir_.path(), threads,
                       /*batch_rows=*/1);
    auto got = wh->Query(sql);
    ASSERT_OK(got);
    ExpectTablesEqual(expected->table, got->table,
                      "batch=1 threads=" + std::to_string(threads));
  }
}

TEST_F(ParallelWarehouseTest, ResultRowsConsistentInReport) {
  const char* sql =
      "SELECT F.station, COUNT(*) FROM mseed.dataview GROUP BY F.station";
  auto serial = OpenWith(core::LoadStrategy::kLazy, dir_.path(), 1);
  auto expected = serial->Query(sql);
  ASSERT_OK(expected);
  for (size_t threads : kThreadCounts) {
    auto wh = OpenWith(core::LoadStrategy::kLazy, dir_.path(), threads);
    auto got = wh->Query(sql);
    ASSERT_OK(got);
    EXPECT_EQ(got->report.result_rows, expected->report.result_rows);
    EXPECT_EQ(got->report.records_requested,
              expected->report.records_requested);
  }
}

}  // namespace
}  // namespace lazyetl::engine
