// Multi-tier caching: the governed MemoryPool/PoolArena, the
// decoded-column tier, the sub-plan tier, and the warehouse invariant the
// whole stack rests on — caches change timings, never results. Parity runs
// every query with the tiers forced on (cold + warm) against a tiers-off
// baseline, across thread counts and pool budgets; the concurrency test
// doubles as the TSan target for the tier locks and the pool's yield path.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/memory_budget.h"
#include "common/memory_pool.h"
#include "core/warehouse.h"
#include "engine/column_cache.h"
#include "engine/plan_cache.h"
#include "storage/column.h"
#include "storage/table.h"
#include "test_util.h"
#include "warehouse_test_util.h"

namespace lazyetl {
namespace {

namespace fs = std::filesystem;
using common::MemoryBudget;
using common::MemoryPool;
using common::PoolArena;
using engine::CachedSubPlan;
using engine::ColumnCache;
using engine::FindCacheableSubPlan;
using engine::MakeScan;
using engine::PlanCache;
using engine::PlanFingerprint;
using engine::PlanNode;
using engine::PlanNodePtr;
using engine::PlanNodeType;
using engine::ResultDependency;
using storage::Column;
using storage::DataType;
using storage::Table;
using storage::TablePtr;
using lazyetl::testing::MustGenerate;
using lazyetl::testing::MustOpen;
using lazyetl::testing::ScopedTempDir;
using lazyetl::testing::SmallRepoConfig;

// ---------------------------------------------------------------------------
// MemoryPool

TEST(MemoryPoolTest, ChargeReleaseAndLimit) {
  MemoryPool pool(1000);
  EXPECT_TRUE(pool.TryCharge(600));
  EXPECT_TRUE(pool.TryCharge(400));
  EXPECT_FALSE(pool.TryCharge(1));  // full
  EXPECT_EQ(pool.used(), 1000u);
  pool.Release(400);
  EXPECT_EQ(pool.used(), 600u);
  EXPECT_TRUE(pool.TryCharge(100));
  auto s = pool.stats();
  EXPECT_EQ(s.limit_bytes, 1000u);
  EXPECT_EQ(s.used_bytes, 700u);
  EXPECT_EQ(s.peak_bytes, 1000u);
  EXPECT_EQ(s.charges, 3u);
  EXPECT_EQ(s.charge_failures, 1u);
}

TEST(MemoryPoolTest, ChainsEveryChargeToGovernor) {
  MemoryBudget global(1000);
  MemoryPool pool(0, &global);  // no pool-local limit
  EXPECT_EQ(pool.governed_limit(), 1000u);
  EXPECT_TRUE(pool.TryCharge(600));
  EXPECT_EQ(global.used(), 600u);
  // The governor refuses even though the pool itself is unlimited.
  EXPECT_FALSE(pool.TryCharge(600));
  EXPECT_EQ(global.used(), 600u);  // failed charge rolled back cleanly
  pool.Release(600);
  EXPECT_EQ(global.used(), 0u);
}

TEST(MemoryPoolTest, YieldReclaimsFromOtherTiers) {
  MemoryPool pool(1000);
  ASSERT_TRUE(pool.TryCharge(900));  // a "cold tier" pins 900 bytes
  uint64_t pinned = 900;
  auto cold = pool.RegisterYielder([&](uint64_t want) {
    uint64_t freed = std::min(pinned, want);
    pinned -= freed;
    pool.Release(freed);
    return freed;
  });
  // Plain TryCharge never yields.
  EXPECT_FALSE(pool.TryCharge(400));
  // ChargeWithYield reclaims the cold tier's bytes and succeeds.
  EXPECT_TRUE(pool.ChargeWithYield(400));
  EXPECT_LE(pool.used(), 1000u);
  auto s = pool.stats();
  EXPECT_GE(s.yield_requests, 1u);
  EXPECT_GE(s.yielded_bytes, 300u);
  pool.UnregisterYielder(cold);
}

TEST(MemoryPoolTest, YieldSkipsTheExcludedTier) {
  MemoryPool pool(100);
  ASSERT_TRUE(pool.TryCharge(100));
  bool self_asked = false;
  auto self = pool.RegisterYielder([&](uint64_t) {
    self_asked = true;
    return uint64_t{0};
  });
  // Only the caller's own tier is registered: excluded, so the charge
  // fails without ever invoking it.
  EXPECT_FALSE(pool.ChargeWithYield(50, self));
  EXPECT_FALSE(self_asked);
  EXPECT_GE(pool.stats().charge_failures, 1u);
  pool.UnregisterYielder(self);
}

TEST(MemoryPoolTest, YieldIsBounded) {
  MemoryPool pool(100);
  ASSERT_TRUE(pool.TryCharge(100));
  uint64_t asked_total = 0;
  auto stubborn = pool.RegisterYielder([&](uint64_t want) {
    asked_total += want;
    return uint64_t{0};  // frees nothing
  });
  EXPECT_FALSE(pool.ChargeWithYield(10));
  // A failing admission may retry, but the total reclamation asked for is
  // bounded (4x the request) — one charge cannot wipe every tier.
  EXPECT_LE(asked_total, 4u * 10u);
  pool.UnregisterYielder(stubborn);
}

TEST(PoolArenaTest, BumpAllocatesAlignedAndResets) {
  MemoryPool pool(1 << 20);
  PoolArena arena(&pool, /*chunk_bytes=*/4096);
  void* a = arena.Allocate(10, 8);
  void* b = arena.Allocate(100, 64);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 64, 0u);
  int64_t* arr = arena.AllocateArray<int64_t>(100);
  ASSERT_NE(arr, nullptr);
  for (int i = 0; i < 100; ++i) arr[i] = i;  // writable memory
  EXPECT_GE(arena.allocated_bytes(), 110u + 800u);
  EXPECT_GT(pool.used(), 0u);
  EXPECT_EQ(pool.used(), arena.chunk_bytes_total());
  arena.Reset();
  EXPECT_EQ(pool.used(), 0u);  // charge refunded wholesale
  EXPECT_EQ(arena.allocated_bytes(), 0u);
}

TEST(PoolArenaTest, RefusedChunkReturnsNull) {
  MemoryPool pool(256);
  PoolArena arena(&pool, /*chunk_bytes=*/4096);
  EXPECT_EQ(arena.Allocate(64), nullptr);  // chunk would exceed the pool
  EXPECT_EQ(pool.used(), 0u);
}

// ---------------------------------------------------------------------------
// ColumnCache

TablePtr MakeColumnTable(int64_t base) {
  auto t = std::make_shared<Table>();
  std::vector<int64_t> v(64);
  for (size_t i = 0; i < v.size(); ++i) v[i] = base + static_cast<int64_t>(i);
  EXPECT_TRUE(t->AddColumn("D.sample_value", Column::FromInt64(v)).ok());
  return t;
}

TEST(ColumnCacheTest, HitIsSeqOrderInsensitiveAndShared) {
  ColumnCache cache(1 << 20);
  cache.Admit(1, /*mtime=*/500, "value>D.sample_value,", {3, 1, 2},
              MakeColumnTable(0));
  bool stale = true;
  TablePtr hit = cache.Lookup(1, 500, "value>D.sample_value,", {2, 3, 1},
                              &stale);
  ASSERT_NE(hit, nullptr);
  EXPECT_FALSE(stale);
  EXPECT_EQ(hit->num_rows(), 64u);
  // Same shared table on every lookup — zero-copy across queries.
  EXPECT_EQ(hit.get(),
            cache.Lookup(1, 500, "value>D.sample_value,", {1, 2, 3}).get());
  auto s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.admissions, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.current_bytes, 0u);
}

TEST(ColumnCacheTest, DifferentKeyMaterialsMiss) {
  ColumnCache cache(1 << 20);
  cache.Admit(1, 500, "sig", {1, 2}, MakeColumnTable(0));
  bool stale = true;
  EXPECT_EQ(cache.Lookup(1, 500, "sig", {1, 2, 3}, &stale), nullptr);
  EXPECT_FALSE(stale);
  EXPECT_EQ(cache.Lookup(1, 500, "other", {1, 2}, &stale), nullptr);
  EXPECT_EQ(cache.Lookup(2, 500, "sig", {1, 2}, &stale), nullptr);
  EXPECT_EQ(cache.stats().misses, 3u);
  // The original entry is untouched.
  EXPECT_NE(cache.Lookup(1, 500, "sig", {1, 2}), nullptr);
}

TEST(ColumnCacheTest, MtimeChangeErasesStaleEntry) {
  ColumnCache cache(1 << 20);
  cache.Admit(1, 500, "sig", {1}, MakeColumnTable(0));
  bool stale = false;
  EXPECT_EQ(cache.Lookup(1, 501, "sig", {1}, &stale), nullptr);
  EXPECT_TRUE(stale);
  EXPECT_EQ(cache.stats().stale, 1u);
  // Gone even under the original mtime.
  EXPECT_EQ(cache.Lookup(1, 500, "sig", {1}), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().current_bytes, 0u);
}

TEST(ColumnCacheTest, InvalidateFileDropsOnlyThatFile) {
  ColumnCache cache(1 << 20);
  cache.Admit(1, 500, "sig", {1}, MakeColumnTable(0));
  cache.Admit(1, 500, "sig", {2}, MakeColumnTable(1));
  cache.Admit(2, 500, "sig", {1}, MakeColumnTable(2));
  EXPECT_GT(cache.ResidentBytesForFile(1), 0u);
  cache.InvalidateFile(1);
  EXPECT_EQ(cache.ResidentBytesForFile(1), 0u);
  EXPECT_EQ(cache.Lookup(1, 500, "sig", {1}), nullptr);
  EXPECT_EQ(cache.Lookup(1, 500, "sig", {2}), nullptr);
  EXPECT_NE(cache.Lookup(2, 500, "sig", {1}), nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ColumnCacheTest, OwnBudgetEvictsLeastRecentlyUsed) {
  uint64_t one = 0;
  {
    ColumnCache probe(1 << 20);
    probe.Admit(1, 1, "sig", {1}, MakeColumnTable(0));
    one = probe.stats().current_bytes;
  }
  ColumnCache cache(one * 3 + one / 2);  // room for three entries
  cache.Admit(1, 1, "sig", {1}, MakeColumnTable(0));
  cache.Admit(1, 1, "sig", {2}, MakeColumnTable(1));
  cache.Admit(1, 1, "sig", {3}, MakeColumnTable(2));
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_NE(cache.Lookup(1, 1, "sig", {1}), nullptr);  // {2} is now LRU
  cache.Admit(1, 1, "sig", {4}, MakeColumnTable(3));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.Lookup(1, 1, "sig", {2}), nullptr);  // evicted
  EXPECT_NE(cache.Lookup(1, 1, "sig", {1}), nullptr);  // survived
}

TEST(ColumnCacheTest, PoolPressureYieldsAcrossTiers) {
  // A shared pool a bit larger than one entry: admitting into the plan
  // tier must reclaim the column tier's resident bytes via its yielder.
  uint64_t one = 0;
  {
    ColumnCache probe(1 << 20);
    probe.Admit(1, 1, "sig", {1}, MakeColumnTable(0));
    one = probe.stats().current_bytes;
  }
  MemoryPool pool(one * 2);
  ColumnCache cold(1 << 20, &pool);
  PlanCache hot(1 << 20, &pool);
  cold.Admit(1, 1, "sig", {1}, MakeColumnTable(0));
  cold.Admit(1, 1, "sig", {2}, MakeColumnTable(1));
  ASSERT_EQ(cold.stats().entries, 2u);

  CachedSubPlan entry;
  entry.table = MakeColumnTable(2);
  entry.deps.push_back(ResultDependency{1, "f", 1});
  hot.Admit("fp", std::move(entry), hot.epoch());
  EXPECT_EQ(hot.stats().admissions, 1u);
  EXPECT_GT(cold.stats().evictions, 0u);  // yielded to make room
  EXPECT_LE(pool.used(), pool.limit());
  auto dep_ok = [](const ResultDependency&) { return NanoTime{1}; };
  EXPECT_NE(hot.ValidateAndGet("fp", dep_ok), nullptr);
}

// ---------------------------------------------------------------------------
// PlanCache

PlanNodePtr MakeCountAggOverScan(const std::string& table) {
  auto scan = MakeScan(table, {{"station", "F.station"}});
  auto agg = std::make_unique<PlanNode>();
  agg->type = PlanNodeType::kAggregate;
  sql::BoundAggregate count;
  count.function = "COUNT";
  count.arg = nullptr;  // COUNT(*)
  count.display = "#agg0";
  agg->aggregates.push_back(std::move(count));
  agg->children.push_back(std::move(scan));
  return agg;
}

TEST(PlanCacheTest, FingerprintIsCanonicalAndDiscriminating) {
  auto a = MakeCountAggOverScan("mseed.files");
  auto b = MakeCountAggOverScan("mseed.files");
  auto c = MakeCountAggOverScan("mseed.records");
  EXPECT_FALSE(PlanFingerprint(*a).empty());
  EXPECT_EQ(PlanFingerprint(*a), PlanFingerprint(*b));
  EXPECT_NE(PlanFingerprint(*a), PlanFingerprint(*c));
  // A substituted subtree has no canonical definition.
  auto cached = engine::MakeCachedScan(MakeColumnTable(0), "subplan");
  EXPECT_TRUE(PlanFingerprint(*cached).empty());
  auto wrapped = MakeCountAggOverScan("mseed.files");
  wrapped->children[0] = engine::MakeCachedScan(MakeColumnTable(0), "s");
  EXPECT_TRUE(PlanFingerprint(*wrapped).empty());
}

TEST(PlanCacheTest, FindCacheableSubPlanWalksTheSpine) {
  // Breaker at the root.
  PlanNodePtr root = MakeCountAggOverScan("mseed.files");
  EXPECT_EQ(FindCacheableSubPlan(&root), &root);

  // Limit over Aggregate: the walk passes through the wrapper.
  auto limit = std::make_unique<PlanNode>();
  limit->type = PlanNodeType::kLimit;
  limit->limit = 5;
  limit->children.push_back(std::move(root));
  PlanNodePtr wrapped = std::move(limit);
  PlanNodePtr* slot = FindCacheableSubPlan(&wrapped);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ((*slot)->type, PlanNodeType::kAggregate);

  // A plain scan has no breaker.
  PlanNodePtr scan = MakeScan("mseed.files", {{"station", "F.station"}});
  EXPECT_EQ(FindCacheableSubPlan(&scan), nullptr);
}

TEST(PlanCacheTest, DependencyStalenessInvalidates) {
  PlanCache cache(1 << 20);
  CachedSubPlan entry;
  entry.table = MakeColumnTable(0);
  entry.deps.push_back(ResultDependency{7, "a", 100});
  entry.deps.push_back(ResultDependency{8, "b", 200});
  cache.Admit("fp", std::move(entry), cache.epoch());

  auto fresh = [](const ResultDependency& d) { return d.mtime; };
  EXPECT_NE(cache.ValidateAndGet("fp", fresh), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);

  // One dependency moved: the entry is dropped, later lookups miss.
  auto moved = [](const ResultDependency& d) {
    return d.file_id == 8 ? NanoTime{201} : d.mtime;
  };
  EXPECT_EQ(cache.ValidateAndGet("fp", moved), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.ValidateAndGet("fp", fresh), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().current_bytes, 0u);
}

TEST(PlanCacheTest, ClearBumpsEpochAndRejectsStaleAdmissions) {
  PlanCache cache(1 << 20);
  uint64_t epoch = cache.epoch();
  cache.Clear();  // catalog republished while the entry was computing
  CachedSubPlan entry;
  entry.table = MakeColumnTable(0);
  cache.Admit("fp", std::move(entry), epoch);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_GE(cache.stats().rejected, 1u);
  // An admission under the current epoch succeeds.
  CachedSubPlan entry2;
  entry2.table = MakeColumnTable(0);
  cache.Admit("fp", std::move(entry2), cache.epoch());
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(PlanCacheTest, InvalidateFileDropsDependents) {
  PlanCache cache(1 << 20);
  CachedSubPlan on7;
  on7.table = MakeColumnTable(0);
  on7.deps.push_back(ResultDependency{7, "a", 1});
  cache.Admit("fp7", std::move(on7), cache.epoch());
  CachedSubPlan on8;
  on8.table = MakeColumnTable(1);
  on8.deps.push_back(ResultDependency{8, "b", 1});
  cache.Admit("fp8", std::move(on8), cache.epoch());
  cache.InvalidateFile(7);
  auto fresh = [](const ResultDependency& d) { return d.mtime; };
  EXPECT_EQ(cache.ValidateAndGet("fp7", fresh), nullptr);
  EXPECT_NE(cache.ValidateAndGet("fp8", fresh), nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
}

// ---------------------------------------------------------------------------
// Warehouse integration: parity, observability, invalidation, concurrency.

void ExpectTablesEqual(const Table& a, const Table& b,
                       const std::string& context) {
  ASSERT_EQ(a.num_columns(), b.num_columns()) << context;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << context;
  for (size_t c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.column_name(c), b.column_name(c)) << context;
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

class CacheTiersTest : public ::testing::Test {
 protected:
  void SetUp() override { repo_ = MustGenerate(dir_.path(), SmallRepoConfig()); }

  std::unique_ptr<core::Warehouse> OpenTiers(int column, int plan,
                                             uint64_t pool_budget,
                                             size_t threads = 1) {
    core::WarehouseOptions options;
    options.strategy = core::LoadStrategy::kLazy;
    options.enable_result_cache = false;  // isolate the new tiers
    options.enable_column_cache = column;
    options.enable_plan_cache = plan;
    options.cache_pool_budget_bytes = pool_budget;
    options.query_threads = threads;
    auto wh = core::Warehouse::Open(options);
    EXPECT_TRUE(wh.ok()) << wh.status().ToString();
    auto stats = (*wh)->AttachRepository(dir_.path());
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    return std::move(*wh);
  }

  ScopedTempDir dir_;
  mseed::GeneratedRepository repo_;
};

// Runs `sql` through Query() or, when `streamed`, through a drained
// OpenCursor() — the two entry points share one lifecycle, so either
// must warm the tiers for the other.
Result<core::QueryResult> RunQuery(core::Warehouse* wh, const std::string& sql,
                                   bool streamed) {
  return streamed ? lazyetl::testing::DrainCursor(wh, sql) : wh->Query(sql);
}

TEST_F(CacheTiersTest, CachedEqualsUncachedAcrossThreadsAndBudgets) {
  const std::vector<std::string> queries = {
      lazyetl::testing::kPaperQ1,
      lazyetl::testing::kPaperQ2,
      "SELECT COUNT(*) FROM mseed.dataview WHERE F.channel = 'BHZ'",
      "SELECT F.station, AVG(D.sample_value) FROM mseed.dataview "
      "WHERE F.network = 'NL' GROUP BY F.station ORDER BY F.station",
  };
  // Tiers-off baseline, serial.
  auto off = OpenTiers(/*column=*/0, /*plan=*/0, /*pool_budget=*/0);
  std::vector<Table> baseline;
  for (const auto& sql : queries) {
    auto r = off->Query(sql);
    ASSERT_OK(r);
    baseline.push_back(std::move(r->table));
  }

  for (size_t threads : {size_t{1}, size_t{8}}) {
    // ~0 = unlimited is the option default; 1 MiB starves the pool so
    // every admission runs the yield/reject path mid-query.
    for (uint64_t pool : {uint64_t{0}, uint64_t{1} << 20}) {
      for (bool streamed : {false, true}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " pool=" + std::to_string(pool) +
                     " streamed=" + std::to_string(streamed));
        auto on = OpenTiers(/*column=*/1, /*plan=*/1, pool, threads);
        for (int round = 0; round < 2; ++round) {  // cold, then warm
          for (size_t q = 0; q < queries.size(); ++q) {
            auto r = RunQuery(on.get(), queries[q], streamed);
            ASSERT_OK(r);
            ExpectTablesEqual(baseline[q], r->table,
                              "query " + std::to_string(q) + " round " +
                                  std::to_string(round));
          }
        }
      }
    }
  }
}

TEST_F(CacheTiersTest, ColumnTierServesRepeatedExtractions) {
  auto wh = OpenTiers(/*column=*/1, /*plan=*/0, /*pool_budget=*/0);
  auto cold = wh->Query(lazyetl::testing::kPaperQ2);
  ASSERT_OK(cold);
  EXPECT_GT(cold->report.column_cache_misses, 0u);
  EXPECT_GT(cold->report.records_extracted, 0u);

  auto warm = wh->Query(lazyetl::testing::kPaperQ2);
  ASSERT_OK(warm);
  EXPECT_GT(warm->report.column_cache_hits, 0u);
  EXPECT_EQ(warm->report.records_extracted, 0u);  // no decode, no assembly
  EXPECT_EQ(warm->report.files_opened, 0u);
  ExpectTablesEqual(cold->table, warm->table, "column-tier warm");

  auto stats = wh->Stats();
  EXPECT_GT(stats.column_cache.hits, 0u);
  EXPECT_GT(stats.column_cache.current_bytes, 0u);
  EXPECT_GT(stats.cache_pool.used_bytes, 0u);
  // The warm report mentions the tier.
  EXPECT_NE(warm->report.ToString().find("column cache"), std::string::npos);
}

TEST_F(CacheTiersTest, PlanTierServesRepeatedBreakers) {
  // A streamed sub-plan miss admits exactly as Query() does, and either
  // entry point is served by what the other admitted.
  for (bool cold_streamed : {false, true}) {
    for (bool warm_streamed : {false, true}) {
      SCOPED_TRACE("cold_streamed=" + std::to_string(cold_streamed) +
                   " warm_streamed=" + std::to_string(warm_streamed));
      auto wh = OpenTiers(/*column=*/0, /*plan=*/1, /*pool_budget=*/0);
      auto cold =
          RunQuery(wh.get(), lazyetl::testing::kPaperQ2, cold_streamed);
      ASSERT_OK(cold);
      EXPECT_FALSE(cold->report.plan_cache_hit);

      auto warm =
          RunQuery(wh.get(), lazyetl::testing::kPaperQ2, warm_streamed);
      ASSERT_OK(warm);
      EXPECT_TRUE(warm->report.plan_cache_hit);
      // The whole breaker subtree was skipped: nothing was extracted.
      EXPECT_EQ(warm->report.records_extracted, 0u);
      EXPECT_EQ(warm->report.files_opened, 0u);
      ExpectTablesEqual(cold->table, warm->table, "plan-tier warm");
      // The substituted plan is reported for introspection.
      EXPECT_NE(warm->report.plan_runtime.find("CachedScan"),
                std::string::npos);

      auto stats = wh->Stats();
      EXPECT_EQ(stats.plan_cache.hits, 1u);
      EXPECT_EQ(stats.plan_cache.admissions, 1u);
      EXPECT_GT(stats.plan_cache.current_bytes, 0u);
    }
  }
}

TEST_F(CacheTiersTest, ExplicitOffBeatsEnvironmentAndReportsNothing) {
  // Explicit 0 wins over any LAZYETL_*_CACHE environment (the CI parity
  // job runs this suite with both tiers forced on via the environment).
  auto wh = OpenTiers(/*column=*/0, /*plan=*/0, /*pool_budget=*/0);
  ASSERT_OK(wh->Query(lazyetl::testing::kPaperQ2));
  auto warm = wh->Query(lazyetl::testing::kPaperQ2);
  ASSERT_OK(warm);
  EXPECT_EQ(warm->report.column_cache_hits, 0u);
  EXPECT_EQ(warm->report.column_cache_misses, 0u);
  EXPECT_FALSE(warm->report.plan_cache_hit);
  auto stats = wh->Stats();
  EXPECT_EQ(stats.column_cache.entries, 0u);
  EXPECT_EQ(stats.plan_cache.entries, 0u);
}

TEST_F(CacheTiersTest, FileModificationInvalidatesBothTiers) {
  std::string target;
  for (const auto& f : repo_.files) {
    if (f.station == "HGN" && f.channel == "BHZ") target = f.path;
  }
  ASSERT_FALSE(target.empty());
  for (bool streamed : {false, true}) {
    SCOPED_TRACE("streamed=" + std::to_string(streamed));
    auto wh = OpenTiers(/*column=*/1, /*plan=*/1, /*pool_budget=*/0);
    const std::string sql =
        "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'HGN' "
        "AND F.channel = 'BHZ'";
    ASSERT_OK(RunQuery(wh.get(), sql, streamed));
    auto warm = RunQuery(wh.get(), sql, streamed);
    ASSERT_OK(warm);
    EXPECT_TRUE(warm->report.plan_cache_hit);

    // Touch the file the query depends on: mtime moves, content does not.
    fs::last_write_time(target, fs::last_write_time(target) +
                                    std::chrono::seconds(2));

    auto after = RunQuery(wh.get(), sql, streamed);
    ASSERT_OK(after);
    // Both tiers noticed: the plan entry failed dependency validation (or
    // was cleared by the metadata republish) and the column windows were
    // re-extracted under the new mtime.
    EXPECT_FALSE(after->report.plan_cache_hit);
    EXPECT_GT(after->report.records_extracted, 0u);
    ExpectTablesEqual(warm->table, after->table, "same content after touch");
  }
}

TEST_F(CacheTiersTest, RefreshClearsThePlanTier) {
  auto wh = OpenTiers(/*column=*/1, /*plan=*/1, /*pool_budget=*/0);
  ASSERT_OK(wh->Query(lazyetl::testing::kPaperQ2));
  EXPECT_GT(wh->Stats().plan_cache.entries, 0u);

  // Add a brand new file and refresh: old dependency lists know nothing
  // about it, so the tier must be cleared wholesale.
  mseed::RepositoryConfig extra;
  extra.stations = {{"NL", "DBN", "", {"BHZ"}, 40.0}};
  extra.num_days = 1;
  extra.seconds_per_segment = 10.0;
  MustGenerate(dir_.path(), extra);
  auto stats = wh->Refresh();
  ASSERT_OK(stats);
  EXPECT_EQ(stats->new_files, 1u);
  EXPECT_EQ(wh->Stats().plan_cache.entries, 0u);

  // The re-run sees the new station — served fresh, not from the cache.
  auto after = wh->Query(lazyetl::testing::kPaperQ2);
  ASSERT_OK(after);
  EXPECT_FALSE(after->report.plan_cache_hit);
  bool found = false;
  for (size_t r = 0; r < after->table.num_rows(); ++r) {
    if (after->table.GetValue(r, 0).ToString() == "DBN") found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(CacheTiersTest, ClearCachesDropsEveryTier) {
  auto wh = OpenTiers(/*column=*/1, /*plan=*/1, /*pool_budget=*/0);
  ASSERT_OK(wh->Query(lazyetl::testing::kPaperQ2));
  EXPECT_GT(wh->Stats().cache_pool.used_bytes, 0u);
  wh->ClearCaches();
  auto stats = wh->Stats();
  EXPECT_EQ(stats.column_cache.entries, 0u);
  EXPECT_EQ(stats.plan_cache.entries, 0u);
  EXPECT_EQ(stats.cache.entries, 0u);
  EXPECT_EQ(stats.cache_pool.used_bytes, 0u);
}

// A cursor retains at most its backpressure window for whole-result
// admission: a streamed scan wider than the window is never admitted, and
// its resident result bytes stay far below the materialized table.
TEST_F(CacheTiersTest, StreamWiderThanWindowIsNotAdmitted) {
  const char* sql =
      "SELECT D.sample_value, D.sample_time FROM mseed.dataview "
      "WHERE F.channel = 'BHZ';";
  constexpr size_t kBatchRows = 128;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    core::WarehouseOptions options;
    options.strategy = core::LoadStrategy::kLazy;
    options.query_threads = threads;
    options.batch_rows = kBatchRows;
    auto opened = core::Warehouse::Open(options);
    ASSERT_OK(opened);
    std::unique_ptr<core::Warehouse> wh = std::move(*opened);
    ASSERT_OK(wh->AttachRepository(dir_.path()));

    auto cursor = wh->OpenCursor(sql);
    ASSERT_OK(cursor);
    Table batch;
    uint64_t rows = 0;
    while (true) {
      auto more = (*cursor)->Next(&batch);
      ASSERT_OK(more);
      if (!*more) break;
      rows += batch.num_rows();
    }
    const uint64_t peak = (*cursor)->peak_buffered_bytes();
    EXPECT_EQ(wh->Stats().result_cache_entries, 0u);

    // Nothing was admitted, so Query() executes; it retains its whole
    // result and admits it.
    auto queried = wh->Query(sql);
    ASSERT_OK(queried);
    EXPECT_FALSE(queried->report.result_cache_hit);
    ASSERT_GT(queried->table.num_rows(),
              wh->options().cursor_window_batches * kBatchRows);
    EXPECT_EQ(rows, queried->table.num_rows());
    EXPECT_GT(peak, 0u);
    EXPECT_LE(peak * 10, queried->table.MemoryBytes())
        << "peak=" << peak
        << " materialized=" << queried->table.MemoryBytes();
    EXPECT_EQ(wh->Stats().result_cache_entries, 1u);
  }
}

// TSan target: concurrent queries over one warehouse with both tiers on
// and a starved pool, so admissions, hits, evictions and cross-tier
// yields interleave. Results must match the serial baseline exactly.
TEST_F(CacheTiersTest, ConcurrentQueriesWithStarvedPoolStayCorrect) {
  const std::vector<std::string> queries = {
      lazyetl::testing::kPaperQ2,
      "SELECT COUNT(*) FROM mseed.dataview WHERE F.channel = 'BHZ'",
      lazyetl::testing::kPaperQ1,
  };
  auto off = OpenTiers(/*column=*/0, /*plan=*/0, /*pool_budget=*/0);
  std::vector<Table> baseline;
  for (const auto& sql : queries) {
    auto r = off->Query(sql);
    ASSERT_OK(r);
    baseline.push_back(std::move(r->table));
  }

  auto wh = OpenTiers(/*column=*/1, /*plan=*/1, /*pool_budget=*/1 << 20);
  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::vector<std::thread> workers;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        size_t q = static_cast<size_t>(t + round) % queries.size();
        auto r = wh->Query(queries[q]);
        if (!r.ok() || r->table.num_rows() != baseline[q].num_rows()) {
          ++failures[t];
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;

  // Full content check once the dust has settled.
  for (size_t q = 0; q < queries.size(); ++q) {
    auto r = wh->Query(queries[q]);
    ASSERT_OK(r);
    ExpectTablesEqual(baseline[q], r->table, "post-concurrency " +
                                                 std::to_string(q));
  }
  EXPECT_LE(wh->Stats().cache_pool.used_bytes, uint64_t{1} << 20);
}

}  // namespace
}  // namespace lazyetl
