#include "core/warehouse.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "common/log.h"
#include "common/memory_budget.h"
#include "core/schema.h"
#include "mseed/repository.h"
#include "storage/persist.h"
#include "test_util.h"
#include "warehouse_test_util.h"

namespace lazyetl::core {
namespace {

using lazyetl::testing::DrainCursor;
using lazyetl::testing::MustGenerate;
using lazyetl::testing::MustOpen;
using lazyetl::testing::ScopedTempDir;
using lazyetl::testing::SmallRepoConfig;

class WarehouseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    repo_ = MustGenerate(dir_.path(), SmallRepoConfig());
  }

  ScopedTempDir dir_;
  mseed::GeneratedRepository repo_;
};

TEST_F(WarehouseTest, LazyAttachLoadsOnlyMetadata) {
  WarehouseOptions lazy_options;
  lazy_options.strategy = LoadStrategy::kLazy;
  auto wh = Warehouse::Open(lazy_options);
  ASSERT_OK(wh);
  auto stats = (*wh)->AttachRepository(dir_.path());
  ASSERT_OK(stats);
  EXPECT_EQ(stats->files, repo_.files.size());
  EXPECT_EQ(stats->records, repo_.total_records);
  EXPECT_EQ(stats->samples_loaded, 0u);
  // Metadata scan reads far less than the repository size.
  EXPECT_LT(stats->bytes_read, repo_.total_bytes / 2);

  // F and R are filled; D is empty.
  auto files = (*wh)->catalog().GetTable(kFilesTable);
  auto records = (*wh)->catalog().GetTable(kRecordsTable);
  auto data = (*wh)->catalog().GetTable(kDataTable);
  ASSERT_OK(files);
  ASSERT_OK(records);
  ASSERT_OK(data);
  EXPECT_EQ((*files)->num_rows(), repo_.files.size());
  EXPECT_EQ((*records)->num_rows(), repo_.total_records);
  EXPECT_EQ((*data)->num_rows(), 0u);
}

TEST_F(WarehouseTest, EagerAttachLoadsEverything) {
  auto wh = MustOpen(LoadStrategy::kEager, dir_.path());
  auto data = wh->catalog().GetTable(kDataTable);
  ASSERT_OK(data);
  EXPECT_EQ((*data)->num_rows(), repo_.total_samples);
}

TEST_F(WarehouseTest, FilenameOnlyAttachReadsNoFileBytes) {
  WarehouseOptions fn_options;
  fn_options.strategy = LoadStrategy::kLazyFilenameOnly;
  auto wh = Warehouse::Open(fn_options);
  ASSERT_OK(wh);
  auto stats = (*wh)->AttachRepository(dir_.path());
  ASSERT_OK(stats);
  EXPECT_EQ(stats->files, repo_.files.size());
  // Only the dataless inventory volume is read; no waveform file bytes.
  EXPECT_EQ(stats->bytes_read, repo_.dataless_bytes);
  auto records = (*wh)->catalog().GetTable(kRecordsTable);
  ASSERT_OK(records);
  EXPECT_EQ((*records)->num_rows(), 0u);  // not hydrated yet
}

TEST_F(WarehouseTest, MetadataBrowsingQueries) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  // Stations in network NL (queried against base table: no extraction).
  auto result = wh->Query(
      "SELECT station, COUNT(*) AS n FROM mseed.files "
      "WHERE network = 'NL' GROUP BY station ORDER BY station");
  ASSERT_OK(result);
  ASSERT_EQ(result->table.num_rows(), 3u);
  EXPECT_EQ(result->table.GetValue(0, 0).string_value(), "HGN");
  EXPECT_EQ(result->report.records_extracted, 0u);
  EXPECT_EQ(result->report.files_opened, 0u);
}

TEST_F(WarehouseTest, PaperQ1ExtractsOnlyMatchingRecords) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  auto result = wh->Query(lazyetl::testing::kPaperQ1);
  ASSERT_OK(result);
  ASSERT_EQ(result->table.num_rows(), 1u);
  const auto& report = result->report;
  // Only records from ISK/BHE on the matching day are requested — far
  // fewer than the repository's record count.
  EXPECT_GT(report.records_requested, 0u);
  EXPECT_LT(report.records_requested, repo_.total_records / 4);
  EXPECT_EQ(report.files_opened, 1u);  // one channel-day file
  EXPECT_GT(report.samples_extracted, 0u);
  // Run-time rewrite is documented.
  EXPECT_NE(report.plan_runtime.find("rewritten at run time"),
            std::string::npos);
  EXPECT_NE(report.plan_after.find("LazyDataScan"), std::string::npos);
}

TEST_F(WarehouseTest, RepeatQueryServedFromCache) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path(),
                     /*cache_budget=*/64ULL << 20,
                     /*result_cache=*/false);
  auto first = wh->Query(lazyetl::testing::kPaperQ1);
  ASSERT_OK(first);
  EXPECT_GT(first->report.records_extracted, 0u);
  auto second = wh->Query(lazyetl::testing::kPaperQ1);
  ASSERT_OK(second);
  EXPECT_EQ(second->report.records_extracted, 0u);
  EXPECT_GT(second->report.cache_hits, 0u);
  EXPECT_EQ(second->report.files_opened, 0u);
  // Same answer.
  EXPECT_TRUE(second->table.GetValue(0, 0).Equals(first->table.GetValue(0, 0)));
}

TEST_F(WarehouseTest, ResultCacheShortCircuits) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  auto first = wh->Query(lazyetl::testing::kPaperQ2);
  ASSERT_OK(first);
  EXPECT_FALSE(first->report.result_cache_hit);
  auto second = wh->Query(lazyetl::testing::kPaperQ2);
  ASSERT_OK(second);
  EXPECT_TRUE(second->report.result_cache_hit);
  ASSERT_EQ(second->table.num_rows(), first->table.num_rows());
  for (size_t r = 0; r < first->table.num_rows(); ++r) {
    for (size_t c = 0; c < first->table.num_columns(); ++c) {
      EXPECT_TRUE(
          second->table.GetValue(r, c).Equals(first->table.GetValue(r, c)));
    }
  }
}

// A whole-result hit returns every row of a multi-batch result, up to a
// result of exactly cursor_window_batches batches — the widest admitted.
// One batch more and the result is returned in full but not cached.
TEST_F(WarehouseTest, ResultCacheHitReturnsEveryRow) {
  WarehouseOptions options;
  options.strategy = LoadStrategy::kLazy;
  options.batch_rows = 37;
  options.cursor_window_batches = 4;
  options.query_threads = 1;
  auto opened = Warehouse::Open(options);
  ASSERT_OK(opened);
  std::unique_ptr<Warehouse> wh = std::move(*opened);
  ASSERT_OK(wh->AttachRepository(dir_.path()));

  const NanoTime lo = repo_.files[0].start_time + 5 * kNanosPerSecond;
  const double rate = repo_.files[0].sample_rate;
  for (size_t samples : {size_t{100}, size_t{4 * 37}, size_t{4 * 37 + 1}}) {
    SCOPED_TRACE(samples);
    const NanoTime hi =
        lo + static_cast<NanoTime>(samples * 1e9 / rate) - kNanosPerSecond / 100;
    const std::string sql =
        "SELECT D.sample_time, D.sample_value FROM mseed.dataview "
        "WHERE F.file_id = 1 AND D.sample_time >= '" +
        FormatTimestamp(lo) + "' AND D.sample_time <= '" +
        FormatTimestamp(hi) + "'";
    auto first = wh->Query(sql);
    ASSERT_OK(first);
    ASSERT_EQ(first->table.num_rows(), samples);
    EXPECT_FALSE(first->report.result_cache_hit);
    auto second = wh->Query(sql);
    ASSERT_OK(second);
    EXPECT_EQ(second->report.result_cache_hit, samples <= 4 * 37);
    EXPECT_EQ(second->report.result_rows, samples);
    ASSERT_EQ(second->table.num_rows(), samples);
    ASSERT_EQ(second->table.num_columns(), first->table.num_columns());
    for (size_t r = 0; r < samples; ++r) {
      for (size_t c = 0; c < first->table.num_columns(); ++c) {
        ASSERT_TRUE(
            second->table.GetValue(r, c).Equals(first->table.GetValue(r, c)))
            << "row " << r;
      }
    }
  }
}

// A hit is answered before planning, and under footprint-aware admission
// every query probes the result cache exactly once: a hit is admitted with
// a zero estimate.
TEST_F(WarehouseTest, FootprintAdmissionProbesResultCacheOnce) {
  WarehouseOptions options;
  options.strategy = LoadStrategy::kLazy;
  options.footprint_aware_admission = true;
  options.max_concurrent_queries = 2;
  auto opened = Warehouse::Open(options);
  ASSERT_OK(opened);
  std::unique_ptr<Warehouse> wh = std::move(*opened);
  ASSERT_OK(wh->AttachRepository(dir_.path()));

  auto miss = wh->Query(lazyetl::testing::kPaperQ1);
  ASSERT_OK(miss);
  EXPECT_FALSE(miss->report.result_cache_hit);
  EXPECT_GT(miss->report.estimated_footprint_bytes, 0u);
  EXPECT_FALSE(miss->report.plan_after.empty());
  for (int i = 0; i < 2; ++i) {
    auto hit = wh->Query(lazyetl::testing::kPaperQ1);
    ASSERT_OK(hit);
    EXPECT_TRUE(hit->report.result_cache_hit);
    EXPECT_NE(hit->report.ticket_id, 0u);
    EXPECT_EQ(hit->report.estimated_footprint_bytes, 0u);
    EXPECT_TRUE(hit->report.plan_after.empty());
    ASSERT_EQ(hit->table.num_rows(), 1u);
    EXPECT_TRUE(hit->table.GetValue(0, 0).Equals(miss->table.GetValue(0, 0)));
  }
  const engine::CacheStats probes = wh->Stats().result_cache;
  EXPECT_EQ(probes.misses, 1u);
  EXPECT_EQ(probes.hits, 2u);
  EXPECT_EQ(probes.stale, 0u);
  EXPECT_EQ(wh->Stats().queries_admitted, 3u);
}

TEST_F(WarehouseTest, FilenameOnlyHydratesCandidatesOnly) {
  auto wh = MustOpen(LoadStrategy::kLazyFilenameOnly, dir_.path());
  auto result = wh->Query(lazyetl::testing::kPaperQ1);
  ASSERT_OK(result);
  // Only the ISK/BHE files (2 days) should have been hydrated.
  EXPECT_GT(result->report.files_hydrated, 0u);
  EXPECT_LE(result->report.files_hydrated, 2u);
  auto stats = wh->Stats();
  EXPECT_LT(stats.num_hydrated_files, stats.num_files);
}

// The lazy refresh stats only the files whose cached metadata satisfies
// the identity part of the query's file-level predicates.
TEST_F(WarehouseTest, LazyRefreshStatChecksIdentityCandidates) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  auto checked = [&](const std::string& sql) -> uint64_t {
    auto result = wh->Query(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    return result.ok() ? result->report.files_stat_checked : 0;
  };
  auto files_where = [&](auto pred) -> uint64_t {
    return std::count_if(repo_.files.begin(), repo_.files.end(), pred);
  };
  const uint64_t all = repo_.files.size();
  NanoTime last_start = 0;
  for (const auto& f : repo_.files) {
    last_start = std::max(last_start, f.start_time);
  }
  const std::string a = FormatTimestamp(last_start);
  const std::string b = FormatTimestamp(last_start + kNanosPerDay);

  // Browse: the channel prunes; start_time bounds do not (an append or a
  // rewrite moves them).
  const uint64_t bhz = files_where([](const auto& f) {
    return f.channel == "BHZ";
  });
  EXPECT_GT(bhz, 0u);
  EXPECT_LT(bhz, all);
  const std::string browse =
      "SELECT COUNT(*) FROM mseed.files WHERE channel = 'BHZ' AND "
      "start_time >= '" + a + "' AND start_time < '" + b + "'";
  EXPECT_EQ(checked(browse), bhz);

  // The change journal answers for unchanged candidates from memory: a
  // repeated browse stats none, and after one candidate's mtime moves it
  // stats exactly that one.
  auto statted = [&](const std::string& sql) -> uint64_t {
    auto result = wh->Query(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    return result.ok() ? result->report.files_statted : 0;
  };
  EXPECT_EQ(statted(browse), 0u);
  const auto bhz_file = std::find_if(
      repo_.files.begin(), repo_.files.end(),
      [](const auto& f) { return f.channel == "BHZ"; });
  std::filesystem::last_write_time(
      bhz_file->path,
      std::filesystem::file_time_type::clock::now() + std::chrono::seconds(2));
  EXPECT_EQ(statted(browse), 1u);
  EXPECT_EQ(statted(browse), 0u);

  // Content columns, NOT and last_modified prune nothing; an OR of
  // identity comparisons does.
  EXPECT_EQ(checked("SELECT COUNT(*) FROM mseed.files WHERE end_time > '" +
                    a + "'"),
            all);
  EXPECT_EQ(checked("SELECT COUNT(*) FROM mseed.files WHERE file_size < 1"),
            all);
  EXPECT_EQ(checked("SELECT COUNT(*) FROM mseed.files WHERE NOT "
                    "station = 'ISK'"),
            all);
  EXPECT_EQ(checked("SELECT COUNT(*) FROM mseed.files WHERE last_modified > "
                    "'2000-01-01'"),
            all);
  EXPECT_EQ(checked("SELECT COUNT(*) FROM mseed.files WHERE station = 'ISK' "
                    "OR (station = 'HGN' AND end_time > '" + a + "')"),
            files_where([](const auto& f) {
              return f.station == "ISK" || f.station == "HGN";
            }));

  // A dataview window query checks its station+channel files; the file
  // bounds the planner infers from D.sample_time do not prune.
  EXPECT_EQ(checked(lazyetl::testing::kPaperQ1),
            files_where([](const auto& f) {
              return f.station == "ISK" && f.channel == "BHE";
            }));

  // Eager warehouses never refresh at query time.
  auto eager = MustOpen(LoadStrategy::kEager, dir_.path());
  auto result = eager->Query(lazyetl::testing::kPaperQ1);
  ASSERT_OK(result);
  EXPECT_EQ(result->report.files_stat_checked, 0u);
}

// Demo point 7: the contents of both cache tiers, least recent first.
TEST_F(WarehouseTest, CachedKeysListBothTiersInLruOrder) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  EXPECT_TRUE(wh->CachedKeys().records.empty());
  const std::string browse = "SELECT COUNT(*) FROM mseed.files";
  ASSERT_OK(wh->Query(lazyetl::testing::kPaperQ1));
  ASSERT_OK(wh->Query(browse));
  const CacheContents contents = wh->CachedKeys();
  EXPECT_EQ(contents.records.size(), wh->Stats().cache.entries);
  EXPECT_FALSE(contents.records.empty());
  EXPECT_EQ(contents.results,
            (std::vector<std::string>{lazyetl::testing::kPaperQ1, browse}));
  ASSERT_OK(wh->Query(lazyetl::testing::kPaperQ1));  // a hit bumps it
  EXPECT_EQ(wh->CachedKeys().results,
            (std::vector<std::string>{browse, lazyetl::testing::kPaperQ1}));
}

TEST_F(WarehouseTest, CacheBudgetForcesEviction) {
  // Budget fits roughly one record's samples.
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path(),
                     /*cache_budget=*/8 << 10, /*result_cache=*/false);
  auto r1 = wh->Query(lazyetl::testing::kPaperQ2);
  ASSERT_OK(r1);
  auto stats = wh->Stats();
  EXPECT_GT(stats.cache.evictions, 0u);
  EXPECT_LE(stats.cache.current_bytes, stats.cache.budget_bytes);
  // Re-running re-extracts (entries were evicted), result still correct.
  auto r2 = wh->Query(lazyetl::testing::kPaperQ2);
  ASSERT_OK(r2);
  EXPECT_GT(r2->report.records_extracted, 0u);
}

TEST_F(WarehouseTest, WorstCaseFullExtraction) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  auto result = wh->Query("SELECT COUNT(*) FROM mseed.dataview");
  ASSERT_OK(result);
  EXPECT_EQ(result->table.GetValue(0, 0).int64_value(),
            static_cast<int64_t>(repo_.total_samples));
  EXPECT_EQ(result->report.records_requested, repo_.total_records);
  EXPECT_EQ(result->report.files_opened, repo_.files.size());
}

TEST_F(WarehouseTest, DirectLazyDataTableQuery) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  auto result = wh->Query("SELECT COUNT(*) FROM mseed.data");
  ASSERT_OK(result);
  EXPECT_EQ(result->table.GetValue(0, 0).int64_value(),
            static_cast<int64_t>(repo_.total_samples));
}

TEST_F(WarehouseTest, StatsReflectState) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  auto stats = wh->Stats();
  EXPECT_EQ(stats.strategy, LoadStrategy::kLazy);
  EXPECT_EQ(stats.num_files, repo_.files.size());
  EXPECT_EQ(stats.num_hydrated_files, repo_.files.size());
  EXPECT_EQ(stats.repository_bytes, repo_.total_bytes);
  EXPECT_GT(stats.catalog_bytes, 0u);
  EXPECT_EQ(stats.cache.entries, 0u);

  ASSERT_OK(wh->Query(lazyetl::testing::kPaperQ1));
  stats = wh->Stats();
  EXPECT_GT(stats.cache.entries, 0u);
}

// ClearCaches drops both caches, zeroes their counters and hands their
// resident bytes back to the process-global budget they were charged to.
TEST_F(WarehouseTest, ClearCachesResets) {
  common::MemoryBudget& global = common::MemoryBudget::Process();
  const uint64_t before = global.used();
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  ASSERT_OK(wh->Query(lazyetl::testing::kPaperQ1));
  auto warm = wh->Stats();
  EXPECT_GT(warm.cache.entries, 0u);
  EXPECT_EQ(warm.result_cache.entries, 1u);
  EXPECT_GT(warm.result_cache.current_bytes, 0u);
  EXPECT_EQ(global.used(), before + warm.cache.current_bytes +
                               warm.result_cache.current_bytes);
  wh->ClearCaches();
  auto cleared = wh->Stats();
  EXPECT_EQ(cleared.cache.entries, 0u);
  EXPECT_EQ(cleared.cache.current_bytes, 0u);
  EXPECT_EQ(cleared.cache.hits, 0u);
  EXPECT_EQ(cleared.result_cache.entries, 0u);
  EXPECT_EQ(cleared.result_cache.current_bytes, 0u);
  EXPECT_EQ(cleared.result_cache.misses, 0u);
  EXPECT_EQ(global.used(), before);
}

TEST_F(WarehouseTest, QueryErrorsPropagate) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  EXPECT_TRUE(wh->Query("SELEC typo").status().IsParseError());
  EXPECT_TRUE(wh->Query("SELECT nope FROM mseed.files").status().IsBindError());
  EXPECT_TRUE(
      wh->Query("SELECT x FROM unknown.table").status().IsBindError());
}

TEST_F(WarehouseTest, EagerPersistsWarehouseToDisk) {
  ScopedTempDir persist;
  WarehouseOptions options;
  options.strategy = LoadStrategy::kEager;
  options.persist_dir = persist.path();
  auto wh = Warehouse::Open(options);
  ASSERT_OK(wh);
  ASSERT_OK((*wh)->AttachRepository(dir_.path()));
  auto bytes = storage::DirectoryBytes(persist.path());
  ASSERT_OK(bytes);
  // The decoded warehouse is much larger than the compressed repository
  // (§4: "up to 10 times the original storage size").
  EXPECT_GT(*bytes, repo_.total_bytes * 2);
}

TEST_F(WarehouseTest, SkipsStrayFiles) {
  // Drop a non-mSEED file into the repository.
  std::ofstream junk(dir_.path() + "/README.txt");
  junk << "not seismic data";
  junk.close();
  WarehouseOptions skip_options;
  skip_options.strategy = LoadStrategy::kLazy;
  auto wh = Warehouse::Open(skip_options);
  ASSERT_OK(wh);
  auto stats = (*wh)->AttachRepository(dir_.path());
  ASSERT_OK(stats);
  EXPECT_EQ(stats->files, repo_.files.size());  // junk skipped
}

TEST_F(WarehouseTest, AttachTwiceIsIdempotent) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  auto again = wh->AttachRepository(dir_.path());
  ASSERT_OK(again);
  EXPECT_EQ(again->files, 0u);
  EXPECT_EQ(wh->Stats().num_files, repo_.files.size());
}

TEST_F(WarehouseTest, OperationLogRecordsPhases) {
  auto& log = OperationLog::Global();
  int64_t mark = log.LastSeq();
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  ASSERT_OK(wh->Query(lazyetl::testing::kPaperQ1));
  bool saw_metadata_load = false;
  bool saw_rewrite = false;
  bool saw_extract = false;
  for (const auto& e : log.EntriesSince(mark)) {
    if (e.category == LogCategory::kMetadataLoad) saw_metadata_load = true;
    if (e.category == LogCategory::kRewrite) saw_rewrite = true;
    if (e.category == LogCategory::kExtract) saw_extract = true;
  }
  EXPECT_TRUE(saw_metadata_load);
  EXPECT_TRUE(saw_rewrite);
  EXPECT_TRUE(saw_extract);
}

void ExpectSameReport(const QueryResult& queried, const QueryResult& streamed) {
  const engine::ExecutionReport& q = queried.report;
  const engine::ExecutionReport& c = streamed.report;
  EXPECT_NE(q.ticket_id, 0u);
  EXPECT_NE(c.ticket_id, 0u);
  EXPECT_EQ(q.priority, c.priority);
  EXPECT_EQ(q.client_id, c.client_id);
  EXPECT_EQ(q.estimated_footprint_bytes, c.estimated_footprint_bytes);
  EXPECT_EQ(q.result_cache_hit, c.result_cache_hit);
  EXPECT_EQ(q.result_rows, c.result_rows);
  EXPECT_EQ(q.plan_before, c.plan_before);
  EXPECT_EQ(q.plan_after, c.plan_after);
  ASSERT_EQ(queried.table.num_rows(), streamed.table.num_rows());
  for (size_t r = 0; r < queried.table.num_rows(); ++r) {
    for (size_t col = 0; col < queried.table.num_columns(); ++col) {
      EXPECT_TRUE(queried.table.GetValue(r, col)
                      .Equals(streamed.table.GetValue(r, col)));
    }
  }
}

// Query() drains the same prepared query OpenCursor() streams, so both
// report the same admission, cache and plan facts — on the executed path
// and on the result-cache-hit path, under FIFO and footprint admission.
TEST_F(WarehouseTest, QueryAndCursorReportTheSameLifecycle) {
  for (bool footprint : {false, true}) {
    SCOPED_TRACE(footprint ? "footprint-aware" : "fifo");
    WarehouseOptions options;
    options.strategy = LoadStrategy::kLazy;
    options.footprint_aware_admission = footprint;
    options.max_concurrent_queries = 2;
    auto opened = Warehouse::Open(options);
    ASSERT_OK(opened);
    std::unique_ptr<Warehouse> wh = std::move(*opened);
    ASSERT_OK(wh->AttachRepository(dir_.path()));
    QueryOptions qopts;
    qopts.priority = common::QueryPriority::kHigh;
    qopts.client_id = "tenant-a";
    const std::string sql = lazyetl::testing::kPaperQ2;

    // Executed path: each run starts from cold caches.
    auto queried = wh->Query(sql, qopts);
    ASSERT_OK(queried);
    wh->ClearCaches();
    auto streamed = DrainCursor(wh.get(), sql, qopts);
    ASSERT_OK(streamed);
    EXPECT_FALSE(queried->report.result_cache_hit);
    ExpectSameReport(*queried, *streamed);

    // The stream ran to the end within its window, so it was admitted:
    // a second cursor and a Query() are both whole-result cache hits.
    auto streamed_hit = DrainCursor(wh.get(), sql, qopts);
    ASSERT_OK(streamed_hit);
    auto queried_hit = wh->Query(sql, qopts);
    ASSERT_OK(queried_hit);
    EXPECT_TRUE(streamed_hit->report.result_cache_hit);
    EXPECT_TRUE(queried_hit->report.result_cache_hit);
    EXPECT_TRUE(queried_hit->report.plan_after.empty());  // never planned
    ExpectSameReport(*queried_hit, *streamed_hit);
  }
}

}  // namespace
}  // namespace lazyetl::core
