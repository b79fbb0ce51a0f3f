// Refresh semantics (§3.3): lazy staleness detection via file mtimes, the
// Refresh() API for new/modified/deleted files, and cache invalidation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

#include "core/schema.h"
#include "core/warehouse.h"
#include "mseed/reader.h"
#include "mseed/repository.h"
#include "mseed/synth.h"
#include "mseed/writer.h"
#include "test_util.h"
#include "warehouse_test_util.h"

namespace lazyetl::core {
namespace {

namespace fs = std::filesystem;
using lazyetl::testing::MustGenerate;
using lazyetl::testing::MustOpen;
using lazyetl::testing::ScopedTempDir;
using lazyetl::testing::SmallRepoConfig;

// Rewrites `path` with different waveform content (a series of `seconds`),
// bumping its mtime and record count. With a `target`, writes the new content
// there instead and leaves `path` as it is.
void ModifyFile(const std::string& path, double seconds = 45.0,
                const std::string& target = "") {
  auto md = mseed::ScanMetadata(path);
  ASSERT_OK(md);
  mseed::TimeSeries series;
  series.network = md->network;
  series.station = md->station;
  series.location = md->location;
  series.channel = md->channel;
  series.start_time = md->start_time;
  series.sample_rate = md->sample_rate;
  mseed::SynthOptions synth;
  synth.seed = 987654;
  synth.sample_rate = md->sample_rate;
  series.samples = mseed::GenerateSeismogram(
      static_cast<size_t>(seconds * md->sample_rate), synth);
  const std::string& out = target.empty() ? path : target;
  ASSERT_OK(mseed::WriteMseedFile(out, series, mseed::WriterOptions{}));
  // Ensure the mtime visibly advances even on coarse filesystems.
  auto now = fs::file_time_type::clock::now();
  fs::last_write_time(out, now + std::chrono::seconds(2));
}

// Appends `samples` samples starting at `start` to `path` as new records
// (a growing "live" archive; a `start` before the file's first sample makes
// an out-of-order append) and visibly advances its mtime.
void AppendSamples(const std::string& path, NanoTime start, size_t samples) {
  auto md = mseed::ScanMetadata(path);
  ASSERT_OK(md);
  mseed::TimeSeries more;
  more.network = md->network;
  more.station = md->station;
  more.location = md->location;
  more.channel = md->channel;
  more.sample_rate = md->sample_rate;
  more.start_time = start;
  mseed::SynthOptions synth;
  synth.seed = 5555;
  more.samples = mseed::GenerateSeismogram(samples, synth);
  ASSERT_OK(mseed::AppendToMseedFile(
      path, more, mseed::WriterOptions{},
      static_cast<int32_t>(md->records.size() + 1)));
  fs::last_write_time(path, fs::file_time_type::clock::now() +
                                std::chrono::seconds(2));
}

int64_t CountOf(Warehouse* wh, const std::string& sql) {
  auto result = wh->Query(sql);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->table.GetValue(0, 0).int64_value() : -1;
}

// Expects `wh` to hold the same file and record metadata as `fresh`: every
// column of mseed.files and mseed.records.
void ExpectSameCatalog(Warehouse* wh, Warehouse* fresh) {
  for (const char* sql :
       {"SELECT file_id, uri, dataquality, network, station, location, "
        "channel, start_time, end_time, num_records, sample_rate, file_size, "
        "last_modified FROM mseed.files ORDER BY file_id",
        "SELECT file_id, seq_no, start_time, end_time, num_samples, "
        "sample_rate, encoding FROM mseed.records ORDER BY file_id, "
        "seq_no"}) {
    SCOPED_TRACE(sql);
    auto got = wh->Query(sql);
    auto want = fresh->Query(sql);
    ASSERT_OK(got);
    ASSERT_OK(want);
    ASSERT_EQ(got->table.num_rows(), want->table.num_rows());
    ASSERT_EQ(got->table.num_columns(), want->table.num_columns());
    for (size_t row = 0; row < got->table.num_rows(); ++row) {
      for (size_t col = 0; col < got->table.num_columns(); ++col) {
        EXPECT_TRUE(got->table.GetValue(row, col)
                        .Equals(want->table.GetValue(row, col)))
            << got->table.column_name(col) << " of row " << row << ": "
            << got->table.GetValue(row, col).ToString() << " vs "
            << want->table.GetValue(row, col).ToString();
      }
    }
  }
}

class RefreshTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto cfg = SmallRepoConfig();
    cfg.num_days = 1;
    repo_ = MustGenerate(dir_.path(), cfg);
  }

  // Answers the COUNT query `sql` on a warehouse of every strategy, runs
  // `change` on the repository, and expects each warehouse to answer as a
  // freshly opened one of its strategy does: through the query-time lazy
  // refresh (lazy strategies) and through Refresh() (all three). The
  // mseed.files and mseed.records tables must then equal the fresh
  // warehouse's too.
  void ExpectFreshAnswerAfter(const std::string& sql,
                              const std::function<void()>& change) {
    struct Subject {
      LoadStrategy strategy;
      bool refresh;
      std::unique_ptr<Warehouse> wh;
      int64_t before;
    };
    std::vector<Subject> subjects;
    for (LoadStrategy strategy :
         {LoadStrategy::kEager, LoadStrategy::kLazy,
          LoadStrategy::kLazyFilenameOnly}) {
      for (bool refresh : {false, true}) {
        // An eager warehouse sees a change only through Refresh().
        if (strategy == LoadStrategy::kEager && !refresh) continue;
        auto wh = MustOpen(strategy, dir_.path());
        const int64_t before = CountOf(wh.get(), sql);
        subjects.push_back({strategy, refresh, std::move(wh), before});
      }
    }
    change();
    for (Subject& s : subjects) {
      SCOPED_TRACE(std::string(LoadStrategyToString(s.strategy)) +
                   (s.refresh ? " after Refresh()" : " at query time"));
      if (s.refresh) ASSERT_OK(s.wh->Refresh());
      auto fresh = MustOpen(s.strategy, dir_.path());
      const int64_t expected = CountOf(fresh.get(), sql);
      // Filename-only file rows only approximate what moved.
      if (s.strategy != LoadStrategy::kLazyFilenameOnly) {
        EXPECT_NE(expected, s.before);
      }
      EXPECT_EQ(CountOf(s.wh.get(), sql), expected);
      ExpectSameCatalog(s.wh.get(), fresh.get());
    }
  }

  // COUNT(*) of the samples of generated file `gf`.
  static std::string CountSql(const mseed::GeneratedFile& gf) {
    return "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = '" +
           gf.station + "' AND F.channel = '" + gf.channel + "'";
  }

  ScopedTempDir dir_;
  mseed::GeneratedRepository repo_;
};

TEST_F(RefreshTest, LazyStalenessDetectedAtQueryTimeWithoutRefresh) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path(),
                     /*cache_budget=*/64ULL << 20, /*result_cache=*/false);
  const std::string sql =
      "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK' "
      "AND F.channel = 'BHE'";
  auto before = wh->Query(sql);
  ASSERT_OK(before);
  int64_t count_before = before->table.GetValue(0, 0).int64_value();

  // Modify the ISK/BHE file on disk; do NOT call Refresh().
  std::string target;
  for (const auto& f : repo_.files) {
    if (f.station == "ISK" && f.channel == "BHE") target = f.path;
  }
  ASSERT_FALSE(target.empty());
  ModifyFile(target, 45.0);

  // The next query notices the stale metadata/cache lazily and re-extracts.
  auto after = wh->Query(sql);
  ASSERT_OK(after);
  int64_t count_after = after->table.GetValue(0, 0).int64_value();
  EXPECT_EQ(count_after, 45 * 40);  // 45 s at 40 Hz
  EXPECT_NE(count_after, count_before);
}

TEST_F(RefreshTest, CachedRecordsInvalidatedByMtimeChange) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path(),
                     /*cache_budget=*/64ULL << 20, /*result_cache=*/false);
  const std::string sql =
      "SELECT AVG(D.sample_value) FROM mseed.dataview "
      "WHERE F.station = 'HGN' AND F.channel = 'BHZ'";
  ASSERT_OK(wh->Query(sql));
  // Warm: all hits.
  auto warm = wh->Query(sql);
  ASSERT_OK(warm);
  EXPECT_GT(warm->report.cache_hits, 0u);
  EXPECT_EQ(warm->report.records_extracted, 0u);

  std::string target;
  for (const auto& f : repo_.files) {
    if (f.station == "HGN" && f.channel == "BHZ") target = f.path;
  }
  ModifyFile(target);

  auto stale = wh->Query(sql);
  ASSERT_OK(stale);
  // Metadata was reloaded and records re-extracted.
  EXPECT_GT(stale->report.records_extracted, 0u);
}

TEST_F(RefreshTest, ResultCacheInvalidatedByModification) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  const std::string sql =
      "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'WIT'";
  ASSERT_OK(wh->Query(sql));
  auto hit = wh->Query(sql);
  ASSERT_OK(hit);
  EXPECT_TRUE(hit->report.result_cache_hit);

  std::string target;
  for (const auto& f : repo_.files) {
    if (f.station == "WIT") {
      target = f.path;
      break;
    }
  }
  ModifyFile(target, 20.0);

  auto miss = wh->Query(sql);
  ASSERT_OK(miss);
  EXPECT_FALSE(miss->report.result_cache_hit);
}

TEST_F(RefreshTest, RefreshRegistersNewFiles) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  size_t before = wh->Stats().num_files;

  // Add a brand new station file.
  mseed::RepositoryConfig extra;
  extra.stations = {{"CH", "DAVOX", "", {"HHZ"}, 40.0}};
  extra.num_days = 1;
  extra.seconds_per_segment = 10.0;
  MustGenerate(dir_.path(), extra);

  auto stats = wh->Refresh();
  ASSERT_OK(stats);
  EXPECT_EQ(stats->new_files, 1u);
  EXPECT_EQ(stats->deleted_files, 0u);
  EXPECT_EQ(wh->Stats().num_files, before + 1);

  auto result = wh->Query(
      "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'DAVOX'");
  ASSERT_OK(result);
  EXPECT_EQ(result->table.GetValue(0, 0).int64_value(), 400);
}

TEST_F(RefreshTest, RefreshDetectsModification) {
  for (LoadStrategy strategy :
       {LoadStrategy::kEager, LoadStrategy::kLazy,
        LoadStrategy::kLazyFilenameOnly}) {
    SCOPED_TRACE(LoadStrategyToString(strategy));
    ScopedTempDir local;
    auto cfg = SmallRepoConfig();
    cfg.num_days = 1;
    auto repo = MustGenerate(local.path(), cfg);
    auto wh = MustOpen(strategy, local.path());

    ModifyFile(repo.files[0].path, 33.0);
    auto stats = wh->Refresh();
    ASSERT_OK(stats);
    EXPECT_EQ(stats->modified_files, 1u);

    auto result = wh->Query(
        "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = '" +
        repo.files[0].station + "' AND F.channel = '" +
        repo.files[0].channel + "'");
    ASSERT_OK(result);
    EXPECT_EQ(result->table.GetValue(0, 0).int64_value(), 33 * 40);
  }
}

TEST_F(RefreshTest, RefreshDetectsDeletion) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  size_t before = wh->Stats().num_files;
  fs::remove(repo_.files[0].path);

  auto stats = wh->Refresh();
  ASSERT_OK(stats);
  EXPECT_EQ(stats->deleted_files, 1u);
  EXPECT_EQ(wh->Stats().num_files, before - 1);

  // The deleted file's rows are gone from the metadata tables.
  auto files = wh->catalog().GetTable(kFilesTable);
  ASSERT_OK(files);
  EXPECT_EQ((*files)->num_rows(), before - 1);

  // Queries over the remaining repository still work.
  auto result = wh->Query("SELECT COUNT(*) FROM mseed.dataview");
  ASSERT_OK(result);
  EXPECT_EQ(result->table.GetValue(0, 0).int64_value(),
            static_cast<int64_t>(repo_.total_samples -
                                 repo_.files[0].num_samples));
}

TEST_F(RefreshTest, EagerRefreshReloadsData) {
  auto wh = MustOpen(LoadStrategy::kEager, dir_.path());
  auto data_before = wh->catalog().GetTable(kDataTable);
  ASSERT_OK(data_before);
  size_t rows_before = (*data_before)->num_rows();

  ModifyFile(repo_.files[0].path, 60.0);
  auto stats = wh->Refresh();
  ASSERT_OK(stats);
  EXPECT_EQ(stats->modified_files, 1u);

  auto data_after = wh->catalog().GetTable(kDataTable);
  ASSERT_OK(data_after);
  EXPECT_EQ((*data_after)->num_rows(),
            rows_before - repo_.files[0].num_samples + 60 * 40);
}

TEST_F(RefreshTest, NoChangesMeansNoWork) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  auto stats = wh->Refresh();
  ASSERT_OK(stats);
  EXPECT_EQ(stats->new_files, 0u);
  EXPECT_EQ(stats->modified_files, 0u);
  EXPECT_EQ(stats->deleted_files, 0u);
  EXPECT_EQ(stats->bytes_read, 0u);
}

TEST_F(RefreshTest, QueryFailsWhenFileVanishesMidway) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path(),
                     /*cache_budget=*/64ULL << 20, /*result_cache=*/false);
  // Delete a file after metadata load, then query data that needs it.
  std::string target;
  std::string station;
  for (const auto& f : repo_.files) {
    if (f.station == "APE") {
      target = f.path;
      station = f.station;
      break;
    }
  }
  fs::remove(target);
  auto result = wh->Query(
      "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'APE'");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound()) << result.status().ToString();
  // After Refresh() the file is dropped and the query succeeds (0 rows...
  // APE has two channel files; one remains).
  ASSERT_OK(wh->Refresh());
  auto after = wh->Query(
      "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'APE'");
  ASSERT_OK(after);
}

TEST_F(RefreshTest, AppendToFileExtendsSeries) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path(),
                     /*cache_budget=*/64ULL << 20, /*result_cache=*/false);
  const auto& gf = repo_.files[1];
  const std::string sql =
      "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = '" + gf.station +
      "' AND F.channel = '" + gf.channel + "'";
  auto before = wh->Query(sql);
  ASSERT_OK(before);

  // Append 10 more seconds to the file.
  auto md = mseed::ScanMetadata(gf.path);
  ASSERT_OK(md);
  AppendSamples(gf.path, md->end_time + kNanosPerSecond / 40, 400);

  auto after = wh->Query(sql);
  ASSERT_OK(after);
  EXPECT_EQ(after->table.GetValue(0, 0).int64_value(),
            before->table.GetValue(0, 0).int64_value() + 400);
}

// A cached result lists only the files its execution read. Its repeat is
// answered after the lazy refresh of the query's candidates, whose reload
// clears the cache: so a change to a candidate that contributed no rows,
// or to a file under a metadata-only answer, still reaches the repeat.

TEST(RefreshResultCacheTest, AppendToCandidateThatContributedNoRowsIsSeen) {
  ScopedTempDir dir;
  auto cfg = SmallRepoConfig();
  cfg.num_days = 1;
  cfg.segments_per_day = 2;  // segment 0 covers [0, 30 s), 1 [30 s, 60 s)
  const mseed::GeneratedRepository repo = MustGenerate(dir.path(), cfg);
  std::vector<mseed::GeneratedFile> segments;
  for (const auto& f : repo.files) {
    if (f.station == "ISK" && f.channel == "BHE") segments.push_back(f);
  }
  ASSERT_EQ(segments.size(), 2u);
  std::sort(segments.begin(), segments.end(),
            [](const auto& a, const auto& b) {
              return a.start_time < b.start_time;
            });
  const NanoTime lo = segments[0].start_time + 10 * kNanosPerSecond;
  const std::string sql =
      "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK' "
      "AND F.channel = 'BHE' AND D.sample_time >= '" +
      FormatTimestamp(lo) + "' AND D.sample_time < '" +
      FormatTimestamp(lo + 2 * kNanosPerSecond) + "'";

  auto wh = MustOpen(LoadStrategy::kLazy, dir.path());
  const int64_t before = CountOf(wh.get(), sql);
  EXPECT_EQ(before, 80);  // 2 s at 40 Hz, all from segment 0
  auto hit = wh->Query(sql);
  ASSERT_OK(hit);
  EXPECT_TRUE(hit->report.result_cache_hit);

  // In-window samples land in segment 1, out of order.
  AppendSamples(segments[1].path, lo + kNanosPerSecond / 2, 20);
  auto fresh = MustOpen(LoadStrategy::kLazy, dir.path());
  const int64_t expected = CountOf(fresh.get(), sql);
  EXPECT_EQ(expected, before + 20);
  EXPECT_EQ(CountOf(wh.get(), sql), expected);
}

TEST_F(RefreshTest, BrowseAnswerFollowsAGrowingFile) {
  const auto& gf = repo_.files[1];
  const std::string sql =
      "SELECT SUM(file_size) FROM mseed.files WHERE station = '" +
      gf.station + "'";
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  const int64_t before = CountOf(wh.get(), sql);
  auto hit = wh->Query(sql);
  ASSERT_OK(hit);
  EXPECT_TRUE(hit->report.result_cache_hit);

  auto md = mseed::ScanMetadata(gf.path);
  ASSERT_OK(md);
  AppendSamples(gf.path, md->end_time + kNanosPerSecond / 40, 400);
  const int64_t grown =
      static_cast<int64_t>(fs::file_size(gf.path)) -
      static_cast<int64_t>(md->file_size);
  ASSERT_GT(grown, 0);
  EXPECT_EQ(CountOf(wh.get(), sql), before + grown);
}

// The lazy refresh stats only files whose cached metadata can match the
// query, so a bound on a column that an append or rewrite moves must not
// narrow that set: each query below excludes the file before the change
// and includes it after.

TEST_F(RefreshTest, AppendPastEndTimeBoundIsSeen) {
  const auto& gf = repo_.files[1];
  auto md = mseed::ScanMetadata(gf.path);
  ASSERT_OK(md);
  ExpectFreshAnswerAfter(
      "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = '" + gf.station +
          "' AND F.channel = '" + gf.channel + "' AND F.end_time > '" +
          FormatTimestamp(md->end_time) + "'",
      [&] {
        AppendSamples(gf.path, md->end_time + kNanosPerSecond / 40, 400);
      });
}

TEST_F(RefreshTest, AppendPastFileSizeBoundIsSeen) {
  const auto& gf = repo_.files[1];
  auto md = mseed::ScanMetadata(gf.path);
  ASSERT_OK(md);
  ExpectFreshAnswerAfter(
      "SELECT COUNT(*) FROM mseed.files WHERE station = '" + gf.station +
          "' AND file_size > " + std::to_string(md->file_size),
      [&] {
        AppendSamples(gf.path, md->end_time + kNanosPerSecond / 40, 400);
      });
}

TEST_F(RefreshTest, OutOfOrderAppendBelowStartTimeBoundIsSeen) {
  const auto& gf = repo_.files[1];
  auto md = mseed::ScanMetadata(gf.path);
  ASSERT_OK(md);
  ExpectFreshAnswerAfter(
      "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = '" + gf.station +
          "' AND F.channel = '" + gf.channel + "' AND F.start_time < '" +
          FormatTimestamp(md->start_time) + "'",
      [&] {
        AppendSamples(gf.path, md->start_time - 60 * kNanosPerSecond, 400);
      });
}

TEST_F(RefreshTest, ShrinkingRewriteBelowFileSizeBoundIsSeen) {
  const auto& gf = repo_.files[1];
  auto md = mseed::ScanMetadata(gf.path);
  ASSERT_OK(md);
  ExpectFreshAnswerAfter(
      "SELECT COUNT(*) FROM mseed.files WHERE station = '" + gf.station +
          "' AND file_size < " + std::to_string(md->file_size),
      [&] { ModifyFile(gf.path, 20.0); });
}

TEST_F(RefreshTest, ShrinkingRewriteBelowEndTimeBoundIsSeen) {
  const auto& gf = repo_.files[1];
  auto md = mseed::ScanMetadata(gf.path);
  ASSERT_OK(md);
  ExpectFreshAnswerAfter(
      "SELECT COUNT(*) FROM mseed.files WHERE station = '" + gf.station +
          "' AND end_time < '" + FormatTimestamp(md->end_time) + "'",
      [&] { ModifyFile(gf.path, 20.0); });
}

// A path that can no longer be statted for another reason than a missing
// file fails the query with that error, not as a vanished file.
TEST_F(RefreshTest, QueryFailsWithIOErrorWhenStationDirBecomesFile) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path(),
                     /*cache_budget=*/64ULL << 20, /*result_cache=*/false);
  const auto& gf = repo_.files[0];
  ASSERT_OK(wh->Query(CountSql(gf)));
  const fs::path station_dir = fs::path(gf.path).parent_path().parent_path();
  ScopedTempDir away;
  fs::rename(station_dir, fs::path(away.path()) / "station");
  std::ofstream(station_dir.string()) << "not a directory\n";

  auto result = wh->Query(CountSql(gf));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError()) << result.status().ToString();
  EXPECT_EQ(result.status().ToString().find("disappeared"), std::string::npos);

  // Refresh() counts the files it can no longer stat as vanished: it
  // tombstones them, still attaches a file added elsewhere, and keeps
  // working on later calls.
  size_t lost = 0;
  for (const auto& f : repo_.files) {
    if (fs::path(f.path).parent_path().parent_path() == station_dir) ++lost;
  }
  const size_t before = wh->Stats().num_files;
  mseed::RepositoryConfig extra;
  extra.stations = {{"CH", "DAVOX", "", {"HHZ"}, 40.0}};
  extra.num_days = 1;
  extra.seconds_per_segment = 10.0;
  MustGenerate(dir_.path(), extra);
  auto stats = wh->Refresh();
  ASSERT_OK(stats);
  EXPECT_EQ(stats->deleted_files, lost);
  EXPECT_EQ(stats->new_files, 1u);
  EXPECT_EQ(wh->Stats().num_files, before - lost + 1);
  EXPECT_EQ(CountOf(wh.get(), CountSql(gf)), 0);
  EXPECT_EQ(CountOf(wh.get(), "SELECT COUNT(*) FROM mseed.dataview WHERE "
                              "F.station = 'DAVOX'"),
            400);
  auto again = wh->Refresh();
  ASSERT_OK(again);
  EXPECT_EQ(again->deleted_files + again->new_files + again->modified_files,
            0u);
}

// Each kind of change to a repository file below is seen by the next query,
// without Refresh().

TEST_F(RefreshTest, ReplaceByRenameIsSeen) {
  const auto& gf = repo_.files[1];
  ExpectFreshAnswerAfter(CountSql(gf), [&] {
    const std::string tmp = gf.path + ".tmp";
    ModifyFile(gf.path, 20.0, tmp);
    fs::rename(tmp, gf.path);
  });
}

TEST_F(RefreshTest, DeleteAndRecreateIsSeen) {
  const auto& gf = repo_.files[1];
  ScopedTempDir scratch;
  const std::string copy = (fs::path(scratch.path()) / "copy").string();
  ExpectFreshAnswerAfter(CountSql(gf), [&] {
    ModifyFile(gf.path, 20.0, copy);
    fs::remove(gf.path);
    fs::copy_file(copy, gf.path);
  });
}

TEST_F(RefreshTest, AppendToSymlinkTargetOutsideRepositoryIsSeen) {
  const auto& gf = repo_.files[1];
  ScopedTempDir outside;
  const std::string target = (fs::path(outside.path()) / "target").string();
  fs::rename(gf.path, target);
  fs::create_symlink(target, gf.path);
  auto md = mseed::ScanMetadata(target);
  ASSERT_OK(md);
  ExpectFreshAnswerAfter(CountSql(gf), [&] {
    AppendSamples(target, md->end_time + kNanosPerSecond / 40, 400);
  });
}

TEST_F(RefreshTest, AppendThroughOtherHardLinkIsSeen) {
  const auto& gf = repo_.files[1];
  ScopedTempDir outside;
  const std::string link = (fs::path(outside.path()) / "link").string();
  fs::create_hard_link(gf.path, link);
  auto md = mseed::ScanMetadata(gf.path);
  ASSERT_OK(md);
  ExpectFreshAnswerAfter(CountSql(gf), [&] {
    AppendSamples(link, md->end_time + kNanosPerSecond / 40, 400);
  });
}

// More attribute changes than the kernel queues, then an append to another
// file: its event is lost to the overflow, which must make the next query
// check every file anew.
TEST_F(RefreshTest, AppendAfterEventQueueOverflowIsSeen) {
  int64_t max_queued = 16384;
  std::ifstream("/proc/sys/fs/inotify/max_queued_events") >> max_queued;
  const auto& gf = repo_.files[1];
  auto md = mseed::ScanMetadata(gf.path);
  ASSERT_OK(md);
  ExpectFreshAnswerAfter(CountSql(gf), [&] {
    // Alternate two files: the kernel merges an event identical to the one
    // queued last.
    const std::string touched[2] = {repo_.files[2].path, repo_.files[3].path};
    const auto stamp = fs::file_time_type::clock::now();
    for (int64_t i = 0; i <= max_queued + 1; ++i) {
      fs::last_write_time(touched[i % 2],
                          stamp + std::chrono::microseconds(i));
    }
    AppendSamples(gf.path, md->end_time + kNanosPerSecond / 40, 400);
  });
}

TEST_F(RefreshTest, ChangeWhileStationDirMovedAwayIsSeen) {
  const auto& gf = repo_.files[1];
  const fs::path station_dir = fs::path(gf.path).parent_path().parent_path();
  const fs::path away = station_dir.string() + ".away";
  const fs::path moved_file =
      away / fs::relative(gf.path, station_dir);
  ExpectFreshAnswerAfter(CountSql(gf), [&] {
    fs::rename(station_dir, away);
    ModifyFile(moved_file.string(), 20.0);
    fs::rename(away, station_dir);
  });
}

// A changed copy of the station directory renamed into its place: no event
// names the file in the directory watched for it, which moves away intact.
TEST_F(RefreshTest, StationDirReplacedByChangedCopyIsSeen) {
  const auto& gf = repo_.files[1];
  const fs::path station_dir = fs::path(gf.path).parent_path().parent_path();
  const fs::path copy = station_dir.string() + ".new";
  ScopedTempDir outside;
  ExpectFreshAnswerAfter(CountSql(gf), [&] {
    fs::copy(station_dir, copy, fs::copy_options::recursive);
    ModifyFile((copy / fs::relative(gf.path, station_dir)).string(), 20.0);
    fs::rename(station_dir, fs::path(outside.path()) / "old");
    fs::rename(copy, station_dir);
  });
}

// A file that changes after a query's lazy refresh but before its record
// stream opens is reloaded by the stream, whole: the file row then equals
// a freshly opened warehouse's. The query waits for admission in between —
// footprint-aware admission plans (and so refreshes) first.
TEST_F(RefreshTest, ReloadByTheRecordStreamKeepsTheFileRowCurrent) {
  WarehouseOptions options;
  options.strategy = LoadStrategy::kLazy;
  options.max_concurrent_queries = 1;
  options.footprint_aware_admission = true;
  auto opened = Warehouse::Open(options);
  ASSERT_OK(opened);
  std::unique_ptr<Warehouse> wh = std::move(*opened);
  ASSERT_OK(wh->AttachRepository(dir_.path()));
  const auto& gf = repo_.files[1];
  auto md = mseed::ScanMetadata(gf.path);
  ASSERT_OK(md);

  auto holder = wh->OpenCursor("SELECT COUNT(*) FROM mseed.files");
  ASSERT_OK(holder);
  Result<QueryResult> waiting = Status::Internal("not run");
  std::atomic<bool> done{false};
  std::thread query([&] {
    waiting = wh->Query(CountSql(gf));
    done = true;
  });
  while (wh->Stats().queries_waiting == 0 && !done) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool queued = !done;
  AppendSamples(gf.path, md->end_time + kNanosPerSecond / 40, 400);
  (*holder)->Close();
  query.join();
  ASSERT_TRUE(queued) << "the query was never queued behind the holder";
  ASSERT_OK(waiting);

  auto fresh = MustOpen(LoadStrategy::kLazy, dir_.path());
  ExpectSameCatalog(wh.get(), fresh.get());
}

}  // namespace
}  // namespace lazyetl::core
