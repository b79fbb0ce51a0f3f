// The change journal behind the query-time lazy refresh (§3.3): which files
// it answers for from memory, which it stats, and that answers stay fresh
// while a writer appends.

#include "core/change_journal.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "core/warehouse.h"
#include "mseed/reader.h"
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

// Appends `samples` samples right after the file's last one.
Result<mseed::WriteStats> Append(const std::string& path, size_t samples) {
  LAZYETL_ASSIGN_OR_RETURN(mseed::FileMetadata md, mseed::ScanMetadata(path));
  mseed::TimeSeries more;
  more.network = md.network;
  more.station = md.station;
  more.location = md.location;
  more.channel = md.channel;
  more.sample_rate = md.sample_rate;
  more.start_time =
      md.end_time + static_cast<NanoTime>(kNanosPerSecond / md.sample_rate);
  mseed::SynthOptions synth;
  synth.seed = 77;
  more.samples = mseed::GenerateSeismogram(samples, synth);
  return mseed::AppendToMseedFile(
      path, more, mseed::WriterOptions{},
      static_cast<int32_t>(md.records.size() + 1));
}

class ChangeJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto cfg = SmallRepoConfig();
    cfg.num_days = 1;
    repo_ = MustGenerate(dir_.path(), cfg);
  }

  static std::string CountSql(const mseed::GeneratedFile& gf) {
    return "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = '" +
           gf.station + "' AND F.channel = '" + gf.channel + "'";
  }

  // A browse of `gf`'s file row: only the lazy refresh checks freshness.
  static std::string BrowseSql(const mseed::GeneratedFile& gf) {
    return "SELECT COUNT(*) FROM mseed.files WHERE station = '" + gf.station +
           "' AND channel = '" + gf.channel + "'";
  }

  // Runs `sql` and returns how many files its freshness checks statted.
  static uint64_t Statted(Warehouse* wh, const std::string& sql) {
    auto result = wh->Query(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    return result.ok() ? result->report.files_statted : 0;
  }

  ScopedTempDir dir_;
  mseed::GeneratedRepository repo_;
};

TEST_F(ChangeJournalTest, VouchesUntilAnEventNamesTheFile) {
  const auto& gf = repo_.files[0];
  ChangeJournal journal;
  const ChangeJournal::Ticket ticket = journal.Watch(1, gf.path, dir_.path());
  auto on_disk = mseed::StatFile(gf.path);
  ASSERT_OK(on_disk);
  journal.Record(1, ticket, *on_disk);

  mseed::FileStatInfo st;
  ASSERT_TRUE(journal.BeginBatch().Vouched(1, &st));
  EXPECT_EQ(st.mtime, on_disk->mtime);
  EXPECT_EQ(st.size, on_disk->size);
  EXPECT_EQ(journal.stats().files_tracked, 1u);

  // The append's event voids the vouch; the next stat is kept again.
  ASSERT_OK(Append(gf.path, 400));
  auto batch = journal.BeginBatch();
  EXPECT_FALSE(batch.Vouched(1, &st));
  uint64_t statted = 0;
  auto current = batch.Stat(1, gf.path, &statted);
  ASSERT_OK(current);
  EXPECT_EQ(statted, 1u);
  EXPECT_GT(current->size, on_disk->size);
  ASSERT_TRUE(journal.BeginBatch().Vouched(1, &st));
  EXPECT_EQ(st.size, current->size);
  EXPECT_GE(journal.stats().events_drained, 1u);

  // A file the journal never tracked is always statted.
  statted = 0;
  ASSERT_OK(journal.BeginBatch().Stat(2, repo_.files[1].path, &statted));
  EXPECT_EQ(statted, 1u);
}

// A stat that began before an event was drained is not kept: the event may
// report a change the stat missed.
TEST_F(ChangeJournalTest, EventDrainedDuringStatVoidsIt) {
  const auto& gf = repo_.files[0];
  ChangeJournal journal;
  const ChangeJournal::Ticket ticket = journal.Watch(1, gf.path, dir_.path());
  auto stale = mseed::StatFile(gf.path);
  ASSERT_OK(stale);
  ASSERT_OK(Append(gf.path, 400));
  mseed::FileStatInfo st;
  EXPECT_FALSE(journal.BeginBatch().Vouched(1, &st));
  journal.Record(1, ticket, *stale);
  EXPECT_FALSE(journal.BeginBatch().Vouched(1, &st));
}

TEST_F(ChangeJournalTest, SymlinkedAndHardLinkedFilesAreStattedEveryTime) {
  const auto& linked = repo_.files[0];
  const auto& symlinked = repo_.files[1];
  ScopedTempDir outside;
  fs::create_hard_link(linked.path, fs::path(outside.path()) / "link");
  const fs::path target = fs::path(outside.path()) / "target";
  fs::rename(symlinked.path, target);
  fs::create_symlink(target, symlinked.path);

  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  const ChangeJournalStats js = wh->Stats().journal;
  EXPECT_EQ(js.files_untracked, 2u);
  EXPECT_EQ(js.files_tracked, repo_.files.size() - 2);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(Statted(wh.get(), BrowseSql(linked)), 1u);
    EXPECT_EQ(Statted(wh.get(), BrowseSql(symlinked)), 1u);
  }
  EXPECT_EQ(Statted(wh.get(), BrowseSql(repo_.files[2])), 0u);
}

TEST_F(ChangeJournalTest, QueueOverflowMakesEveryFileStattedOnce) {
  int64_t max_queued = 16384;
  std::ifstream("/proc/sys/fs/inotify/max_queued_events") >> max_queued;
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  const std::string all = "SELECT COUNT(*) FROM mseed.files";
  EXPECT_EQ(Statted(wh.get(), all), 0u);

  const auto stamp = fs::file_time_type::clock::now();
  for (int64_t i = 0; i <= max_queued + 1; ++i) {
    fs::last_write_time(repo_.files[i % 2].path,
                        stamp + std::chrono::microseconds(i));
  }
  EXPECT_EQ(Statted(wh.get(), all), repo_.files.size());
  EXPECT_EQ(wh->Stats().journal.queue_overflows, 1u);
  EXPECT_EQ(Statted(wh.get(), all), 0u);
}

TEST_F(ChangeJournalTest, MovedDirectoryIsStattedUntilRefresh) {
  const auto& gf = repo_.files[0];
  const fs::path station_dir = fs::path(gf.path).parent_path().parent_path();
  size_t in_station = 0;
  for (const auto& f : repo_.files) {
    in_station += f.station == gf.station;
  }
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  const size_t tracked = wh->Stats().journal.files_tracked;
  EXPECT_EQ(tracked, repo_.files.size());

  fs::rename(station_dir, station_dir.string() + ".away");
  fs::rename(station_dir.string() + ".away", station_dir);
  EXPECT_EQ(Statted(wh.get(), BrowseSql(gf)), 1u);
  EXPECT_EQ(Statted(wh.get(), BrowseSql(gf)), 1u);
  EXPECT_EQ(wh->Stats().journal.files_tracked, tracked - in_station);

  ASSERT_OK(wh->Refresh());
  EXPECT_EQ(wh->Stats().journal.files_tracked, tracked);
  EXPECT_EQ(Statted(wh.get(), BrowseSql(gf)), 1u);
  EXPECT_EQ(Statted(wh.get(), BrowseSql(gf)), 0u);
}

TEST_F(ChangeJournalTest, EagerWarehouseTracksNothing) {
  auto wh = MustOpen(LoadStrategy::kEager, dir_.path());
  const ChangeJournalStats js = wh->Stats().journal;
  EXPECT_EQ(js.files_tracked, 0u);
  EXPECT_EQ(js.files_untracked, 0u);
}

// One writer appends while four readers repeat a lazy COUNT(*). Each answer
// lies between the samples committed before the query was sent and those
// whose write had started when it returned. The whole-result cache stays
// off: a query racing an append can admit a stale result under
// the new mtime (perfbench known defect 4), which this test does not cover.
TEST_F(ChangeJournalTest, ConcurrentAppendsStayFresh) {
  const auto& gf = repo_.files[0];
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path(),
                     /*cache_budget=*/64ULL << 20, /*result_cache=*/false);
  const std::string sql = CountSql(gf);
  std::atomic<int64_t> started{static_cast<int64_t>(gf.num_samples)};
  std::atomic<int64_t> committed{static_cast<int64_t>(gf.num_samples)};
  std::atomic<bool> done{false};
  std::atomic<int> answers{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!done.load()) {
        const int64_t lo = committed.load();
        auto result = wh->Query(sql);
        const int64_t hi = started.load();
        if (!result.ok()) {
          ADD_FAILURE() << result.status().ToString();
          ++failures;
          return;
        }
        const int64_t count = result->table.GetValue(0, 0).int64_value();
        EXPECT_GE(count, lo);
        EXPECT_LE(count, hi);
        ++answers;
      }
    });
  }

  constexpr size_t kPacket = 400;
  auto stamp = fs::file_time_type::clock::now();
  for (int i = 0; i < 30 && failures.load() == 0; ++i) {
    started += kPacket;
    auto appended = Append(gf.path, kPacket);
    if (!appended.ok()) {
      ADD_FAILURE() << appended.status().ToString();
      break;
    }
    // A distinct mtime per append, as a live archive writer sets it.
    stamp += std::chrono::milliseconds(1);
    fs::last_write_time(gf.path, stamp);
    committed += kPacket;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done = true;
  for (std::thread& t : readers) t.join();
  EXPECT_GT(answers.load(), 0);

  auto final_count = wh->Query(sql);
  ASSERT_OK(final_count);
  EXPECT_EQ(final_count->table.GetValue(0, 0).int64_value(), committed.load());
  EXPECT_EQ(Statted(wh.get(), sql), 0u);
}

}  // namespace
}  // namespace lazyetl::core
