#include "core/analysis.h"

#include <gtest/gtest.h>

#include "mseed/repository.h"
#include "test_util.h"
#include "warehouse_test_util.h"

namespace lazyetl::core {
namespace {

using lazyetl::testing::MustGenerate;
using lazyetl::testing::MustOpen;
using lazyetl::testing::ScopedTempDir;

class AnalysisTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One noisy channel guaranteed to contain events: high event rate.
    mseed::RepositoryConfig cfg;
    cfg.stations = {{"NL", "HGN", "02", {"BHZ"}, 40.0},
                    {"KO", "ISK", "", {"BHE"}, 40.0}};
    cfg.num_days = 1;
    cfg.seconds_per_segment = 60.0;
    cfg.synth.events_per_hour = 120.0;
    repo_ = MustGenerate(dir_.path(), cfg);
  }

  ScopedTempDir dir_;
  mseed::GeneratedRepository repo_;
};

TEST_F(AnalysisTest, AverageAbsoluteAmplitudeMatchesDirectSql) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  NanoTime t0 = repo_.files[0].start_time + 20 * kNanosPerSecond;
  NanoTime t1 = t0 + 2 * kNanosPerSecond;
  auto amp = AverageAbsoluteAmplitude(wh.get(), "HGN", "BHZ", t0, t1);
  ASSERT_OK(amp);
  EXPECT_GT(*amp, 0.0);

  auto direct = wh->Query(
      "SELECT AVG(ABS(D.sample_value)) FROM mseed.dataview "
      "WHERE F.station = 'HGN' AND F.channel = 'BHZ' "
      "AND D.sample_time >= '" + FormatTimestamp(t0) +
      "' AND D.sample_time < '" + FormatTimestamp(t1) + "'");
  ASSERT_OK(direct);
  EXPECT_DOUBLE_EQ(*amp, direct->table.GetValue(0, 0).double_value());
}

TEST_F(AnalysisTest, DetectsEventsOnActiveChannel) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  StaLtaOptions opt;
  opt.trigger_ratio = 2.0;
  auto report = DetectEvents(wh.get(), opt);
  ASSERT_OK(report);
  EXPECT_EQ(report->channels_scanned, 2u);
  EXPECT_GT(report->windows_scanned, 0u);
  ASSERT_GT(report->triggers.size(), 0u);
  // Triggers are sorted by descending ratio and exceed the threshold.
  for (size_t i = 0; i < report->triggers.size(); ++i) {
    EXPECT_GE(report->triggers[i].ratio, opt.trigger_ratio);
    if (i > 0) {
      EXPECT_LE(report->triggers[i].ratio, report->triggers[i - 1].ratio);
    }
  }
}

TEST_F(AnalysisTest, ChannelFiltersRestrictScan) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  StaLtaOptions opt;
  opt.station = "ISK";
  opt.trigger_ratio = 1000.0;  // no triggers; we only check the scan scope
  auto report = DetectEvents(wh.get(), opt);
  ASSERT_OK(report);
  EXPECT_EQ(report->channels_scanned, 1u);
  EXPECT_TRUE(report->triggers.empty());

  opt = StaLtaOptions{};
  opt.network = "NL";
  opt.channel = "BHZ";
  report = DetectEvents(wh.get(), opt);
  ASSERT_OK(report);
  EXPECT_EQ(report->channels_scanned, 1u);
}

TEST_F(AnalysisTest, MaxTriggersCapsOutput) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  StaLtaOptions opt;
  opt.trigger_ratio = 1.01;  // almost everything triggers
  opt.max_triggers = 3;
  auto report = DetectEvents(wh.get(), opt);
  ASSERT_OK(report);
  EXPECT_LE(report->triggers.size(), 3u);
}

TEST_F(AnalysisTest, SlidingWindowsHitTheRecycler) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path(),
                     /*cache_budget=*/64ULL << 20, /*result_cache=*/true);
  StaLtaOptions opt;
  opt.trigger_ratio = 3.0;
  ASSERT_OK(DetectEvents(wh.get(), opt));
  auto stats = wh->Stats();
  // Each record is extracted once; the overlapping LTA windows re-read it
  // from the cache many times.
  EXPECT_GT(stats.cache.hits, stats.cache.misses);
}

TEST_F(AnalysisTest, SameTriggersUnderEagerStrategy) {
  auto lazy = MustOpen(LoadStrategy::kLazy, dir_.path());
  auto eager = MustOpen(LoadStrategy::kEager, dir_.path());
  StaLtaOptions opt;
  opt.trigger_ratio = 2.5;
  auto a = DetectEvents(lazy.get(), opt);
  auto b = DetectEvents(eager.get(), opt);
  ASSERT_OK(a);
  ASSERT_OK(b);
  ASSERT_EQ(a->triggers.size(), b->triggers.size());
  for (size_t i = 0; i < a->triggers.size(); ++i) {
    EXPECT_EQ(a->triggers[i].station, b->triggers[i].station);
    EXPECT_EQ(a->triggers[i].window_start, b->triggers[i].window_start);
    EXPECT_DOUBLE_EQ(a->triggers[i].ratio, b->triggers[i].ratio);
  }
}

TEST_F(AnalysisTest, BucketedDetectorFindsEvents) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  StaLtaOptions opt;
  opt.trigger_ratio = 2.0;
  auto bucketed = DetectEventsBucketed(wh.get(), opt);
  ASSERT_OK(bucketed);
  EXPECT_GT(bucketed->triggers.size(), 0u);
  // One inventory query + one series query per channel.
  EXPECT_EQ(bucketed->queries_issued, 1 + bucketed->channels_scanned);

  // The sliding-window detector issues two queries per window — orders of
  // magnitude more.
  auto windowed = DetectEvents(wh.get(), opt);
  ASSERT_OK(windowed);
  EXPECT_GT(windowed->queries_issued, bucketed->queries_issued * 5);

  // Both detectors flag the same top channel (bucket alignment may shift
  // the window start by less than one STA width).
  ASSERT_FALSE(windowed->triggers.empty());
  const EventTrigger& a = bucketed->triggers[0];
  bool found_close = false;
  for (const auto& b : windowed->triggers) {
    if (b.station == a.station && b.channel == a.channel &&
        std::llabs(b.window_start - a.window_start) <=
            2 * 2 * kNanosPerSecond) {
      found_close = true;
      break;
    }
  }
  EXPECT_TRUE(found_close);
}

TEST_F(AnalysisTest, BucketedRequiresAlignedStep) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  StaLtaOptions opt;
  opt.step_seconds = 1.0;  // != sta_seconds
  EXPECT_TRUE(DetectEventsBucketed(wh.get(), opt).status().IsInvalidArgument());
}

TEST_F(AnalysisTest, RejectsBadOptions) {
  auto wh = MustOpen(LoadStrategy::kLazy, dir_.path());
  StaLtaOptions opt;
  opt.sta_seconds = 0;
  EXPECT_FALSE(DetectEvents(wh.get(), opt).ok());
  opt = StaLtaOptions{};
  opt.trigger_ratio = -1;
  EXPECT_FALSE(DetectEvents(wh.get(), opt).ok());
}

}  // namespace
}  // namespace lazyetl::core
