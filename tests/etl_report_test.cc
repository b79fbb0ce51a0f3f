// Direct unit coverage of the shared ETL building blocks (core/etl.h) and
// the ExecutionReport rendering (engine/report.h), which the integration
// suites exercise only indirectly.

#include <gtest/gtest.h>

#include "core/etl.h"
#include "core/schema.h"
#include "core/warehouse.h"
#include "engine/report.h"
#include "mseed/writer.h"
#include "test_util.h"
#include "warehouse_test_util.h"

namespace lazyetl::core {
namespace {

mseed::RecordHeader MakeHeader(uint16_t num_samples, double rate = 40.0) {
  mseed::RecordHeader h;
  h.station = "HGN";
  h.network = "NL";
  h.channel = "BHZ";
  h.location = "02";
  h.start_time = mseed::BTime::FromNano(1263254400LL * kNanosPerSecond);
  h.num_samples = num_samples;
  mseed::SampleRateToFactors(rate, &h.sample_rate_factor,
                             &h.sample_rate_multiplier);
  return h;
}

TEST(TransformRecordTest, KeepsHeaderTimingAndValues) {
  auto h = MakeHeader(4);
  auto out = TransformRecord(h, {10, 20, 30, 40});
  ASSERT_OK(out);
  EXPECT_EQ(out->start_time, *h.StartTime());
  EXPECT_EQ(out->sample_rate, 40.0);
  EXPECT_EQ(out->sample_values, (std::vector<int32_t>{10, 20, 30, 40}));
  std::vector<int64_t> times;
  AppendSampleTimes(out->start_time, out->sample_rate, 0, 4, &times);
  NanoTime start = out->start_time;
  EXPECT_EQ(times, (std::vector<int64_t>{start, start + 25000000,
                                         start + 50000000, start + 75000000}));
}

TEST(TransformRecordTest, DerivedTimesMatchWriterForFullRecord) {
  // The derived times and the writer must agree exactly — the basis of
  // the lazy==eager invariant. 3 and 7 Hz have no integral period in
  // nanoseconds, so every timestamp goes through the rounding.
  for (double rate : {40.0, 3.0, 7.0}) {
    SCOPED_TRACE(rate);
    auto h = MakeHeader(100, rate);
    auto out = TransformRecord(h, std::vector<int32_t>(100, 1));
    ASSERT_OK(out);
    std::vector<int64_t> times;
    AppendSampleTimes(out->start_time, out->sample_rate, 0, 100, &times);
    ASSERT_EQ(times.size(), 100u);
    NanoTime start = *h.StartTime();
    for (size_t i = 0; i < times.size(); ++i) {
      EXPECT_EQ(times[i], mseed::SampleTimeAt(start, rate, i)) << i;
    }
  }
}

TEST(TransformRecordTest, DerivedTimesForRangeStartingMidRecord) {
  // A chunk piece that starts mid-record derives times from the sample's
  // position within its record, and appends after what `out` holds.
  for (double rate : {40.0, 3.0, 7.0}) {
    SCOPED_TRACE(rate);
    auto h = MakeHeader(100, rate);
    auto out = TransformRecord(h, std::vector<int32_t>(100, 1));
    ASSERT_OK(out);
    std::vector<int64_t> times = {-1, -2};
    AppendSampleTimes(out->start_time, out->sample_rate, 37, 20, &times);
    ASSERT_EQ(times.size(), 22u);
    EXPECT_EQ(times[0], -1);
    EXPECT_EQ(times[1], -2);
    std::vector<int64_t> whole;
    AppendSampleTimes(out->start_time, out->sample_rate, 0, 100, &whole);
    NanoTime start = *h.StartTime();
    for (size_t k = 0; k < 20; ++k) {
      EXPECT_EQ(times[2 + k], mseed::SampleTimeAt(start, rate, 37 + k)) << k;
      EXPECT_EQ(times[2 + k], whole[37 + k]) << k;
    }
  }
}

TEST(TransformRecordTest, RejectsMismatchedCounts) {
  auto h = MakeHeader(4);
  auto out = TransformRecord(h, {1, 2, 3});
  EXPECT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsCorruptData());
}

TEST(TransformRecordTest, RejectsUnreadableStartTime) {
  auto h = MakeHeader(1);
  h.start_time.day_of_year = 0;
  auto out = TransformRecord(h, {1});
  EXPECT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsCorruptData()) << out.status().ToString();
}

TEST(TransformRecordTest, RejectsZeroRate) {
  auto h = MakeHeader(1, 0.0);
  h.sample_rate_factor = 0;
  auto out = TransformRecord(h, {1});
  EXPECT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsCorruptData());
}

// SampleIndexesIn against a linear scan of SampleTimeAt: [begin, end) is
// exactly the samples whose times fall in [lo, hi]. The bounds are every
// sample's time and its neighbours (a record's first and last sample, and
// between two samples), points before and after the record, and empty
// ranges. At 2e9 Hz and 8e8 Hz the fractions hit exact halves, so several
// consecutive samples share one rounded time.
TEST(SampleIndexesInTest, EqualsLinearScanOfSampleTimes) {
  const NanoTime start = 1263081600000000000LL;
  for (double rate : {40.0, 3.0, 7.0, 2e9, 8e8, 0.1, 1.0 / 3.0}) {
    for (size_t count : {size_t{0}, size_t{1}, size_t{2}, size_t{37}}) {
      std::vector<NanoTime> times(count);
      for (size_t i = 0; i < count; ++i) {
        times[i] = mseed::SampleTimeAt(start, rate, i);
      }
      std::vector<NanoTime> points = {start - 1000, start - 1, start,
                                      start + 1};
      for (NanoTime t : times) {
        points.insert(points.end(), {t - 1, t, t + 1});
      }
      const NanoTime after =
          (count > 0 ? times.back() : start) + 1'000'000'000LL;
      points.push_back(after);
      for (NanoTime lo : points) {
        for (NanoTime hi : points) {
          size_t want_begin = count;
          size_t want_end = count;
          for (size_t i = 0; i < count; ++i) {
            if (times[i] >= lo && times[i] <= hi) {
              if (want_begin == count) want_begin = i;
              want_end = i + 1;
            }
          }
          const SampleIndexRange got =
              SampleIndexesIn(start, rate, count, lo, hi);
          ASSERT_EQ(got.end - got.begin, want_end - want_begin)
              << "rate " << rate << " count " << count << " [" << lo << ", "
              << hi << "]";
          if (want_begin < want_end) {
            EXPECT_EQ(got.begin, want_begin);
            EXPECT_EQ(got.end, want_end);
          }
        }
      }
    }
  }
}

TEST(RemoveFileRowsTest, RemovesOnlyMatchingRows) {
  auto data = MakeDataTable();
  TransformedRecord rec;
  rec.start_time = 1;
  rec.sample_rate = 1e9;  // one sample per nanosecond: times 1, 2
  rec.sample_values = {10, 20};
  ASSERT_STATUS_OK(AppendDataRows(data.get(), 1, 1, rec));
  ASSERT_STATUS_OK(AppendDataRows(data.get(), 2, 1, rec));
  ASSERT_STATUS_OK(AppendDataRows(data.get(), 1, 2, rec));
  ASSERT_EQ(data->num_rows(), 6u);

  auto removed = RemoveFileRows(data.get(), 1);
  ASSERT_OK(removed);
  EXPECT_EQ(*removed, 4u);
  EXPECT_EQ(data->num_rows(), 2u);
  EXPECT_EQ(data->GetValue(0, 0).int64_value(), 2);

  auto none = RemoveFileRows(data.get(), 99);
  ASSERT_OK(none);
  EXPECT_EQ(*none, 0u);
  EXPECT_EQ(data->num_rows(), 2u);
}

TEST(AppendDataRowsTest, BulkAppendsTypedColumns) {
  auto data = MakeDataTable();
  TransformedRecord rec;
  rec.start_time = 100;
  rec.sample_rate = 1e7;  // 100 ns apart: times 100, 200, 300
  rec.sample_values = {-1, 0, 1};
  ASSERT_STATUS_OK(AppendDataRows(data.get(), 7, 3, rec));
  ASSERT_EQ(data->num_rows(), 3u);
  EXPECT_EQ(data->GetValue(1, 0).int64_value(), 7);   // file_id
  EXPECT_EQ(data->GetValue(1, 1).int64_value(), 3);   // seq_no
  EXPECT_EQ(data->GetValue(0, 2).timestamp_value(), 100);
  EXPECT_EQ(data->GetValue(1, 2).timestamp_value(), 200);
  EXPECT_EQ(data->GetValue(2, 2).timestamp_value(), 300);
  EXPECT_EQ(data->GetValue(2, 3).int32_value(), 1);
}

TEST(ExecutionReportTest, ToStringContainsEverything) {
  engine::ExecutionReport report;
  report.sql = "SELECT 1";
  report.result_rows = 42;
  report.records_requested = 10;
  report.cache_hits = 3;
  report.cache_misses = 6;
  report.cache_stale = 1;
  report.files_opened = 2;
  report.records_extracted = 7;
  report.samples_extracted = 700;
  report.bytes_read = 3584;
  report.files_stat_checked = 5;
  report.files_statted = 2;
  report.files_hydrated = 4;
  report.result_cache_hit = true;
  report.plan_before = "NaivePlan\n";
  report.plan_after = "OptimizedPlan\n";
  report.plan_runtime = "RuntimePlan\n";
  report.total_seconds = 0.001;

  std::string s = report.ToString();
  EXPECT_NE(s.find("SELECT 1"), std::string::npos);
  EXPECT_NE(s.find("result rows: 42"), std::string::npos);
  EXPECT_NE(s.find("requested 10 records"), std::string::npos);
  EXPECT_NE(s.find("hits 3"), std::string::npos);
  EXPECT_NE(s.find("misses 6"), std::string::npos);
  EXPECT_NE(s.find("stale 1"), std::string::npos);
  EXPECT_NE(s.find("lazy refresh: checked 5 files (2 statted)"),
            std::string::npos);
  EXPECT_NE(s.find("hydrated 4 files"), std::string::npos);
  EXPECT_NE(s.find("result served from recycler cache"), std::string::npos);
  EXPECT_NE(s.find("NaivePlan"), std::string::npos);
  EXPECT_NE(s.find("OptimizedPlan"), std::string::npos);
  EXPECT_NE(s.find("RuntimePlan"), std::string::npos);
}

TEST(ExecutionReportTest, OperatorSelfTimesSumToRootTime) {
  // A serial sweep-shaped group scan: at query_threads 1 every child runs
  // inside its parent's clock, so the self times partition the root's
  // inclusive time.
  testing::ScopedTempDir dir;
  testing::MustGenerate(dir.path(), testing::SmallRepoConfig());
  WarehouseOptions options;
  options.strategy = LoadStrategy::kLazy;
  options.query_threads = 1;
  options.enable_result_cache = false;
  auto wh = Warehouse::Open(options);
  ASSERT_OK(wh);
  ASSERT_OK((*wh)->AttachRepository(dir.path()));
  auto result = (*wh)->Query(
      "SELECT F.station, MIN(D.sample_value), MAX(D.sample_value) "
      "FROM mseed.dataview WHERE F.channel = 'BHZ' GROUP BY F.station "
      "ORDER BY F.station");
  ASSERT_OK(result);
  const auto& ops = result->report.operator_stats;
  ASSERT_GT(ops.size(), 3u);
  double self_sum = 0;
  for (const auto& op : ops) {
    EXPECT_GE(op.self_seconds, 0.0) << op.op;
    EXPECT_LE(op.self_seconds, op.seconds) << op.op;
    self_sum += op.self_seconds;
  }
  // Tolerance: floating-point rounding of the telescoping sum.
  const double root = ops[0].seconds;
  EXPECT_GT(root, 0.0);
  EXPECT_NEAR(self_sum, root, 1e-9 + 1e-6 * root);
  EXPECT_NE(result->report.ToString().find("(self "), std::string::npos);
}

TEST(ExecutionReportTest, OmitsOptionalSections) {
  engine::ExecutionReport report;
  std::string s = report.ToString();
  EXPECT_EQ(s.find("hydrated"), std::string::npos);
  EXPECT_EQ(s.find("lazy refresh"), std::string::npos);
  EXPECT_EQ(s.find("result served"), std::string::npos);
  EXPECT_EQ(s.find("plan (naive)"), std::string::npos);
}

}  // namespace
}  // namespace lazyetl::core
