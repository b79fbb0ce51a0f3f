#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "mseed/reader.h"
#include "mseed/synth.h"
#include "mseed/writer.h"
#include "test_util.h"

namespace lazyetl::mseed {
namespace {

using lazyetl::testing::ScopedTempDir;

TimeSeries MakeSeries(size_t num_samples, double rate = 40.0) {
  TimeSeries series;
  series.network = "NL";
  series.station = "HGN";
  series.location = "02";
  series.channel = "BHZ";
  series.sample_rate = rate;
  series.start_time = *ParseTimestamp("2010-01-12T00:00:00.000");
  SynthOptions synth;
  synth.sample_rate = rate;
  synth.seed = 99;
  series.samples = GenerateSeismogram(num_samples, synth);
  return series;
}

TEST(WriterTest, BuildsRecordsOfRequestedLength) {
  TimeSeries series = MakeSeries(4800);  // 2 minutes at 40 Hz
  WriterOptions options;
  auto records = BuildRecords(series, options);
  ASSERT_OK(records);
  ASSERT_GT(records->size(), 1u);
  for (const auto& rec : *records) {
    EXPECT_EQ(rec.size(), 512u);
  }
  // Sum of per-record sample counts equals the series length.
  size_t total = 0;
  for (const auto& rec : *records) {
    auto h = DecodeRecordHeader(rec.data(), rec.size());
    ASSERT_OK(h);
    total += h->num_samples;
  }
  EXPECT_EQ(total, series.samples.size());
}

TEST(WriterTest, SequenceNumbersIncrease) {
  TimeSeries series = MakeSeries(4800);
  auto records = BuildRecords(series, WriterOptions{});
  ASSERT_OK(records);
  int32_t expected = 1;
  for (const auto& rec : *records) {
    auto h = DecodeRecordHeader(rec.data(), rec.size());
    ASSERT_OK(h);
    EXPECT_EQ(h->sequence_number, expected++);
  }
}

TEST(WriterTest, RejectsBadOptions) {
  TimeSeries series = MakeSeries(10);
  WriterOptions options;
  options.record_length = 123;
  EXPECT_FALSE(BuildRecords(series, options).ok());
  options.record_length = 512;
  series.sample_rate = 0;
  EXPECT_FALSE(BuildRecords(series, options).ok());
}

class RoundTripTest
    : public ::testing::TestWithParam<std::pair<DataEncoding, uint32_t>> {};

TEST_P(RoundTripTest, WriteScanDecode) {
  auto [encoding, record_length] = GetParam();
  ScopedTempDir dir;
  TimeSeries series = MakeSeries(3000);
  if (encoding == DataEncoding::kInt16) {
    // Shrink amplitudes to fit int16.
    for (auto& s : series.samples) s = s % 3000;
  }
  WriterOptions options;
  options.encoding = encoding;
  options.record_length = record_length;
  std::string path = dir.path() + "/test.mseed";
  auto stats = WriteMseedFile(path, series, options);
  ASSERT_OK(stats);
  EXPECT_EQ(stats->samples_written, series.samples.size());
  EXPECT_EQ(stats->bytes_written, stats->num_records * record_length);

  // Metadata-only scan reads far fewer bytes than the file size.
  auto md = ScanMetadata(path);
  ASSERT_OK(md);
  EXPECT_EQ(md->records.size(), stats->num_records);
  EXPECT_EQ(md->network, "NL");
  EXPECT_EQ(md->station, "HGN");
  EXPECT_EQ(md->channel, "BHZ");
  EXPECT_EQ(md->total_samples, series.samples.size());
  EXPECT_EQ(md->start_time, series.start_time);
  EXPECT_LT(md->bytes_read, md->file_size);

  // Full decode reproduces the samples exactly.
  auto full = ReadFull(path);
  ASSERT_OK(full);
  std::vector<int32_t> all;
  for (const auto& rec : full->record_samples) {
    all.insert(all.end(), rec.begin(), rec.end());
  }
  EXPECT_EQ(all, series.samples);
}

INSTANTIATE_TEST_SUITE_P(
    EncodingsAndLengths, RoundTripTest,
    ::testing::Values(std::make_pair(DataEncoding::kSteim1, 512u),
                      std::make_pair(DataEncoding::kSteim2, 512u),
                      std::make_pair(DataEncoding::kSteim2, 4096u),
                      std::make_pair(DataEncoding::kInt32, 512u),
                      std::make_pair(DataEncoding::kInt16, 512u),
                      std::make_pair(DataEncoding::kSteim1, 4096u)));

TEST(ReaderTest, ReadSelectedRecordsMatchesFullRead) {
  ScopedTempDir dir;
  TimeSeries series = MakeSeries(5000);
  std::string path = dir.path() + "/sel.mseed";
  ASSERT_OK(WriteMseedFile(path, series, WriterOptions{}));
  auto md = ScanMetadata(path);
  ASSERT_OK(md);
  auto full = ReadFull(path);
  ASSERT_OK(full);
  ASSERT_GT(md->records.size(), 3u);

  std::vector<size_t> wanted = {0, 2, md->records.size() - 1};
  auto selected = ReadSelectedRecords(*md, wanted);
  ASSERT_OK(selected);
  ASSERT_EQ(selected->size(), wanted.size());
  for (size_t i = 0; i < wanted.size(); ++i) {
    EXPECT_EQ((*selected)[i], full->record_samples[wanted[i]]);
  }
}

TEST(ReaderTest, ReadSingleRecord) {
  ScopedTempDir dir;
  TimeSeries series = MakeSeries(2000);
  std::string path = dir.path() + "/single.mseed";
  ASSERT_OK(WriteMseedFile(path, series, WriterOptions{}));
  auto md = ScanMetadata(path);
  ASSERT_OK(md);
  auto samples = ReadSelectedRecords(*md, {0});
  ASSERT_OK(samples);
  ASSERT_EQ(samples->size(), 1u);
  EXPECT_EQ((*samples)[0].size(), md->records[0].header.num_samples);
  EXPECT_EQ((*samples)[0][0], series.samples[0]);
}

TEST(ReaderTest, ReadSelectedRecordsAcrossStretchesAndGaps) {
  // Adjacent requested records share one read; a gap starts the next.
  ScopedTempDir dir;
  TimeSeries series = MakeSeries(8000);
  std::string path = dir.path() + "/stretch.mseed";
  ASSERT_OK(WriteMseedFile(path, series, WriterOptions{}));
  auto md = ScanMetadata(path);
  ASSERT_OK(md);
  auto full = ReadFull(path);
  ASSERT_OK(full);
  const size_t n = md->records.size();
  ASSERT_GT(n, 8u);
  for (const std::vector<size_t>& wanted :
       {std::vector<size_t>{0, 1, 2, 4, 5, 7, n - 1},
        std::vector<size_t>{3}, std::vector<size_t>{}}) {
    auto selected = ReadSelectedRecords(*md, wanted);
    ASSERT_OK(selected);
    ASSERT_EQ(selected->size(), wanted.size());
    for (size_t i = 0; i < wanted.size(); ++i) {
      EXPECT_EQ((*selected)[i], full->record_samples[wanted[i]]) << wanted[i];
    }
  }
  std::vector<size_t> all(n);
  std::iota(all.begin(), all.end(), size_t{0});
  auto everything = ReadSelectedRecords(*md, all);
  ASSERT_OK(everything);
  EXPECT_EQ(*everything, full->record_samples);
}

TEST(ReaderTest, ReadSelectedRecordsRejectsOutOfRangeIndex) {
  ScopedTempDir dir;
  std::string path = dir.path() + "/range.mseed";
  ASSERT_OK(WriteMseedFile(path, MakeSeries(2000), WriterOptions{}));
  auto md = ScanMetadata(path);
  ASSERT_OK(md);
  auto got = ReadSelectedRecords(*md, {0, md->records.size()});
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsInvalidArgument()) << got.status().ToString();
}

TEST(ReaderTest, ReadSelectedRecordsFailsOnFileTruncatedAfterScan) {
  // The metadata promises more bytes than the file now holds: the stretch
  // read comes up short and the record that does not fit is an IOError.
  ScopedTempDir dir;
  std::string path = dir.path() + "/shrunk.mseed";
  ASSERT_OK(WriteMseedFile(path, MakeSeries(4000), WriterOptions{}));
  auto md = ScanMetadata(path);
  ASSERT_OK(md);
  ASSERT_GT(md->records.size(), 3u);
  std::filesystem::resize_file(path, 2 * 512 + 100);
  for (const std::vector<size_t>& wanted :
       {std::vector<size_t>{0, 1, 2, 3}, std::vector<size_t>{2},
        std::vector<size_t>{3}}) {
    auto got = ReadSelectedRecords(*md, wanted);
    ASSERT_FALSE(got.ok());
    EXPECT_TRUE(got.status().IsIOError()) << got.status().ToString();
  }
  auto head = ReadSelectedRecords(*md, {0, 1});  // still whole on disk
  ASSERT_OK(head);
  EXPECT_EQ(head->size(), 2u);
}

TEST(ReaderTest, RecordStartTimesAdvance) {
  ScopedTempDir dir;
  TimeSeries series = MakeSeries(4800);
  std::string path = dir.path() + "/times.mseed";
  ASSERT_OK(WriteMseedFile(path, series, WriterOptions{}));
  auto md = ScanMetadata(path);
  ASSERT_OK(md);
  NanoTime prev_end = 0;
  size_t offset = 0;
  for (const auto& rec : md->records) {
    auto start = rec.header.StartTime();
    ASSERT_OK(start);
    // Record start equals the time of its first sample in the series.
    EXPECT_EQ(*start, SampleTimeAt(series.start_time, series.sample_rate,
                                   offset));
    EXPECT_GE(*start, prev_end);
    auto end = rec.header.EndTime();
    ASSERT_OK(end);
    prev_end = *end;
    offset += rec.header.num_samples;
  }
}

TEST(ReaderTest, AppendGrowsFile) {
  ScopedTempDir dir;
  TimeSeries series = MakeSeries(2000);
  std::string path = dir.path() + "/grow.mseed";
  ASSERT_OK(WriteMseedFile(path, series, WriterOptions{}));
  auto md1 = ScanMetadata(path);
  ASSERT_OK(md1);

  TimeSeries more = MakeSeries(2000);
  more.start_time = md1->end_time + kNanosPerSecond / 40;
  auto stats = AppendToMseedFile(
      path, more, WriterOptions{},
      static_cast<int32_t>(md1->records.size()) + 1);
  ASSERT_OK(stats);
  auto md2 = ScanMetadata(path);
  ASSERT_OK(md2);
  EXPECT_EQ(md2->records.size(), md1->records.size() + stats->num_records);
  EXPECT_EQ(md2->total_samples, md1->total_samples + 2000);
}

TEST(ReaderTest, FailsOnMissingFile) {
  EXPECT_FALSE(ScanMetadata("/nonexistent/nope.mseed").ok());
  EXPECT_FALSE(ReadFull("/nonexistent/nope.mseed").ok());
  EXPECT_FALSE(StatFile("/nonexistent/nope.mseed").ok());
}

TEST(ReaderTest, FailsOnTruncatedFile) {
  ScopedTempDir dir;
  TimeSeries series = MakeSeries(2000);
  std::string path = dir.path() + "/trunc.mseed";
  ASSERT_OK(WriteMseedFile(path, series, WriterOptions{}));
  // Chop the file mid-record.
  std::filesystem::resize_file(path, 512 + 100);
  auto md = ScanMetadata(path);
  EXPECT_FALSE(md.ok());
}

TEST(ReaderTest, FailsOnGarbageFile) {
  ScopedTempDir dir;
  std::string path = dir.path() + "/garbage.bin";
  std::ofstream out(path, std::ios::binary);
  std::vector<char> junk(1024, 'x');
  out.write(junk.data(), junk.size());
  out.close();
  auto md = ScanMetadata(path);
  EXPECT_FALSE(md.ok());
  EXPECT_TRUE(md.status().IsCorruptData());
}

TEST(SampleTimeAtTest, ExactForIntegralRates) {
  NanoTime start = *ParseTimestamp("2010-01-12T00:00:00.000");
  EXPECT_EQ(SampleTimeAt(start, 40.0, 0), start);
  EXPECT_EQ(SampleTimeAt(start, 40.0, 40), start + kNanosPerSecond);
  EXPECT_EQ(SampleTimeAt(start, 40.0, 1), start + 25000000LL);
  EXPECT_EQ(SampleTimeAt(start, 1.0, 3600), start + 3600 * kNanosPerSecond);
}

TEST(SampleTimeAtTest, RoundsLikeLlround) {
  // The inline rounding must be llround's, half away from zero, for
  // integral and non-integral periods alike; 2e9 and 8e8 Hz put exact
  // halves and quarters in the fraction.
  const NanoTime start = *ParseTimestamp("2010-01-12T00:00:00.000");
  for (double rate : {40.0, 100.0, 0.1, 1.0 / 3.0, 3.0, 7.0, 2e9, 8e8}) {
    for (size_t i = 0; i < 200000; i += (i < 1000 ? 1 : 997)) {
      const NanoTime want =
          start + std::llround(static_cast<double>(i) * 1e9 / rate);
      ASSERT_EQ(SampleTimeAt(start, rate, i), want)
          << "rate " << rate << " index " << i;
    }
  }
  EXPECT_EQ(SampleTimeAt(start, 0.0, 5), start);
  EXPECT_EQ(SampleTimeAt(start, -1.0, 5), start);
}

}  // namespace
}  // namespace lazyetl::mseed
