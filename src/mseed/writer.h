// Packing time series into miniSEED records and files.

#ifndef LAZYETL_MSEED_WRITER_H_
#define LAZYETL_MSEED_WRITER_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/time.h"
#include "mseed/record.h"

namespace lazyetl::mseed {

// A contiguous waveform segment from one channel of one station.
struct TimeSeries {
  std::string network;   // <=2 chars, e.g. "NL"
  std::string station;   // <=5 chars, e.g. "HGN"
  std::string location;  // <=2 chars, often "02" or ""
  std::string channel;   // <=3 chars, e.g. "BHZ"
  NanoTime start_time = 0;
  double sample_rate = 40.0;  // samples per second
  std::vector<int32_t> samples;
};

struct WriterOptions {
  uint32_t record_length = 512;  // power of two, >= 256
  DataEncoding encoding = DataEncoding::kSteim2;
  char quality_indicator = 'D';
  bool write_blockette100 = false;  // store the exact rate as a float
};

struct WriteStats {
  size_t num_records = 0;
  size_t samples_written = 0;
  uint64_t bytes_written = 0;
};

// Packs `series` into a sequence of fixed-size records. Record start times
// advance by samples_written / rate; sequence numbers start at 1.
Result<std::vector<std::vector<uint8_t>>> BuildRecords(
    const TimeSeries& series, const WriterOptions& options);

// Writes the records of `series` to `path` (creating parent directories is
// the caller's job). Returns write statistics.
Result<WriteStats> WriteMseedFile(const std::string& path,
                                  const TimeSeries& series,
                                  const WriterOptions& options);

// Appends the records of `series` to an existing file (used by the refresh
// experiments to grow a file in place).
Result<WriteStats> AppendToMseedFile(const std::string& path,
                                     const TimeSeries& series,
                                     const WriterOptions& options,
                                     int32_t first_sequence_number);

// Time of sample `index` in a series starting at `start` with `rate`
// samples/second: start + llround(index * 1e9 / rate). Centralised so the
// writer, the eager loader, and the lazy extractor produce bit-identical
// timestamps, and inline because the extractor calls it once per sample.
// The rounding is llround's, half away from zero, without the libm call:
// below 2^63 the truncating cast is exact and so is x - trunc(x).
inline NanoTime SampleTimeAt(NanoTime start, double rate, size_t index) {
  if (rate <= 0.0) return start;
  const double x = static_cast<double>(index) * 1e9 / rate;
  if (!(std::fabs(x) < 0x1p63)) return start + std::llround(x);
  const int64_t t = static_cast<int64_t>(x);
  const double frac = x - static_cast<double>(t);
  return start + t + (frac >= 0.5) - (frac <= -0.5);
}

}  // namespace lazyetl::mseed

#endif  // LAZYETL_MSEED_WRITER_H_
