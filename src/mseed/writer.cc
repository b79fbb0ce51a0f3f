#include "mseed/writer.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/macros.h"
#include "common/byte_io.h"
#include "mseed/steim.h"

namespace lazyetl::mseed {

namespace {

Result<std::vector<std::vector<uint8_t>>> BuildRecordsImpl(
    const TimeSeries& series, const WriterOptions& options,
    int32_t first_seq) {
  if (series.sample_rate <= 0.0) {
    return Status::InvalidArgument("sample rate must be positive");
  }
  if (options.record_length < 256 ||
      (options.record_length & (options.record_length - 1)) != 0) {
    return Status::InvalidArgument("record length must be a power of two >= 256");
  }

  const uint16_t data_offset =
      options.write_blockette100 ? 128 : static_cast<uint16_t>(kDataOffset);
  const size_t data_bytes = options.record_length - data_offset;
  const size_t max_frames = data_bytes / kSteimFrameBytes;

  std::vector<std::vector<uint8_t>> records;
  size_t pos = 0;
  int32_t seq = first_seq;
  while (pos < series.samples.size()) {
    std::vector<int32_t> remaining(series.samples.begin() + pos,
                                   series.samples.end());
    int32_t prev = pos > 0 ? series.samples[pos - 1] : series.samples[0];

    size_t taken = 0;
    std::vector<uint8_t> payload;
    switch (options.encoding) {
      case DataEncoding::kSteim1: {
        LAZYETL_ASSIGN_OR_RETURN(SteimEncodeResult enc,
                                 Steim1Encode(remaining, max_frames, prev));
        taken = enc.samples_encoded;
        payload = std::move(enc.frames);
        break;
      }
      case DataEncoding::kSteim2: {
        LAZYETL_ASSIGN_OR_RETURN(SteimEncodeResult enc,
                                 Steim2Encode(remaining, max_frames, prev));
        taken = enc.samples_encoded;
        payload = std::move(enc.frames);
        break;
      }
      case DataEncoding::kInt32: {
        taken = std::min(remaining.size(), data_bytes / 4);
        payload.resize(taken * 4);
        for (size_t i = 0; i < taken; ++i) {
          WriteBE32s(payload.data() + 4 * i, remaining[i]);
        }
        break;
      }
      case DataEncoding::kInt16: {
        taken = std::min(remaining.size(), data_bytes / 2);
        payload.resize(taken * 2);
        for (size_t i = 0; i < taken; ++i) {
          int32_t v = remaining[i];
          if (v < -32768 || v > 32767) {
            return Status::InvalidArgument(
                "sample does not fit int16 encoding: " + std::to_string(v));
          }
          WriteBE16s(payload.data() + 2 * i, static_cast<int16_t>(v));
        }
        break;
      }
    }
    if (taken == 0) {
      return Status::Internal("record packing made no progress");
    }
    if (taken > 65535) {
      // num_samples is a 16-bit field; 512/4096-byte records never hit this.
      taken = 65535;
      payload.clear();  // unreachable with supported record lengths
      return Status::NotImplemented("more than 65535 samples per record");
    }

    RecordHeader h;
    h.sequence_number = seq;
    h.quality_indicator = options.quality_indicator;
    h.station = series.station;
    h.location = series.location;
    h.channel = series.channel;
    h.network = series.network;
    h.start_time = BTime::FromNano(
        SampleTimeAt(series.start_time, series.sample_rate, pos));
    h.num_samples = static_cast<uint16_t>(taken);
    SampleRateToFactors(series.sample_rate, &h.sample_rate_factor,
                        &h.sample_rate_multiplier);
    h.encoding = options.encoding;
    h.record_length = options.record_length;
    h.data_offset = data_offset;
    h.has_blockette100 = options.write_blockette100;
    h.actual_sample_rate = options.write_blockette100 ? series.sample_rate : 0;

    std::vector<uint8_t> record(options.record_length, 0);
    LAZYETL_RETURN_NOT_OK(EncodeRecordHeader(h, record.data()));
    if (payload.size() > options.record_length - data_offset) {
      return Status::Internal("payload exceeds record data area");
    }
    std::memcpy(record.data() + data_offset, payload.data(), payload.size());
    records.push_back(std::move(record));

    pos += taken;
    seq = seq == 999999 ? 1 : seq + 1;
  }
  return records;
}

Result<WriteStats> WriteRecordsToStream(
    const std::vector<std::vector<uint8_t>>& records, std::ofstream* out,
    const std::string& path) {
  WriteStats stats;
  for (const auto& rec : records) {
    out->write(reinterpret_cast<const char*>(rec.data()),
               static_cast<std::streamsize>(rec.size()));
    stats.bytes_written += rec.size();
  }
  stats.num_records = records.size();
  out->flush();
  if (!out->good()) {
    return Status::IOError("failed writing mSEED file " + path);
  }
  return stats;
}

}  // namespace

Result<std::vector<std::vector<uint8_t>>> BuildRecords(
    const TimeSeries& series, const WriterOptions& options) {
  return BuildRecordsImpl(series, options, 1);
}

Result<WriteStats> WriteMseedFile(const std::string& path,
                                  const TimeSeries& series,
                                  const WriterOptions& options) {
  LAZYETL_ASSIGN_OR_RETURN(auto records, BuildRecordsImpl(series, options, 1));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  LAZYETL_ASSIGN_OR_RETURN(WriteStats stats,
                           WriteRecordsToStream(records, &out, path));
  stats.samples_written = series.samples.size();
  return stats;
}

Result<WriteStats> AppendToMseedFile(const std::string& path,
                                     const TimeSeries& series,
                                     const WriterOptions& options,
                                     int32_t first_sequence_number) {
  LAZYETL_ASSIGN_OR_RETURN(
      auto records, BuildRecordsImpl(series, options, first_sequence_number));
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out.is_open()) {
    return Status::IOError("cannot open " + path + " for append");
  }
  LAZYETL_ASSIGN_OR_RETURN(WriteStats stats,
                           WriteRecordsToStream(records, &out, path));
  stats.samples_written = series.samples.size();
  return stats;
}

}  // namespace lazyetl::mseed
