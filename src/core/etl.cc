#include "core/etl.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "mseed/writer.h"
#include "storage/types.h"

namespace lazyetl::core {

using storage::Table;
using storage::Value;

Result<TransformedRecord> TransformRecord(const mseed::RecordHeader& header,
                                          std::vector<int32_t> samples) {
  if (samples.size() != header.num_samples) {
    return Status::CorruptData(
        "record advertises " + std::to_string(header.num_samples) +
        " samples but decoded " + std::to_string(samples.size()));
  }
  Result<NanoTime> start = header.StartTime();
  if (!start.ok()) {
    return Status::CorruptData("record has an unreadable start time: " +
                               start.status().message());
  }
  double rate = header.SampleRate();
  if (rate <= 0.0) {
    return Status::CorruptData("record has no sample rate: " +
                               header.SourceId());
  }
  TransformedRecord out;
  out.start_time = *start;
  out.sample_rate = rate;
  out.sample_values = std::move(samples);  // identity value transform
  return out;
}

void AppendSampleTimes(NanoTime start, double rate, size_t begin,
                       size_t count, std::vector<int64_t>* out) {
  const size_t base = out->size();
  out->resize(base + count);
  int64_t* dst = out->data() + base;
  for (size_t i = 0; i < count; ++i) {
    dst[i] = mseed::SampleTimeAt(start, rate, begin + i);
  }
}

SampleIndexRange SampleIndexesIn(NanoTime start, double rate, size_t count,
                                 NanoTime lo, NanoTime hi) {
  // The first index in [0, count) whose time satisfies `pred`, which holds
  // for every later index once it holds for one; count when none does.
  auto first_where = [&](auto pred) {
    size_t a = 0;
    size_t b = count;
    while (a < b) {
      const size_t mid = a + (b - a) / 2;
      if (pred(mseed::SampleTimeAt(start, rate, mid))) {
        b = mid;
      } else {
        a = mid + 1;
      }
    }
    return a;
  };
  SampleIndexRange out;
  out.begin = first_where([lo](NanoTime t) { return t >= lo; });
  out.end = std::max(out.begin,
                     first_where([hi](NanoTime t) { return t > hi; }));
  return out;
}

Status PutFileRow(Table* files, int64_t file_id, const mseed::FileMetadata& md,
                  bool replace) {
  const std::vector<Value> row = {
      Value::Int64(file_id),
      Value::String(md.path),
      Value::String(std::string(1, md.quality)),
      Value::String(md.network),
      Value::String(md.station),
      Value::String(md.location),
      Value::String(md.channel),
      Value::Timestamp(md.start_time),
      Value::Timestamp(md.end_time),
      Value::Int64(static_cast<int64_t>(md.records.size())),
      Value::Double(md.sample_rate),
      Value::Int64(static_cast<int64_t>(md.file_size)),
      Value::Timestamp(md.mtime),
  };
  if (!replace) return files->AppendRow(row);
  LAZYETL_ASSIGN_OR_RETURN(size_t fid_idx, files->ColumnIndex("file_id"));
  const auto& fids = files->column(fid_idx).int64_data();
  const auto it = std::find(fids.begin(), fids.end(), file_id);
  if (it == fids.end()) {
    return Status::Internal("no mseed.files row for file " +
                            std::to_string(file_id));
  }
  return files->SetRow(static_cast<size_t>(it - fids.begin()), row);
}

Status AppendRecordRows(Table* records, int64_t file_id,
                        const mseed::FileMetadata& md) {
  for (const auto& r : md.records) {
    LAZYETL_ASSIGN_OR_RETURN(NanoTime start, r.header.StartTime());
    LAZYETL_ASSIGN_OR_RETURN(NanoTime end, r.header.EndTime());
    LAZYETL_RETURN_NOT_OK(records->AppendRow({
        Value::Int64(file_id),
        Value::Int64(r.header.sequence_number),
        Value::Timestamp(start),
        Value::Timestamp(end),
        Value::Int64(r.header.num_samples),
        Value::Double(r.header.SampleRate()),
        Value::String(mseed::DataEncodingToString(r.header.encoding)),
    }));
  }
  return Status::OK();
}

Status AppendDataRows(Table* data, int64_t file_id, int64_t seq_no,
                      const TransformedRecord& rec) {
  // Bulk append through the typed columns (the slow Value path would
  // dominate eager loading time for no reason).
  LAZYETL_ASSIGN_OR_RETURN(size_t fid_idx, data->ColumnIndex("file_id"));
  LAZYETL_ASSIGN_OR_RETURN(size_t seq_idx, data->ColumnIndex("seq_no"));
  LAZYETL_ASSIGN_OR_RETURN(size_t time_idx, data->ColumnIndex("sample_time"));
  LAZYETL_ASSIGN_OR_RETURN(size_t val_idx, data->ColumnIndex("sample_value"));

  size_t n = rec.sample_values.size();
  auto& fids = data->column(fid_idx).int64_data();
  auto& seqs = data->column(seq_idx).int64_data();
  auto& values = data->column(val_idx).int32_data();
  fids.insert(fids.end(), n, file_id);
  seqs.insert(seqs.end(), n, seq_no);
  AppendSampleTimes(rec.start_time, rec.sample_rate, 0, n,
                    &data->column(time_idx).int64_data());
  values.insert(values.end(), rec.sample_values.begin(),
                rec.sample_values.end());
  return Status::OK();
}

Result<size_t> RemoveFileRows(Table* table, int64_t file_id) {
  LAZYETL_ASSIGN_OR_RETURN(size_t fid_idx, table->ColumnIndex("file_id"));
  const auto& fids = table->column(fid_idx).int64_data();
  storage::SelectionVector keep;
  keep.reserve(fids.size());
  for (size_t i = 0; i < fids.size(); ++i) {
    if (fids[i] != file_id) keep.push_back(static_cast<uint32_t>(i));
  }
  size_t removed = fids.size() - keep.size();
  if (removed > 0) {
    *table = table->Gather(keep);
  }
  return removed;
}

}  // namespace lazyetl::core
