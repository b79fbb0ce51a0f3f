// Shared ETL building blocks: the transformation step and row builders used
// by both the eager pipeline and the lazy extraction path.
//
// Keeping these in one place guarantees the library's central invariant —
// lazy and eager warehouses answer every query identically — because both
// paths derive sample times and table rows with the same code.

#ifndef LAZYETL_CORE_ETL_H_
#define LAZYETL_CORE_ETL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/time.h"
#include "mseed/reader.h"
#include "storage/table.h"

namespace lazyetl::core {

// The record-level transformation (§3.2, "transformations performed on a
// fine granularity are added to the end of the extraction phase"): checks
// the decoded record against its header and passes raw counts through the
// (identity) value transform. A sample's timestamp is a function of the
// header's start time and sample rate, so the record keeps those two
// fields and AppendSampleTimes derives the timestamps wherever rows are
// built — by the eager loader and by the lazy chunk assembly alike.
struct TransformedRecord {
  NanoTime start_time = 0;
  double sample_rate = 0.0;  // > 0
  std::vector<int32_t> sample_values;
};

// Takes `samples` by value: callers that are done with the decoded samples
// move them in, and they become the record's values without a copy.
Result<TransformedRecord> TransformRecord(const mseed::RecordHeader& header,
                                          std::vector<int32_t> samples);

// Appends the timestamps of samples [begin, begin + count) of a record
// starting at `start` with `rate` samples/second. `begin` is a position
// within the record, so a record split across chunks derives the same
// timestamps as a whole one.
void AppendSampleTimes(NanoTime start, double rate, size_t begin,
                       size_t count, std::vector<int64_t>* out);

// The samples [begin, end) of a record of `count` samples, starting at
// `start` with `rate` samples/second, whose timestamps (as
// AppendSampleTimes derives them) fall in the inclusive range [lo, hi];
// begin == end when none does. Timestamps never decrease with the index,
// so both ends are binary searches.
struct SampleIndexRange {
  size_t begin = 0;
  size_t end = 0;
};
SampleIndexRange SampleIndexesIn(NanoTime start, double rate, size_t count,
                                 NanoTime lo, NanoTime hi);

// Puts the F-table row describing `md` (with the given id): appends it for a
// new file; with `replace`, overwrites the file's existing row in place.
Status PutFileRow(storage::Table* files, int64_t file_id,
                  const mseed::FileMetadata& md, bool replace);

// Appends one R-table row per record of `md`.
Status AppendRecordRows(storage::Table* records, int64_t file_id,
                        const mseed::FileMetadata& md);

// Appends D-table rows for one transformed record: its values and the
// timestamps AppendSampleTimes derives for them.
Status AppendDataRows(storage::Table* data, int64_t file_id, int64_t seq_no,
                      const TransformedRecord& rec);

// Drops all rows whose file_id column matches `file_id` (used by refresh to
// replace a modified file's rows). Returns the number of rows removed.
Result<size_t> RemoveFileRows(storage::Table* table, int64_t file_id);

}  // namespace lazyetl::core

#endif  // LAZYETL_CORE_ETL_H_
