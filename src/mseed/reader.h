// Reading miniSEED files: header-only metadata scans and selective or full
// waveform decodes.
//
// The asymmetry between ScanMetadata (a few dozen bytes per record, seeking
// over the data areas) and ReadFull (decode every Steim frame) is exactly
// the cost gap the paper's lazy initial loading exploits.

#ifndef LAZYETL_MSEED_READER_H_
#define LAZYETL_MSEED_READER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/time.h"
#include "mseed/record.h"

namespace lazyetl::mseed {

// Size and modification time of a file (mtime drives cache staleness).
struct FileStatInfo {
  uint64_t size = 0;
  NanoTime mtime = 0;
  // A regular file named directly (not through a symlink) with one link:
  // a change to it always goes through this path's directory.
  bool plain = false;
};

// Stats `path`, following a symlink. Fails with NotFound when the path does
// not exist (ENOENT) and with IOError, carrying the errno text, otherwise.
Result<FileStatInfo> StatFile(const std::string& path);

// One record's metadata plus where it lives in the file.
struct RecordInfo {
  RecordHeader header;
  uint64_t file_offset = 0;
};

// Per-file metadata: the paper's F-table row plus one R-table row per record.
struct FileMetadata {
  std::string path;
  uint64_t file_size = 0;
  NanoTime mtime = 0;
  bool plain = false;  // FileStatInfo::plain of the stat read with it
  std::vector<RecordInfo> records;

  // Aggregates over records (valid when !records.empty()).
  std::string network;
  std::string station;
  std::string location;
  std::string channel;
  char quality = 'D';
  NanoTime start_time = 0;
  NanoTime end_time = 0;
  double sample_rate = 0.0;
  uint64_t total_samples = 0;

  // Bytes actually read from disk during the scan (cost accounting for the
  // initial-loading experiments).
  uint64_t bytes_read = 0;
};

// Scans record headers only: for each record reads a small prefix, then
// seeks to the next record using the length from blockette 1000.
Result<FileMetadata> ScanMetadata(const std::string& path);

// Decodes a subset of records in one pass over the file. `record_indexes`
// index into `metadata.records` and must be sorted ascending. Returns one
// sample vector per requested record, in the same order. The file is
// opened once and read with one pread per stretch of requested records
// that are adjacent on disk; only requested record bytes are read. Fails
// with InvalidArgument for an index out of range and IOError when the
// file is shorter than its metadata says.
Result<std::vector<std::vector<int32_t>>> ReadSelectedRecords(
    const FileMetadata& metadata, const std::vector<size_t>& record_indexes);

// Full eager read: metadata plus every record's samples.
struct FullFile {
  FileMetadata metadata;
  std::vector<std::vector<int32_t>> record_samples;  // parallel to records
};

Result<FullFile> ReadFull(const std::string& path);

}  // namespace lazyetl::mseed

#endif  // LAZYETL_MSEED_READER_H_
