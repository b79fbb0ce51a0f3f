#include "mseed/reader.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/macros.h"

namespace lazyetl::mseed {
namespace {

// Bytes read per record during a metadata scan: fixed header (48) +
// blockette 1000 (8) + optional blockette 100 (12), rounded up.
constexpr size_t kHeaderProbeBytes = 128;

// Fills the file-level aggregates of `md` from its record list.
Status Summarize(FileMetadata* md) {
  if (md->records.empty()) {
    return Status::CorruptData("mSEED file has no records: " + md->path);
  }
  const RecordHeader& first = md->records.front().header;
  md->network = first.network;
  md->station = first.station;
  md->location = first.location;
  md->channel = first.channel;
  md->quality = first.quality_indicator;
  md->sample_rate = first.SampleRate();
  LAZYETL_ASSIGN_OR_RETURN(md->start_time, first.StartTime());
  LAZYETL_ASSIGN_OR_RETURN(md->end_time, md->records.back().header.EndTime());
  md->total_samples = 0;
  for (const auto& r : md->records) {
    md->total_samples += r.header.num_samples;
    LAZYETL_ASSIGN_OR_RETURN(NanoTime rs, r.header.StartTime());
    LAZYETL_ASSIGN_OR_RETURN(NanoTime re, r.header.EndTime());
    md->start_time = std::min(md->start_time, rs);
    md->end_time = std::max(md->end_time, re);
  }
  return Status::OK();
}

}  // namespace

Result<FileStatInfo> StatFile(const std::string& path) {
  struct ::stat st;
  bool plain = ::lstat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
  if (!plain && ::stat(path.c_str(), &st) != 0) {
    const int err = errno;
    std::string msg = "cannot stat " + path + ": " + std::strerror(err);
    if (err == ENOENT) return Status::NotFound(std::move(msg));
    return Status::IOError(std::move(msg));
  }
  FileStatInfo info;
  info.size = static_cast<uint64_t>(st.st_size);
  info.mtime = static_cast<NanoTime>(st.st_mtim.tv_sec) * kNanosPerSecond +
               st.st_mtim.tv_nsec;
  info.plain = plain && st.st_nlink == 1;
  return info;
}

Result<FileMetadata> ScanMetadata(const std::string& path) {
  LAZYETL_ASSIGN_OR_RETURN(FileStatInfo st, StatFile(path));
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open " + path);
  }

  FileMetadata md;
  md.path = path;
  md.file_size = st.size;
  md.mtime = st.mtime;
  md.plain = st.plain;

  uint64_t offset = 0;
  uint8_t buf[kHeaderProbeBytes];
  while (offset < st.size) {
    size_t want = static_cast<size_t>(
        std::min<uint64_t>(kHeaderProbeBytes, st.size - offset));
    in.seekg(static_cast<std::streamoff>(offset));
    in.read(reinterpret_cast<char*>(buf), static_cast<std::streamsize>(want));
    if (in.gcount() != static_cast<std::streamsize>(want)) {
      return Status::IOError("short read at offset " + std::to_string(offset) +
                             " in " + path);
    }
    md.bytes_read += want;
    auto header = DecodeRecordHeader(buf, want);
    if (!header.ok()) {
      return header.status().WithContext("record at offset " +
                                         std::to_string(offset) + " of " +
                                         path);
    }
    if (offset + header->record_length > st.size) {
      return Status::CorruptData("truncated final record in " + path);
    }
    RecordInfo info;
    info.header = std::move(*header);
    info.file_offset = offset;
    offset += info.header.record_length;
    md.records.push_back(std::move(info));
  }
  LAZYETL_RETURN_NOT_OK(Summarize(&md));
  return md;
}

Result<std::vector<int32_t>> ReadRecordSamples(const std::string& path,
                                               const RecordInfo& info) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open " + path);
  }
  std::vector<uint8_t> buf(info.header.record_length);
  in.seekg(static_cast<std::streamoff>(info.file_offset));
  in.read(reinterpret_cast<char*>(buf.data()),
          static_cast<std::streamsize>(buf.size()));
  if (in.gcount() != static_cast<std::streamsize>(buf.size())) {
    return Status::IOError("short read of record at offset " +
                           std::to_string(info.file_offset) + " in " + path);
  }
  return DecodeRecordData(info.header, buf.data(), buf.size());
}

Result<std::vector<std::vector<int32_t>>> ReadSelectedRecords(
    const FileMetadata& metadata, const std::vector<size_t>& record_indexes) {
  std::ifstream in(metadata.path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open " + metadata.path);
  }
  std::vector<std::vector<int32_t>> out;
  out.reserve(record_indexes.size());
  std::vector<uint8_t> buf;
  for (size_t idx : record_indexes) {
    if (idx >= metadata.records.size()) {
      return Status::InvalidArgument("record index " + std::to_string(idx) +
                                     " out of range for " + metadata.path);
    }
    const RecordInfo& info = metadata.records[idx];
    buf.resize(info.header.record_length);
    in.seekg(static_cast<std::streamoff>(info.file_offset));
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
    if (in.gcount() != static_cast<std::streamsize>(buf.size())) {
      return Status::IOError("short read of record " + std::to_string(idx) +
                             " in " + metadata.path);
    }
    auto samples = DecodeRecordData(info.header, buf.data(), buf.size());
    if (!samples.ok()) {
      return samples.status().WithContext("record " + std::to_string(idx) +
                                          " of " + metadata.path);
    }
    out.push_back(std::move(*samples));
  }
  return out;
}

Result<FullFile> ReadFull(const std::string& path) {
  LAZYETL_ASSIGN_OR_RETURN(FileStatInfo st, StatFile(path));
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open " + path);
  }
  // Eager path: one sequential read of the whole file, then decode.
  std::vector<uint8_t> data(st.size);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  if (in.gcount() != static_cast<std::streamsize>(data.size())) {
    return Status::IOError("short read of " + path);
  }

  FullFile full;
  full.metadata.path = path;
  full.metadata.file_size = st.size;
  full.metadata.mtime = st.mtime;
  full.metadata.plain = st.plain;
  full.metadata.bytes_read = st.size;

  uint64_t offset = 0;
  while (offset < st.size) {
    auto header = DecodeRecordHeader(data.data() + offset,
                                     static_cast<size_t>(st.size - offset));
    if (!header.ok()) {
      return header.status().WithContext("record at offset " +
                                         std::to_string(offset) + " of " +
                                         path);
    }
    if (offset + header->record_length > st.size) {
      return Status::CorruptData("truncated final record in " + path);
    }
    RecordInfo info;
    info.header = std::move(*header);
    info.file_offset = offset;
    auto samples = DecodeRecordData(info.header, data.data() + offset,
                                    info.header.record_length);
    if (!samples.ok()) {
      return samples.status().WithContext("record at offset " +
                                          std::to_string(offset) + " of " +
                                          path);
    }
    offset += info.header.record_length;
    full.metadata.records.push_back(std::move(info));
    full.record_samples.push_back(std::move(*samples));
  }
  LAZYETL_RETURN_NOT_OK(Summarize(&full.metadata));
  return full;
}

}  // namespace lazyetl::mseed
