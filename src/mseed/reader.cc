#include "mseed/reader.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/macros.h"

namespace lazyetl::mseed {
namespace {

// Bytes read per record during a metadata scan: fixed header (48) +
// blockette 1000 (8) + optional blockette 100 (12), rounded up.
constexpr size_t kHeaderProbeBytes = 128;

// Largest single read ReadSelectedRecords issues for a stretch of
// adjacent records; bounds its buffer on long selections.
constexpr uint64_t kMaxStretchBytes = 1 << 20;

// A file opened for positioned reads, closed when it goes out of scope.
class ReadOnlyFile {
 public:
  static Result<ReadOnlyFile> Open(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return Status::IOError("cannot open " + path + ": " +
                             std::strerror(errno));
    }
    return ReadOnlyFile(fd, path);
  }
  ReadOnlyFile(ReadOnlyFile&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {}
  ReadOnlyFile(const ReadOnlyFile&) = delete;
  ReadOnlyFile& operator=(const ReadOnlyFile&) = delete;
  ReadOnlyFile& operator=(ReadOnlyFile&&) = delete;
  ~ReadOnlyFile() {
    if (fd_ >= 0) ::close(fd_);
  }

  // Fills `buf` from `offset` on with as many preads as it takes. Returns
  // the bytes read: fewer than buf->size() only at end of file.
  Result<size_t> ReadAt(uint64_t offset, std::vector<uint8_t>* buf) const {
    size_t got = 0;
    while (got < buf->size()) {
      const ssize_t n = ::pread(fd_, buf->data() + got, buf->size() - got,
                                static_cast<off_t>(offset + got));
      if (n > 0) {
        got += static_cast<size_t>(n);
      } else if (n == 0) {
        break;
      } else if (errno != EINTR) {
        return Status::IOError("cannot read " + path_ + ": " +
                               std::strerror(errno));
      }
    }
    return got;
  }

 private:
  ReadOnlyFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_;
  std::string path_;
};

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

Result<std::vector<std::vector<int32_t>>> ReadSelectedRecords(
    const FileMetadata& metadata, const std::vector<size_t>& record_indexes) {
  const std::string& path = metadata.path;
  for (size_t idx : record_indexes) {
    if (idx >= metadata.records.size()) {
      return Status::InvalidArgument("record index " + std::to_string(idx) +
                                     " out of range for " + path);
    }
  }
  LAZYETL_ASSIGN_OR_RETURN(ReadOnlyFile file, ReadOnlyFile::Open(path));
  std::vector<std::vector<int32_t>> out;
  out.reserve(record_indexes.size());
  std::vector<uint8_t> buf;
  // One read per stretch of requested records that lie back to back in
  // the file (at most kMaxStretchBytes), then one decode per record from
  // the buffer. Gaps between requested records are never read.
  for (size_t i = 0; i < record_indexes.size();) {
    const RecordInfo& head = metadata.records[record_indexes[i]];
    uint64_t stretch_end = head.file_offset + head.header.record_length;
    size_t j = i + 1;
    for (; j < record_indexes.size(); ++j) {
      const RecordInfo& next = metadata.records[record_indexes[j]];
      const uint64_t next_end = next.file_offset + next.header.record_length;
      if (next.file_offset != stretch_end ||
          next_end - head.file_offset > kMaxStretchBytes) {
        break;
      }
      stretch_end = next_end;
    }
    buf.resize(static_cast<size_t>(stretch_end - head.file_offset));
    LAZYETL_ASSIGN_OR_RETURN(size_t got,
                             file.ReadAt(head.file_offset, &buf));
    for (; i < j; ++i) {
      const size_t idx = record_indexes[i];
      const RecordInfo& info = metadata.records[idx];
      const size_t at =
          static_cast<size_t>(info.file_offset - head.file_offset);
      const size_t len = info.header.record_length;
      if (at + len > got) {
        return Status::IOError("short read of record " + std::to_string(idx) +
                               " in " + path);
      }
      auto samples = DecodeRecordData(info.header, buf.data() + at, len);
      if (!samples.ok()) {
        return samples.status().WithContext("record " + std::to_string(idx) +
                                            " of " + path);
      }
      out.push_back(std::move(*samples));
    }
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
