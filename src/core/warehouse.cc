#include "core/warehouse.h"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "common/log.h"
#include "common/macros.h"
#include "common/memory_budget.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/etl.h"
#include "core/schema.h"
#include "engine/expr_eval.h"
#include "engine/operators/operator.h"
#include "engine/planner.h"
#include "engine/pruning.h"
#include "engine/query_context.h"
#include "mseed/dataless.h"
#include "mseed/repository.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "storage/persist.h"

namespace lazyetl::core {

namespace fs = std::filesystem;

using engine::CachedRecord;
using engine::ExecutionReport;
using engine::RecordKey;
using engine::ScanColumn;
using storage::Column;
using storage::Table;
using storage::TablePtr;
using storage::Value;

const char* LoadStrategyToString(LoadStrategy s) {
  switch (s) {
    case LoadStrategy::kEager:
      return "eager";
    case LoadStrategy::kLazy:
      return "lazy";
    case LoadStrategy::kLazyFilenameOnly:
      return "lazy-filename-only";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// CatalogWriter: copy-on-write sessions over catalog tables.
//
// Every mutation of a published table (hydration appending R rows, refresh
// removing a modified file's rows, eager loading) stages its changes in a
// private clone and publishes the clones atomically per table. Executing
// queries keep scanning the snapshot they grabbed at operator-build time —
// the reason concurrent Query() needs no global lock around execution.
// Sessions must run under an exclusive meta_mu_ so two writers never race
// on clone-modify-publish.
// ---------------------------------------------------------------------------

class Warehouse::CatalogWriter {
 public:
  explicit CatalogWriter(storage::Catalog* catalog) : catalog_(catalog) {}

  // A session that errors out mid-way still publishes what it staged:
  // registry entries (their records, tombstones) are mutated as each file
  // is published, so discarding the staged rows would desynchronize
  // registry and catalog permanently — e.g. a file with record metadata
  // whose R rows were thrown away. Per-file failures happen before that
  // file's table mutations (the read and the transform come first).
  ~CatalogWriter() { Publish(); }

  // Clone-on-first-use mutable copy of table `name`; one clone per session
  // no matter how many files touch it.
  Result<Table*> Mutable(const std::string& name) {
    auto it = copies_.find(name);
    if (it != copies_.end()) return it->second.get();
    LAZYETL_ASSIGN_OR_RETURN(TablePtr current, catalog_->GetTable(name));
    auto copy = std::make_shared<Table>(*current);
    Table* raw = copy.get();
    copies_[name] = std::move(copy);
    return raw;
  }

  // Swaps every staged clone into the catalog.
  void Publish() {
    for (auto& [name, table] : copies_) catalog_->PutTable(name, table);
    copies_.clear();
  }

 private:
  storage::Catalog* catalog_;
  std::map<std::string, TablePtr> copies_;
};

// ---------------------------------------------------------------------------
// WarehouseDataProvider: serves actual data at query time from the recycler
// cache or by extracting records from the source files (§3.1/§3.3). One
// provider exists per query (it carries the query's result-cache
// dependencies and its memory budget); the warehouse state it touches is
// synchronized behind meta_mu_ and the caches' own locks. The streaming
// interface emits the records file-by-file in batch-sized chunks,
// extracting a window of extraction_threads files at a time, so peak
// extracted-but-unconsumed memory is bounded by the window — never the
// whole qualifying set. The window's estimated bytes are charged to the
// query's MemoryBudget, so lazy extraction and pipeline-breaker state draw
// from the same cap (one resident file is the floor no budget undercuts).
// ---------------------------------------------------------------------------

class WarehouseRecordStream;

class WarehouseDataProvider : public engine::LazyDataProvider {
 public:
  WarehouseDataProvider(Warehouse* warehouse, engine::QueryContext* qctx)
      : warehouse_(warehouse), qctx_(qctx) {}

  const std::vector<engine::ResultDependency>& deps() const { return deps_; }

  common::MemoryBudget* query_budget() {
    return qctx_ != nullptr ? qctx_->budget() : nullptr;
  }

  Result<std::unique_ptr<engine::RecordStream>> StreamRecords(
      const std::vector<RecordKey>& keys,
      const std::vector<ScanColumn>& columns,
      const engine::SampleTimeRange& times, size_t batch_rows,
      ExecutionReport* report) override;

  Result<std::unique_ptr<engine::RecordStream>> StreamAllRecords(
      const std::vector<ScanColumn>& columns, size_t batch_rows,
      ExecutionReport* report) override;

 private:
  friend class WarehouseRecordStream;

  // One requested record of a file, ready for assembly.
  struct StagedRecord {
    int64_t seq_no = 0;
    engine::CachedRecordPtr record;
  };

  // One file's worth of pending extraction: which records to decode and,
  // after RunExtractionJobs, their transformed samples (or the error).
  // Holds an immutable metadata snapshot, so a concurrent re-hydration of
  // the same file (another query's lazy refresh) never races the decode.
  struct ExtractJob {
    std::shared_ptr<const mseed::FileMetadata> metadata;
    int64_t file_id = 0;
    std::vector<size_t> record_indexes;  // sorted by file offset
    std::vector<int64_t> seq_nos;        // parallel to record_indexes
    std::vector<std::shared_ptr<CachedRecord>> results;
    Status status;
  };

  // Executes the decode+transform of every job, in parallel when
  // options().extraction_threads > 1. Only job-local state is touched.
  Status RunExtractionJobs(std::vector<ExtractJob>* jobs);

  // Assembles one file's records, in order, into chunks of at most
  // `batch_rows` rows holding the projected `columns` (at least one chunk,
  // possibly empty). Each record contributes the samples whose times fall
  // in `times`, each copied once: from the shared record straight into its
  // chunk's column. A chunk lists its record runs; file_id and seq_no
  // become columns only when `columns` asks for them.
  static Result<std::vector<engine::RecordChunk>> AssembleChunks(
      int64_t file_id, const std::vector<StagedRecord>& records,
      const std::vector<ScanColumn>& columns,
      const engine::SampleTimeRange& times, size_t batch_rows);

  Warehouse* warehouse_;
  engine::QueryContext* qctx_;
  std::vector<engine::ResultDependency> deps_;
};

// Pull stream over the requested records: chunks of at most batch_rows
// rows, file by file, in (file_id, request) order — the same deterministic
// order the materialising fetch produced.
class WarehouseRecordStream : public engine::RecordStream {
 public:
  // Streams the records `by_file` lists per file id; an empty list asks
  // for every record of that file.
  static Result<std::unique_ptr<engine::RecordStream>> Create(
      WarehouseDataProvider* provider,
      std::map<int64_t, std::vector<int64_t>> by_file,
      const std::vector<ScanColumn>& columns,
      const engine::SampleTimeRange& times, size_t batch_rows,
      ExecutionReport* report);

  // The summary lines of the run-time rewrite are flushed when the stream
  // is drained; if a consumer stops early (LIMIT), flush what happened.
  ~WarehouseRecordStream() override {
    FlushSummary();
    ReleaseWindowBytes(outstanding_);
  }

  Result<bool> Next(engine::RecordChunk* out) override;

  size_t chunks() const override { return chunks_; }

 private:
  // One requested file, reconciled at stream creation: the stream reads
  // this version of it throughout.
  struct FileRequest {
    int64_t fid = 0;
    std::vector<int64_t> seqs;  // requested records, in request order
    std::shared_ptr<const Warehouse::FileRecords> records;
  };

  // An assembled chunk waiting to be emitted, plus the window bytes it
  // holds reserved on the query budget (a file's last chunk carries the
  // file's reservation).
  struct ReadyChunk {
    engine::RecordChunk chunk;
    uint64_t reserved = 0;
  };

  WarehouseRecordStream(WarehouseDataProvider* provider,
                        std::vector<ScanColumn> columns,
                        const engine::SampleTimeRange& times,
                        size_t batch_rows, ExecutionReport* report)
      : provider_(provider),
        columns_(std::move(columns)),
        times_(times),
        batch_rows_(batch_rows),
        report_(report) {}

  // Cache pass + windowed extraction for the next run of files; pushes
  // their assembled chunks onto ready_.
  Status AdvanceWindow();

  void ReleaseWindowBytes(uint64_t bytes) {
    if (bytes == 0) return;
    if (common::MemoryBudget* budget = provider_->query_budget()) {
      budget->Release(bytes);
    }
    outstanding_ -= bytes;
  }

  void FlushSummary();

  WarehouseDataProvider* provider_;
  std::vector<ScanColumn> columns_;
  engine::SampleTimeRange times_;
  size_t batch_rows_;
  ExecutionReport* report_;

  std::vector<FileRequest> files_;
  size_t chunks_ = 0;             // non-empty chunks the files assemble to
  size_t next_file_ = 0;          // next file not yet cache-passed
  std::deque<ReadyChunk> ready_;  // assembled chunks, fid order
  uint64_t outstanding_ = 0;      // reserved window bytes not yet released

  uint64_t total_hits_ = 0;
  std::vector<std::string> extracted_desc_;
  bool emitted_ = false;
  bool summary_written_ = false;
};

Status WarehouseDataProvider::RunExtractionJobs(std::vector<ExtractJob>* jobs) {
  auto run_one = [](ExtractJob* job) {
    auto samples =
        mseed::ReadSelectedRecords(*job->metadata, job->record_indexes);
    if (!samples.ok()) {
      job->status = samples.status();
      return;
    }
    job->results.reserve(job->record_indexes.size());
    for (size_t i = 0; i < job->record_indexes.size(); ++i) {
      const mseed::RecordInfo& info =
          job->metadata->records[job->record_indexes[i]];
      auto transformed = TransformRecord(info.header, std::move((*samples)[i]));
      if (!transformed.ok()) {
        job->status = transformed.status().WithContext(
            "record " + std::to_string(job->seq_nos[i]) + " of " +
            job->metadata->path);
        return;
      }
      auto record = std::make_shared<CachedRecord>();
      record->start_time = transformed->start_time;
      record->sample_rate = transformed->sample_rate;
      record->sample_values = std::move(transformed->sample_values);
      record->file_mtime = job->metadata->mtime;
      job->results.push_back(std::move(record));
    }
  };

  unsigned threads = warehouse_->options().extraction_threads;
  if (threads <= 1 || jobs->size() <= 1) {
    for (auto& job : *jobs) run_one(&job);
    return Status::OK();
  }
  // The shared worker pool runs the per-file jobs; the calling thread
  // participates, so extraction windows driven from inside a parallel
  // query pipeline cannot deadlock on a saturated pool.
  common::ThreadPool::Shared().ParallelFor(
      jobs->size(), threads,
      [&](size_t i) { run_one(&(*jobs)[i]); });
  return Status::OK();
}

Result<std::vector<engine::RecordChunk>> WarehouseDataProvider::AssembleChunks(
    int64_t file_id, const std::vector<StagedRecord>& records,
    const std::vector<ScanColumn>& columns,
    const engine::SampleTimeRange& times, size_t batch_rows) {
  // Empty column list means "all columns under their stored names".
  std::vector<ScanColumn> cols = columns;
  if (cols.empty()) {
    cols = {{"file_id", "file_id"},
            {"seq_no", "seq_no"},
            {"sample_time", "sample_time"},
            {"sample_value", "sample_value"}};
  }
  for (const auto& sc : cols) {
    if (sc.base_column != "file_id" && sc.base_column != "seq_no" &&
        sc.base_column != "sample_time" && sc.base_column != "sample_value") {
      return Status::ExecutionError("lazy data table has no column '" +
                                    sc.base_column + "'");
    }
  }

  // A piece is the part of one record that falls into one chunk.
  struct Piece {
    const StagedRecord* staged;
    size_t begin;
    size_t length;
  };
  auto assemble = [&](const std::vector<Piece>& pieces,
                      size_t rows) -> Result<engine::RecordChunk> {
    engine::RecordChunk out;
    out.runs.reserve(pieces.size());
    uint32_t first_row = 0;
    for (const Piece& p : pieces) {
      out.runs.push_back({file_id, p.staged->seq_no, first_row});
      first_row += static_cast<uint32_t>(p.length);
    }
    for (const auto& sc : cols) {
      Column col(storage::DataType::kInt64);
      if (sc.base_column == "sample_value") {
        std::vector<int32_t> values;
        values.reserve(rows);
        for (const Piece& p : pieces) {
          const auto& src = p.staged->record->sample_values;
          values.insert(values.end(), src.begin() + p.begin,
                        src.begin() + p.begin + p.length);
        }
        col = Column::FromInt32(std::move(values));
      } else {
        std::vector<int64_t> values;
        values.reserve(rows);
        for (const Piece& p : pieces) {
          if (sc.base_column == "file_id") {
            values.insert(values.end(), p.length, file_id);
          } else if (sc.base_column == "seq_no") {
            values.insert(values.end(), p.length, p.staged->seq_no);
          } else {
            const CachedRecord& rec = *p.staged->record;
            AppendSampleTimes(rec.start_time, rec.sample_rate, p.begin,
                              p.length, &values);
          }
        }
        col = sc.base_column == "sample_time"
                  ? Column::FromTimestamp(std::move(values))
                  : Column::FromInt64(std::move(values));
      }
      LAZYETL_RETURN_NOT_OK(
          out.table.AddColumn(sc.output_name, std::move(col)));
    }
    return out;
  };

  std::vector<engine::RecordChunk> chunks;
  std::vector<Piece> pieces;
  size_t rows = 0;
  for (const StagedRecord& staged : records) {
    const CachedRecord& rec = *staged.record;
    SampleIndexRange keep{0, rec.sample_values.size()};
    if (times.bounded()) {
      keep = SampleIndexesIn(rec.start_time, rec.sample_rate, keep.end,
                             times.lo, times.hi);
    }
    for (size_t begin = keep.begin; begin < keep.end;) {
      const size_t length = std::min(keep.end - begin, batch_rows - rows);
      pieces.push_back({&staged, begin, length});
      rows += length;
      begin += length;
      if (rows == batch_rows) {
        LAZYETL_ASSIGN_OR_RETURN(engine::RecordChunk chunk,
                                 assemble(pieces, rows));
        chunks.push_back(std::move(chunk));
        pieces.clear();
        rows = 0;
      }
    }
  }
  if (rows > 0 || chunks.empty()) {
    LAZYETL_ASSIGN_OR_RETURN(engine::RecordChunk chunk,
                             assemble(pieces, rows));
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

Result<std::unique_ptr<engine::RecordStream>> WarehouseRecordStream::Create(
    WarehouseDataProvider* provider,
    std::map<int64_t, std::vector<int64_t>> by_file,
    const std::vector<ScanColumn>& columns,
    const engine::SampleTimeRange& times, size_t batch_rows,
    ExecutionReport* report) {
  auto stream = std::unique_ptr<WarehouseRecordStream>(new WarehouseRecordStream(
      provider, columns, times, batch_rows, report));

  // Reconcile every requested file up front: the freshness checks, reloads
  // and hydration are metadata-only work, and recording all dependencies
  // before any chunk is consumed keeps the result cache sound even when a
  // consumer (LIMIT) stops early. The expensive part — cache lookups and
  // sample extraction — stays deferred, on the versions reconciled here.
  std::vector<int64_t> fids;
  fids.reserve(by_file.size());
  for (const auto& [fid, seqs] : by_file) fids.push_back(fid);
  std::vector<Warehouse::FileSnapshot> files;
  LAZYETL_RETURN_NOT_OK(provider->warehouse_->Reconcile(
      fids, /*need_records=*/true, report, &files));
  auto file = files.begin();
  for (auto& [fid, seqs] : by_file) {
    Warehouse::FileSnapshot& snapshot = *file++;
    if (snapshot.file_id == 0) {
      return Status::NotFound(
          "source file disappeared during query: file_id " +
          std::to_string(fid));
    }
    const Warehouse::FileRecords& records = *snapshot.records;
    if (seqs.empty()) {
      for (const auto& rec : records.metadata.records) {
        seqs.push_back(rec.header.sequence_number);
      }
      report->records_requested += seqs.size();
    }
    provider->deps_.push_back({fid, snapshot.mtime});
    // The file's chunks, from its records' sample counts (AssembleChunks
    // cuts each file into batch_rows-row chunks; Next skips empty ones).
    // A time range that clips records makes this an upper bound.
    uint64_t samples = 0;
    for (int64_t seq : seqs) {
      auto it = records.seq_to_record.find(seq);
      if (it != records.seq_to_record.end()) {
        samples += records.metadata.records[it->second].header.num_samples;
      }
    }
    if (samples > 0) stream->chunks_ += (samples - 1) / batch_rows + 1;
    stream->files_.push_back(
        {fid, std::move(seqs), std::move(snapshot.records)});
  }
  return std::unique_ptr<engine::RecordStream>(std::move(stream));
}

Status WarehouseRecordStream::AdvanceWindow() {
  using ExtractJob = WarehouseDataProvider::ExtractJob;
  Warehouse* warehouse = provider_->warehouse_;
  unsigned threads =
      std::max(1u, warehouse->options().extraction_threads);
  common::MemoryBudget* budget = provider_->query_budget();

  // One window of files: cache lookups now, extraction jobs for the
  // misses. The window closes once it holds `threads` extraction jobs (or
  // a multiple of that in cache-only files), so extraction parallelism is
  // preserved while extracted-but-unconsumed data stays bounded by the
  // window instead of the whole qualifying set. The window's estimated
  // decoded bytes are additionally charged to the query's memory budget:
  // under pressure the window shrinks (down to a one-file floor), so lazy
  // ETL honours the same cap as pipeline-breaker state. The shared lock
  // only guards the tombstone checks; the extraction I/O below runs on the
  // immutable metadata versions reconciled at stream creation.
  struct PendingFile {
    const FileRequest* request = nullptr;
    // Cache hits and fresh extractions by seq_no: the shared records.
    std::map<int64_t, engine::CachedRecordPtr> staged;
    int job_index = -1;
    uint64_t reserved = 0;  // window bytes charged for this file
  };
  std::vector<PendingFile> window;
  std::vector<ExtractJob> jobs;

  {
    std::shared_lock lock(warehouse->meta_mu_);
    while (next_file_ < files_.size() && jobs.size() < threads &&
           window.size() < static_cast<size_t>(threads) * 4) {
      FileRequest& fr = files_[next_file_];
      if (warehouse->files_[fr.fid - 1].file_id == 0) {
        // Tombstoned by a concurrent Refresh since stream creation: fail
        // like every earlier validation pass — never a silent partial
        // result.
        return Status::NotFound(
            "source file disappeared during query: file_id " +
            std::to_string(fr.fid));
      }

      // Estimated footprint of this file's assembled chunks (8-byte time +
      // 4-byte value per sample, plus per-record slack). The decoded
      // records they are assembled from hold only the 4-byte values.
      const Warehouse::FileRecords& records = *fr.records;
      uint64_t est = 0;
      for (int64_t seq : fr.seqs) {
        auto it = records.seq_to_record.find(seq);
        if (it == records.seq_to_record.end()) continue;
        est += records.metadata.records[it->second].header.num_samples *
                   12ULL +
               64;
      }
      uint64_t reserved = 0;
      if (budget != nullptr && est > 0) {
        if (budget->TryReserve(est)) {
          reserved = est;
        } else if (!window.empty()) {
          break;  // budget pressure: stop growing, keep the 1-file floor
        }
        // First file of the window proceeds unreserved — a single file is
        // the resident floor no budget can undercut.
      }
      outstanding_ += reserved;
      ++next_file_;

      PendingFile pending;
      pending.request = &fr;
      pending.reserved = reserved;

      // Cache lookups first; misses become one extraction job per file.
      std::vector<int64_t> to_extract;
      for (int64_t seq : fr.seqs) {
        bool stale = false;
        engine::CachedRecordPtr hit = warehouse->record_cache_->Lookup(
            {fr.fid, seq},
            [&records](const CachedRecord& r) {
              return r.file_mtime == records.metadata.mtime;
            },
            &stale);
        if (hit != nullptr) {
          ++report_->cache_hits;
          ++total_hits_;
          pending.staged[seq] = std::move(hit);
        } else {
          if (stale) {
            ++report_->cache_stale;
          } else {
            ++report_->cache_misses;
          }
          to_extract.push_back(seq);
        }
      }

      std::vector<std::pair<size_t, int64_t>> picks;  // (index, seq_no)
      for (int64_t seq : to_extract) {
        auto it = records.seq_to_record.find(seq);
        if (it == records.seq_to_record.end()) {
          // The record is gone from the reconciled version of the file;
          // treat as zero rows for this record rather than failing the
          // query.
          LogOp(LogCategory::kExtract,
                "record " + std::to_string(seq) + " no longer present in " +
                    records.metadata.path);
          continue;
        }
        picks.emplace_back(it->second, seq);
      }
      if (!picks.empty()) {
        // Sequential file I/O: visit records in offset order.
        std::sort(picks.begin(), picks.end());
        ExtractJob job;
        job.metadata = std::shared_ptr<const mseed::FileMetadata>(
            fr.records, &records.metadata);
        job.file_id = fr.fid;
        for (const auto& [index, seq] : picks) {
          job.record_indexes.push_back(index);
          job.seq_nos.push_back(seq);
        }
        pending.job_index = static_cast<int>(jobs.size());
        jobs.push_back(std::move(job));
      }
      window.push_back(std::move(pending));
    }
  }

  // Run the extraction jobs — decode and transform are pure per-file work
  // on immutable metadata snapshots, so with extraction_threads > 1 the
  // window's files are processed concurrently. Everything touching
  // per-query state (report, the ready queue) happens below on this
  // thread; the recycler handles its own locking.
  LAZYETL_RETURN_NOT_OK(provider_->RunExtractionJobs(&jobs));

  for (PendingFile& pending : window) {
    if (pending.job_index >= 0) {
      ExtractJob& job = jobs[pending.job_index];
      LAZYETL_RETURN_NOT_OK(job.status);
      ++report_->files_opened;
      const std::string& path = job.metadata->path;
      report_->files_touched.push_back(path);
      LogOp(LogCategory::kExtract,
            "extracted " + std::to_string(job.record_indexes.size()) +
                " records from " + path);
      for (size_t i = 0; i < job.record_indexes.size(); ++i) {
        const mseed::RecordInfo& info =
            job.metadata->records[job.record_indexes[i]];
        std::shared_ptr<CachedRecord>& record = job.results[i];
        report_->bytes_read += info.header.record_length;
        ++report_->records_extracted;
        report_->samples_extracted += record->sample_values.size();

        // Lazy loading (§3.3): admit the extracted+transformed record —
        // the same object this stream assembles from.
        warehouse->record_cache_->Admit({job.file_id, job.seq_nos[i]}, record,
                                        record->Bytes());
        pending.staged[job.seq_nos[i]] = std::move(record);
      }
      extracted_desc_.push_back(path + " (" +
                                std::to_string(job.record_indexes.size()) +
                                " records)");
    }

    // Deterministic assembly: by file, then by requested record order —
    // identical whether a record came from the cache or from extraction.
    std::vector<WarehouseDataProvider::StagedRecord> records;
    records.reserve(pending.request->seqs.size());
    for (int64_t seq : pending.request->seqs) {
      auto it = pending.staged.find(seq);
      if (it == pending.staged.end()) continue;  // vanished record
      records.push_back({seq, std::move(it->second)});
    }
    LAZYETL_ASSIGN_OR_RETURN(
        std::vector<engine::RecordChunk> chunks,
        WarehouseDataProvider::AssembleChunks(pending.request->fid, records,
                                              columns_, times_, batch_rows_));
    for (size_t i = 0; i < chunks.size(); ++i) {
      const bool last = i + 1 == chunks.size();
      ready_.push_back({std::move(chunks[i]), last ? pending.reserved : 0});
    }
  }
  return Status::OK();
}

Result<bool> WarehouseRecordStream::Next(engine::RecordChunk* out) {
  while (true) {
    if (!ready_.empty()) {
      ReadyChunk ready = std::move(ready_.front());
      ready_.pop_front();
      ReleaseWindowBytes(ready.reserved);
      if (ready.chunk.runs.empty()) continue;
      *out = std::move(ready.chunk);
      emitted_ = true;
      return true;
    }
    if (next_file_ < files_.size()) {
      LAZYETL_RETURN_NOT_OK(AdvanceWindow());
      continue;
    }
    FlushSummary();
    if (!emitted_) {
      // Contract: at least one (possibly empty) chunk carries the schema.
      emitted_ = true;
      LAZYETL_ASSIGN_OR_RETURN(std::vector<engine::RecordChunk> empty,
                               WarehouseDataProvider::AssembleChunks(
                                   0, {}, columns_, times_, batch_rows_));
      *out = std::move(empty[0]);
      return true;
    }
    return false;
  }
}

void WarehouseRecordStream::FlushSummary() {
  if (summary_written_) return;
  summary_written_ = true;
  Warehouse* warehouse = provider_->warehouse_;
  std::ostringstream rewrite;
  rewrite << "LazyDataScan(" << kDataTable
          << ") rewritten at run time into:\n";
  rewrite << "  CacheScan[" << total_hits_ << " records]\n";
  rewrite << "  FileExtract[" << extracted_desc_.size() << " files";
  for (size_t i = 0; i < extracted_desc_.size() && i < 6; ++i) {
    rewrite << (i == 0 ? ": " : ", ") << extracted_desc_[i];
  }
  if (extracted_desc_.size() > 6) rewrite << ", ...";
  rewrite << "]\n";
  report_->plan_runtime += rewrite.str();
  engine::CacheStats cache_stats = warehouse->record_cache_->stats();
  LogOp(LogCategory::kCache,
        "cache after fetch: " + std::to_string(cache_stats.entries) +
            " entries, " + std::to_string(cache_stats.current_bytes) +
            " bytes");
}

Result<std::unique_ptr<engine::RecordStream>>
WarehouseDataProvider::StreamRecords(const std::vector<RecordKey>& keys,
                                     const std::vector<ScanColumn>& columns,
                                     const engine::SampleTimeRange& times,
                                     size_t batch_rows,
                                     ExecutionReport* report) {
  // Grouped by file, so each file is checked and opened at most once.
  std::map<int64_t, std::vector<int64_t>> by_file;
  for (const auto& k : keys) by_file[k.file_id].push_back(k.seq_no);
  return WarehouseRecordStream::Create(this, std::move(by_file), columns,
                                       times, batch_rows, report);
}

Result<std::unique_ptr<engine::RecordStream>>
WarehouseDataProvider::StreamAllRecords(const std::vector<ScanColumn>& columns,
                                        size_t batch_rows,
                                        ExecutionReport* report) {
  // Every record of every file (the §3.1 worst case).
  std::map<int64_t, std::vector<int64_t>> by_file;
  {
    std::shared_lock lock(warehouse_->meta_mu_);
    for (const auto& entry : warehouse_->files_) {
      if (entry.file_id != 0) by_file[entry.file_id];
    }
  }
  return WarehouseRecordStream::Create(this, std::move(by_file), columns, {},
                                       batch_rows, report);
}

// ---------------------------------------------------------------------------
// Warehouse
// ---------------------------------------------------------------------------

Warehouse::Warehouse(WarehouseOptions options)
    : options_(std::move(options)) {}

Warehouse::~Warehouse() = default;

Result<std::unique_ptr<Warehouse>> Warehouse::Open(WarehouseOptions options) {
  auto wh = std::unique_ptr<Warehouse>(new Warehouse(std::move(options)));
  wh->catalog_ = std::make_unique<storage::Catalog>();
  LAZYETL_RETURN_NOT_OK(
      RegisterSchema(wh->catalog_.get(), wh->IsLazyStrategy()));

  // Both cache tiers charge their resident bytes to the process-global
  // budget, so cache residency, extraction windows and breaker state
  // compete for one cap. Whole results get 1/32 of the record budget and
  // 1/32 of its share of a finite global cap.
  wh->record_cache_ = std::make_unique<engine::RecordCache>(
      wh->options_.cache_budget_bytes, &common::MemoryBudget::Process());
  wh->result_cache_ = std::make_unique<engine::ResultCache>(
      wh->options_.cache_budget_bytes / 32, &common::MemoryBudget::Process(),
      /*share_divisor=*/64);

  // Admission control: resolve the concurrency bound and the per-query
  // budget (options, else environment) once; the scheduler carves each
  // admitted query's budget from the global cap.
  size_t max_concurrent = wh->options_.max_concurrent_queries;
  if (max_concurrent == 0) {
    if (const char* env = std::getenv("LAZYETL_MAX_CONCURRENT_QUERIES")) {
      max_concurrent = static_cast<size_t>(std::strtoull(env, nullptr, 10));
    }
  }
  if (wh->options_.queue_timeout_ms == 0) {
    if (const char* env = std::getenv("LAZYETL_QUEUE_TIMEOUT_MS")) {
      wh->options_.queue_timeout_ms = std::strtoll(env, nullptr, 10);
    }
  }
  if (!wh->options_.footprint_aware_admission) {
    if (const char* env = std::getenv("LAZYETL_FOOTPRINT_ADMISSION")) {
      const std::string value = ToLowerAscii(env);
      wh->options_.footprint_aware_admission =
          value == "1" || value == "true" || value == "on" || value == "yes";
    }
  }
  // Streaming-cursor backpressure window: batches buffered ahead of a
  // slow consumer before morsel dispatch suspends. Small by design — the
  // point of the cursor path is O(window × batch) resident result bytes.
  if (wh->options_.cursor_window_batches == 0) {
    if (const char* env = std::getenv("LAZYETL_CURSOR_WINDOW_BATCHES")) {
      wh->options_.cursor_window_batches =
          static_cast<size_t>(std::strtoull(env, nullptr, 10));
    }
    if (wh->options_.cursor_window_batches == 0) {
      wh->options_.cursor_window_batches = 4;
    }
  }
  // Priority aging (starvation protection): 0 resolves the environment
  // default, negative forces it off. Off preserves strict class order.
  if (wh->options_.priority_aging_ms == 0) {
    if (const char* env = std::getenv("LAZYETL_PRIORITY_AGING_MS")) {
      wh->options_.priority_aging_ms = std::strtoll(env, nullptr, 10);
    }
  }
  if (wh->options_.priority_aging_ms < 0) wh->options_.priority_aging_ms = 0;
  wh->scheduler_ = std::make_unique<common::QueryScheduler>(
      max_concurrent,
      common::ResolvePerQueryBudgetBytes(wh->options_.memory_budget_bytes),
      &common::MemoryBudget::Process(), wh->options_.priority_aging_ms);

  OperationLog::Global().set_echo_to_stderr(wh->options_.echo_log);
  LogOp(LogCategory::kGeneral,
        std::string("warehouse opened with strategy ") +
            LoadStrategyToString(wh->options_.strategy) +
            (max_concurrent > 0
                 ? ", max " + std::to_string(max_concurrent) +
                       " concurrent queries"
                 : ""));
  return wh;
}

std::vector<std::string> Warehouse::repositories() const {
  std::shared_lock lock(meta_mu_);
  return roots_;
}

Result<mseed::FullFile> Warehouse::Stage(const std::string& path,
                                         bool hydrate) const {
  if (options_.strategy == LoadStrategy::kEager) return mseed::ReadFull(path);
  mseed::FullFile file;
  if (hydrate) {
    LAZYETL_ASSIGN_OR_RETURN(file.metadata, mseed::ScanMetadata(path));
    return file;
  }
  // Approximate extent: the file covers (a slice of) the day its SDS name
  // gives. Record metadata is hydrated on demand when a query needs it.
  LAZYETL_ASSIGN_OR_RETURN(
      mseed::FilenameMetadata fn,
      mseed::ParseSdsFilename(fs::path(path).filename().string()));
  LAZYETL_ASSIGN_OR_RETURN(mseed::FileStatInfo st, mseed::StatFile(path));
  CivilTime day_start;
  day_start.year = fn.year;
  LAZYETL_RETURN_NOT_OK(MonthDayFromDayOfYear(fn.year, fn.day_of_year,
                                              &day_start.month,
                                              &day_start.day));
  LAZYETL_ASSIGN_OR_RETURN(NanoTime start, CivilToNano(day_start));
  mseed::FileMetadata& md = file.metadata;
  md.path = path;
  md.file_size = st.size;
  md.mtime = st.mtime;
  md.plain = st.plain;
  md.network = fn.network;
  md.station = fn.station;
  md.location = fn.location;
  md.channel = fn.channel;
  md.quality = fn.quality;
  md.start_time = start;
  md.end_time = start + kNanosPerDay;
  md.sample_rate = 0.0;  // unknown until hydration
  return file;
}

Result<mseed::FullFile> Warehouse::ConfirmOrStage(
    const std::string& path, const Result<mseed::FileStatInfo>& now,
    std::optional<StagedRead> staged, bool hydrate) const {
  if (staged.has_value() && now.ok() && now->mtime == staged->mtime &&
      now->size == staged->size) {
    return std::move(staged->file);
  }
  return Stage(path, hydrate);
}

Status Warehouse::PublishLocked(FileEntry* entry, mseed::FullFile file,
                                bool hydrated, CatalogWriter* writer,
                                LoadStats* stats) {
  mseed::FileMetadata& md = file.metadata;
  const bool eager = options_.strategy == LoadStrategy::kEager;
  // Transform first, so a record that fails leaves the tables untouched.
  std::vector<TransformedRecord> transformed;
  transformed.reserve(file.record_samples.size());
  for (size_t i = 0; i < file.record_samples.size(); ++i) {
    LAZYETL_ASSIGN_OR_RETURN(
        TransformedRecord rec,
        TransformRecord(md.records[i].header,
                        std::move(file.record_samples[i])));
    stats->samples_loaded += rec.sample_values.size();
    transformed.push_back(std::move(rec));
  }

  LAZYETL_ASSIGN_OR_RETURN(Table * files, writer->Mutable(kFilesTable));
  LAZYETL_ASSIGN_OR_RETURN(Table * records, writer->Mutable(kRecordsTable));
  Table* data = nullptr;
  if (eager) {
    LAZYETL_ASSIGN_OR_RETURN(data, writer->Mutable(kDataTable));
  }
  // A registered file is a reload: its R rows (which a reopened eager
  // warehouse holds without record metadata), D rows and cached records
  // belong to the version being replaced.
  const bool reload = path_to_file_id_.count(entry->path) != 0;
  if (reload) {
    if (entry->records != nullptr || eager) {
      LAZYETL_RETURN_NOT_OK(RemoveFileRows(records, entry->file_id).status());
    }
    if (eager) {
      LAZYETL_RETURN_NOT_OK(RemoveFileRows(data, entry->file_id).status());
    }
    if (entry->records != nullptr) {
      const int64_t fid = entry->file_id;
      record_cache_->EraseIf(
          [fid](const RecordKey& k) { return k.file_id == fid; });
    }
  }
  LAZYETL_RETURN_NOT_OK(PutFileRow(files, entry->file_id, md, reload));
  if (hydrated) {
    LAZYETL_RETURN_NOT_OK(AppendRecordRows(records, entry->file_id, md));
  }
  for (size_t i = 0; i < transformed.size(); ++i) {
    LAZYETL_RETURN_NOT_OK(AppendDataRows(data, entry->file_id,
                                         md.records[i].header.sequence_number,
                                         transformed[i]));
  }
  stats->bytes_read += md.bytes_read;
  stats->records += md.records.size();

  result_cache_->Clear();
  entry->mtime = md.mtime;
  entry->size = md.file_size;
  entry->plain = md.plain;
  entry->records.reset();
  if (hydrated) {
    auto published = std::make_shared<FileRecords>();
    for (size_t i = 0; i < md.records.size(); ++i) {
      published->seq_to_record[md.records[i].header.sequence_number] = i;
    }
    published->metadata = std::move(md);
    entry->records = std::move(published);
  }
  return Status::OK();
}

Status Warehouse::LoadDatalessInventoryLocked(const std::string& path,
                                              CatalogWriter* writer,
                                              LoadStats* stats) {
  if (dataless_paths_.count(path)) return Status::OK();
  LAZYETL_ASSIGN_OR_RETURN(mseed::StationInventory inventory,
                           mseed::ReadDataless(path));
  LAZYETL_ASSIGN_OR_RETURN(mseed::FileStatInfo st, mseed::StatFile(path));
  stats->bytes_read += st.size;

  LAZYETL_ASSIGN_OR_RETURN(Table * stations, writer->Mutable(kStationsTable));
  LAZYETL_ASSIGN_OR_RETURN(Table * channels, writer->Mutable(kChannelsTable));
  for (const auto& station : inventory.stations) {
    LAZYETL_RETURN_NOT_OK(stations->AppendRow({
        Value::String(station.network),
        Value::String(station.station),
        Value::Double(station.latitude),
        Value::Double(station.longitude),
        Value::Double(station.elevation),
        Value::String(station.site_name),
    }));
    for (const auto& channel : station.channels) {
      LAZYETL_RETURN_NOT_OK(channels->AppendRow({
          Value::String(station.network),
          Value::String(station.station),
          Value::String(channel.location),
          Value::String(channel.channel),
          Value::Double(channel.latitude),
          Value::Double(channel.longitude),
          Value::Double(channel.elevation),
          Value::Double(channel.local_depth),
          Value::Double(channel.azimuth),
          Value::Double(channel.dip),
          Value::Double(channel.sample_rate),
      }));
    }
  }
  dataless_paths_.insert(path);
  LogOp(LogCategory::kMetadataLoad,
        "loaded station inventory from control headers of " + path + " (" +
            std::to_string(inventory.stations.size()) + " stations)");
  return Status::OK();
}

Status Warehouse::AttachFileLocked(const std::string& path,
                                   const std::string& root,
                                   std::optional<StagedRead> staged,
                                   CatalogWriter* writer, LoadStats* stats) {
  // Dataless SEED volumes hold inventory control headers, not waveforms.
  if (mseed::IsDatalessFilename(fs::path(path).filename().string())) {
    return LoadDatalessInventoryLocked(path, writer, stats);
  }
  FileEntry entry;
  entry.file_id = static_cast<int64_t>(files_.size()) + 1;
  entry.path = path;
  // Watched before the stat the journal keeps: the re-stat that confirms a
  // staged read, else the read's own.
  ChangeJournal::Ticket ticket;
  if (IsLazyStrategy()) ticket = journal_.Watch(entry.file_id, path, root);
  const bool hydrate = options_.strategy != LoadStrategy::kLazyFilenameOnly;
  Result<mseed::FullFile> file =
      staged.has_value() ? ConfirmOrStage(path, mseed::StatFile(path),
                                          std::move(staged), hydrate)
                         : Stage(path, hydrate);
  Status load_status = file.status();
  if (load_status.ok()) {
    load_status = PublishLocked(&entry, std::move(file).MoveValueUnsafe(),
                                hydrate, writer, stats);
  }
  if (!load_status.ok()) {
    journal_.Forget(entry.file_id);
    if (load_status.IsCorruptData() || load_status.IsParseError() ||
        load_status.IsNotImplemented()) {
      // Not an mSEED/SDS file: skip it, the repository may contain stray
      // files (checksums, READMEs).
      LogOp(LogCategory::kMetadataLoad,
            "skipping non-mSEED file " + path + ": " + load_status.ToString());
      return Status::OK();
    }
    return load_status;
  }
  ++stats->files;
  if (IsLazyStrategy()) {
    journal_.Record(entry.file_id, ticket,
                    {entry.size, entry.mtime, entry.plain});
  }
  path_to_file_id_[path] = entry.file_id;
  files_.push_back(std::move(entry));
  return Status::OK();
}

Result<LoadStats> Warehouse::AttachRepository(const std::string& root) {
  Stopwatch timer;
  LoadStats stats;
  LogOp(IsLazyStrategy() ? LogCategory::kMetadataLoad : LogCategory::kEagerLoad,
        std::string("initial loading (") +
            LoadStrategyToString(options_.strategy) + ") of " + root);

  LAZYETL_ASSIGN_OR_RETURN(auto scanned, mseed::ScanRepository(root));
  {
    std::unique_lock lock(meta_mu_);
    CatalogWriter writer(catalog_.get());
    for (const auto& f : scanned) {
      if (path_to_file_id_.count(f.path)) continue;  // already attached
      LAZYETL_RETURN_NOT_OK(
          AttachFileLocked(f.path, root, std::nullopt, &writer, &stats));
    }
    if (std::find(roots_.begin(), roots_.end(), root) == roots_.end()) {
      roots_.push_back(root);
    }
    writer.Publish();
  }
  result_cache_->Clear();

  if (options_.strategy == LoadStrategy::kEager &&
      !options_.persist_dir.empty()) {
    for (const auto& [file, table] : {std::pair{"files", kFilesTable},
                                      {"records", kRecordsTable},
                                      {"data", kDataTable}}) {
      LAZYETL_ASSIGN_OR_RETURN(TablePtr t, catalog_->GetTable(table));
      LAZYETL_RETURN_NOT_OK(storage::WriteTable(
          (fs::path(options_.persist_dir) / file).string(), *t));
    }
    // Remember the attached roots so a reopened warehouse can Refresh().
    std::ofstream roots_file(fs::path(options_.persist_dir) / "roots",
                             std::ios::trunc);
    for (const auto& r : repositories()) roots_file << r << "\n";
    if (!roots_file.good()) {
      return Status::IOError("failed writing roots file in " +
                             options_.persist_dir);
    }
  }

  stats.seconds = timer.ElapsedSeconds();
  LogOp(LogCategory::kGeneral,
        "initial loading done: " + std::to_string(stats.files) + " files, " +
            std::to_string(stats.records) + " records, " +
            std::to_string(stats.samples_loaded) + " samples, " +
            HumanBytes(stats.bytes_read) + " read in " +
            std::to_string(stats.seconds) + "s");
  return stats;
}

namespace {

// Lazy refresh stats only the files whose *cached* metadata satisfies the
// query's file-level predicates, so only predicates that a file's contents
// cannot change may prune: a file may be appended to or rewritten in place,
// but its identity (uri, file id, network, station, location, channel)
// never changes under one path. Content columns such as start_time,
// end_time or file_size never prune.
bool IdentityComparison(const engine::ColumnComparison& cmp) {
  if (cmp.column->base_table != kFilesTable) return false;
  const std::string& column = cmp.column->base_column;
  return column == "file_id" || column == "uri" || column == "network" ||
         column == "station" || column == "location" || column == "channel";
}

// The identity predicate `e` implies, or null when it implies none: an AND
// keeps its identity side(s), an OR only when both sides are.
sql::BoundExprPtr IdentityPart(const sql::BoundExpr& e) {
  const bool is_and = e.kind == sql::ExprKind::kBinary &&
                      e.bin_op == sql::BinaryOp::kAnd;
  const bool is_or = e.kind == sql::ExprKind::kBinary &&
                     e.bin_op == sql::BinaryOp::kOr;
  if (is_and || is_or) {
    sql::BoundExprPtr left = IdentityPart(*e.children[0]);
    sql::BoundExprPtr right = IdentityPart(*e.children[1]);
    if (left == nullptr || right == nullptr) {
      if (is_or) return nullptr;
      return left != nullptr ? std::move(left) : std::move(right);
    }
    auto both = std::make_unique<sql::BoundExpr>();
    both->kind = e.kind;
    both->bin_op = e.bin_op;
    both->type = e.type;
    both->children.push_back(std::move(left));
    both->children.push_back(std::move(right));
    return both;
  }
  engine::ColumnComparison cmp;
  if (engine::MatchColumnComparison(e, &cmp) && IdentityComparison(cmp)) {
    return e.Clone();
  }
  return nullptr;
}

void CollectColumnRefs(const sql::BoundExpr& e,
                       std::vector<const sql::BoundExpr*>* refs) {
  if (e.kind == sql::ExprKind::kColumnRef) refs->push_back(&e);
  for (const auto& child : e.children) CollectColumnRefs(*child, refs);
}

}  // namespace

Result<std::vector<int64_t>> Warehouse::CandidateFileIds(
    const sql::BoundQuery& query) {
  LAZYETL_ASSIGN_OR_RETURN(TablePtr files, catalog_->GetTable(kFilesTable));
  LAZYETL_ASSIGN_OR_RETURN(size_t fid_idx, files->ColumnIndex("file_id"));
  const auto& fids = files->column(fid_idx).int64_data();

  sql::BoundExprPtr identity =
      query.where != nullptr ? IdentityPart(*query.where) : nullptr;
  if (identity == nullptr) return std::vector<int64_t>(fids.begin(), fids.end());

  // Evaluate over a zero-copy view of the immutable snapshot (no registry
  // lock needed), each column named the way the predicate refers to it:
  // "F.station" in the dataview, "station" on the base table.
  std::vector<const sql::BoundExpr*> refs;
  CollectColumnRefs(*identity, &refs);
  storage::TableSlice view;
  std::set<std::string> added;
  for (const sql::BoundExpr* ref : refs) {
    if (!added.insert(ref->display).second) continue;
    LAZYETL_ASSIGN_OR_RETURN(size_t idx, files->ColumnIndex(ref->base_column));
    view.AddColumn(ref->display, &files->column(idx));
  }
  view.SetRange(0, files->num_rows());
  LAZYETL_ASSIGN_OR_RETURN(storage::SelectionVector sel,
                           engine::EvaluatePredicate(*identity, view));
  std::vector<int64_t> out;
  out.reserve(sel.size());
  for (uint32_t row : sel) out.push_back(fids[row]);
  return out;
}

Status Warehouse::Reconcile(const std::vector<int64_t>& fids,
                            bool need_records, ExecutionReport* report,
                            std::vector<FileSnapshot>* snapshots) {
  // Whether a load must read record metadata, and whether a file loaded at
  // (mtime, size), hydrated or not, is current at stat `st`.
  const bool hydrate =
      options_.strategy != LoadStrategy::kLazyFilenameOnly || need_records;
  auto current = [hydrate](NanoTime mtime, uint64_t size, bool hydrated,
                           const mseed::FileStatInfo& st) {
    return st.mtime == mtime && st.size == size && (hydrated || !hydrate);
  };
  // A file not settled in step 1; its snapshot is written back at the end.
  struct Pending {
    size_t index = 0;
    std::string path;
    bool stale = false;  // known stale without a stat: `stat` is vouched
    mseed::FileStatInfo stat;
    bool stage = false;
    std::optional<StagedRead> staged;
    FileSnapshot snapshot;
  };
  std::vector<Pending> pending;
  if (snapshots != nullptr) snapshots->assign(fids.size(), FileSnapshot());

  // 1. Classify (shared lock). A vanished file keeps an empty snapshot.
  ChangeJournal::Batch batch = journal_.BeginBatch();
  {
    std::shared_lock lock(meta_mu_);
    for (size_t i = 0; i < fids.size(); ++i) {
      const int64_t fid = fids[i];
      if (fid < 1 || static_cast<size_t>(fid) > files_.size()) continue;
      const FileEntry& entry = files_[fid - 1];
      if (entry.file_id == 0) continue;
      mseed::FileStatInfo st;
      const bool vouched = batch.Vouched(fid, &st);
      if (vouched &&
          current(entry.mtime, entry.size, entry.records != nullptr, st)) {
        if (snapshots != nullptr) {
          (*snapshots)[i] = {fid, entry.mtime, entry.size, entry.records,
                             false};
        }
        continue;
      }
      pending.push_back({i, entry.path, vouched, st, false, std::nullopt,
                         {fid, entry.mtime, entry.size, entry.records, false}});
    }
  }

  // 2. Stage (no lock).
  bool any_staged = false;
  for (Pending& p : pending) {
    FileSnapshot& snapshot = p.snapshot;
    if (!p.stale) {
      auto st = batch.Stat(snapshot.file_id, p.path, &report->files_statted);
      if (!st.ok()) {
        if (!st.status().IsNotFound()) return st.status();
        snapshot = FileSnapshot();
        continue;
      }
      if (current(snapshot.mtime, snapshot.size, snapshot.records != nullptr,
                  *st)) {
        continue;
      }
      p.stat = *st;
    }
    p.stage = any_staged = true;
    if (options_.strategy == LoadStrategy::kEager) continue;
    p.staged.emplace(p.stat.mtime, p.stat.size, Stage(p.path, hydrate));
  }

  // 3. Publish (exclusive lock, one COW session), only when something was
  // staged. Re-checked against the registry too: another caller may have
  // published the file meanwhile.
  if (any_staged) {
    std::unique_lock lock(meta_mu_);
    CatalogWriter writer(catalog_.get());
    LoadStats loaded;
    size_t hydrated = 0;
    for (Pending& p : pending) {
      if (!p.stage) continue;
      FileSnapshot& snapshot = p.snapshot;
      FileEntry& entry = files_[snapshot.file_id - 1];
      if (entry.file_id == 0) {  // tombstoned by a concurrent Refresh()
        snapshot = FileSnapshot();
        continue;
      }
      auto st = mseed::StatFile(entry.path);
      if (!st.ok()) {
        if (!st.status().IsNotFound()) return st.status();
        snapshot = FileSnapshot();
        continue;
      }
      if (!current(entry.mtime, entry.size, entry.records != nullptr, *st)) {
        LAZYETL_ASSIGN_OR_RETURN(
            mseed::FullFile file,
            ConfirmOrStage(entry.path, *st, std::move(p.staged), hydrate));
        if (st->mtime != entry.mtime || st->size != entry.size) {
          LogOp(LogCategory::kRefresh,
                "metadata refresh: " + entry.path +
                    " changed; re-loading its metadata");
        }
        if (hydrate && entry.records == nullptr) ++hydrated;
        LAZYETL_RETURN_NOT_OK(PublishLocked(&entry, std::move(file), hydrate,
                                            &writer, &loaded));
        snapshot.reloaded = true;
      }
      snapshot.mtime = entry.mtime;
      snapshot.size = entry.size;
      snapshot.records = entry.records;
    }
    writer.Publish();
    report->bytes_read += loaded.bytes_read;
    report->files_hydrated += hydrated;
    if (hydrated > 0) {
      LogOp(LogCategory::kMetadataLoad,
            "deferred metadata: hydrated " + std::to_string(hydrated) +
                " files for this query");
    }
  }
  if (snapshots != nullptr) {
    for (Pending& p : pending) (*snapshots)[p.index] = std::move(p.snapshot);
  }
  return Status::OK();
}

Result<LoadStats> Warehouse::AttachPersisted(const std::string& persist_dir) {
  if (options_.strategy != LoadStrategy::kEager) {
    return Status::InvalidArgument(
        "AttachPersisted requires the eager strategy");
  }
  Stopwatch timer;
  LogOp(LogCategory::kEagerLoad,
        "re-opening persisted warehouse from " + persist_dir);

  LAZYETL_ASSIGN_OR_RETURN(
      Table files, storage::ReadTable((fs::path(persist_dir) / "files").string()));
  LAZYETL_ASSIGN_OR_RETURN(
      Table records,
      storage::ReadTable((fs::path(persist_dir) / "records").string()));
  LAZYETL_ASSIGN_OR_RETURN(
      Table data, storage::ReadTable((fs::path(persist_dir) / "data").string()));

  std::unique_lock lock(meta_mu_);
  if (!files_.empty()) {
    return Status::InvalidArgument(
        "AttachPersisted requires a fresh warehouse");
  }

  // Rebuild the file registry from the files table.
  LAZYETL_ASSIGN_OR_RETURN(size_t fid_idx, files.ColumnIndex("file_id"));
  LAZYETL_ASSIGN_OR_RETURN(size_t uri_idx, files.ColumnIndex("uri"));
  LAZYETL_ASSIGN_OR_RETURN(size_t size_idx, files.ColumnIndex("file_size"));
  LAZYETL_ASSIGN_OR_RETURN(size_t mtime_idx,
                           files.ColumnIndex("last_modified"));
  const auto& fids = files.column(fid_idx).int64_data();
  int64_t max_id = 0;
  for (int64_t fid : fids) max_id = std::max(max_id, fid);
  files_.assign(static_cast<size_t>(max_id), FileEntry{});  // tombstones
  for (size_t row = 0; row < fids.size(); ++row) {
    FileEntry& entry = files_[fids[row] - 1];
    entry.file_id = fids[row];
    entry.path = files.column(uri_idx).StringAt(row);
    entry.size =
        static_cast<uint64_t>(files.column(size_idx).int64_data()[row]);
    entry.mtime = files.column(mtime_idx).int64_data()[row];
    path_to_file_id_[entry.path] = entry.file_id;
  }

  LoadStats stats;
  stats.files = fids.size();
  stats.records = records.num_rows();
  stats.samples_loaded = data.num_rows();
  LAZYETL_ASSIGN_OR_RETURN(uint64_t disk_bytes,
                           storage::DirectoryBytes(persist_dir));
  stats.bytes_read = disk_bytes;

  catalog_->PutTable(kFilesTable, std::make_shared<Table>(std::move(files)));
  catalog_->PutTable(kRecordsTable,
                     std::make_shared<Table>(std::move(records)));
  catalog_->PutTable(kDataTable, std::make_shared<Table>(std::move(data)));

  // Restore the repository roots for Refresh().
  std::ifstream roots_file(fs::path(persist_dir) / "roots");
  std::string line;
  while (std::getline(roots_file, line)) {
    line = Trim(line);
    if (!line.empty()) roots_.push_back(line);
  }

  result_cache_->Clear();
  stats.seconds = timer.ElapsedSeconds();
  LogOp(LogCategory::kEagerLoad,
        "persisted warehouse reopened: " + std::to_string(stats.files) +
            " files, " + std::to_string(stats.samples_loaded) + " samples");
  return stats;
}

Result<QueryResult> Warehouse::Query(const std::string& sql) {
  return Query(sql, QueryOptions());
}

int64_t Warehouse::ResolveQueueTimeoutMs(int64_t query_timeout_ms) const {
  if (query_timeout_ms > 0) return query_timeout_ms;
  if (query_timeout_ms < 0) return 0;  // explicit "never", beats the default
  return options_.queue_timeout_ms > 0 ? options_.queue_timeout_ms : 0;
}

uint64_t Warehouse::EstimateColdExtractionBytes(
    const std::vector<int64_t>& candidates) const {
  uint64_t bytes = 0;
  std::shared_lock lock(meta_mu_);
  for (int64_t fid : candidates) {
    if (fid < 1 || static_cast<size_t>(fid) > files_.size()) continue;
    const FileEntry& entry = files_[fid - 1];
    if (entry.file_id == 0) continue;
    bytes += entry.size;
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// The query lifecycle. Compile (parse, bind) and Plan are shared by Explain,
// Query and OpenCursor. Prepare adds everything that touches shared state —
// admission, lazy refresh/hydration, the result-cache probe and, on a
// miss, opening the execution — and hands back a QueryCursor. OpenCursor
// streams that cursor; Query drains it with an unbounded window.
// Completion (final report, whole-result admission, release) is one step
// for both.
// ---------------------------------------------------------------------------

struct Warehouse::CompiledQuery {
  sql::BoundQuery bound;
  // Files the lazy refresh statted: the one candidate set of this query,
  // shared by refresh, hydration and the cold-footprint estimate.
  std::vector<int64_t> candidates;
};

Result<Warehouse::CompiledQuery> Warehouse::Compile(const std::string& sql,
                                                    bool refresh,
                                                    ExecutionReport* report) {
  report->sql = sql;
  CompiledQuery compiled;
  Stopwatch phase;
  LAZYETL_ASSIGN_OR_RETURN(sql::SelectStatement stmt, sql::Parse(sql));
  report->parse_seconds = phase.ElapsedSeconds();

  phase.Restart();
  sql::Binder binder(catalog_.get());
  LAZYETL_ASSIGN_OR_RETURN(compiled.bound, binder.Bind(stmt));
  report->bind_seconds = phase.ElapsedSeconds();

  if (refresh && IsLazyStrategy()) {
    // Lazy refreshment (§3.3): before executing, reconcile the candidate
    // files — re-load the metadata of any that changed and, when the query
    // reads records, hydrate filename-only metadata — so the result-cache
    // probe and the metadata phase of the plan see the current repository
    // state. The candidates are pruned on identity columns only, which a
    // reload cannot change; a vanished one fails in extraction.
    LAZYETL_ASSIGN_OR_RETURN(compiled.candidates,
                             CandidateFileIds(compiled.bound));
    report->files_stat_checked += compiled.candidates.size();
    const bool needs_records = compiled.bound.view != nullptr ||
                               compiled.bound.base_table == kRecordsTable ||
                               compiled.bound.base_table == kDataTable;
    LAZYETL_RETURN_NOT_OK(
        Reconcile(compiled.candidates, needs_records, report, nullptr));
  }
  return compiled;
}

Result<engine::PlannedQuery> Warehouse::Plan(const sql::BoundQuery& bound,
                                             ExecutionReport* report) {
  Stopwatch phase;
  std::set<std::string> lazy_tables;
  if (IsLazyStrategy()) lazy_tables.insert(kDataTable);
  engine::Planner planner(catalog_.get(), lazy_tables,
                          options_.enable_metadata_pruning);
  LAZYETL_ASSIGN_OR_RETURN(engine::PlannedQuery planned, planner.Plan(bound));
  report->plan_before = planned.naive_plan;
  report->plan_after = planned.plan->ToString();
  report->plan_seconds = phase.ElapsedSeconds();
  LogOp(LogCategory::kPlan,
        "compile-time reorganisation done (metadata predicates first)");
  return planned;
}

engine::CachedResultPtr Warehouse::ProbeResultCache(const std::string& sql,
                                                    ExecutionReport* report) {
  // Each dependency is checked against the change journal; only a file it
  // does not vouch for is statted, under its path in the registry.
  std::optional<ChangeJournal::Batch> batch;
  auto fresh = [&](const engine::CachedResult& cached) {
    for (const engine::ResultDependency& dep : cached.deps) {
      if (!batch.has_value()) batch.emplace(journal_.BeginBatch());
      mseed::FileStatInfo st;
      if (!batch->Vouched(dep.file_id, &st)) {
        std::string path;
        {
          std::shared_lock lock(meta_mu_);
          const FileEntry& entry = files_[dep.file_id - 1];  // never shrinks
          if (entry.file_id == 0) return false;  // deleted since
          path = entry.path;
        }
        auto current = batch->Stat(dep.file_id, path, &report->files_statted);
        if (!current.ok()) return false;
        st = *current;
      }
      if (st.mtime != dep.mtime) return false;
    }
    return true;
  };
  return result_cache_->Lookup(sql, fresh);
}

struct QueryCursor::Impl {
  Stopwatch total;
  Stopwatch exec_phase;
  engine::ExecutionReport report;

  // Execution state, declared in reverse teardown order: the execution
  // cursor joins its drive loop before executor/provider/context go away,
  // and operators hold pointers into `planned.plan`, which must outlive
  // them. `qctx` owns the admission ticket, the carved budget, and the
  // spill directory — resetting it is the exactly-once release point.
  std::unique_ptr<engine::QueryContext> qctx;
  std::unique_ptr<WarehouseDataProvider> provider;
  std::unique_ptr<engine::Executor> executor;
  engine::PlannedQuery planned;
  std::unique_ptr<engine::ExecutionCursor> exec;

  // A result-cache hit is served in batch-sized slices instead of being
  // executed.
  std::shared_ptr<const Table> served;
  size_t served_offset = 0;

  // Whole-result admission at completion, one rule for Query() and
  // cursors: a result is admitted when it spans at most `admit_limit`
  // batches (cursor_window_batches) and the cache was not cleared since
  // `generation` was read, before parsing (see engine::LruCache). Null
  // `result_cache`: the tier is off or already answered the query.
  // Query() retains every batch (`keep_all`) to return it — served ones
  // too; a cursor retains only while the result may still be admitted.
  engine::ResultCache* result_cache = nullptr;
  uint64_t generation = 0;
  size_t admit_limit = 0;
  bool keep_all = false;
  bool retaining = false;
  size_t retained_batches = 0;
  Table retained;

  // The warehouse's drive-loop counters, added to at release.
  std::atomic<uint64_t>* serial_drives = nullptr;
  std::atomic<uint64_t>* parallel_drives = nullptr;

  size_t batch_rows = engine::kDefaultBatchRows;
  uint64_t rows_streamed = 0;
  uint64_t peak_buffered_bytes = 0;
  bool emitted_first = false;
  bool released = false;

  // The next in-order batch (the first always carries the schema);
  // false at end of stream, after Complete. Errors release like Close.
  Result<bool> Pull(engine::Batch* batch) {
    if (served != nullptr) {
      const size_t total_rows = served->num_rows();
      if (emitted_first && served_offset >= total_rows) return Complete();
      const size_t n = std::min(batch_rows, total_rows - served_offset);
      batch->view = served->Slice(served_offset, n);
      served_offset += n;
    } else {
      auto more = exec->Next(batch);
      if (!more.ok()) {
        Release();
        return more.status();
      }
      if (!*more) return Complete();
    }
    emitted_first = true;
    rows_streamed += batch->num_rows();
    if (retaining) LAZYETL_RETURN_NOT_OK(Retain(batch->view));
    return true;
  }

  Status Retain(const storage::TableSlice& view) {
    if (!keep_all && retained_batches == admit_limit) {
      retaining = false;  // outgrew the admission limit
      retained = Table();
      return Status::OK();
    }
    if (retained_batches++ > 0) return retained.AppendSlice(view);
    retained = view.Materialize();
    return Status::OK();
  }

  // End of stream, shared by both paths: admit a result retained whole,
  // with every file it depends on, then release. Returns false, the
  // end-of-stream answer of Pull.
  bool Complete() {
    if (result_cache != nullptr && retaining &&
        retained_batches <= admit_limit) {
      auto entry = std::make_shared<engine::CachedResult>();
      entry->encoded = engine::CachedResult::Encode(retained);
      entry->deps = provider->deps();
      const uint64_t bytes = entry->Bytes(report.sql);
      result_cache->Admit(report.sql, std::move(entry), bytes, generation);
    }
    Release();
    LogOp(LogCategory::kQuery,
          "query done: " + std::to_string(rows_streamed) + " rows in " +
              std::to_string(report.total_seconds) + "s");
    return false;
  }

  // Drains the query into one table — Query()'s whole back half.
  Result<QueryResult> Drain() {
    engine::Batch batch;
    while (true) {
      LAZYETL_ASSIGN_OR_RETURN(bool more, Pull(&batch));
      if (!more) break;
      batch = engine::Batch();
    }
    return QueryResult{std::move(retained), std::move(report)};
  }

  // Exactly-once teardown: cancel + join the drive loop, close the
  // operator tree (finalizing the report), then release the query
  // context — ticket slot, chained budget reservation, spill temp dir.
  void Release() {
    if (released) return;
    released = true;
    if (exec != nullptr) {
      exec->Close();
      peak_buffered_bytes = exec->peak_buffered_bytes();
      serial_drives->fetch_add(report.serial_drives,
                               std::memory_order_relaxed);
      parallel_drives->fetch_add(report.parallel_drives,
                                 std::memory_order_relaxed);
    }
    if (qctx != nullptr) report.execute_seconds = exec_phase.ElapsedSeconds();
    report.result_rows = rows_streamed;
    report.total_seconds = total.ElapsedSeconds();
    exec.reset();
    executor.reset();
    provider.reset();
    qctx.reset();
    served.reset();
  }
};

QueryCursor::QueryCursor() : impl_(std::make_unique<Impl>()) {}

QueryCursor::~QueryCursor() { Close(); }

void QueryCursor::Close() {
  if (impl_ != nullptr) impl_->Release();
}

const engine::ExecutionReport& QueryCursor::report() const {
  return impl_->report;
}

uint64_t QueryCursor::rows_streamed() const { return impl_->rows_streamed; }

uint64_t QueryCursor::peak_buffered_bytes() const {
  if (impl_->exec != nullptr) return impl_->exec->peak_buffered_bytes();
  return impl_->peak_buffered_bytes;
}

Result<bool> QueryCursor::Next(storage::Table* out) {
  Impl& im = *impl_;
  if (im.released) return false;
  engine::Batch batch;
  LAZYETL_ASSIGN_OR_RETURN(bool more, im.Pull(&batch));
  if (more) *out = batch.view.Materialize();
  return more;
}

Result<std::unique_ptr<QueryCursor>> Warehouse::Prepare(
    const std::string& sql, const QueryOptions& query_options,
    size_t window_batches) {
  auto cursor = std::unique_ptr<QueryCursor>(new QueryCursor());
  QueryCursor::Impl& im = *cursor->impl_;
  ExecutionReport& report = im.report;
  im.batch_rows = options_.batch_rows == SIZE_MAX ? engine::kDefaultBatchRows
                                                  : options_.batch_rows;
  im.serial_drives = &serial_drives_;
  im.parallel_drives = &parallel_drives_;

  common::AdmissionRequest request;
  request.priority = query_options.priority;
  request.client_id = query_options.client_id;
  request.client_weight = query_options.client_weight;
  request.queue_timeout_ms =
      ResolveQueueTimeoutMs(query_options.queue_timeout_ms);

  // Admission control: policy-driven ticket, held (RAII, via the
  // QueryContext) for the query's whole lifetime. The ticket's budget —
  // carved from the process-global cap — governs breaker state,
  // extraction windows and (via the recycler's governor) cache
  // admissions. Only footprint-aware admission needs the plan before the
  // ticket; otherwise admit first, so the scheduler bound also caps
  // concurrent metadata refresh/hydration work. A queue timeout fails
  // here with DeadlineExceeded before any state is touched.
  common::QueryTicket ticket;
  auto admit = [&]() -> Status {
    LAZYETL_ASSIGN_OR_RETURN(ticket, scheduler_->Admit(request));
    report.ticket_id = ticket.id();
    report.queue_wait_seconds = ticket.queue_wait_seconds();
    report.admitted_budget_bytes = ticket.admitted_budget_bytes();
    report.priority = common::QueryPriorityToString(request.priority);
    report.client_id = request.client_id;
    report.estimated_footprint_bytes = request.estimated_bytes;
    LogOp(LogCategory::kQuery,
          "query (ticket " + std::to_string(ticket.id()) + ", priority " +
              report.priority +
              (options_.footprint_aware_admission
                   ? ", estimated footprint " +
                         std::to_string(request.estimated_bytes) + " B"
                   : "") +
              "): " + sql);
    return Status::OK();
  };
  if (!options_.footprint_aware_admission) LAZYETL_RETURN_NOT_OK(admit());

  // The result may be admitted only under the metadata version it is
  // computed from: read the cache generation before the refresh.
  im.generation = result_cache_->generation();
  LAZYETL_ASSIGN_OR_RETURN(CompiledQuery compiled,
                           Compile(sql, /*refresh=*/true, &report));

  // Whole-result recycling, probed once: after the refresh, whose reloads
  // clear the cache (a result lists only the files it read), and before
  // planning. A hit needs no execution resources: the ticket (under
  // footprint-aware admission, taken with estimate 0) is released as this
  // returns.
  im.admit_limit = options_.cursor_window_batches;
  im.keep_all = window_batches == 0;  // Query() always keeps its result
  im.retaining = im.keep_all;
  if (options_.enable_result_cache) {
    if (engine::CachedResultPtr cached = ProbeResultCache(sql, &report)) {
      report.result_cache_hit = true;
      LAZYETL_ASSIGN_OR_RETURN(Table table, cached->Decode());
      im.served = std::make_shared<const Table>(std::move(table));
      if (options_.footprint_aware_admission) LAZYETL_RETURN_NOT_OK(admit());
      LogOp(LogCategory::kCache, "query answered from result cache");
      return cursor;
    }
    im.result_cache = result_cache_.get();
    im.retaining = true;  // a cursor retains what it may admit
  }

  LAZYETL_ASSIGN_OR_RETURN(im.planned, Plan(compiled.bound, &report));

  // Footprint-aware admission: estimate from the just-built plan, then
  // take the ticket.
  if (options_.footprint_aware_admission) {
    const uint64_t lazy_bytes =
        IsLazyStrategy() ? EstimateColdExtractionBytes(compiled.candidates)
                         : 0;
    request.estimated_bytes =
        engine::EstimatePlanFootprint(*im.planned.plan, *catalog_, lazy_bytes);
    LAZYETL_RETURN_NOT_OK(admit());
  }

  // Per-query execution state: the context adopts the admission ticket
  // (so the slot is held until the query completes or closes) and labels
  // its spill directory with the ticket id; the provider carries the
  // query's result-cache dependencies.
  im.exec_phase.Restart();
  im.qctx = std::make_unique<engine::QueryContext>(std::move(ticket),
                                                   options_.spill_dir);
  im.provider = std::make_unique<WarehouseDataProvider>(this, im.qctx.get());
  engine::ExecutorOptions exec_options;
  exec_options.batch_rows = options_.batch_rows;
  exec_options.query_threads = options_.query_threads;
  im.executor = std::make_unique<engine::Executor>(
      catalog_.get(), im.provider.get(), exec_options);

  LAZYETL_ASSIGN_OR_RETURN(
      im.exec, im.executor->OpenCursor(*im.planned.plan, &report,
                                       im.qctx.get(), window_batches));
  return cursor;
}

Result<QueryResult> Warehouse::Query(const std::string& sql,
                                     const QueryOptions& query_options) {
  LAZYETL_ASSIGN_OR_RETURN(std::unique_ptr<QueryCursor> cursor,
                           Prepare(sql, query_options, /*window_batches=*/0));
  return cursor->impl_->Drain();
}

Result<std::unique_ptr<QueryCursor>> Warehouse::OpenCursor(
    const std::string& sql) {
  return OpenCursor(sql, QueryOptions());
}

Result<std::unique_ptr<QueryCursor>> Warehouse::OpenCursor(
    const std::string& sql, const QueryOptions& query_options) {
  return Prepare(sql, query_options, options_.cursor_window_batches);
}

Result<engine::ExecutionReport> Warehouse::Explain(const std::string& sql) {
  ExecutionReport report;
  LAZYETL_ASSIGN_OR_RETURN(CompiledQuery compiled,
                           Compile(sql, /*refresh=*/false, &report));
  LAZYETL_RETURN_NOT_OK(Plan(compiled.bound, &report).status());
  report.total_seconds =
      report.parse_seconds + report.bind_seconds + report.plan_seconds;
  return report;
}

Result<RefreshStats> Warehouse::Refresh() {
  Stopwatch timer;
  RefreshStats stats;
  LogOp(LogCategory::kRefresh, "refresh: re-scanning repositories");

  // Re-add the watches the journal lost and forget what it vouched for
  // before anything is checked: the explicit rescan also covers changes no
  // event reports (see ChangeJournal), which a vouched stat would hide from
  // the reconcile below.
  journal_.Rearm();

  // Pass 1 (no lock): walk the repositories. The directory scan is the
  // bulk of a no-op refresh; keeping it off the registry lock means
  // polling refreshes never stall concurrent queries.
  const std::vector<std::string> roots = repositories();
  std::vector<mseed::ScannedFile> scanned_all;
  std::vector<size_t> root_of;  // parallel to scanned_all
  std::unordered_set<std::string> seen;
  for (size_t r = 0; r < roots.size(); ++r) {
    LAZYETL_ASSIGN_OR_RETURN(auto scanned, mseed::ScanRepository(roots[r]));
    for (auto& f : scanned) {
      seen.insert(f.path);
      scanned_all.push_back(std::move(f));
      root_of.push_back(r);
    }
  }

  // Pass 2 (shared lock): classify against the registry — paths never
  // attached, attached files whose scanned (mtime, size) moved, and those
  // the scan no longer found.
  std::vector<const mseed::ScannedFile*> new_files;
  std::vector<int64_t> changed;
  std::vector<int64_t> vanished;
  {
    std::shared_lock lock(meta_mu_);
    for (const auto& f : scanned_all) {
      if (dataless_paths_.count(f.path) != 0) continue;
      auto it = path_to_file_id_.find(f.path);
      if (it == path_to_file_id_.end()) {
        new_files.push_back(&f);
        continue;
      }
      const FileEntry& entry = files_[it->second - 1];
      if (f.mtime != entry.mtime || f.size != entry.size) {
        changed.push_back(entry.file_id);
      }
    }
    for (const auto& entry : files_) {
      if (entry.file_id != 0 && !seen.count(entry.path)) {
        vanished.push_back(entry.file_id);
      }
    }
  }

  // Pass 3: reload the changed files; those gone since the scan come back
  // empty and join the vanished.
  ExecutionReport report;
  std::vector<FileSnapshot> reconciled;
  LAZYETL_RETURN_NOT_OK(
      Reconcile(changed, /*need_records=*/false, &report, &reconciled));
  stats.bytes_read += report.bytes_read;
  for (size_t i = 0; i < changed.size(); ++i) {
    if (reconciled[i].file_id == 0) vanished.push_back(changed[i]);
    if (reconciled[i].reloaded) ++stats.modified_files;
  }

  // Pass 4 (no lock): read the new files. Eager ones are read at attach,
  // one at a time, as Reconcile does.
  std::vector<std::optional<StagedRead>> staged(new_files.size());
  if (options_.strategy != LoadStrategy::kEager) {
    const bool hydrate = options_.strategy != LoadStrategy::kLazyFilenameOnly;
    for (size_t i = 0; i < new_files.size(); ++i) {
      const mseed::ScannedFile* f = new_files[i];
      staged[i].emplace(f->mtime, f->size, Stage(f->path, hydrate));
    }
  }

  // Pass 5 (exclusive, only when files came or went): attach the new ones
  // and tombstone the vanished, in one COW session. Re-checked under the
  // lock — a concurrent AttachRepository() or Refresh() may have raced us.
  if (!new_files.empty() || !vanished.empty()) {
    std::unique_lock lock(meta_mu_);
    CatalogWriter writer(catalog_.get());
    for (size_t i = 0; i < new_files.size(); ++i) {
      const mseed::ScannedFile* f = new_files[i];
      if (path_to_file_id_.count(f->path)) continue;
      LoadStats ls;
      LAZYETL_RETURN_NOT_OK(AttachFileLocked(
          f->path, roots[root_of[f - scanned_all.data()]],
          std::move(staged[i]), &writer, &ls));
      stats.bytes_read += ls.bytes_read;
      if (ls.files > 0) ++stats.new_files;
    }
    for (int64_t fid : vanished) {
      FileEntry& entry = files_[fid - 1];
      if (entry.file_id == 0) continue;
      // Any stat failure, not only a missing file, counts as vanished, so an
      // unreadable path cannot fail every later Refresh(); a file that
      // exists again is never tombstoned.
      if (mseed::StatFile(entry.path).ok()) continue;
      ++stats.deleted_files;
      record_cache_->EraseIf(
          [fid](const RecordKey& k) { return k.file_id == fid; });
      for (const char* name : {kFilesTable, kRecordsTable, kDataTable}) {
        if (name == kDataTable && IsLazyStrategy()) continue;
        LAZYETL_ASSIGN_OR_RETURN(Table * table, writer.Mutable(name));
        LAZYETL_RETURN_NOT_OK(RemoveFileRows(table, entry.file_id).status());
      }
      path_to_file_id_.erase(entry.path);
      journal_.Forget(entry.file_id);
      entry.file_id = 0;  // tombstone
      entry.records.reset();
    }
    writer.Publish();
  }

  result_cache_->Clear();
  stats.seconds = timer.ElapsedSeconds();
  LogOp(LogCategory::kRefresh,
        "refresh done: " + std::to_string(stats.new_files) + " new, " +
            std::to_string(stats.modified_files) + " modified, " +
            std::to_string(stats.deleted_files) + " deleted");
  return stats;
}

CacheContents Warehouse::CachedKeys() const {
  return {record_cache_->Keys(), result_cache_->Keys()};
}

void Warehouse::ClearCaches() {
  record_cache_->Clear();
  result_cache_->Clear();
  ResetCacheCounters();
}

void Warehouse::ResetCacheCounters() {
  record_cache_->ResetCounters();
  result_cache_->ResetCounters();
}

WarehouseStats Warehouse::Stats() const {
  WarehouseStats stats;
  stats.strategy = options_.strategy;
  {
    std::shared_lock lock(meta_mu_);
    for (const auto& entry : files_) {
      if (entry.file_id == 0) continue;
      ++stats.num_files;
      if (entry.records != nullptr) ++stats.num_hydrated_files;
      stats.repository_bytes += entry.size;
    }
  }
  stats.catalog_bytes = catalog_->MemoryBytes();
  stats.cache = record_cache_->stats();
  stats.result_cache = result_cache_->stats();
  stats.result_cache_hits = stats.result_cache.hits;
  stats.serial_drives = serial_drives_.load(std::memory_order_relaxed);
  stats.parallel_drives = parallel_drives_.load(std::memory_order_relaxed);
  stats.queries_admitted = scheduler_->total_admitted();
  stats.queries_timed_out = scheduler_->total_timed_out();
  stats.queries_bypass_admitted = scheduler_->total_bypass_admissions();
  stats.queries_active = scheduler_->active();
  stats.queries_waiting = scheduler_->waiting();
  stats.journal = journal_.stats();
  return stats;
}

}  // namespace lazyetl::core
