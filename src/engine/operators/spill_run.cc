#include "engine/operators/spill_run.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <utility>

#include "common/macros.h"
#include "engine/kernels.h"
#include "engine/operators/join_build.h"
#include "engine/operators/operator.h"

namespace lazyetl::engine {

using storage::Column;
using storage::DataType;
using storage::SelectionVector;
using storage::Table;

int CompareColumnRows(const Column& a, size_t ar, const Column& b,
                      size_t br) {
  switch (a.type()) {
    case DataType::kString: {
      int cmp = a.StringAt(ar).compare(b.StringAt(br));
      return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    }
    case DataType::kDouble:
      return kernels::CompareDoubles(a.double_data()[ar], b.double_data()[br]);
    case DataType::kBool: {
      int va = a.bool_data()[ar];
      int vb = b.bool_data()[br];
      return va < vb ? -1 : (va > vb ? 1 : 0);
    }
    case DataType::kInt32: {
      int32_t va = a.int32_data()[ar];
      int32_t vb = b.int32_data()[br];
      return va < vb ? -1 : (va > vb ? 1 : 0);
    }
    default: {  // kInt64 / kTimestamp
      int64_t va = a.int64_data()[ar];
      int64_t vb = b.int64_data()[br];
      return va < vb ? -1 : (va > vb ? 1 : 0);
    }
  }
}

size_t SpillPartitionOf(const std::string& key, size_t level, size_t fanout) {
  uint64_t h = std::hash<std::string>{}(key);
  h += 0x9E3779B97F4A7C15ull * (level + 1);
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return static_cast<size_t>(h % fanout);
}

Table SortRunRows(const Table& table, size_t order_cols,
                  const std::vector<bool>& ascending) {
  const size_t n = table.num_rows();
  const size_t first = table.num_columns() - order_cols;
  SelectionVector idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(), [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < order_cols; ++k) {
      const Column& c = table.column(first + k);
      int cmp = CompareColumnRows(c, a, c, b);
      if (cmp != 0) return ascending[k] ? cmp < 0 : cmp > 0;
    }
    return false;  // unreachable: the last order column is a unique tag
  });
  return table.Gather(idx);
}

Result<SpillWriteStats> WriteRunFile(const Table& table, size_t frame_rows,
                                     common::SpillManager* spill,
                                     std::string* path_out) {
  LAZYETL_ASSIGN_OR_RETURN(std::string path, spill->NewFilePath());
  storage::SpillWriter writer;
  LAZYETL_RETURN_NOT_OK(writer.Open(path, table.schema()));
  const size_t n = table.num_rows();
  const size_t step = std::max<size_t>(1, frame_rows);
  for (size_t off = 0; off < n; off += step) {
    LAZYETL_RETURN_NOT_OK(
        writer.Append(table.Slice(off, std::min(step, n - off))));
  }
  LAZYETL_RETURN_NOT_OK(writer.Finish());
  *path_out = path;
  SpillWriteStats stats;
  stats.logical_bytes = writer.logical_bytes();
  stats.compressed_bytes = writer.bytes_written();
  stats.write_wait_seconds = writer.write_wait_seconds();
  return stats;
}

bool SpillRunsDisjoint(const storage::SpillRunHeader& a,
                       const storage::SpillRunHeader& b,
                       const std::vector<size_t>& a_cols,
                       const std::vector<size_t>& b_cols) {
  if (a.version != 2 || b.version != 2) return false;
  for (size_t k = 0; k < a_cols.size() && k < b_cols.size(); ++k) {
    size_t ca = a_cols[k];
    size_t cb = b_cols[k];
    if (ca >= a.bounds.size() || cb >= b.bounds.size()) continue;
    DataType ta = a.types[ca];
    if (ta != b.types[cb] || ta == DataType::kString ||
        ta == DataType::kDouble) {
      continue;  // only int-like bounds are join-key comparable here
    }
    const auto& ba = a.bounds[ca];
    const auto& bb = b.bounds[cb];
    if (!ba.has_bounds || !bb.has_bounds) continue;
    if (ba.imax < bb.imin || bb.imax < ba.imin) return true;
  }
  return false;
}

Result<SpillWriterVec> OpenPartitionWriters(
    size_t fanout, const storage::TableSchema& schema,
    common::SpillManager* spill) {
  SpillWriterVec writers;
  for (size_t p = 0; p < fanout; ++p) {
    LAZYETL_ASSIGN_OR_RETURN(std::string path, spill->NewFilePath());
    auto writer = std::make_unique<storage::SpillWriter>();
    LAZYETL_RETURN_NOT_OK(writer->Open(path, schema));
    writers.push_back(std::move(writer));
  }
  return writers;
}

Result<std::vector<std::string>> SealPartitionWriters(
    SpillWriterVec* writers, BatchOperator* op, common::SpillManager* spill) {
  std::vector<std::string> paths;
  for (auto& w : *writers) {
    LAZYETL_RETURN_NOT_OK(w->Finish());
    if (w->rows_written() == 0) {
      // Empty partition: nothing to process, nothing worth counting.
      spill->RemoveFile(w->path());
      paths.push_back("");
      continue;
    }
    op->RecordSpill(w->logical_bytes(), 1);
    op->RecordSpillIO(w->bytes_written(), w->write_wait_seconds());
    paths.push_back(w->path());
  }
  writers->clear();
  return paths;
}

Status PartitionTableToWriters(const Table& rows,
                               const std::vector<size_t>& key_cols,
                               size_t level, size_t frame_rows,
                               SpillWriterVec* writers) {
  const size_t fanout = writers->size();
  std::vector<SelectionVector> sel(fanout);
  std::string key;
  for (size_t row = 0; row < rows.num_rows(); ++row) {
    key.clear();
    for (size_t c : key_cols) PackRowKey(rows.column(c), row, &key);
    sel[SpillPartitionOf(key, level, fanout)].push_back(
        static_cast<uint32_t>(row));
  }
  const size_t step = std::max<size_t>(1, frame_rows);
  for (size_t p = 0; p < fanout; ++p) {
    if (sel[p].empty()) continue;
    Table part = rows.Gather(sel[p]);
    for (size_t off = 0; off < part.num_rows(); off += step) {
      LAZYETL_RETURN_NOT_OK((*writers)[p]->Append(
          part.Slice(off, std::min(step, part.num_rows() - off))));
    }
  }
  return Status::OK();
}

// The run header is parsed exactly once here and cached on the Run;
// every (re)open in Advance reuses it. Readers themselves still open
// lazily: a query can accumulate far more runs than the fan-in cap, and
// eagerly holding a file handle plus a decoded frame per run would
// defeat both the fd budget and the memory budget before PrepareFanIn
// gets a chance to bound them.
Status RunMerger::AddSpilledRun(const std::string& path) {
  Run run;
  run.path = path;
  LAZYETL_RETURN_NOT_OK(storage::ReadSpillHeader(path, &run.header));
  const size_t cols = merge_cols();
  if (cols == 0 || asc_.size() < cols) {
    runs_.push_back(std::move(run));
    return Status::OK();
  }
  if (!schema_known_ && run.header.schema.size() >= cols) {
    payload_cols_ = run.header.schema.size() - order_cols_;
    payload_schema_.assign(run.header.schema.begin(),
                           run.header.schema.begin() + payload_cols_);
    schema_known_ = true;
  }
  // Merge-order lower bound from the run-level zone map. The bound is the
  // elementwise per-column extremum oriented by the merge direction; since
  // every run row dominates it elementwise, it is also a lexicographic
  // lower bound, which is what deferral compares against. Only usable when
  // every merge column is int-like with valid bounds.
  if (run.header.version == 2 && run.header.schema.size() >= cols &&
      run.header.bounds.size() == run.header.schema.size()) {
    const size_t first = run.header.schema.size() - cols;
    run.min_key.resize(cols);
    run.has_min_key = true;
    for (size_t k = 0; k < cols; ++k) {
      DataType t = run.header.types[first + k];
      const auto& b = run.header.bounds[first + k];
      if (t == DataType::kString || t == DataType::kDouble || !b.has_bounds) {
        run.has_min_key = false;
        run.min_key.clear();
        break;
      }
      run.min_key[k] = asc_[k] ? b.imin : b.imax;
    }
  }
  runs_.push_back(std::move(run));
  return Status::OK();
}

void RunMerger::AddMemoryRun(Table table) {
  Run run;
  run.current = std::move(table);
  run.opened = true;
  run.done = run.current.num_rows() == 0;
  if (!schema_known_ && run.current.num_columns() >= merge_cols()) {
    payload_cols_ = run.current.num_columns() - order_cols_;
    payload_schema_.assign(run.current.schema().begin(),
                           run.current.schema().begin() + payload_cols_);
    schema_known_ = true;
  }
  runs_.push_back(std::move(run));
}

Status RunMerger::PrepareFanIn() {
  while (runs_.size() > kMaxFanIn) {
    // Merge the first kMaxFanIn runs into one larger spilled run with the
    // order columns preserved, then re-add it. Only the sub-merger's runs
    // are open at any moment, so handles stay bounded by the fan-in.
    RunMerger sub;
    sub.order_cols_ = 0;  // emit all columns, order columns included
    sub.asc_ = asc_;
    sub.merge_cols_ = order_cols_;
    sub.spill_ = spill_;
    sub.prepared_ = true;  // already at fan-in
    sub.runs_.assign(std::make_move_iterator(runs_.begin()),
                     std::make_move_iterator(runs_.begin() + kMaxFanIn));
    runs_.erase(runs_.begin(), runs_.begin() + kMaxFanIn);

    storage::SpillWriter writer;
    std::string path;
    Table chunk;
    while (true) {
      LAZYETL_ASSIGN_OR_RETURN(bool more, sub.Next(4096, &chunk));
      if (!more) break;
      if (path.empty()) {  // schema known after the first merged chunk
        LAZYETL_ASSIGN_OR_RETURN(path, spill_->NewFilePath());
        LAZYETL_RETURN_NOT_OK(writer.Open(path, chunk.schema()));
      }
      LAZYETL_RETURN_NOT_OK(writer.Append(chunk.Slice(0, chunk.num_rows())));
    }
    if (path.empty()) continue;  // all merged runs were empty
    LAZYETL_RETURN_NOT_OK(writer.Finish());
    LAZYETL_RETURN_NOT_OK(AddSpilledRun(path));
  }
  return Status::OK();
}

Status RunMerger::Advance(Run* run) {
  if (run->path.empty()) {  // memory run: one table, no refill
    run->done = true;
    return Status::OK();
  }
  if (run->reader == nullptr) {  // lazy first open; header already parsed
    run->reader = std::make_unique<storage::SpillReader>();
    LAZYETL_RETURN_NOT_OK(run->reader->Open(run->path, &run->header));
  }
  run->opened = true;
  run->cursor = 0;
  while (true) {
    auto more = run->reader->Next(&run->current);
    if (!more.ok()) return more.status();
    if (!*more) {
      run->done = true;
      run->current = Table();
      run->reader.reset();
      if (spill_ != nullptr) spill_->RemoveFile(run->path);
      return Status::OK();
    }
    if (!schema_known_ && run->current.num_columns() >= merge_cols()) {
      payload_cols_ = run->current.num_columns() - order_cols_;
      payload_schema_.assign(run->current.schema().begin(),
                             run->current.schema().begin() + payload_cols_);
      schema_known_ = true;
    }
    if (run->current.num_rows() > 0) return Status::OK();
  }
}

int RunMerger::CompareRuns(const Run& a, size_t ar, const Run& b,
                           size_t br) const {
  const size_t cols = merge_cols();
  const size_t fa = a.current.num_columns() - cols;
  const size_t fb = b.current.num_columns() - cols;
  for (size_t k = 0; k < cols; ++k) {
    int cmp = CompareColumnRows(a.current.column(fa + k), ar,
                                b.current.column(fb + k), br);
    if (cmp != 0) return asc_[k] ? cmp : -cmp;
  }
  return 0;
}

bool RunMerger::RowLess(const Run& a, const Run& b) const {
  return CompareRuns(a, a.cursor, b, b.cursor) < 0;
}

bool RunMerger::BoundAfter(const Run& deferred, const Run& r,
                           size_t row) const {
  if (!deferred.has_min_key) return false;
  const size_t cols = merge_cols();
  const size_t first = r.current.num_columns() - cols;
  for (size_t k = 0; k < cols; ++k) {
    const Column& c = r.current.column(first + k);
    int64_t rv;
    switch (c.type()) {
      case DataType::kBool:
        rv = c.bool_data()[row] ? 1 : 0;
        break;
      case DataType::kInt32:
        rv = c.int32_data()[row];
        break;
      default:  // kInt64 / kTimestamp; min_key excludes string/double runs
        rv = c.int64_data()[row];
        break;
    }
    int64_t bv = deferred.min_key[k];
    if (bv == rv) continue;
    bool bound_first = asc_[k] ? bv < rv : bv > rv;
    return !bound_first;
  }
  return false;  // bound ties the row: the run may hold equal rows — open
}

Result<bool> RunMerger::Next(size_t max_rows, Table* out) {
  if (!prepared_) {
    prepared_ = true;
    LAZYETL_RETURN_NOT_OK(PrepareFanIn());
  }
  // Refill open runs whose frame is exhausted. The first call also opens
  // every run without a usable zone-map bound; runs WITH a bound stay
  // deferred — unopened and undecoded — until the merge head reaches
  // their range below.
  for (Run& run : runs_) {
    if (run.done) continue;
    if (!run.opened) {
      if (run.has_min_key) continue;  // deferred
      LAZYETL_RETURN_NOT_OK(Advance(&run));
    } else if (run.cursor >= run.current.num_rows()) {
      LAZYETL_RETURN_NOT_OK(Advance(&run));
    }
  }
  if (!schema_known_) {
    // Every eagerly-opened run was empty; deferred runs are non-empty by
    // construction, so open them to learn the schema and start merging.
    for (Run& run : runs_) {
      if (!run.done && !run.opened) LAZYETL_RETURN_NOT_OK(Advance(&run));
    }
    if (!schema_known_) return false;  // no run ever produced a frame
  }
  Table result(payload_schema_);
  size_t emitted = 0;
  while (emitted < max_rows) {
    // Linear min-scan: run counts are small (bounded by kMaxFanIn), so a
    // heap buys little.
    Run* best = nullptr;
    for (Run& run : runs_) {
      if (!run.opened || run.cursor >= run.current.num_rows()) continue;
      if (best == nullptr || RowLess(run, *best)) best = &run;
    }
    // Wake any deferred run whose range the merge head has reached.
    bool woke = false;
    for (Run& run : runs_) {
      if (run.done || run.opened) continue;
      if (best == nullptr || !BoundAfter(run, *best, best->cursor)) {
        LAZYETL_RETURN_NOT_OK(Advance(&run));
        woke = true;
      }
    }
    if (woke) continue;  // re-scan with the newly opened runs in play
    if (best == nullptr) break;
    // Bulk fast path: frames are sorted, so when the last row of best's
    // frame still precedes every other head (and every deferred bound),
    // the whole remainder is appended column-at-a-time.
    const size_t frame_rows = best->current.num_rows();
    size_t take = 1;
    if (frame_rows - best->cursor > 1) {
      const size_t last = frame_rows - 1;
      bool bulk = true;
      for (Run& run : runs_) {
        if (&run == best || run.done) continue;
        if (!run.opened) {
          if (!BoundAfter(run, *best, last)) {
            bulk = false;
            break;
          }
        } else if (run.cursor < run.current.num_rows() &&
                   CompareRuns(*best, last, run, run.cursor) >= 0) {
          bulk = false;
          break;
        }
      }
      if (bulk) take = std::min(frame_rows - best->cursor, max_rows - emitted);
    }
    for (size_t c = 0; c < payload_cols_; ++c) {
      LAZYETL_RETURN_NOT_OK(result.column(c).AppendRange(
          best->current.column(c), best->cursor, take));
    }
    emitted += take;
    best->cursor += take;
    if (best->cursor >= frame_rows && !best->done) {
      LAZYETL_RETURN_NOT_OK(Advance(best));
    }
  }
  if (emitted == 0) return false;
  *out = std::move(result);
  return true;
}

}  // namespace lazyetl::engine
