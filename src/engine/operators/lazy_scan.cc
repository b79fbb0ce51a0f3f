// LazyDataScanOperator: the run-time plan modification of §3.1, as a
// streaming operator.
//
// Open() executes the metadata side of the plan (its own operator
// subtree), derives the qualifying (file_id, seq_no) pairs, and asks the
// LazyDataProvider for a *stream* of exactly those records; the provider
// serves them from the recycler cache or extracts them from the source
// files, file by file. Next() joins each arriving record chunk back to
// the metadata side (hash built once over the metadata table), so peak
// memory is the metadata side plus one file's worth of records — never
// the whole qualifying set.
//
// The join works per record, not per sample. A chunk lists the record
// runs its rows come in, one (file_id, seq_no) per run: each run probes
// the metadata hash once, and the run's rows take its matches. Neither key
// is a column of the chunk unless a node above reads it. In the dataview a
// record matches exactly one metadata row, so the chunk's data columns
// move into the output unchanged and the batch carries the record runs on
// (Batch::record_runs); only metadata-side columns that nodes above the
// scan reference (PlanNode::used_above) are filled, once per run — a
// column used only by a metadata predicate or as a join key never is.
//
// Parallelism: the record stream itself is stateful (cache admission,
// report counters) and is pulled under a mutex in deterministic stream
// order — each chunk's seq is its position in the stream. The per-chunk
// join (probing the read-only metadata hash, gathering and moving the
// columns of the joined batch) runs outside the lock, so several query
// workers overlap extraction with join work.

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/macros.h"
#include "common/time.h"
#include "engine/operators/internal.h"
#include "engine/operators/join_build.h"
#include "engine/operators/operator.h"

namespace lazyetl::engine {

using storage::Column;
using storage::DataType;
using storage::SelectionVector;
using storage::Table;

namespace {

// Extracts a column as int64s (for record-key probing).
Result<std::vector<int64_t>> ColumnAsInt64(const Column& col) {
  bool int_like = col.type() == DataType::kBool ||
                  col.type() == DataType::kInt32 ||
                  col.type() == DataType::kInt64 ||
                  col.type() == DataType::kTimestamp;
  if (!int_like) {
    return Status::ExecutionError("expected an integer key column");
  }
  std::vector<int64_t> out(col.size());
  switch (col.type()) {
    case DataType::kInt32:
      for (size_t i = 0; i < col.size(); ++i) out[i] = col.int32_data()[i];
      break;
    case DataType::kBool:
      for (size_t i = 0; i < col.size(); ++i) out[i] = col.bool_data()[i];
      break;
    default:
      out = col.int64_data();
      break;
  }
  return out;
}

class LazyDataScanOperator : public BatchOperator {
 public:
  LazyDataScanOperator(const PlanNode* node, ExecContext* ctx,
                       BatchOperatorPtr metadata_child)
      : BatchOperator("LazyDataScan(" + node->table + ")"),
        node_(node),
        ctx_(ctx) {
    if (metadata_child) AddChild(std::move(metadata_child));
  }

  bool ParallelSafe() const override { return true; }
  // The chunks of the rewritten record stream: one batch each at most.
  size_t MorselCount() const override { return stream_->chunks(); }

 protected:
  Status OpenImpl() override {
    if (ctx_->provider == nullptr) {
      return Status::ExecutionError(
          "plan contains LazyDataScan but no lazy data provider is attached");
    }
    Stopwatch extract_timer;

    if (num_children() == 0) {
      LogOp(LogCategory::kRewrite,
            "run-time rewrite: no metadata side; extracting entire "
            "repository for " + node_->table);
      LAZYETL_ASSIGN_OR_RETURN(
          stream_, ctx_->provider->StreamAllRecords(
                       node_->scan_columns, ctx_->batch_rows, ctx_->report));
      ctx_->report->extract_seconds += extract_timer.ElapsedSeconds();
      return Status::OK();
    }

    // Phase 1: execute the metadata side (its operators were opened by the
    // base-class wrapper). Parallel drain reassembles in seq order, so the
    // metadata table is identical to the serial one.
    LAZYETL_ASSIGN_OR_RETURN(
        meta_, DrainToTableOrdered(child(), ctx_->query_threads));

    // Phase 2 (run-time rewrite): determine the qualifying records.
    LAZYETL_ASSIGN_OR_RETURN(const Column* fid_col,
                             meta_.ColumnByName(node_->probe_file_id_column));
    LAZYETL_ASSIGN_OR_RETURN(const Column* seq_col,
                             meta_.ColumnByName(node_->probe_seq_no_column));
    LAZYETL_ASSIGN_OR_RETURN(std::vector<int64_t> fids,
                             ColumnAsInt64(*fid_col));
    LAZYETL_ASSIGN_OR_RETURN(std::vector<int64_t> seqs,
                             ColumnAsInt64(*seq_col));

    std::vector<RecordKey> keys;
    std::unordered_set<uint64_t> seen;
    keys.reserve(fids.size());
    for (size_t i = 0; i < fids.size(); ++i) {
      uint64_t packed = (static_cast<uint64_t>(fids[i]) << 32) ^
                        static_cast<uint64_t>(static_cast<uint32_t>(seqs[i]));
      if (seen.insert(packed).second) {
        keys.push_back({fids[i], seqs[i]});
      }
    }
    ctx_->report->records_requested += keys.size();
    LogOp(LogCategory::kRewrite,
          "run-time rewrite: metadata phase selected " +
              std::to_string(keys.size()) + " records from " +
              std::to_string(meta_.num_rows()) + " metadata rows");

    // Phase 3: injected operators — cache accesses and file extraction,
    // as a pull stream consumed by Next().
    LAZYETL_ASSIGN_OR_RETURN(
        stream_, ctx_->provider->StreamRecords(
                     keys, node_->scan_columns, node_->sample_times,
                     ctx_->batch_rows, ctx_->report));

    // Phase 4 is streamed: hash the metadata side once; each record chunk
    // probes it on arrival (the hash is read-only from here on, so probes
    // may run concurrently).
    if (node_->left_keys.size() != 2 || node_->right_keys.size() != 2) {
      return Status::InvalidArgument(
          "lazy data scan must join on exactly (file_id, seq_no)");
    }
    Stopwatch join_build_timer;
    LAZYETL_RETURN_NOT_OK(
        build_.Init(&meta_, node_->left_keys, ctx_->query_threads));
    RecordJoinBuild();
    RecordJoinBuildSeconds(join_build_timer.ElapsedSeconds());
    RecordStateBytes(meta_.MemoryBytes() + build_.IndexBytes());
    join_ = true;
    ctx_->report->extract_seconds += extract_timer.ElapsedSeconds();
    return Status::OK();
  }

  Result<bool> NextImpl(Batch* out) override {
    while (true) {
      RecordChunk chunk;
      uint64_t seq = 0;
      bool more = false;
      {
        // The stream mutates shared state (recycler admissions, report
        // counters): pull one chunk at a time. seq is the stream
        // position — deterministic regardless of which worker pulls.
        std::lock_guard<std::mutex> lock(stream_mu_);
        Stopwatch extract_timer;
        LAZYETL_ASSIGN_OR_RETURN(more, stream_->Next(&chunk));
        ctx_->report->extract_seconds += extract_timer.ElapsedSeconds();
        if (more) seq = next_seq_++;
      }
      if (!more) {
        if (parallel_drive()) return false;
        if (!emitted_.exchange(true)) {
          std::lock_guard<std::mutex> lock(empty_mu_);
          *out = Batch::Materialized(std::move(empty_));
          return true;
        }
        return false;
      }
      Table rows;
      SelectionVector record_runs;
      if (join_) {
        LAZYETL_ASSIGN_OR_RETURN(rows,
                                 JoinRecords(std::move(chunk), &record_runs));
      } else {
        rows = std::move(chunk.table);
      }
      if (rows.num_rows() == 0) {
        // Keep one empty batch: the schema for an empty result.
        if (!emitted_.load()) {
          std::lock_guard<std::mutex> lock(empty_mu_);
          if (!empty_captured_) {
            empty_ = std::move(rows);
            empty_captured_ = true;
          }
        }
        continue;
      }
      emitted_.store(true);
      *out = Batch::Materialized(std::move(rows));
      out->seq = seq;
      out->record_runs = std::move(record_runs);
      return true;
    }
  }

 private:
  // Joins one record chunk to the metadata side: each record run probes
  // the metadata hash with its (file_id, seq_no), and every row of the
  // run takes that run's matches. The emitted order is that of a per-row
  // probe: chunk rows in order, each with its metadata rows ascending.
  // When every run matches exactly one metadata row the rows stay in
  // place, and *record_runs receives the runs' first rows.
  Result<Table> JoinRecords(RecordChunk chunk, SelectionVector* record_runs) {
    const size_t n = chunk.table.num_rows();
    const size_t runs = chunk.runs.size();

    Stopwatch probe_timer;
    SelectionVector run_start(runs);
    std::vector<int64_t> fids(runs);
    std::vector<int64_t> seqs(runs);
    for (size_t j = 0; j < runs; ++j) {
      run_start[j] = chunk.runs[j].first_row;
      fids[j] = chunk.runs[j].file_id;
      seqs[j] = chunk.runs[j].seq_no;
    }
    Table heads;
    LAZYETL_RETURN_NOT_OK(heads.AddColumn(node_->right_keys[0],
                                          Column::FromInt64(std::move(fids))));
    LAZYETL_RETURN_NOT_OK(heads.AddColumn(node_->right_keys[1],
                                          Column::FromInt64(std::move(seqs))));
    SelectionVector head_build;  // matched metadata rows, per head ascending
    SelectionVector head_run;    // the run of each match, ascending
    LAZYETL_RETURN_NOT_OK(build_.Probe(heads.Slice(0, runs),
                                       node_->right_keys, &head_build,
                                       &head_run));
    RecordJoinProbeSeconds(probe_timer.ElapsedSeconds());

    // One metadata row per record (the dataview's unique key): every chunk
    // row is emitted once, in place, so the data columns move unchanged.
    bool in_place = head_run.size() == runs;
    for (size_t j = 0; in_place && j < runs; ++j) {
      in_place = head_run[j] == j;
    }
    auto run_end = [&](uint32_t run) {
      return run + 1 < runs ? run_start[run + 1] : static_cast<uint32_t>(n);
    };
    // In place, each used metadata column fills its run's row once per run
    // (run_lengths); otherwise the matches are expanded row by row.
    SelectionVector run_lengths;
    SelectionVector build_sel;
    SelectionVector probe_sel;
    if (in_place) {
      run_lengths.resize(runs);
      for (uint32_t run = 0; run < runs; ++run) {
        run_lengths[run] = run_end(run) - run_start[run];
      }
    } else {
      for (size_t j = 0; j < head_run.size();) {
        const uint32_t run = head_run[j];
        size_t last = j;
        while (last < head_run.size() && head_run[last] == run) ++last;
        for (uint32_t row = run_start[run]; row < run_end(run); ++row) {
          for (size_t m = j; m < last; ++m) {
            build_sel.push_back(head_build[m]);
            probe_sel.push_back(row);
          }
        }
        j = last;
      }
    }

    Table out;
    for (size_t c = 0; c < meta_.num_columns(); ++c) {
      if (!std::binary_search(node_->used_above.begin(),
                              node_->used_above.end(),
                              meta_.column_name(c))) {
        continue;
      }
      const Column& meta = meta_.column(c);
      LAZYETL_RETURN_NOT_OK(out.AddColumn(
          meta_.column_name(c), in_place ? meta.GatherRuns(head_build,
                                                           run_lengths)
                                         : meta.Gather(build_sel)));
    }
    Table& data = chunk.table;
    for (size_t c = 0; c < data.num_columns(); ++c) {
      LAZYETL_RETURN_NOT_OK(out.AddColumn(
          data.column_name(c), in_place ? std::move(data.column(c))
                                        : data.column(c).Gather(probe_sel)));
    }
    if (in_place) *record_runs = std::move(run_start);
    return out;
  }

  const PlanNode* node_;
  ExecContext* ctx_;
  Table meta_;
  JoinBuild build_;
  bool join_ = false;
  std::unique_ptr<RecordStream> stream_;
  std::mutex stream_mu_;
  uint64_t next_seq_ = 0;     // guarded by stream_mu_
  std::mutex empty_mu_;
  Table empty_;  // an empty output batch: the schema of an empty result
  bool empty_captured_ = false;
  std::atomic<bool> emitted_{false};
};

}  // namespace

Result<BatchOperatorPtr> MakeLazyDataScanOperator(const PlanNode& node,
                                                  ExecContext* ctx) {
  BatchOperatorPtr metadata_child;
  if (!node.children.empty()) {
    LAZYETL_ASSIGN_OR_RETURN(metadata_child,
                             BuildOperatorTree(*node.children[0], ctx));
  }
  return BatchOperatorPtr(std::make_unique<LazyDataScanOperator>(
      &node, ctx, std::move(metadata_child)));
}

}  // namespace lazyetl::engine
