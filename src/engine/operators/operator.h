// BatchOperator: the pull-based (Open/Next/Close) operator interface of
// the streaming engine.
//
// Operators exchange Batches — zero-copy TableSlice views paired with an
// optional owner keeping the viewed storage alive. Streaming operators
// (Scan, Filter, Project, Limit) touch one batch at a time; pipeline
// breakers (Sort, TopK, Aggregate, HashJoin build side, Distinct's
// seen-set) consume their input and re-emit batches, recording their
// materialised state in the operator counters.
//
// Invariant: every operator emits at least one (possibly empty) batch
// before end-of-stream, so column names and types always reach the
// consumer even for empty results.
//
// Morsel-driven parallelism: operators whose ParallelSafe() is true may
// have Next() called concurrently from several workers — each call hands
// out a disjoint morsel. Every batch carries a sequence number `seq` that
// is a pure function of the morsel (not of scheduling), so consumers that
// need order (sort input assembly, aggregate merge, the final drain)
// restore the serial order deterministically by sorting on seq.

#ifndef LAZYETL_ENGINE_OPERATORS_OPERATOR_H_
#define LAZYETL_ENGINE_OPERATORS_OPERATOR_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/memory_budget.h"
#include "common/result.h"
#include "common/spill.h"
#include "common/time.h"
#include "engine/executor.h"
#include "engine/report.h"
#include "storage/slice.h"
#include "storage/table.h"

namespace lazyetl::engine {

// One unit of data flowing through the pipeline.
struct Batch {
  storage::TableSlice view;
  // Keep-alive for the storage behind `view`; null when the view borrows
  // from a base table owned elsewhere (e.g. the catalog).
  std::shared_ptr<const storage::Table> owner;
  // Deterministic morsel id: assigned by the source (scan morsel index,
  // stream chunk index, emitter slice index) and preserved by streaming
  // operators. Serial pulls observe strictly increasing seqs; parallel
  // consumers sort on it to recover the serial order.
  uint64_t seq = 0;
  // The rows that start an mSEED record, ascending from 0, when the batch
  // comes in record runs (set by the lazy data scan, forwarded by 1:1
  // operators); empty when unknown.
  storage::SelectionVector record_runs;

  size_t num_rows() const { return view.num_rows(); }

  // Wraps an operator-produced table: the batch owns it and views all of
  // its rows.
  static Batch Materialized(storage::Table table) {
    Batch b;
    b.owner = std::make_shared<const storage::Table>(std::move(table));
    b.view = b.owner->Slice(0, b.owner->num_rows());
    return b;
  }
};

// Drive-loop sizing: a loop over a source that will emit `m` morsels uses
// min(query_threads, ceil(m / kMorselsPerWorker)) workers, so a small
// input runs on the serial path instead of paying for workers it cannot
// keep busy. Set from the measured crossover of bench_parallel's
// input-size sweep (README "Morsel-driven parallelism"): below it, one
// worker beats four on wall time.
inline constexpr size_t kMorselsPerWorker = 16;

// Everything an operator needs from its surroundings.
struct ExecContext {
  const storage::Catalog* catalog = nullptr;
  LazyDataProvider* provider = nullptr;
  ExecutionReport* report = nullptr;
  size_t batch_rows = kDefaultBatchRows;
  // Resolved cap on each drive loop's workers (>= 1; 1 = the serial path);
  // see DriveWorkers.
  size_t query_threads = 1;
  // Memory governance (owned by the Executor, outlives the tree). When
  // `budget` is null or unlimited, breakers keep their in-memory fast
  // paths; otherwise they reserve state bytes against it and spill through
  // `spill` when a reservation fails.
  common::MemoryBudget* budget = nullptr;
  common::SpillManager* spill = nullptr;

  // True when breakers must govern their state with the budget.
  bool budgeted() const { return budget != nullptr && !budget->unlimited(); }
};

class BatchOperator {
 public:
  explicit BatchOperator(std::string name) { stats_.op = std::move(name); }
  virtual ~BatchOperator() = default;

  BatchOperator(const BatchOperator&) = delete;
  BatchOperator& operator=(const BatchOperator&) = delete;

  // Called once before the first Next(); opens children first, then this
  // operator. Pipeline breakers do their consuming work in OpenImpl or
  // lazily on the first Next(); that work is counted in this operator's
  // seconds, inclusive of the children's Open and of the child pulls it
  // performs.
  Status Open() {
    Stopwatch timer;
    Status st;
    for (auto& c : children_) {
      st = c->Open();
      if (!st.ok()) break;
    }
    if (st.ok()) st = OpenImpl();
    stats_.seconds += timer.ElapsedSeconds();  // Open is single-threaded
    return st;
  }

  // Produces the next batch; returns false at end of stream. Wraps
  // NextImpl with timing and batch/row accounting. Thread-safe counter
  // aggregation: under parallel drive, concurrent calls update the stats
  // under a mutex and each add their own time, so `seconds` approximates
  // aggregate worker time (it can exceed wall clock); the serial path
  // skips the lock — only the drive loop ever calls Next concurrently.
  Result<bool> Next(Batch* out) {
    Stopwatch timer;
    auto produced = NextImpl(out);
    double seconds = timer.ElapsedSeconds();
    if (parallel_drive_) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      UpdateStats(produced, *out, seconds);
    } else {
      UpdateStats(produced, *out, seconds);
    }
    return produced;
  }

  // Called once after the last Next() (or on abandon); closes this
  // operator first, then its children.
  void Close() {
    CloseImpl();
    for (auto& child : children_) child->Close();
  }

  // True when Next() may be called concurrently from several workers.
  // Evaluated after Open() (breakers decide their mode there).
  virtual bool ParallelSafe() const { return false; }

  // The morsels Next() will hand a drive loop, exact once Open()ed (a
  // streaming operator forwards its child's count); kUnknownMorsels when
  // it cannot tell. Only asked of parallel-safe operators.
  virtual size_t MorselCount() const { return kUnknownMorsels; }

  // Records the workers of the drive loop that pulls this operator.
  void RecordDrive(size_t workers) { stats_.drive_workers = workers; }

  // Toggled by the parallel driver on the subtree it drives. While set,
  // operators suppress their at-least-one-empty-batch end-of-stream
  // contract (several workers would race to emit it); the driver restores
  // the contract with one serial Next() after the workers joined.
  void SetParallelDrive(bool on) {
    parallel_drive_ = on;
    for (auto& child : children_) child->SetParallelDrive(on);
  }

  const OperatorStats& stats() const { return stats_; }

  // Appends this operator's counters, then its children's (pre-order).
  // Self time is the inclusive time minus the children's inclusive time.
  virtual void AppendStats(std::vector<OperatorStats>* out) const {
    OperatorStats own = stats_;
    double children = 0;
    for (const auto& child : children_) children += child->stats().seconds;
    own.self_seconds = std::max(0.0, own.seconds - children);
    out->push_back(std::move(own));
    for (const auto& child : children_) child->AppendStats(out);
  }

 protected:
  virtual Status OpenImpl() { return Status::OK(); }
  virtual Result<bool> NextImpl(Batch* out) = 0;
  virtual void CloseImpl() {}

  bool parallel_drive() const { return parallel_drive_; }

 public:
  // Pipeline breakers report the bytes of state they hold materialised —
  // on the budgeted path, the peak reserved bytes (recorded just before a
  // spill releases them). Public so the spill helpers in breakers.cc can
  // charge the operator they act for; concurrent consume-phase workers
  // may call these, so updates take the stats lock.
  void RecordStateBytes(uint64_t bytes) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (bytes > stats_.state_bytes) stats_.state_bytes = bytes;
  }
  void RecordSpill(uint64_t bytes, uint64_t files) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.spilled_bytes += bytes;
    stats_.spill_files += files;
  }
  void RecordPartitions(uint64_t count) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.partitions += count;
  }
  // Physical spill bytes (post-compression) and producer time blocked on
  // spill I/O; RecordSpill keeps counting the logical volume.
  void RecordSpillIO(uint64_t compressed_bytes, double wait_seconds) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.spill_compressed_bytes += compressed_bytes;
    stats_.spill_write_wait_seconds += wait_seconds;
  }
  // Hash-join accounting: one call per build-side index, plus the time
  // spent in build/probe phases. Safe from inside NextImpl — Next() takes
  // the stats lock only after NextImpl returns.
  void RecordJoinBuild() {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.join_builds;
  }
  void RecordJoinBuildSeconds(double seconds) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.join_build_seconds += seconds;
  }
  void RecordJoinProbeSeconds(double seconds) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.join_probe_seconds += seconds;
  }
  // Probe rows dropped by the Bloom semi-join pushdown (scan side).
  void RecordRowsBloomFiltered(uint64_t rows) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.rows_bloom_filtered += rows;
  }

 protected:

  void UpdateStats(const Result<bool>& produced, const Batch& batch,
                   double seconds) {
    stats_.seconds += seconds;
    if (produced.ok() && *produced) {
      ++stats_.batches;
      stats_.rows += batch.num_rows();
      uint64_t bytes = batch.view.ViewedBytes();
      if (bytes > stats_.peak_batch_bytes) stats_.peak_batch_bytes = bytes;
    }
  }

  BatchOperator* child(size_t i = 0) { return children_[i].get(); }
  const BatchOperator* child(size_t i = 0) const { return children_[i].get(); }
  void AddChild(std::unique_ptr<BatchOperator> op) {
    children_.push_back(std::move(op));
  }
  size_t num_children() const { return children_.size(); }

  OperatorStats stats_;
  std::mutex stats_mu_;

 private:
  std::vector<std::unique_ptr<BatchOperator>> children_;
  bool parallel_drive_ = false;
};

using BatchOperatorPtr = std::unique_ptr<BatchOperator>;

// Builds the operator tree for `plan`. The context must outlive the tree.
Result<BatchOperatorPtr> BuildOperatorTree(const PlanNode& plan,
                                           ExecContext* ctx);

// The workers a drive loop over the opened `op` uses, at most `threads`:
// 1 (the serial path) unless `op` is parallel-safe, else sized from its
// MorselCount by kMorselsPerWorker (all `threads` when it cannot tell).
// Records the count on `op`.
size_t DriveWorkers(BatchOperator* op, size_t threads);

// Receives drained batches: called concurrently from different workers,
// but serially per worker id. The seqs a given worker delivers are
// strictly increasing (every parallel-safe source hands out morsels
// through a monotone cursor and streaming operators preserve the seq of
// the batch they forward), which is what makes per-worker watermarks
// sound.
using BatchSink = std::function<Status(size_t worker, Batch&& batch)>;

// Invoked once when a worker's drive loop exits — cleanly (its seq
// watermark becomes +infinity) or on failure (it will deliver no further
// batches). Either way the worker stops participating in watermark
// ordering, so a sink applying backpressure can release peers that were
// waiting on it.
using WorkerDone = std::function<void(size_t worker)>;

// Morsel-driven drive loop: pulls `op` from DriveWorkers(op, threads)
// concurrent workers (plain serial pull when that is 1) and hands every
// batch to `sink`; worker ids stay below `threads`. Guarantees the
// at-least-one-batch contract: if the parallel phase produced nothing,
// one serial pull fetches the schema batch.
Status ParallelDrain(BatchOperator* op, size_t threads,
                     const BatchSink& sink);
Status ParallelDrain(BatchOperator* op, size_t threads, const BatchSink& sink,
                     const WorkerDone& done);

// Drains an already-opened operator into one materialised table (the
// caller owns Open/Close) through a drive loop of DriveWorkers(op,
// threads) workers: batches are reassembled in seq order, so the result
// is byte-identical to the serial drain. Used by breakers that need their
// input whole and by LazyDataScan's metadata side. Streaming
// in-order flush: per-worker seq watermarks let every contiguous seq
// prefix append to the result while the drain is still running, so the
// transient buffering holds only out-of-order batches instead of the
// whole input (~2× before).
Result<storage::Table> DrainToTableOrdered(BatchOperator* op,
                                           size_t threads);

}  // namespace lazyetl::engine

#endif  // LAZYETL_ENGINE_OPERATORS_OPERATOR_H_
