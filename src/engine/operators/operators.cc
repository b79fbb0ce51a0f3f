// Streaming (non-breaking) operators: Scan, Filter, Project, Limit, the
// fused FilterScan — plus the plan-to-operator translation, the
// materializing drain and the morsel-driven drive loop with its sizing.

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "engine/expr_eval.h"
#include "engine/operators/batch_cursor.h"
#include "engine/operators/internal.h"
#include "engine/operators/join_build.h"
#include "engine/operators/operator.h"
#include "engine/pruning.h"

namespace lazyetl::engine {

using storage::Column;
using storage::SelectionVector;
using storage::Table;
using storage::TablePtr;
using storage::TableSlice;

namespace {

// Probe-side half of the Bloom semi-join pushdown (see JoinBloomSlot in
// internal.h). Open resolves the join-key columns against the scan's
// output slice and pre-hashes their dictionaries; Refine drops selected
// rows whose key hash cannot be in the build side. The hash fold is
// identical to JoinBuild's (seed, per-column value hashes, key order), so
// Refine never drops a row the exact probe would match — the filter is an
// early-out, not a correctness input.
class BloomProbe {
 public:
  void Open(std::shared_ptr<JoinBloomSlot> slot, const TableSlice& base) {
    slot_ = std::move(slot);
    cols_.clear();
    dict_hashes_.clear();
    if (slot_ == nullptr) return;
    for (const auto& name : slot_->key_names) {
      auto idx = base.ColumnIndex(name);
      if (!idx.ok()) {  // advisory filter: a miss disables, never errors
        slot_.reset();
        cols_.clear();
        return;
      }
      cols_.push_back(&base.column(*idx));
    }
    dict_hashes_.resize(cols_.size());
    for (size_t c = 0; c < cols_.size(); ++c) {
      if (cols_[c]->type() == storage::DataType::kString &&
          cols_[c]->dict_encoded()) {
        kernels::HashDictionary(*cols_[c]->dictionary(), &dict_hashes_[c]);
      }
    }
  }

  // The join publishes with release ordering after filling the filter;
  // until then every row passes.
  bool active() const {
    return slot_ != nullptr && slot_->ready.load(std::memory_order_acquire);
  }

  // Keeps only the rows of `sel` (absolute row = base_offset + entry)
  // whose key hash may be in the filter; returns the number dropped.
  size_t Refine(size_t base_offset, SelectionVector* sel) const {
    const size_t n = sel->size();
    if (n == 0) return 0;
    std::vector<uint64_t> hashes(n, kernels::kGroupHashSeed);
    for (size_t c = 0; c < cols_.size(); ++c) {
      kernels::JoinHashRows(
          *cols_[c], base_offset, sel->data(), n,
          dict_hashes_[c].empty() ? nullptr : dict_hashes_[c].data(),
          hashes.data());
    }
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      if (slot_->filter.MayContain(hashes[i])) (*sel)[kept++] = (*sel)[i];
    }
    sel->resize(kept);
    return n - kept;
  }

 private:
  std::shared_ptr<JoinBloomSlot> slot_;
  std::vector<const Column*> cols_;
  std::vector<std::vector<uint64_t>> dict_hashes_;
};

// Scan: emits zero-copy slices over a catalog table, optionally projected
// and renamed to qualified display names. O(#columns) per batch — the
// non-qualifying rows of a selective query are never copied. Parallel
// safe: an atomic cursor hands each worker a disjoint morsel range, and
// seq is the morsel index.
class ScanOperator : public BatchOperator {
 public:
  ScanOperator(TablePtr table, std::vector<ScanColumn> columns,
               const std::string& label, size_t batch_rows,
               std::shared_ptr<JoinBloomSlot> bloom_slot = nullptr)
      : BatchOperator("Scan(" + label + ")"),
        table_(std::move(table)),
        columns_(std::move(columns)),
        batch_rows_(batch_rows),
        bloom_slot_(std::move(bloom_slot)) {}

  bool ParallelSafe() const override { return true; }
  size_t MorselCount() const override {
    return rows_ == 0 ? 0 : (rows_ + step_ - 1) / step_;
  }

 protected:
  Status OpenImpl() override {
    base_ = TableSlice();
    if (columns_.empty()) {
      base_ = TableSlice::FromTable(*table_, 0, 0);
    } else {
      for (const auto& sc : columns_) {
        LAZYETL_ASSIGN_OR_RETURN(const Column* c,
                                 table_->ColumnByName(sc.base_column));
        base_.AddColumn(sc.output_name, c);
      }
    }
    // Snapshot the row count: rows appended mid-query (lazy hydration)
    // become visible to the next query, matching the materialised
    // executor's copy-at-scan semantics.
    rows_ = table_->num_rows();
    step_ = std::min(batch_rows_, std::max<size_t>(rows_, 1));
    offset_.store(0, std::memory_order_relaxed);
    emitted_.store(false, std::memory_order_relaxed);
    bloom_.Open(bloom_slot_, base_);
    return Status::OK();
  }

  Result<bool> NextImpl(Batch* out) override {
    while (true) {
      size_t start = offset_.fetch_add(step_, std::memory_order_relaxed);
      if (start >= rows_) {
        // Exactly one schema-carrying empty batch (restored by the drive
        // loop when running in parallel): the whole output for an empty
        // table, the end-of-stream schema batch when the Bloom pushdown
        // may have dropped every morsel. Without a Bloom slot a non-empty
        // table always emitted a real batch first, so this never fires
        // and the output is unchanged.
        if (!parallel_drive() && !emitted_.exchange(true)) {
          out->view = base_;
          out->view.SetRange(0, 0);
          out->owner = table_;
          out->seq = rows_ == 0 ? 0 : rows_ / step_ + 1;
          return true;
        }
        return false;
      }
      size_t n = std::min(step_, rows_ - start);
      uint64_t seq = start / step_;
      if (bloom_.active()) {
        SelectionVector sel(n);
        for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
        size_t dropped = bloom_.Refine(start, &sel);
        if (dropped > 0) {
          RecordRowsBloomFiltered(dropped);
          if (sel.empty()) continue;
          TableSlice morsel = base_;
          morsel.SetRange(start, n);
          *out = Batch::Materialized(morsel.Gather(sel));
          out->seq = seq;
          emitted_.store(true, std::memory_order_relaxed);
          return true;
        }
      }
      out->view = base_;
      out->view.SetRange(start, n);
      out->owner = table_;
      out->seq = seq;
      emitted_.store(true, std::memory_order_relaxed);
      return true;
    }
  }

 private:
  TablePtr table_;
  std::vector<ScanColumn> columns_;
  size_t batch_rows_;
  std::shared_ptr<JoinBloomSlot> bloom_slot_;
  BloomProbe bloom_;
  TableSlice base_;
  size_t rows_ = 0;
  size_t step_ = 1;
  std::atomic<size_t> offset_{0};
  std::atomic<bool> emitted_{false};
};

// Filter: evaluates the predicate per batch into a selection vector and
// gathers the qualifying rows. An all-pass batch is forwarded unchanged
// (zero-copy, record runs included); all-drop batches are skipped. Parallel safe when the child
// is: predicate evaluation and gather touch only the worker's own batch.
// The predicate is prepared once, against the child's first batch (an
// operator's batches share one schema, which it cannot tell before).
class FilterOperator : public BatchOperator {
 public:
  FilterOperator(const sql::BoundExpr* predicate, BatchOperatorPtr child)
      : BatchOperator("Filter"), predicate_(predicate) {
    AddChild(std::move(child));
  }

  bool ParallelSafe() const override { return child()->ParallelSafe(); }
  size_t MorselCount() const override { return child()->MorselCount(); }

 protected:
  Result<bool> NextImpl(Batch* out) override {
    while (true) {
      Batch in;
      LAZYETL_ASSIGN_OR_RETURN(bool more, child()->Next(&in));
      if (!more) {
        if (parallel_drive()) return false;
        if (!emitted_.exchange(true)) {
          std::lock_guard<std::mutex> lock(empty_mu_);
          *out = Batch::Materialized(std::move(empty_));
          return true;
        }
        return false;
      }
      std::call_once(prepared_once_, [&] {
        prepared_ = PreparePredicate(*predicate_, in.view);
      });
      LAZYETL_ASSIGN_OR_RETURN(SelectionVector sel,
                               EvaluatePredicate(prepared_, in.view));
      if (sel.size() == in.num_rows()) {
        *out = std::move(in);
        emitted_.store(true);
        return true;
      }
      if (sel.empty()) {
        if (!emitted_.load()) {
          std::lock_guard<std::mutex> lock(empty_mu_);
          if (!empty_captured_) {
            empty_ = in.view.Gather({});  // schema for EOS
            empty_captured_ = true;
          }
        }
        continue;
      }
      uint64_t seq = in.seq;
      *out = Batch::Materialized(in.view.Gather(sel));
      out->seq = seq;
      emitted_.store(true);
      return true;
    }
  }

 private:
  const sql::BoundExpr* predicate_;
  std::once_flag prepared_once_;
  PreparedPredicate prepared_;
  std::mutex empty_mu_;
  Table empty_;
  bool empty_captured_ = false;
  std::atomic<bool> emitted_{false};
};

// FilterScan: Filter fused into Scan (selection-vector pushdown). The
// predicate is evaluated directly on zero-copy morsel views of the base
// table; all-pass morsels are forwarded without any copy, all-drop
// morsels are skipped without leaving the operator, and — on the serial
// path — qualifying rows of highly selective predicates are accumulated
// across morsels into one batch-sized gather instead of one small gather
// per input batch. Reports stats as the Filter/Scan pair it replaces.
class FilterScanOperator : public BatchOperator {
 public:
  FilterScanOperator(TablePtr table, std::vector<ScanColumn> columns,
                     const std::string& label, const sql::BoundExpr* predicate,
                     size_t batch_rows,
                     std::shared_ptr<JoinBloomSlot> bloom_slot = nullptr)
      : BatchOperator("Filter"),
        table_(std::move(table)),
        columns_(std::move(columns)),
        predicate_(predicate),
        batch_rows_(batch_rows),
        bloom_slot_(std::move(bloom_slot)) {
    scan_stats_.op = "Scan(" + label + ")";
  }

  bool ParallelSafe() const override { return true; }

  // The morsels the zone maps do not prune.
  size_t MorselCount() const override {
    size_t morsels = 0;
    for (size_t start = 0; start < rows_; start += step_) {
      if (RangeCanMatch(constraints_, start, std::min(step_, rows_ - start))) {
        ++morsels;
      }
    }
    return morsels;
  }

  // The fused operator stands in for a Filter above a Scan: report both
  // stages so pipeline introspection stays shaped like the plan. The
  // scan stage reports the morsels it viewed; its time cannot be
  // separated from predicate evaluation, so `seconds` is attributed
  // wholly to the Filter entry.
  void AppendStats(std::vector<OperatorStats>* out) const override {
    out->push_back(stats_);
    out->back().self_seconds = stats_.seconds;
    OperatorStats scan = scan_stats_;
    scan.rows = scanned_rows_.load(std::memory_order_relaxed);
    scan.batches = scanned_batches_.load(std::memory_order_relaxed);
    scan.peak_batch_bytes = scanned_peak_bytes_.load(std::memory_order_relaxed);
    scan.morsels_pruned = morsels_pruned_.load(std::memory_order_relaxed);
    scan.rows_pruned = rows_pruned_.load(std::memory_order_relaxed);
    scan.rows_bloom_filtered =
        rows_bloom_filtered_.load(std::memory_order_relaxed);
    out->push_back(scan);
  }

 protected:
  Status OpenImpl() override {
    base_ = TableSlice();
    if (columns_.empty()) {
      base_ = TableSlice::FromTable(*table_, 0, 0);
    } else {
      for (const auto& sc : columns_) {
        LAZYETL_ASSIGN_OR_RETURN(const Column* c,
                                 table_->ColumnByName(sc.base_column));
        base_.AddColumn(sc.output_name, c);
      }
    }
    rows_ = table_->num_rows();
    step_ = std::min(batch_rows_, std::max<size_t>(rows_, 1));
    offset_.store(0, std::memory_order_relaxed);
    emitted_.store(false, std::memory_order_relaxed);
    pending_.clear();
    pending_first_seq_ = 0;
    // The predicate is analysed once, here, for both morsel evaluation
    // and the zone-map constraints of morsel pruning (empty — prune
    // nothing — when disabled, when statistics are missing, or when the
    // predicate is not a conjunction of column-literal comparisons).
    prepared_ = PreparePredicate(*predicate_, base_);
    constraints_.clear();
    if (PruningEnabled()) {
      constraints_ = ExtractScanConstraints(prepared_, base_, *table_);
    }
    bloom_.Open(bloom_slot_, base_);
    return Status::OK();
  }

  Result<bool> NextImpl(Batch* out) override {
    while (true) {
      size_t start = offset_.fetch_add(step_, std::memory_order_relaxed);
      if (start >= rows_) {
        if (parallel_drive()) return false;
        if (!pending_.empty()) return FlushPending(out);
        if (!emitted_.exchange(true)) {
          // Schema-carrying empty batch (zero-copy: the base slice).
          out->view = base_;
          out->view.SetRange(0, 0);
          out->owner = table_;
          out->seq = rows_ / step_ + 1;
          return true;
        }
        return false;
      }
      size_t n = std::min(step_, rows_ - start);
      // Zone-map pruning: a morsel whose chunk statistics prove no row can
      // satisfy the predicate is equivalent to an all-drop morsel — skip it
      // without viewing any data.
      if (!constraints_.empty() && !RangeCanMatch(constraints_, start, n)) {
        morsels_pruned_.fetch_add(1, std::memory_order_relaxed);
        rows_pruned_.fetch_add(n, std::memory_order_relaxed);
        continue;
      }
      TableSlice morsel = base_;
      morsel.SetRange(start, n);
      scanned_rows_.fetch_add(n, std::memory_order_relaxed);
      scanned_batches_.fetch_add(1, std::memory_order_relaxed);
      uint64_t viewed = morsel.ViewedBytes();
      uint64_t prev = scanned_peak_bytes_.load(std::memory_order_relaxed);
      while (viewed > prev && !scanned_peak_bytes_.compare_exchange_weak(
                                  prev, viewed, std::memory_order_relaxed)) {
      }
      LAZYETL_ASSIGN_OR_RETURN(SelectionVector sel,
                               EvaluatePredicate(prepared_, morsel));
      if (bloom_.active()) {
        // sel entries are morsel-relative; absolute row = start + entry.
        rows_bloom_filtered_.fetch_add(bloom_.Refine(start, &sel),
                                       std::memory_order_relaxed);
      }
      uint64_t seq = start / step_;
      if (sel.size() == n && pending_.empty()) {
        out->view = std::move(morsel);
        out->owner = table_;
        out->seq = seq;
        emitted_.store(true, std::memory_order_relaxed);
        return true;
      }
      if (sel.empty()) continue;
      if (parallel_drive()) {
        // Per-morsel emission keeps seq a pure function of the morsel.
        *out = Batch::Materialized(morsel.Gather(sel));
        out->seq = seq;
        emitted_.store(true, std::memory_order_relaxed);
        return true;
      }
      // Serial: accumulate absolute row ids until a full output batch is
      // ready, then gather once — selective predicates skip the per-morsel
      // gather entirely.
      if (pending_.empty()) pending_first_seq_ = seq;
      for (uint32_t rel : sel) {
        pending_.push_back(static_cast<uint32_t>(start) + rel);
      }
      if (pending_.size() >= batch_rows_) return FlushPending(out);
    }
  }

 private:
  Result<bool> FlushPending(Batch* out) {
    TableSlice all = base_;
    all.SetRange(0, rows_);
    *out = Batch::Materialized(all.Gather(pending_));
    out->seq = pending_first_seq_;
    pending_.clear();
    emitted_.store(true, std::memory_order_relaxed);
    return true;
  }

  TablePtr table_;
  std::vector<ScanColumn> columns_;
  const sql::BoundExpr* predicate_;
  size_t batch_rows_;
  std::shared_ptr<JoinBloomSlot> bloom_slot_;
  BloomProbe bloom_;
  TableSlice base_;
  size_t rows_ = 0;
  size_t step_ = 1;
  std::atomic<size_t> offset_{0};
  std::atomic<bool> emitted_{false};
  std::atomic<uint64_t> scanned_rows_{0};
  std::atomic<uint64_t> scanned_batches_{0};
  std::atomic<uint64_t> scanned_peak_bytes_{0};
  std::atomic<uint64_t> morsels_pruned_{0};
  std::atomic<uint64_t> rows_pruned_{0};
  std::atomic<uint64_t> rows_bloom_filtered_{0};
  PreparedPredicate prepared_;
  std::vector<ScanConstraint> constraints_;
  SelectionVector pending_;  // absolute row ids, serial path only
  uint64_t pending_first_seq_ = 0;
  OperatorStats scan_stats_;
};

// Project: evaluates the projection expressions per batch. Stateless, so
// parallel-safe whenever the child is.
class ProjectOperator : public BatchOperator {
 public:
  ProjectOperator(const PlanNode* node, BatchOperatorPtr child)
      : BatchOperator("Project"), node_(node) {
    AddChild(std::move(child));
  }

  bool ParallelSafe() const override { return child()->ParallelSafe(); }
  size_t MorselCount() const override { return child()->MorselCount(); }

 protected:
  Result<bool> NextImpl(Batch* out) override {
    Batch in;
    LAZYETL_ASSIGN_OR_RETURN(bool more, child()->Next(&in));
    if (!more) return false;
    Table projected;
    for (size_t i = 0; i < node_->project_exprs.size(); ++i) {
      LAZYETL_ASSIGN_OR_RETURN(Column c,
                               EvaluateExpr(*node_->project_exprs[i], in.view));
      LAZYETL_RETURN_NOT_OK(
          projected.AddColumn(node_->project_names[i], std::move(c)));
    }
    uint64_t seq = in.seq;
    *out = Batch::Materialized(std::move(projected));
    out->seq = seq;
    out->record_runs = std::move(in.record_runs);  // rows map 1:1
    return true;
  }

 private:
  const PlanNode* node_;
};

// Limit: forwards batches until the limit is reached, truncating the last
// one with a zero-copy prefix view; then stops pulling the child (early
// exit — an upstream scan never produces the unneeded rows). Inherently
// serial: the prefix depends on arrival order.
class LimitOperator : public BatchOperator {
 public:
  LimitOperator(int64_t limit, BatchOperatorPtr child)
      : BatchOperator("Limit"),
        remaining_(static_cast<size_t>(std::max<int64_t>(0, limit))) {
    AddChild(std::move(child));
  }

 protected:
  Result<bool> NextImpl(Batch* out) override {
    if (remaining_ == 0 && emitted_) return false;
    Batch in;
    LAZYETL_ASSIGN_OR_RETURN(bool more, child()->Next(&in));
    if (!more) return false;
    if (in.num_rows() > remaining_) {
      out->view = in.view.Prefix(remaining_);
      out->owner = std::move(in.owner);
      out->seq = in.seq;
      remaining_ = 0;
    } else {
      remaining_ -= in.num_rows();
      *out = std::move(in);
    }
    emitted_ = true;
    return true;
  }

 private:
  size_t remaining_;
  bool emitted_ = false;
};

// A join is eligible for the Bloom semi-join pushdown when its probe side
// is a Scan (possibly under a Filter, which fuses into FilterScan) whose
// output carries every probe-side join key. The slot is allocated fresh
// per operator-tree build, so re-executing a cached plan can never see a
// stale filter. Under kAuto the join still decides at run time whether
// the build side is big enough to publish.
std::shared_ptr<JoinBloomSlot> MaybeMakeJoinBloomSlot(const PlanNode& plan) {
  if (ResolveJoinBloomMode() == JoinBloomMode::kOff) return nullptr;
  const PlanNode* scan = plan.children[1].get();
  if (scan->type == PlanNodeType::kFilter) scan = scan->children[0].get();
  if (scan->type != PlanNodeType::kScan) return nullptr;
  if (!scan->scan_columns.empty()) {
    for (const auto& key : plan.right_keys) {
      bool found = false;
      for (const auto& sc : scan->scan_columns) {
        if (sc.output_name == key) {
          found = true;
          break;
        }
      }
      if (!found) return nullptr;
    }
  }
  auto slot = std::make_shared<JoinBloomSlot>();
  slot->key_names = plan.right_keys;
  return slot;
}

// Builds a join's probe subtree with the Bloom slot threaded into its
// scan. With no slot this is plain BuildOperatorTree; with one, the node
// shape was already vetted by MaybeMakeJoinBloomSlot (Scan, or Filter
// over Scan — replicating the fusion of the kFilter case below).
Result<BatchOperatorPtr> BuildProbeSide(
    const PlanNode& node, ExecContext* ctx,
    const std::shared_ptr<JoinBloomSlot>& slot) {
  if (slot == nullptr) return BuildOperatorTree(node, ctx);
  if (node.type == PlanNodeType::kScan) {
    LAZYETL_ASSIGN_OR_RETURN(TablePtr table,
                             ctx->catalog->GetTable(node.table));
    return BatchOperatorPtr(std::make_unique<ScanOperator>(
        std::move(table), node.scan_columns, node.table, ctx->batch_rows,
        slot));
  }
  const PlanNode& below = *node.children[0];
  LAZYETL_ASSIGN_OR_RETURN(TablePtr table,
                           ctx->catalog->GetTable(below.table));
  return BatchOperatorPtr(std::make_unique<FilterScanOperator>(
      std::move(table), below.scan_columns, below.table,
      node.predicate.get(), ctx->batch_rows, slot));
}

}  // namespace

Status ParallelDrain(BatchOperator* op, size_t threads,
                     const BatchSink& sink) {
  return ParallelDrain(op, threads, sink, nullptr);
}

size_t DriveWorkers(BatchOperator* op, size_t threads) {
  size_t workers = 1;
  if (threads > 1 && op->ParallelSafe()) {
    const size_t morsels = op->MorselCount();
    workers = morsels == kUnknownMorsels
                  ? threads
                  : std::clamp<size_t>(
                        (morsels + kMorselsPerWorker - 1) / kMorselsPerWorker,
                        1, threads);
  }
  op->RecordDrive(workers);
  return workers;
}

Status ParallelDrain(BatchOperator* op, size_t threads, const BatchSink& sink,
                     const WorkerDone& done) {
  threads = DriveWorkers(op, threads);
  if (threads <= 1) {
    Batch batch;
    while (true) {
      LAZYETL_ASSIGN_OR_RETURN(bool more, op->Next(&batch));
      if (!more) break;
      LAZYETL_RETURN_NOT_OK(sink(0, std::move(batch)));
      batch = Batch();
    }
    if (done) done(0);
    return Status::OK();
  }

  op->SetParallelDrive(true);
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> produced{0};
  std::mutex error_mu;
  Status first_error;

  common::ThreadPool::Shared().ParallelFor(
      threads, threads, [&](size_t worker) {
        Batch batch;
        while (!failed.load(std::memory_order_relaxed)) {
          auto more = op->Next(&batch);
          Status st = more.ok() ? Status::OK() : more.status();
          if (st.ok() && !*more) break;
          if (st.ok()) {
            produced.fetch_add(1, std::memory_order_relaxed);
            st = sink(worker, std::move(batch));
            batch = Batch();
          }
          if (!st.ok()) {
            std::lock_guard<std::mutex> lock(error_mu);
            if (first_error.ok()) first_error = st;
            failed.store(true, std::memory_order_relaxed);
            break;
          }
        }
        // Fires on every exit path, clean or failed: a sink blocking on
        // this worker's watermark must be released either way.
        if (done) done(worker);
      });
  op->SetParallelDrive(false);
  if (failed.load()) return first_error;

  if (produced.load() == 0) {
    // Restore the at-least-one-batch contract: the schema batch the
    // workers suppressed.
    Batch batch;
    LAZYETL_ASSIGN_OR_RETURN(bool more, op->Next(&batch));
    if (more) LAZYETL_RETURN_NOT_OK(sink(0, std::move(batch)));
  }
  return Status::OK();
}

// Streaming in-order reassembly: the materializing drain is a thin
// consumer over BatchCursor (the resumable, suspended form of this same
// watermark drive loop — see batch_cursor.h), which sizes the loop and
// pulls a one-worker loop inline. An unbounded window keeps the
// historical behavior: the consumer appends every contiguous seq prefix
// while the drain runs, so only out-of-order batches buffer.
Result<Table> DrainToTableOrdered(BatchOperator* op, size_t threads) {
  BatchCursor cursor(op, BatchCursor::Options{threads, /*window_batches=*/0});
  Table result;
  bool first = true;
  Batch batch;
  while (true) {
    LAZYETL_ASSIGN_OR_RETURN(bool more, cursor.Next(&batch));
    if (!more) break;
    if (first) {
      result = batch.view.Materialize();
      first = false;
    } else {
      // On failure the cursor destructor cancels the drive loop.
      LAZYETL_RETURN_NOT_OK(result.AppendSlice(batch.view));
    }
    batch = Batch();
  }
  return result;
}

Result<BatchOperatorPtr> BuildOperatorTree(const PlanNode& plan,
                                           ExecContext* ctx) {
  switch (plan.type) {
    case PlanNodeType::kScan: {
      LAZYETL_ASSIGN_OR_RETURN(TablePtr table,
                               ctx->catalog->GetTable(plan.table));
      return BatchOperatorPtr(std::make_unique<ScanOperator>(
          std::move(table), plan.scan_columns, plan.table, ctx->batch_rows));
    }
    case PlanNodeType::kLazyDataScan:
      return MakeLazyDataScanOperator(plan, ctx);
    case PlanNodeType::kFilter: {
      const PlanNode& below = *plan.children[0];
      if (below.type == PlanNodeType::kScan) {
        // Operator fusion: push the selection vector into the scan. The
        // plan keeps its Filter-over-Scan shape; only execution fuses.
        LAZYETL_ASSIGN_OR_RETURN(TablePtr table,
                                 ctx->catalog->GetTable(below.table));
        return BatchOperatorPtr(std::make_unique<FilterScanOperator>(
            std::move(table), below.scan_columns, below.table,
            plan.predicate.get(), ctx->batch_rows));
      }
      LAZYETL_ASSIGN_OR_RETURN(BatchOperatorPtr child,
                               BuildOperatorTree(below, ctx));
      return BatchOperatorPtr(std::make_unique<FilterOperator>(
          plan.predicate.get(), std::move(child)));
    }
    case PlanNodeType::kHashJoin: {
      LAZYETL_ASSIGN_OR_RETURN(BatchOperatorPtr left,
                               BuildOperatorTree(*plan.children[0], ctx));
      std::shared_ptr<JoinBloomSlot> bloom = MaybeMakeJoinBloomSlot(plan);
      LAZYETL_ASSIGN_OR_RETURN(
          BatchOperatorPtr right,
          BuildProbeSide(*plan.children[1], ctx, bloom));
      return MakeHashJoinOperator(plan, ctx, std::move(left),
                                  std::move(right), std::move(bloom));
    }
    case PlanNodeType::kAggregate: {
      LAZYETL_ASSIGN_OR_RETURN(BatchOperatorPtr child,
                               BuildOperatorTree(*plan.children[0], ctx));
      return MakeAggregateOperator(plan, ctx, std::move(child));
    }
    case PlanNodeType::kProject: {
      LAZYETL_ASSIGN_OR_RETURN(BatchOperatorPtr child,
                               BuildOperatorTree(*plan.children[0], ctx));
      return BatchOperatorPtr(
          std::make_unique<ProjectOperator>(&plan, std::move(child)));
    }
    case PlanNodeType::kDistinct: {
      LAZYETL_ASSIGN_OR_RETURN(BatchOperatorPtr child,
                               BuildOperatorTree(*plan.children[0], ctx));
      return MakeDistinctOperator(plan, ctx, std::move(child));
    }
    case PlanNodeType::kSort: {
      LAZYETL_ASSIGN_OR_RETURN(BatchOperatorPtr child,
                               BuildOperatorTree(*plan.children[0], ctx));
      return MakeSortOperator(plan, ctx, std::move(child));
    }
    case PlanNodeType::kTopK: {
      LAZYETL_ASSIGN_OR_RETURN(BatchOperatorPtr child,
                               BuildOperatorTree(*plan.children[0], ctx));
      return MakeTopKOperator(plan, ctx, std::move(child));
    }
    case PlanNodeType::kLimit: {
      LAZYETL_ASSIGN_OR_RETURN(BatchOperatorPtr child,
                               BuildOperatorTree(*plan.children[0], ctx));
      return BatchOperatorPtr(
          std::make_unique<LimitOperator>(plan.limit, std::move(child)));
    }
  }
  return Status::Internal("unhandled plan node type");
}

}  // namespace lazyetl::engine
