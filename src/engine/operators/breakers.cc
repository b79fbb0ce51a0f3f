// Pipeline breakers: Sort, TopK, Aggregate, Distinct, HashJoin. These
// consume their input batch-at-a-time and re-emit batches. Aggregate and
// Distinct accumulate incrementally (state is O(groups) / O(distinct
// keys), never the whole input); Sort and the HashJoin build side must
// materialise and record that state in the operator counters; TopK keeps
// only a bounded candidate set (O(k) per worker).
//
// Parallelism (morsel-driven): with query_threads > 1 and a parallel-safe
// child, every breaker consumes its input through ParallelDrain — workers
// fold batches into *partial* states that are merged at the end of the
// consume phase. Merges happen in batch-seq order, so results are
// deterministic and independent of scheduling: integer/string aggregates,
// distinct sets, sort orders and top-k sets are byte-identical to the
// serial path; floating-point sums combine per-batch partials in seq
// order (deterministic, but associated differently than the serial
// row-by-row sum — equal up to rounding). Doubles order under
// kernels::CompareDoubles (NaN above every number) in MIN/MAX and in
// sorts alike, so neither depends on where the batches split.

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/memory_budget.h"
#include "common/thread_pool.h"
#include "engine/expr_eval.h"
#include "engine/kernels.h"
#include "engine/operators/internal.h"
#include "engine/operators/join_build.h"
#include "engine/operators/operator.h"
#include "engine/operators/spill_run.h"
#include "storage/spill_format.h"

namespace lazyetl::engine {

using sql::BoundAggregate;
using storage::Column;
using storage::DataType;
using storage::SelectionVector;
using storage::Table;
using storage::TableSchema;
using storage::TableSlice;

namespace {

// Grace partitioning parameters: the fan-out of one partitioning pass and
// the recursion cap. Beyond the cap (e.g. a single key dominating the
// input, which no hash can split) the partition is processed in memory
// even if it overruns the budget — completion is guaranteed, the budget
// becomes best-effort. The same soft-overflow escape applies when a
// partition holds too few groups/rows for splitting to help (fewer than
// kMinSplitGroups / kMinSplitRows): re-partitioning such a partition
// multiplies tiny files without reducing its largest state, so it
// finishes in memory instead — the over-budget transient is bounded by
// that constant, not by the input.
constexpr size_t kSpillFanout = 8;
constexpr size_t kMaxSpillLevel = 6;
constexpr size_t kMinSplitGroups = 128;
constexpr size_t kMinSplitRows = 1024;

// Per-group bookkeeping estimate (hash-map node + tag + accumulator
// entries) used when charging grouped state to the memory budget.
constexpr uint64_t kPerGroupOverhead = 96;

bool IsIntLike(DataType t) {
  return t == DataType::kBool || t == DataType::kInt32 ||
         t == DataType::kInt64 || t == DataType::kTimestamp;
}

// Three-way row comparison under the ORDER BY items; `sort_cols` are the
// evaluated key columns. Negative = row a orders first.
int CompareRows(const std::vector<Column>& sort_cols,
                const std::vector<sql::BoundOrderItem>& items, size_t a,
                size_t b) {
  for (size_t k = 0; k < sort_cols.size(); ++k) {
    const Column& c = sort_cols[k];
    int cmp = 0;
    if (c.type() == DataType::kString) {
      cmp = c.StringAt(a).compare(c.StringAt(b));
      cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    } else if (c.type() == DataType::kDouble) {
      cmp = kernels::CompareDoubles(c.double_data()[a], c.double_data()[b]);
    } else if (IsIntLike(c.type())) {
      // Exact integer path: doubles corrupt wide int64/timestamps.
      int64_t ia, ib;
      if (c.type() == DataType::kInt32) {
        ia = c.int32_data()[a];
        ib = c.int32_data()[b];
      } else if (c.type() == DataType::kBool) {
        ia = c.bool_data()[a];
        ib = c.bool_data()[b];
      } else {
        ia = c.int64_data()[a];
        ib = c.int64_data()[b];
      }
      cmp = ia < ib ? -1 : (ia > ib ? 1 : 0);
    } else {
      double va = c.NumericAt(a);
      double vb = c.NumericAt(b);
      cmp = va < vb ? -1 : (va > vb ? 1 : 0);
    }
    if (cmp != 0) return items[k].ascending ? cmp : -cmp;
  }
  return 0;
}

// Stable-sorts `idx` with `threads` workers: contiguous chunks are sorted
// concurrently, then merged pairwise (std::inplace_merge is stable and
// every left chunk holds lower original positions than its right chunk,
// so the result is exactly the serial std::stable_sort order).
template <typename Less>
void ParallelStableSort(std::vector<uint32_t>* idx, size_t threads,
                        const Less& less) {
  size_t n = idx->size();
  if (threads <= 1 || n < 4096) {
    std::stable_sort(idx->begin(), idx->end(), less);
    return;
  }
  size_t chunks = std::min(threads, n);
  std::vector<size_t> bounds(chunks + 1);
  for (size_t c = 0; c <= chunks; ++c) bounds[c] = c * n / chunks;

  auto& pool = common::ThreadPool::Shared();
  pool.ParallelFor(chunks, threads, [&](size_t c) {
    std::stable_sort(idx->begin() + bounds[c], idx->begin() + bounds[c + 1],
                     less);
  });
  for (size_t width = 1; width < chunks; width *= 2) {
    std::vector<size_t> starts;
    for (size_t c = 0; c + width < chunks; c += 2 * width) starts.push_back(c);
    pool.ParallelFor(starts.size(), threads, [&](size_t j) {
      size_t c = starts[j];
      std::inplace_merge(idx->begin() + bounds[c],
                         idx->begin() + bounds[c + width],
                         idx->begin() + bounds[std::min(c + 2 * width, chunks)],
                         less);
    });
  }
}

// Evaluates the ORDER BY key expressions over `input` with `threads`
// workers: the table is split into contiguous chunks, each (item, chunk)
// pair evaluates independently, and the chunk columns are concatenated in
// order. Expression evaluation is pure and row-wise, so the result is
// byte-identical to the serial whole-table evaluation.
Result<std::vector<Column>> EvaluateSortKeys(
    const Table& input, const std::vector<sql::BoundOrderItem>& items,
    size_t threads) {
  std::vector<Column> keys;
  const size_t n = input.num_rows();
  if (threads <= 1 || n < 8192 || items.empty()) {
    for (const auto& item : items) {
      LAZYETL_ASSIGN_OR_RETURN(Column c, EvaluateExpr(*item.expr, input));
      keys.push_back(std::move(c));
    }
    return keys;
  }

  const size_t chunks = std::min(threads, n / 4096);
  std::vector<size_t> bounds(chunks + 1);
  for (size_t c = 0; c <= chunks; ++c) bounds[c] = c * n / chunks;
  std::vector<std::vector<Column>> parts(
      items.size(), std::vector<Column>(chunks, Column(DataType::kInt64)));
  std::mutex err_mu;
  Status err;
  common::ThreadPool::Shared().ParallelFor(
      items.size() * chunks, threads, [&](size_t j) {
        size_t item = j / chunks;
        size_t c = j % chunks;
        TableSlice slice = input.Slice(bounds[c], bounds[c + 1] - bounds[c]);
        auto col = EvaluateExpr(*items[item].expr, slice);
        if (!col.ok()) {
          std::lock_guard<std::mutex> lock(err_mu);
          if (err.ok()) err = col.status();
          return;
        }
        parts[item][c] = std::move(*col);
      });
  LAZYETL_RETURN_NOT_OK(err);
  for (size_t item = 0; item < items.size(); ++item) {
    Column key = std::move(parts[item][0]);
    for (size_t c = 1; c < chunks; ++c) {
      LAZYETL_RETURN_NOT_OK(key.AppendColumn(parts[item][c]));
    }
    keys.push_back(std::move(key));
  }
  return keys;
}

// Gathers the picked rows column-by-column across workers.
Table ParallelGather(const Table& input, const SelectionVector& sel,
                     size_t threads) {
  if (threads <= 1 || input.num_columns() <= 1) return input.Gather(sel);
  std::vector<Column> cols(input.num_columns(), Column(DataType::kInt64));
  common::ThreadPool::Shared().ParallelFor(
      input.num_columns(), threads,
      [&](size_t c) { cols[c] = input.column(c).Gather(sel); });
  Table out;
  for (size_t c = 0; c < input.num_columns(); ++c) {
    Status st = out.AddColumn(input.column_name(c), std::move(cols[c]));
    (void)st;  // same-length columns from the same table cannot mismatch
  }
  return out;
}

// --------------------------------------------------------------------------
// Sort
// --------------------------------------------------------------------------

// External sort (budget mode): workers accumulate <payload, evaluated
// keys, arrival tag> run buffers and spill them — sorted — whenever the
// memory reservation fails; a k-way streaming merge over the runs then
// emits batches in sorted order. The arrival tag (seq, row) is a unique
// total tie-break, so the merged sequence equals the in-memory stable
// sort byte-for-byte regardless of where the spill boundaries fell.
class SortOperator : public BatchOperator {
 public:
  SortOperator(const PlanNode* node, ExecContext* ctx, BatchOperatorPtr child)
      : BatchOperator("Sort"), node_(node), ctx_(ctx) {
    AddChild(std::move(child));
  }

  // The streaming merge is inherently serial; the in-memory emitter is
  // parallel-safe as before.
  bool ParallelSafe() const override { return !external_; }
  size_t MorselCount() const override { return emitter_.MorselCount(); }

 protected:
  Status OpenImpl() override {
    size_t threads = ctx_->query_threads;
    if (ctx_->budgeted()) return OpenBudgeted(threads);

    LAZYETL_ASSIGN_OR_RETURN(Table input,
                             DrainToTableOrdered(child(), threads));
    RecordStateBytes(input.MemoryBytes());

    LAZYETL_ASSIGN_OR_RETURN(
        std::vector<Column> sort_cols,
        EvaluateSortKeys(input, node_->order_items, threads));
    std::vector<uint32_t> idx(input.num_rows());
    for (size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<uint32_t>(i);

    auto less = [&](uint32_t a, uint32_t b) {
      return CompareRows(sort_cols, node_->order_items, a, b) < 0;
    };
    ParallelStableSort(&idx, threads, less);
    emitter_.Reset(ParallelGather(input, idx, threads), ctx_->batch_rows);
    return Status::OK();
  }

  Result<bool> NextImpl(Batch* out) override {
    if (!external_) return emitter_.Next(out, parallel_drive());
    Table merged;
    LAZYETL_ASSIGN_OR_RETURN(bool more,
                             merger_.Next(ctx_->batch_rows, &merged));
    if (!more) {
      if (!emitted_) {
        emitted_ = true;
        *out = Batch::Materialized(payload_proto_.Gather({}));
        return true;
      }
      return false;
    }
    *out = Batch::Materialized(std::move(merged));
    out->seq = next_seq_++;
    emitted_ = true;
    return true;
  }

  void CloseImpl() override {
    for (auto& w : workers_) w.res.ReleaseAll();
  }

 private:
  struct SortWorker {
    bool init = false;
    Table payload;                      // accumulated input rows
    std::vector<Column> keys;           // evaluated key columns, aligned
    std::vector<int64_t> tag_seq;
    std::vector<int64_t> tag_row;
    std::vector<std::string> run_paths;  // spilled sorted runs
    common::MemoryReservation res;
  };

  Status OpenBudgeted(size_t threads) {
    external_ = true;
    // Run ordering spec: ORDER BY keys, then the (seq, row) arrival tag.
    order_cols_ = node_->order_items.size() + 2;
    for (const auto& item : node_->order_items) {
      ascending_.push_back(item.ascending);
    }
    ascending_.push_back(true);  // tag seq
    ascending_.push_back(true);  // tag row
    merger_.Configure(order_cols_, ascending_, ctx_->spill);

    workers_.resize(std::max<size_t>(threads, 1));
    for (auto& w : workers_) w.res.Reset(ctx_->budget);

    LAZYETL_RETURN_NOT_OK(ParallelDrain(
        child(), threads, [&](size_t worker, Batch&& batch) -> Status {
          return Consume(&workers_[worker], batch);
        }));

    // Leftover buffers become in-memory runs (their reservations stay
    // held until Close — they are the resident breaker state).
    uint64_t resident = 0;
    bool any_spill = false;
    for (auto& w : workers_) {
      if (w.init && payload_proto_.num_columns() == 0) {
        payload_proto_ = w.payload.Gather({});
      }
      if (w.init && w.payload.num_rows() > 0) {
        merger_.AddMemoryRun(SortRunRows(AssembleRun(&w), order_cols_,
                                         ascending_));
      }
      resident += w.res.held();
      any_spill = any_spill || !w.run_paths.empty();
      for (const std::string& path : w.run_paths) {
        LAZYETL_RETURN_NOT_OK(merger_.AddSpilledRun(path));
      }
    }
    RecordStateBytes(resident);
    if (!any_spill) {
      // Fit within the budget: merge the per-worker sorted runs once and
      // keep the parallel emitter path — a budget alone must not
      // serialise queries that never overflow it.
      Table merged;
      LAZYETL_ASSIGN_OR_RETURN(
          bool more,
          merger_.Next(std::numeric_limits<size_t>::max(), &merged));
      if (!more) merged = payload_proto_.Gather({});
      emitter_.Reset(std::move(merged), ctx_->batch_rows);
      external_ = false;
    }
    return Status::OK();
  }

  Status Consume(SortWorker* w, const Batch& batch) {
    std::vector<Column> batch_keys;
    for (const auto& item : node_->order_items) {
      LAZYETL_ASSIGN_OR_RETURN(Column c, EvaluateExpr(*item.expr, batch.view));
      batch_keys.push_back(std::move(c));
    }
    if (!w->init) {
      w->payload = batch.view.Gather({});
      for (const Column& c : batch_keys) w->keys.emplace_back(c.type());
      w->init = true;
    }
    uint64_t added = batch.view.ViewedBytes() + 16 * batch.num_rows();
    for (const Column& c : batch_keys) added += c.MemoryBytes();
    LAZYETL_RETURN_NOT_OK(w->payload.AppendSlice(batch.view));
    for (size_t i = 0; i < batch_keys.size(); ++i) {
      LAZYETL_RETURN_NOT_OK(w->keys[i].AppendColumn(batch_keys[i]));
    }
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      w->tag_seq.push_back(static_cast<int64_t>(batch.seq));
      w->tag_row.push_back(static_cast<int64_t>(r));
    }
    if (!w->res.Grow(added)) {
      // Peak resident state: what was reserved plus the batch that did
      // not fit (a single batch is the floor no budget can undercut).
      RecordStateBytes(w->res.held() + added);
      return SpillWorkerRun(w);
    }
    return Status::OK();
  }

  // Drains `w`'s buffer into <payload | keys | tag> columns, resetting the
  // buffer to empty same-schema state.
  Table AssembleRun(SortWorker* w) {
    Table run = std::move(w->payload);
    w->payload = run.Gather({});
    for (size_t i = 0; i < w->keys.size(); ++i) {
      Column key = std::move(w->keys[i]);
      w->keys[i] = Column(key.type());
      Status st = run.AddColumn("#k" + std::to_string(i), std::move(key));
      (void)st;  // equal-length by construction
    }
    Status st = run.AddColumn("#tseq", Column::FromInt64(std::move(w->tag_seq)));
    (void)st;
    st = run.AddColumn("#trow", Column::FromInt64(std::move(w->tag_row)));
    (void)st;
    w->tag_seq.clear();
    w->tag_row.clear();
    return run;
  }

  Status SpillWorkerRun(SortWorker* w) {
    if (w->payload.num_rows() == 0) return Status::OK();
    Table run = SortRunRows(AssembleRun(w), order_cols_, ascending_);
    std::string path;
    LAZYETL_ASSIGN_OR_RETURN(
        SpillWriteStats stats,
        WriteRunFile(run, ctx_->batch_rows, ctx_->spill, &path));
    RecordSpill(stats.logical_bytes, 1);
    RecordSpillIO(stats.compressed_bytes, stats.write_wait_seconds);
    w->run_paths.push_back(std::move(path));
    w->res.ReleaseAll();
    return Status::OK();
  }

  const PlanNode* node_;
  ExecContext* ctx_;
  TableEmitter emitter_;
  // External-mode state.
  bool external_ = false;
  bool emitted_ = false;
  uint64_t next_seq_ = 0;
  size_t order_cols_ = 0;        // run ordering spec (keys + 2 tag cols)
  std::vector<bool> ascending_;
  std::vector<SortWorker> workers_;
  RunMerger merger_;
  Table payload_proto_;  // schema-only table for the empty-batch contract
};

// --------------------------------------------------------------------------
// TopK (fused Sort + Limit)
// --------------------------------------------------------------------------

// Bounded top-k: each worker keeps at most ~2k candidate rows (pruned
// with nth_element under the total order <sort keys, arrival tag>), so a
// Sort directly below a Limit no longer materialises its whole input.
// The arrival tag (batch seq, row) reproduces stable-sort semantics:
// among key-equal rows the earliest input rows win, byte-identical to the
// unfused Sort + Limit at any thread count.
class TopKOperator : public BatchOperator {
 public:
  TopKOperator(const PlanNode* node, ExecContext* ctx, BatchOperatorPtr child)
      : BatchOperator("TopK"), node_(node), ctx_(ctx) {
    AddChild(std::move(child));
  }

  bool ParallelSafe() const override { return true; }
  size_t MorselCount() const override { return emitter_.MorselCount(); }

 protected:
  Status OpenImpl() override {
    k_ = static_cast<size_t>(std::max<int64_t>(0, node_->limit));
    size_t threads = ctx_->query_threads;
    std::vector<WorkerState> states(std::max<size_t>(threads, 1));

    LAZYETL_RETURN_NOT_OK(ParallelDrain(
        child(), threads, [&](size_t worker, Batch&& batch) -> Status {
          return Consume(&states[worker], batch);
        }));

    // Merge: every worker's pruned candidates together hold the global
    // top k; one final ordered selection yields the output.
    WorkerState merged;
    for (WorkerState& s : states) {
      if (!s.init) continue;
      Prune(&s);
      if (!merged.init) {
        merged = std::move(s);
        continue;
      }
      LAZYETL_RETURN_NOT_OK(merged.rows.AppendTable(s.rows));
      for (size_t i = 0; i < merged.keys.size(); ++i) {
        LAZYETL_RETURN_NOT_OK(merged.keys[i].AppendColumn(s.keys[i]));
      }
      merged.tags.insert(merged.tags.end(), s.tags.begin(), s.tags.end());
    }
    // ParallelDrain delivers at least one (possibly empty) batch, so some
    // worker always carries the schema.
    if (!merged.init) return Status::Internal("top-k saw no input batch");

    std::vector<uint32_t> idx(merged.rows.num_rows());
    for (size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<uint32_t>(i);
    std::sort(idx.begin(), idx.end(),
              [&](uint32_t a, uint32_t b) { return Before(merged, a, b); });
    if (idx.size() > k_) idx.resize(k_);

    uint64_t key_bytes = 0;
    for (const Column& c : merged.keys) key_bytes += c.MemoryBytes();
    RecordStateBytes(merged.rows.MemoryBytes() + key_bytes);
    emitter_.Reset(merged.rows.Gather(idx), ctx_->batch_rows);
    return Status::OK();
  }

  Result<bool> NextImpl(Batch* out) override {
    return emitter_.Next(out, parallel_drive());
  }

 private:
  struct WorkerState {
    bool init = false;
    Table rows;                // candidate rows (bounded by Prune)
    std::vector<Column> keys;  // evaluated sort keys, aligned with rows
    std::vector<std::pair<uint64_t, uint32_t>> tags;  // (batch seq, row)
  };

  // Total order: sort keys, then input arrival order.
  bool Before(const WorkerState& s, uint32_t a, uint32_t b) const {
    int cmp = CompareRows(s.keys, node_->order_items, a, b);
    if (cmp != 0) return cmp < 0;
    return s.tags[a] < s.tags[b];
  }

  Status Consume(WorkerState* s, const Batch& batch) {
    std::vector<Column> batch_keys;
    for (const auto& item : node_->order_items) {
      LAZYETL_ASSIGN_OR_RETURN(Column c, EvaluateExpr(*item.expr, batch.view));
      batch_keys.push_back(std::move(c));
    }
    if (!s->init) {
      s->rows = batch.view.Gather({});  // schema
      for (const Column& c : batch_keys) s->keys.emplace_back(c.type());
      s->init = true;
    }
    if (k_ == 0) return Status::OK();
    LAZYETL_RETURN_NOT_OK(s->rows.AppendSlice(batch.view));
    for (size_t i = 0; i < batch_keys.size(); ++i) {
      LAZYETL_RETURN_NOT_OK(s->keys[i].AppendColumn(batch_keys[i]));
    }
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      s->tags.emplace_back(batch.seq, static_cast<uint32_t>(r));
    }
    if (s->rows.num_rows() >= std::max<size_t>(2 * k_, 8192)) Prune(s);
    return Status::OK();
  }

  void Prune(WorkerState* s) {
    size_t n = s->rows.num_rows();
    if (n <= k_) return;
    std::vector<uint32_t> idx(n);
    for (size_t i = 0; i < n; ++i) idx[i] = static_cast<uint32_t>(i);
    std::nth_element(idx.begin(), idx.begin() + k_, idx.end(),
                     [&](uint32_t a, uint32_t b) { return Before(*s, a, b); });
    idx.resize(k_);
    s->rows = s->rows.Gather(idx);
    std::vector<std::pair<uint64_t, uint32_t>> tags;
    tags.reserve(idx.size());
    for (uint32_t i : idx) tags.push_back(s->tags[i]);
    for (Column& key : s->keys) key = key.Gather(idx);
    s->tags = std::move(tags);
  }

  const PlanNode* node_;
  ExecContext* ctx_;
  size_t k_ = 0;
  TableEmitter emitter_;
};

// --------------------------------------------------------------------------
// Aggregate
// --------------------------------------------------------------------------

// Typed accumulator for one aggregate across all groups; grows as new
// groups appear, fed batch-local argument columns. Every update and merge
// visits rows (or source groups) in ascending order. COUNT, integer SUM
// and MIN/MAX results do not depend on how the input was split; a double
// sum does: a serial, unbudgeted aggregate adds in row order, while the
// merge of per-morsel partials (parallel and budgeted consume, spill
// re-merge) re-associates it. MIN/MAX take a group's first value and then
// replace it only on a strict improvement (kernels::Improves).
class Accumulator {
 public:
  explicit Accumulator(const BoundAggregate& agg)
      : function_(agg.function), out_type_(agg.type) {}

  // Called once, with the argument type observed on the first batch.
  void Prepare(DataType arg_type) { arg_type_ = arg_type; }

  DataType arg_type() const { return arg_type_; }

  void Resize(size_t groups) {
    count_.resize(groups, 0);
    if (function_ == "AVG" || function_ == "SUM") {
      dsum_.resize(groups, 0.0);
      isum_.resize(groups, 0);
    } else if (function_ == "MIN" || function_ == "MAX") {
      if (arg_type_ == DataType::kString) {
        sext_.resize(groups);
      } else if (arg_type_ == DataType::kDouble) {
        dext_.resize(groups, 0.0);
      } else {
        iext_.resize(groups, 0);
      }
    }
  }

  // Folds rows [offset, offset+n) of `arg` into group `g` (group 0 of an
  // ungrouped aggregation, or one run of a grouped batch): integer sums
  // vectorize freely, double sums accumulate in row order, min/max run
  // the seeded comparison chain (integers as std::min/std::max).
  void FoldRange(size_t g, const Column* arg, size_t offset, size_t n) {
    bool first = count_[g] == 0;
    count_[g] += static_cast<int64_t>(n);
    if (function_ == "COUNT") return;
    if (function_ == "AVG" || function_ == "SUM") {
      if (arg->type() == DataType::kDouble) {
        kernels::SumDoubleRange(arg->double_data().data(), offset, n,
                                &dsum_[g]);
      } else if (arg->type() == DataType::kInt32) {
        kernels::SumRange(arg->int32_data().data(), offset, n, &isum_[g],
                          &dsum_[g]);
      } else if (arg->type() == DataType::kBool) {
        kernels::SumRange(arg->bool_data().data(), offset, n, &isum_[g],
                          &dsum_[g]);
      } else {
        kernels::SumRange(arg->int64_data().data(), offset, n, &isum_[g],
                          &dsum_[g]);
      }
      return;
    }
    bool want_min = function_ == "MIN";
    if (arg_type_ == DataType::kString) {
      for (size_t row = offset; row < offset + n; ++row) {
        const std::string& v = arg->StringAt(row);
        if (first || kernels::Improves(v, sext_[g], want_min)) {
          sext_[g] = v;
          first = false;
        }
      }
    } else if (arg_type_ == DataType::kDouble) {
      kernels::MinMaxRange(arg->double_data().data(), offset, n, want_min,
                           &first, &dext_[g]);
    } else if (arg->type() == DataType::kInt32) {
      kernels::MinMaxRange(arg->int32_data().data(), offset, n, want_min,
                           &first, &iext_[g]);
    } else if (arg->type() == DataType::kBool) {
      kernels::MinMaxRange(arg->bool_data().data(), offset, n, want_min,
                           &first, &iext_[g]);
    } else {
      kernels::MinMaxRange(arg->int64_data().data(), offset, n, want_min,
                           &first, &iext_[g]);
    }
  }

  // Folds rows [0, rows) of `arg` into the groups `gids[row]`, visiting
  // rows in ascending order: each group's double sum adds its rows in row
  // order, and its min/max chain sees them in row order. When `runs` (the
  // batch's GroupIdBuilder::run_heads) is non-empty, each run of one gid
  // folds through FoldRange: the same updates, in the same order.
  void UpdateGrouped(const uint32_t* gids, const SelectionVector& runs,
                     const Column* arg, size_t rows) {
    if (!runs.empty()) {
      kernels::ForEachRun(runs, rows, gids,
                          [&](uint32_t g, size_t begin, size_t n) {
                            FoldRange(g, arg, begin, n);
                          });
      return;
    }
    if (function_ == "COUNT") {
      kernels::CountGrouped(gids, rows, count_.data());
      return;
    }
    if (function_ == "AVG" || function_ == "SUM") {
      kernels::CountGrouped(gids, rows, count_.data());
      if (arg->type() == DataType::kDouble) {
        kernels::SumDoubleGrouped(arg->double_data().data(), gids, rows,
                                  dsum_.data());
      } else if (arg->type() == DataType::kInt32) {
        kernels::SumGrouped(arg->int32_data().data(), gids, rows,
                            isum_.data(), dsum_.data());
      } else if (arg->type() == DataType::kBool) {
        kernels::SumGrouped(arg->bool_data().data(), gids, rows,
                            isum_.data(), dsum_.data());
      } else {
        kernels::SumGrouped(arg->int64_data().data(), gids, rows,
                            isum_.data(), dsum_.data());
      }
      return;
    }
    bool want_min = function_ == "MIN";
    if (arg_type_ == DataType::kString) {
      for (size_t row = 0; row < rows; ++row) {
        uint32_t g = gids[row];
        bool first = count_[g]++ == 0;
        const std::string& v = arg->StringAt(row);
        if (first || kernels::Improves(v, sext_[g], want_min)) sext_[g] = v;
      }
    } else if (arg_type_ == DataType::kDouble) {
      kernels::MinMaxGrouped(arg->double_data().data(), gids, rows, want_min,
                             count_.data(), dext_.data());
    } else if (arg->type() == DataType::kInt32) {
      kernels::MinMaxGrouped(arg->int32_data().data(), gids, rows, want_min,
                             count_.data(), iext_.data());
    } else if (arg->type() == DataType::kBool) {
      kernels::MinMaxGrouped(arg->bool_data().data(), gids, rows, want_min,
                             count_.data(), iext_.data());
    } else {
      kernels::MinMaxGrouped(arg->int64_data().data(), gids, rows, want_min,
                             count_.data(), iext_.data());
    }
  }

  // Folds src groups [0, n) of a partial into this accumulator at dst[g],
  // in ascending g. Empty source groups are skipped; a destination with no
  // rows yet takes the source's min/max as is.
  void MergeGroupsBulk(const Accumulator& src, const uint32_t* dst,
                       size_t n) {
    if (function_ == "COUNT") {
      for (size_t g = 0; g < n; ++g) count_[dst[g]] += src.count_[g];
      return;
    }
    if (function_ == "AVG" || function_ == "SUM") {
      for (size_t g = 0; g < n; ++g) {
        if (src.count_[g] == 0) continue;
        count_[dst[g]] += src.count_[g];
        dsum_[dst[g]] += src.dsum_[g];
        isum_[dst[g]] += src.isum_[g];
      }
      return;
    }
    const bool want_min = function_ == "MIN";
    for (size_t g = 0; g < n; ++g) {
      if (src.count_[g] == 0) continue;
      const size_t d = dst[g];
      const bool first = count_[d] == 0;
      count_[d] += src.count_[g];
      if (arg_type_ == DataType::kString) {
        const std::string& v = src.sext_[g];
        if (first || kernels::Improves(v, sext_[d], want_min)) sext_[d] = v;
      } else if (arg_type_ == DataType::kDouble) {
        const double v = src.dext_[g];
        if (first || kernels::Improves(v, dext_[d], want_min)) dext_[d] = v;
      } else {
        const int64_t v = src.iext_[g];
        if (first || kernels::Improves(v, iext_[d], want_min)) iext_[d] = v;
      }
    }
  }

  // --- Spill support -------------------------------------------------------
  // Partial state serialises as columns (one row per group) so overflowing
  // aggregation state can be radix-partitioned to disk and re-merged
  // later: COUNT → [count]; SUM/AVG → [count, isum, dsum]; MIN/MAX →
  // [count, extremum (argument-typed)]. Integer merges are exact and
  // order-independent; double sums re-associate across spill boundaries
  // (same relaxation as the parallel in-memory merge).

  DataType StateExtType() const {
    if (arg_type_ == DataType::kString) return DataType::kString;
    if (arg_type_ == DataType::kDouble) return DataType::kDouble;
    return DataType::kInt64;
  }

  size_t NumStateCols() const {
    if (function_ == "AVG" || function_ == "SUM") return 3;
    if (function_ == "MIN" || function_ == "MAX") return 2;
    return 1;  // COUNT
  }

  void AppendStateSchema(TableSchema* schema,
                         const std::string& prefix) const {
    schema->push_back({prefix + "c", DataType::kInt64});
    if (function_ == "AVG" || function_ == "SUM") {
      schema->push_back({prefix + "i", DataType::kInt64});
      schema->push_back({prefix + "d", DataType::kDouble});
    } else if (function_ == "MIN" || function_ == "MAX") {
      schema->push_back({prefix + "x", StateExtType()});
    }
  }

  void ExportState(std::vector<Column>* out) const {
    out->push_back(Column::FromInt64(count_));
    if (function_ == "AVG" || function_ == "SUM") {
      out->push_back(Column::FromInt64(isum_));
      out->push_back(Column::FromDouble(dsum_));
    } else if (function_ == "MIN" || function_ == "MAX") {
      if (arg_type_ == DataType::kString) {
        out->push_back(Column::FromString(sext_));
      } else if (arg_type_ == DataType::kDouble) {
        out->push_back(Column::FromDouble(dext_));
      } else {
        out->push_back(Column::FromInt64(iext_));
      }
    }
  }

  // Merges the exported-state rows of a partition frame (columns from
  // `first_col` of `t`) into the groups `dst[row]`, in ascending row order,
  // with the same rules as MergeGroupsBulk.
  void MergeStateBulk(const Table& t, size_t first_col, const uint32_t* dst,
                      size_t rows) {
    const int64_t* counts = t.column(first_col).int64_data().data();
    if (function_ == "COUNT") {
      for (size_t r = 0; r < rows; ++r) count_[dst[r]] += counts[r];
      return;
    }
    if (function_ == "AVG" || function_ == "SUM") {
      const int64_t* is = t.column(first_col + 1).int64_data().data();
      const double* ds = t.column(first_col + 2).double_data().data();
      for (size_t r = 0; r < rows; ++r) {
        if (counts[r] == 0) continue;
        size_t g = dst[r];
        count_[g] += counts[r];
        isum_[g] += is[r];
        dsum_[g] += ds[r];
      }
      return;
    }
    bool want_min = function_ == "MIN";
    const Column& ext = t.column(first_col + 1);
    if (arg_type_ == DataType::kString) {
      for (size_t r = 0; r < rows; ++r) {
        if (counts[r] == 0) continue;
        size_t g = dst[r];
        bool first = count_[g] == 0;
        count_[g] += counts[r];
        const std::string& v = ext.StringAt(r);
        if (first || kernels::Improves(v, sext_[g], want_min)) sext_[g] = v;
      }
    } else if (arg_type_ == DataType::kDouble) {
      const double* x = ext.double_data().data();
      for (size_t r = 0; r < rows; ++r) {
        if (counts[r] == 0) continue;
        size_t g = dst[r];
        bool first = count_[g] == 0;
        count_[g] += counts[r];
        if (first || kernels::Improves(x[r], dext_[g], want_min)) {
          dext_[g] = x[r];
        }
      }
    } else {
      const int64_t* x = ext.int64_data().data();
      for (size_t r = 0; r < rows; ++r) {
        if (counts[r] == 0) continue;
        size_t g = dst[r];
        bool first = count_[g] == 0;
        count_[g] += counts[r];
        if (first || kernels::Improves(x[r], iext_[g], want_min)) {
          iext_[g] = x[r];
        }
      }
    }
  }

  Result<Column> Finish(size_t groups) const {
    if (function_ == "COUNT") {
      std::vector<int64_t> out(groups);
      for (size_t g = 0; g < groups; ++g) out[g] = count_[g];
      return Column::FromInt64(std::move(out));
    }
    if (function_ == "AVG") {
      std::vector<double> out(groups);
      for (size_t g = 0; g < groups; ++g) {
        out[g] = count_[g] ? dsum_[g] / static_cast<double>(count_[g]) : 0.0;
      }
      return Column::FromDouble(std::move(out));
    }
    if (function_ == "SUM") {
      if (out_type_ == DataType::kDouble) {
        return Column::FromDouble(dsum_);
      }
      return Column::FromInt64(isum_);
    }
    // MIN / MAX: emit in the argument's type.
    if (arg_type_ == DataType::kString) return Column::FromString(sext_);
    if (arg_type_ == DataType::kDouble) return Column::FromDouble(dext_);
    switch (out_type_) {
      case DataType::kInt32: {
        std::vector<int32_t> out(groups);
        for (size_t g = 0; g < groups; ++g) {
          out[g] = static_cast<int32_t>(iext_[g]);
        }
        return Column::FromInt32(std::move(out));
      }
      case DataType::kTimestamp:
        return Column::FromTimestamp(iext_);
      case DataType::kBool: {
        std::vector<uint8_t> out(groups);
        for (size_t g = 0; g < groups; ++g) out[g] = iext_[g] != 0;
        return Column::FromBool(std::move(out));
      }
      default:
        return Column::FromInt64(iext_);
    }
  }

  uint64_t StateBytes() const {
    uint64_t bytes = count_.size() * sizeof(int64_t) +
                     dsum_.size() * sizeof(double) +
                     isum_.size() * sizeof(int64_t) +
                     iext_.size() * sizeof(int64_t) +
                     dext_.size() * sizeof(double);
    for (const auto& s : sext_) bytes += sizeof(std::string) + s.capacity();
    return bytes;
  }

 private:
  std::string function_;
  DataType out_type_;
  DataType arg_type_ = DataType::kInt64;
  std::vector<int64_t> count_;
  std::vector<double> dsum_;
  std::vector<int64_t> isum_;
  std::vector<int64_t> iext_;
  std::vector<double> dext_;
  std::vector<std::string> sext_;
};

// One batch pre-grouped by a worker: local groups in first-occurrence
// order with their packed keys, representative values, first-occurrence
// arrival tags, and (for Aggregate) accumulator state. Shared between the
// Aggregate and Distinct consume paths.
struct GroupedPartial {
  uint64_t seq = 0;
  std::vector<std::string> names;   // group column names (first partial)
  std::vector<std::string> keys;    // one per local group
  std::vector<Column> values;       // one row per local group
  std::vector<Accumulator> accs;    // empty for Distinct
  std::vector<int64_t> tag_seq;     // first occurrence (seq, row) per group
  std::vector<int64_t> tag_row;
};

// The group-key columns of one Aggregate batch. When every grouping
// expression is a plain column reference, `cols` point at the batch's own
// columns, read from row `offset` on: a dictionary-encoded string stays
// encoded, so GroupIdBuilder hashes and compares its codes, and a group's
// value is decoded once, when AppendRange copies the group's first row
// out. Otherwise every key is materialized into `owned` (a column
// reference copies its viewed rows, still encoded; any other expression
// is evaluated) and `offset` is 0.
struct GroupKeyColumns {
  std::vector<Column> owned;
  std::vector<const Column*> cols;
  size_t offset = 0;

  Status Resolve(const std::vector<sql::BoundExprPtr>& exprs,
                 const TableSlice& view) {
    constexpr size_t kNotRaw = std::numeric_limits<size_t>::max();
    std::vector<size_t> raw(exprs.size(), kNotRaw);
    bool all_raw = true;
    for (size_t i = 0; i < exprs.size(); ++i) {
      const sql::BoundExpr& e = *exprs[i];
      if (e.kind == sql::ExprKind::kColumnRef && !e.is_aggregate) {
        auto idx = view.ColumnIndex(e.display);
        if (idx.ok()) raw[i] = *idx;
      }
      all_raw = all_raw && raw[i] != kNotRaw;
    }
    owned.clear();
    cols.clear();
    if (all_raw) {
      offset = view.offset();
      for (size_t idx : raw) cols.push_back(&view.column(idx));
      return Status::OK();
    }
    offset = 0;
    owned.reserve(exprs.size());
    for (size_t i = 0; i < exprs.size(); ++i) {
      if (raw[i] != kNotRaw) {
        owned.push_back(
            view.column(raw[i]).CopyRange(view.offset(), view.num_rows()));
      } else {
        LAZYETL_ASSIGN_OR_RETURN(Column c, EvaluateExpr(*exprs[i], view));
        owned.push_back(std::move(c));
      }
    }
    for (const Column& c : owned) cols.push_back(&c);
    return Status::OK();
  }
};

// Reusable per-worker scratch: the per-batch hash table and key buffer
// are the dominant per-batch allocations of the aggregate partials
// (ROADMAP open item); hoisting them into one arena per worker makes the
// consume loop allocation-light.
struct GroupScratch {
  std::string key;
  GroupKeyColumns group;
  std::vector<Column> arg_cols;
  // Batch group-id builder plus its column-pointer view.
  kernels::GroupIdBuilder builder;
  std::vector<const Column*> colptrs;
};

// Open-addressing packed-key → dense-group-id index for the cross-batch
// group state. Group identity is PackRowKey byte equality, the same
// relation GroupIdBuilder applies within a batch; a probe is one
// cached-hash compare plus (on candidate match) one byte compare, with no
// per-group node allocation. The key bytes themselves live in
// the caller's gid-ordered store (`keys[gid]`), which the caller appends
// to right after an insert, so the index holds only slots and hashes.
struct PackedKeyIndex {
  std::vector<uint32_t> slots;   // gid + 1; 0 = empty
  std::vector<uint64_t> hashes;  // per gid, HashBytes of its key
  size_t mask = 0;

  void Clear() {
    slots.clear();
    hashes.clear();
    mask = 0;
  }

  // Returns the group id for `key`, inserting a fresh one (== keys.size())
  // when absent. `keys` must be the gid-aligned key store; on
  // *inserted == true the caller must push `key` onto it before the next
  // call.
  uint32_t FindOrInsert(const std::string& key,
                        const std::vector<std::string>& keys,
                        bool* inserted) {
    if ((hashes.size() + 1) * 4 > slots.size() * 3) Grow();
    const uint64_t h = kernels::HashBytes(key.data(), key.size());
    size_t i = h & mask;
    while (true) {
      const uint32_t s = slots[i];
      if (s == 0) {
        const uint32_t gid = static_cast<uint32_t>(hashes.size());
        slots[i] = gid + 1;
        hashes.push_back(h);
        *inserted = true;
        return gid;
      }
      const uint32_t gid = s - 1;
      if (hashes[gid] == h && keys[gid] == key) {
        *inserted = false;
        return gid;
      }
      i = (i + 1) & mask;
    }
  }

 private:
  void Grow() {
    const size_t cap = slots.empty() ? 1024 : slots.size() * 2;
    slots.assign(cap, 0);
    mask = cap - 1;
    for (size_t gid = 0; gid < hashes.size(); ++gid) {
      size_t i = hashes[gid] & mask;
      while (slots[i] != 0) i = (i + 1) & mask;
      slots[i] = static_cast<uint32_t>(gid) + 1;
    }
  }
};

// Budget-governed grouped state shared by Aggregate and Distinct
// (Distinct is the degenerate case: every column is a group column, no
// accumulators). Consume merges pre-grouped partials into one hash state;
// when the memory reservation fails the state is radix-partitioned to
// spill files (group values + arrival tags + serialised accumulator
// state). Partitions are then merged one at a time — recursing with a
// re-seeded hash when a partition itself overflows — and each finished
// partition becomes a run sorted by first-occurrence tag, so the final
// k-way merge streams groups out in exactly the in-memory
// first-occurrence order.
class GroupSpillHelper {
 public:
  void Init(BatchOperator* op, ExecContext* ctx,
            std::vector<std::string> output_names) {
    op_ = op;
    ctx_ = ctx;
    output_names_ = std::move(output_names);
    res_consume_.Reset(ctx->budget);
  }

  // Merges one partial into the global state; thread-safe.
  Status MergePartial(GroupedPartial&& partial) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!init_) InitFromPartial(partial);
    uint64_t added = 0;
    // Resolve all local groups to state slots first, then merge the
    // accumulator partials in one bulk pass per aggregate.
    const size_t n = partial.keys.size();
    merge_dst_.resize(n);
    for (size_t g = 0; g < n; ++g) {
      bool inserted;
      const uint32_t dst =
          state_.vindex.FindOrInsert(partial.keys[g], state_.keys, &inserted);
      if (inserted) {
        added += 2 * partial.keys[g].size() + kPerGroupOverhead +
                 24 * state_.accs.size();
        state_.keys.push_back(partial.keys[g]);
        for (size_t i = 0; i < state_.values.size(); ++i) {
          LAZYETL_RETURN_NOT_OK(
              state_.values[i].AppendRange(partial.values[i], g, 1));
        }
        state_.tseq.push_back(partial.tag_seq[g]);
        state_.trow.push_back(partial.tag_row[g]);
        ++total_groups_;
      } else if (std::pair(partial.tag_seq[g], partial.tag_row[g]) <
                 std::pair(state_.tseq[dst], state_.trow[dst])) {
        state_.tseq[dst] = partial.tag_seq[g];
        state_.trow[dst] = partial.tag_row[g];
      }
      merge_dst_[g] = dst;
    }
    for (auto& acc : state_.accs) acc.Resize(state_.keys.size());
    for (size_t a = 0; a < state_.accs.size(); ++a) {
      state_.accs[a].MergeGroupsBulk(partial.accs[a], merge_dst_.data(), n);
    }
    if (!res_consume_.Grow(added)) {
      op_->RecordStateBytes(res_consume_.held() + added);
      LAZYETL_RETURN_NOT_OK(SpillState());
    }
    return Status::OK();
  }

  // Total distinct groups observed during consume (including spilled).
  uint64_t total_groups() const { return total_groups_; }

  // True when consume overflowed into partition files at least once.
  bool spilled() const { return spilled_; }

  // No-spill finish: the merged groups as one tag-ordered output table
  // (tags stripped), ready for the parallel TableEmitter — budgeted
  // queries whose state fit keep the in-memory emission path.
  Result<Table> FinishInMemory() {
    if (!init_ || state_.keys.empty()) return EmptyOutput();
    LAZYETL_ASSIGN_OR_RETURN(Table run, FinishState(&state_));
    Table out;
    for (size_t c = 0; c + 2 < run.num_columns(); ++c) {
      LAZYETL_RETURN_NOT_OK(
          out.AddColumn(run.column_name(c), std::move(run.column(c))));
    }
    return out;
  }

  // Zero-row output table carrying the schema (group columns + finished
  // aggregate columns) for the empty-batch contract.
  Result<Table> EmptyOutput() const {
    Table out;
    for (size_t i = 0; i < value_types_.size(); ++i) {
      LAZYETL_RETURN_NOT_OK(
          out.AddColumn(output_names_[i], Column(value_types_[i])));
    }
    for (size_t a = 0; a < acc_protos_.size(); ++a) {
      LAZYETL_ASSIGN_OR_RETURN(Column c, acc_protos_[a].Finish(0));
      LAZYETL_RETURN_NOT_OK(
          out.AddColumn("#agg" + std::to_string(a), std::move(c)));
    }
    return out;
  }

  const std::vector<Accumulator>& acc_protos() const { return acc_protos_; }

  uint64_t resident_bytes() const { return res_consume_.held(); }

  void ReleaseReservations() { res_consume_.ReleaseAll(); }

  // Ends the consume phase: processes spilled partitions (if any) and
  // returns a merger streaming <group cols, agg cols> rows ordered by
  // first occurrence (trailing tag columns are stripped by the merger).
  Result<RunMerger> Finish() {
    RunMerger merger;
    merger.Configure(2, {true, true}, ctx_->spill);
    if (!spilled_) {
      if (init_ && !state_.keys.empty()) {
        LAZYETL_ASSIGN_OR_RETURN(Table run, FinishState(&state_));
        merger.AddMemoryRun(std::move(run));
        // res_consume_ keeps the run's bytes charged until Close.
      }
      return merger;
    }
    LAZYETL_RETURN_NOT_OK(SpillState());  // flush the remainder
    res_consume_.ReleaseAll();
    LAZYETL_ASSIGN_OR_RETURN(
        std::vector<std::string> paths,
        SealPartitionWriters(&writers_, op_, ctx_->spill));
    for (const std::string& path : paths) {
      if (path.empty()) continue;
      LAZYETL_RETURN_NOT_OK(ProcessPartition(path, 1, &merger));
    }
    return merger;
  }

 private:
  struct State {
    PackedKeyIndex vindex;
    std::vector<std::string> keys;  // aligned with group ids
    std::vector<Column> values;
    std::vector<Accumulator> accs;
    std::vector<int64_t> tseq;
    std::vector<int64_t> trow;
  };

  void InitFromPartial(const GroupedPartial& partial) {
    if (output_names_.empty()) output_names_ = partial.names;
    for (const Column& c : partial.values) {
      value_types_.push_back(c.type());
    }
    for (const Accumulator& acc : partial.accs) {
      Accumulator proto = acc;
      proto.Resize(0);
      acc_protos_.push_back(std::move(proto));
    }
    ResetState(&state_);
    init_ = true;
  }

  void ResetState(State* st) const {
    st->vindex.Clear();
    st->keys.clear();
    st->values.clear();
    for (DataType t : value_types_) st->values.emplace_back(t);
    st->accs = acc_protos_;
    st->tseq.clear();
    st->trow.clear();
  }

  // Schema of partition spill rows: group values, arrival tag, serialised
  // accumulator state.
  TableSchema PartitionSchema() const {
    TableSchema schema;
    for (size_t i = 0; i < value_types_.size(); ++i) {
      schema.push_back({"#g" + std::to_string(i), value_types_[i]});
    }
    schema.push_back({"#tseq", DataType::kInt64});
    schema.push_back({"#trow", DataType::kInt64});
    for (size_t a = 0; a < acc_protos_.size(); ++a) {
      acc_protos_[a].AppendStateSchema(&schema,
                                       "#s" + std::to_string(a) + "_");
    }
    return schema;
  }

  // Drains `st` into one <group values | tags | acc state> table.
  Table AssembleStateTable(State* st) const {
    Table t;
    for (size_t i = 0; i < st->values.size(); ++i) {
      Status s = t.AddColumn("#g" + std::to_string(i),
                             std::move(st->values[i]));
      (void)s;  // equal-length by construction
    }
    Status s = t.AddColumn("#tseq", Column::FromInt64(std::move(st->tseq)));
    (void)s;
    s = t.AddColumn("#trow", Column::FromInt64(std::move(st->trow)));
    (void)s;
    for (size_t a = 0; a < st->accs.size(); ++a) {
      std::vector<Column> cols;
      st->accs[a].ExportState(&cols);
      for (size_t k = 0; k < cols.size(); ++k) {
        s = t.AddColumn("#s" + std::to_string(a) + "_" + std::to_string(k),
                        std::move(cols[k]));
        (void)s;
      }
    }
    return t;
  }

  // Radix-partitions `st` (by key hash at `level`) into the writers.
  Status SpillStateInto(State* st, size_t level, SpillWriterVec* writers) {
    if (st->keys.empty()) return Status::OK();
    std::vector<SelectionVector> sel(kSpillFanout);
    for (size_t g = 0; g < st->keys.size(); ++g) {
      sel[SpillPartitionOf(st->keys[g], level, kSpillFanout)].push_back(
          static_cast<uint32_t>(g));
    }
    Table full = AssembleStateTable(st);
    for (size_t p = 0; p < kSpillFanout; ++p) {
      if (sel[p].empty()) continue;
      Table part = full.Gather(sel[p]);
      const size_t step = std::max<size_t>(1, ctx_->batch_rows);
      for (size_t off = 0; off < part.num_rows(); off += step) {
        LAZYETL_RETURN_NOT_OK((*writers)[p]->Append(
            part.Slice(off, std::min(step, part.num_rows() - off))));
      }
    }
    return Status::OK();
  }

  // Spills the consume-phase state into the level-0 partition files.
  // Caller holds mu_ (or is past the parallel phase).
  Status SpillState() {
    spilled_ = true;
    if (writers_.empty()) {
      LAZYETL_ASSIGN_OR_RETURN(
          writers_,
          OpenPartitionWriters(kSpillFanout, PartitionSchema(), ctx_->spill));
    }
    LAZYETL_RETURN_NOT_OK(SpillStateInto(&state_, 0, &writers_));
    ResetState(&state_);
    res_consume_.ReleaseAll();
    return Status::OK();
  }

  // Routes the partition-file rows of `frame` to sub-partitions at
  // `level` without merging (used after a recursive overflow).
  Status RouteFrame(const Table& frame, size_t level, SpillWriterVec* subs) {
    std::vector<size_t> key_cols(value_types_.size());
    std::iota(key_cols.begin(), key_cols.end(), 0);
    return PartitionTableToWriters(frame, key_cols, level, ctx_->batch_rows,
                                   subs);
  }

  // Merges one partition file into a fresh state, recursing (with a
  // re-seeded hash) when it still overflows the budget, and turns the
  // merged groups into a tag-sorted run for the final merge.
  Status ProcessPartition(const std::string& path, size_t level,
                          RunMerger* merger) {
    op_->RecordPartitions(1);
    State st;
    ResetState(&st);
    common::MemoryReservation res(ctx_->budget);
    storage::SpillReader reader;
    LAZYETL_RETURN_NOT_OK(reader.Open(path));
    const size_t ngroup = value_types_.size();
    const size_t state_col0 = ngroup + 2;
    bool routing = false;
    SpillWriterVec subs;
    Table frame;
    std::string key;
    while (true) {
      LAZYETL_ASSIGN_OR_RETURN(bool more, reader.Next(&frame));
      if (!more) break;
      if (routing) {
        LAZYETL_RETURN_NOT_OK(RouteFrame(frame, level, &subs));
        continue;
      }
      uint64_t added = 0;
      const size_t frame_rows = frame.num_rows();
      // Columnar partition merge: batch group ids over the frame's group
      // columns, fold the per-row arrival tags down to a per-local-group
      // minimum, resolve each local group to its state slot once, then
      // merge the serialized accumulator state with one columnar pass per
      // aggregate.
      colptrs_.clear();
      for (size_t i = 0; i < ngroup; ++i) colptrs_.push_back(&frame.column(i));
      const size_t ngroups =
          builder_.Build(colptrs_.data(), ngroup, 0, frame_rows);
      const uint32_t* gids = builder_.gids.data();
      const int64_t* tseq = frame.column(ngroup).int64_data().data();
      const int64_t* trow = frame.column(ngroup + 1).int64_data().data();
      min_seq_.assign(ngroups, std::numeric_limits<int64_t>::max());
      min_row_.assign(ngroups, std::numeric_limits<int64_t>::max());
      for (size_t row = 0; row < frame_rows; ++row) {
        uint32_t g = gids[row];
        if (std::pair(tseq[row], trow[row]) <
            std::pair(min_seq_[g], min_row_[g])) {
          min_seq_[g] = tseq[row];
          min_row_[g] = trow[row];
        }
      }
      group_dst_.resize(ngroups);
      for (size_t g = 0; g < ngroups; ++g) {
        const size_t row = builder_.first_row[g];
        key.clear();
        for (size_t i = 0; i < ngroup; ++i) {
          PackRowKey(frame.column(i), row, &key);
        }
        bool inserted;
        size_t dst = st.vindex.FindOrInsert(key, st.keys, &inserted);
        if (inserted) {
          added += 2 * key.size() + kPerGroupOverhead + 24 * st.accs.size();
          st.keys.push_back(key);
          for (size_t i = 0; i < ngroup; ++i) {
            LAZYETL_RETURN_NOT_OK(
                st.values[i].AppendRange(frame.column(i), row, 1));
          }
          st.tseq.push_back(min_seq_[g]);
          st.trow.push_back(min_row_[g]);
          for (auto& acc : st.accs) acc.Resize(st.keys.size());
        } else if (std::pair(min_seq_[g], min_row_[g]) <
                   std::pair(st.tseq[dst], st.trow[dst])) {
          st.tseq[dst] = min_seq_[g];
          st.trow[dst] = min_row_[g];
        }
        group_dst_[g] = static_cast<uint32_t>(dst);
      }
      row_dst_.resize(frame_rows);
      for (size_t row = 0; row < frame_rows; ++row) {
        row_dst_[row] = group_dst_[gids[row]];
      }
      size_t col = state_col0;
      for (auto& acc : st.accs) {
        acc.MergeStateBulk(frame, col, row_dst_.data(), frame_rows);
        col += acc.NumStateCols();
      }
      if (!res.Grow(added) && level < kMaxSpillLevel &&
          st.keys.size() >= kMinSplitGroups) {
        op_->RecordStateBytes(res.held() + added);
        // Recursive overflow: push the merged state down one level and
        // route the rest of this partition directly to the sub-files.
        LAZYETL_ASSIGN_OR_RETURN(
            subs, OpenPartitionWriters(kSpillFanout, PartitionSchema(),
                                       ctx_->spill));
        LAZYETL_RETURN_NOT_OK(SpillStateInto(&st, level, &subs));
        ResetState(&st);
        res.ReleaseAll();
        routing = true;
      }
      // At kMaxSpillLevel (or below kMinSplitGroups) the partition
      // finishes in memory even over budget: splitting cannot help.
    }
    ctx_->spill->RemoveFile(path);
    if (routing) {
      LAZYETL_ASSIGN_OR_RETURN(
          std::vector<std::string> sub_paths,
          SealPartitionWriters(&subs, op_, ctx_->spill));
      for (const std::string& sub_path : sub_paths) {
        if (sub_path.empty()) continue;
        LAZYETL_RETURN_NOT_OK(ProcessPartition(sub_path, level + 1, merger));
      }
      return Status::OK();
    }
    op_->RecordStateBytes(res.held());
    if (st.keys.empty()) return Status::OK();
    // Finished partitions always go to disk: retaining them in memory
    // would eat the budget headroom every later partition needs to merge,
    // cascading into needless recursion.
    LAZYETL_ASSIGN_OR_RETURN(Table run, FinishState(&st));
    std::string run_path;
    LAZYETL_ASSIGN_OR_RETURN(
        SpillWriteStats stats,
        WriteRunFile(run, ctx_->batch_rows, ctx_->spill, &run_path));
    op_->RecordSpill(stats.logical_bytes, 1);
    op_->RecordSpillIO(stats.compressed_bytes, stats.write_wait_seconds);
    return merger->AddSpilledRun(run_path);
  }

  // Converts merged groups into an output run <group cols | #agg cols |
  // tags>, sorted by first-occurrence tag.
  Result<Table> FinishState(State* st) const {
    const size_t n = st->keys.size();
    Table out;
    for (size_t i = 0; i < st->values.size(); ++i) {
      LAZYETL_RETURN_NOT_OK(
          out.AddColumn(output_names_[i], std::move(st->values[i])));
    }
    for (size_t a = 0; a < st->accs.size(); ++a) {
      LAZYETL_ASSIGN_OR_RETURN(Column c, st->accs[a].Finish(n));
      LAZYETL_RETURN_NOT_OK(
          out.AddColumn("#agg" + std::to_string(a), std::move(c)));
    }
    LAZYETL_RETURN_NOT_OK(
        out.AddColumn("#tseq", Column::FromInt64(std::move(st->tseq))));
    LAZYETL_RETURN_NOT_OK(
        out.AddColumn("#trow", Column::FromInt64(std::move(st->trow))));
    return SortRunRows(out, 2, {true, true});
  }

  BatchOperator* op_ = nullptr;
  ExecContext* ctx_ = nullptr;
  std::vector<std::string> output_names_;
  std::vector<DataType> value_types_;
  std::vector<Accumulator> acc_protos_;
  std::mutex mu_;
  bool init_ = false;
  bool spilled_ = false;
  State state_;
  SpillWriterVec writers_;
  uint64_t total_groups_ = 0;
  common::MemoryReservation res_consume_;  // live grouped state
  std::vector<uint32_t> merge_dst_;        // MergePartial dst scratch (mu_)
  // ProcessPartition scratch (post-drain, single-threaded; recursion
  // reuses it sequentially — never concurrently).
  kernels::GroupIdBuilder builder_;
  std::vector<const Column*> colptrs_;
  std::vector<int64_t> min_seq_;
  std::vector<int64_t> min_row_;
  std::vector<uint32_t> group_dst_;
  std::vector<uint32_t> row_dst_;
};

// Streaming hash aggregation: per input batch, evaluate the grouping and
// argument expressions, map rows to group ids, and fold them into the
// accumulators. Holds O(groups) state — the input is never materialised.
//
// Parallel consume: workers pre-aggregate each batch into a local
// partial (per-batch hash table + accumulators) and the partials are
// merged into the global state in seq order — group output order equals
// the serial first-occurrence order, and the merge result is independent
// of which worker processed which batch.
class AggregateOperator : public BatchOperator {
 public:
  AggregateOperator(const PlanNode* node, ExecContext* ctx,
                    BatchOperatorPtr child)
      : BatchOperator("Aggregate"), node_(node), ctx_(ctx) {
    AddChild(std::move(child));
  }

  bool ParallelSafe() const override { return !external_; }
  size_t MorselCount() const override { return emitter_.MorselCount(); }

 protected:
  Status OpenImpl() override {
    size_t threads = ctx_->query_threads;
    if (ctx_->budgeted()) return OpenBudgeted(threads);

    for (const auto& agg : node_->aggregates) accs_.emplace_back(agg);

    if (threads > 1 && child()->ParallelSafe()) {
      LAZYETL_RETURN_NOT_OK(ConsumeParallel(threads));
    } else {
      bool first_batch = true;
      Batch in;
      while (true) {
        LAZYETL_ASSIGN_OR_RETURN(bool more, child()->Next(&in));
        if (!more) break;
        LAZYETL_RETURN_NOT_OK(
            ConsumeBatch(in.view, KnownRuns(in), first_batch));
        first_batch = false;
      }
    }

    size_t num_groups = group_count_;
    // Grand aggregate over an empty input still yields one row (COUNT = 0),
    // matching the "no NULLs" simplification documented in the README.
    bool synthetic_empty_group = false;
    if (num_groups == 0 && node_->group_exprs.empty()) {
      num_groups = 1;
      synthetic_empty_group = true;
      for (auto& acc : accs_) acc.Resize(1);
    }

    // Output: group columns (named by expression) + one per aggregate.
    Table out;
    if (!synthetic_empty_group) {
      for (size_t i = 0; i < group_values_.size(); ++i) {
        LAZYETL_RETURN_NOT_OK(out.AddColumn(node_->group_exprs[i]->ToString(),
                                            std::move(group_values_[i])));
      }
    }
    for (size_t i = 0; i < accs_.size(); ++i) {
      LAZYETL_ASSIGN_OR_RETURN(Column c, accs_[i].Finish(num_groups));
      LAZYETL_RETURN_NOT_OK(
          out.AddColumn("#agg" + std::to_string(i), std::move(c)));
    }

    uint64_t state = group_key_bytes_ + out.MemoryBytes();
    for (const auto& acc : accs_) state += acc.StateBytes();
    RecordStateBytes(state);
    emitter_.Reset(std::move(out), ctx_->batch_rows);
    return Status::OK();
  }

  Result<bool> NextImpl(Batch* out) override {
    if (!external_) return emitter_.Next(out, parallel_drive());
    Table merged;
    LAZYETL_ASSIGN_OR_RETURN(bool more,
                             merger_.Next(ctx_->batch_rows, &merged));
    if (!more) {
      if (!emitted_) {
        emitted_ = true;
        LAZYETL_ASSIGN_OR_RETURN(Table empty, helper_.EmptyOutput());
        *out = Batch::Materialized(std::move(empty));
        return true;
      }
      return false;
    }
    *out = Batch::Materialized(std::move(merged));
    out->seq = next_seq_++;
    emitted_ = true;
    return true;
  }

  void CloseImpl() override { helper_.ReleaseReservations(); }

 private:
  // Budget mode: per-batch partials merge into the GroupSpillHelper's
  // governed state (in any arrival order — the first-occurrence tags
  // restore the serial group order at emission), which spills partitions
  // when its reservation fails.
  Status OpenBudgeted(size_t threads) {
    std::vector<std::string> names;
    for (const auto& g : node_->group_exprs) names.push_back(g->ToString());
    helper_.Init(this, ctx_, std::move(names));
    std::vector<GroupScratch> scratches(std::max<size_t>(threads, 1));
    LAZYETL_RETURN_NOT_OK(ParallelDrain(
        child(), threads, [&](size_t worker, Batch&& batch) -> Status {
          GroupedPartial partial;
          LAZYETL_RETURN_NOT_OK(AggregateBatch(batch.view, KnownRuns(batch),
                                               batch.seq, &scratches[worker],
                                               &partial));
          return helper_.MergePartial(std::move(partial));
        }));

    if (helper_.total_groups() == 0 && node_->group_exprs.empty()) {
      // Grand aggregate over an empty input still yields one row.
      std::vector<Accumulator> accs = helper_.acc_protos();
      Table out;
      for (size_t i = 0; i < accs.size(); ++i) {
        accs[i].Resize(1);
        LAZYETL_ASSIGN_OR_RETURN(Column c, accs[i].Finish(1));
        LAZYETL_RETURN_NOT_OK(
            out.AddColumn("#agg" + std::to_string(i), std::move(c)));
      }
      RecordStateBytes(helper_.resident_bytes());
      emitter_.Reset(std::move(out), ctx_->batch_rows);
      return Status::OK();
    }
    if (!helper_.spilled()) {
      // State fit the budget: keep the parallel emitter path — a budget
      // alone must not serialise queries that never overflow it.
      LAZYETL_ASSIGN_OR_RETURN(Table out, helper_.FinishInMemory());
      RecordStateBytes(helper_.resident_bytes());
      emitter_.Reset(std::move(out), ctx_->batch_rows);
      return Status::OK();
    }
    external_ = true;
    LAZYETL_ASSIGN_OR_RETURN(merger_, helper_.Finish());
    RecordStateBytes(helper_.resident_bytes());
    return Status::OK();
  }

  Status ConsumeParallel(size_t threads) {
    std::mutex mu;
    std::vector<GroupedPartial> partials;
    std::vector<GroupScratch> scratches(std::max<size_t>(threads, 1));
    LAZYETL_RETURN_NOT_OK(ParallelDrain(
        child(), threads, [&](size_t worker, Batch&& batch) -> Status {
          GroupedPartial partial;
          LAZYETL_RETURN_NOT_OK(AggregateBatch(batch.view, KnownRuns(batch),
                                               batch.seq, &scratches[worker],
                                               &partial));
          std::lock_guard<std::mutex> lock(mu);
          partials.push_back(std::move(partial));
          return Status::OK();
        }));
    std::sort(partials.begin(), partials.end(),
              [](const GroupedPartial& a, const GroupedPartial& b) {
                return a.seq < b.seq;
              });

    bool first = true;
    for (GroupedPartial& partial : partials) {
      if (first) {
        for (const Column& c : partial.values) {
          group_values_.emplace_back(c.type());
        }
        for (size_t i = 0; i < accs_.size(); ++i) {
          accs_[i].Prepare(partial.accs[i].arg_type());
        }
        first = false;
      }
      // Resolve every local group to its global id first, then merge
      // the accumulator partials in one bulk pass per aggregate.
      const size_t n = partial.keys.size();
      merge_dst_.resize(n);
      for (size_t g = 0; g < n; ++g) {
        bool inserted;
        const uint32_t dst = group_vindex_.FindOrInsert(
            partial.keys[g], group_keys_, &inserted);
        if (inserted) {
          group_keys_.push_back(partial.keys[g]);
          ++group_count_;
          group_key_bytes_ += partial.keys[g].size();
          for (size_t i = 0; i < group_values_.size(); ++i) {
            LAZYETL_RETURN_NOT_OK(
                group_values_[i].AppendRange(partial.values[i], g, 1));
          }
        }
        merge_dst_[g] = dst;
      }
      for (auto& acc : accs_) acc.Resize(group_count_);
      for (size_t i = 0; i < accs_.size(); ++i) {
        accs_[i].MergeGroupsBulk(partial.accs[i], merge_dst_.data(), n);
      }
    }
    return Status::OK();
  }

  // The batch's record runs when they are runs of equal group keys.
  const SelectionVector* KnownRuns(const Batch& batch) const {
    return node_->keys_constant_per_record ? &batch.record_runs : nullptr;
  }

  // Pre-aggregates one batch into `partial`. Pure per-batch work — safe
  // to run concurrently on distinct batches. The hash table and key
  // buffer live in the per-worker scratch and are reused across batches.
  Status AggregateBatch(const TableSlice& view,
                        const SelectionVector* known_runs, uint64_t seq,
                        GroupScratch* scratch, GroupedPartial* partial) {
    LAZYETL_RETURN_NOT_OK(scratch->group.Resolve(node_->group_exprs, view));
    const GroupKeyColumns& group = scratch->group;
    scratch->arg_cols.clear();
    for (const auto& a : node_->aggregates) {
      if (a.arg) {
        LAZYETL_ASSIGN_OR_RETURN(Column c, EvaluateExpr(*a.arg, view));
        scratch->arg_cols.push_back(std::move(c));
      } else {
        scratch->arg_cols.emplace_back(DataType::kInt64);  // COUNT(*)
      }
    }
    partial->seq = seq;
    for (const Column* c : group.cols) partial->values.emplace_back(c->type());
    for (size_t i = 0; i < node_->aggregates.size(); ++i) {
      partial->accs.emplace_back(node_->aggregates[i]);
      partial->accs.back().Prepare(scratch->arg_cols[i].type());
    }

    const size_t rows = view.num_rows();
    if (node_->group_exprs.empty() && rows > 0) {
      // Ungrouped: one implicit group, fed whole batches.
      partial->keys.emplace_back();
      partial->tag_seq.push_back(static_cast<int64_t>(seq));
      partial->tag_row.push_back(0);
      for (auto& acc : partial->accs) acc.Resize(1);
      for (size_t i = 0; i < partial->accs.size(); ++i) {
        partial->accs[i].FoldRange(0, &scratch->arg_cols[i], 0, rows);
      }
      return Status::OK();
    }
    std::string& key = scratch->key;
    // Columnar pre-aggregation: batch group ids first (hash + bit-equal
    // probe, in row order, so ids follow first occurrence), then pack a
    // key only once per group and fold the whole batch through the
    // grouped accumulator kernels.
    kernels::GroupIdBuilder& b = scratch->builder;
    const size_t ngroups = b.Build(group.cols.data(), group.cols.size(),
                                   group.offset, rows, known_runs);
    for (size_t g = 0; g < ngroups; ++g) {
      const size_t row = b.first_row[g];
      const size_t src = group.offset + row;
      key.clear();
      for (const Column* c : group.cols) PackRowKey(*c, src, &key);
      partial->keys.push_back(key);
      for (size_t i = 0; i < group.cols.size(); ++i) {
        LAZYETL_RETURN_NOT_OK(
            partial->values[i].AppendRange(*group.cols[i], src, 1));
      }
      partial->tag_seq.push_back(static_cast<int64_t>(seq));
      partial->tag_row.push_back(static_cast<int64_t>(row));
    }
    for (auto& acc : partial->accs) acc.Resize(ngroups);
    for (size_t i = 0; i < partial->accs.size(); ++i) {
      partial->accs[i].UpdateGrouped(b.gids.data(), b.run_heads,
                                     &scratch->arg_cols[i], rows);
    }
    return Status::OK();
  }

  Status ConsumeBatch(const TableSlice& view,
                      const SelectionVector* known_runs, bool first_batch) {
    // Resolve grouping keys and evaluate aggregate arguments per batch.
    LAZYETL_RETURN_NOT_OK(group_.Resolve(node_->group_exprs, view));
    std::vector<Column> arg_cols;
    arg_cols.reserve(node_->aggregates.size());
    for (const auto& a : node_->aggregates) {
      if (a.arg) {
        LAZYETL_ASSIGN_OR_RETURN(Column c, EvaluateExpr(*a.arg, view));
        arg_cols.push_back(std::move(c));
      } else {
        arg_cols.emplace_back(DataType::kInt64);  // COUNT(*): unused
      }
    }
    if (first_batch) {
      for (const Column* c : group_.cols) {
        group_values_.emplace_back(c->type());
      }
      for (size_t i = 0; i < accs_.size(); ++i) {
        accs_[i].Prepare(arg_cols[i].type());
      }
    }

    const size_t rows = view.num_rows();
    if (node_->group_exprs.empty()) {
      if (rows > 0) {
        group_count_ = 1;
        for (auto& acc : accs_) acc.Resize(group_count_);
        for (size_t i = 0; i < accs_.size(); ++i) {
          accs_[i].FoldRange(0, &arg_cols[i], 0, rows);
        }
      }
      return Status::OK();
    }
    std::string key;
    // Columnar serial consume: batch-local group ids, then one global
    // hash lookup per LOCAL group (not per row) to translate local ids
    // to global ones, then grouped accumulator kernels over the batch.
    const size_t ngroups =
        builder_.Build(group_.cols.data(), group_.cols.size(), group_.offset,
                       rows, known_runs);
    global_gids_.resize(ngroups);
    for (size_t g = 0; g < ngroups; ++g) {
      const size_t src = group_.offset + builder_.first_row[g];
      key.clear();
      for (const Column* c : group_.cols) PackRowKey(*c, src, &key);
      bool inserted;
      const uint32_t dst =
          group_vindex_.FindOrInsert(key, group_keys_, &inserted);
      if (inserted) {
        group_keys_.push_back(key);
        ++group_count_;
        group_key_bytes_ += key.size();
        for (size_t i = 0; i < group_.cols.size(); ++i) {
          LAZYETL_RETURN_NOT_OK(
              group_values_[i].AppendRange(*group_.cols[i], src, 1));
        }
      }
      global_gids_[g] = dst;
    }
    for (auto& acc : accs_) acc.Resize(group_count_);
    // In runs, UpdateGrouped reads only each run head's gid.
    if (builder_.run_heads.empty()) {
      for (size_t row = 0; row < rows; ++row) {
        builder_.gids[row] = global_gids_[builder_.gids[row]];
      }
    } else {
      for (uint32_t head : builder_.run_heads) {
        builder_.gids[head] = global_gids_[builder_.gids[head]];
      }
    }
    for (size_t i = 0; i < accs_.size(); ++i) {
      accs_[i].UpdateGrouped(builder_.gids.data(), builder_.run_heads,
                             &arg_cols[i], rows);
    }
    return Status::OK();
  }

  const PlanNode* node_;
  ExecContext* ctx_;
  std::vector<Accumulator> accs_;
  // Cross-batch group index + its gid-ordered key store.
  PackedKeyIndex group_vindex_;
  std::vector<std::string> group_keys_;
  std::vector<uint32_t> merge_dst_;  // per-partial dst scratch
  std::vector<Column> group_values_;  // representative values per group
  size_t group_count_ = 0;
  uint64_t group_key_bytes_ = 0;
  // Serial-consume scratch (ConsumeBatch only — the parallel paths use the
  // per-worker GroupScratch instead).
  GroupKeyColumns group_;
  kernels::GroupIdBuilder builder_;
  std::vector<uint32_t> global_gids_;
  TableEmitter emitter_;
  // Budget-mode state.
  bool external_ = false;
  bool emitted_ = false;
  uint64_t next_seq_ = 0;
  GroupSpillHelper helper_;
  RunMerger merger_;
};

// --------------------------------------------------------------------------
// Distinct
// --------------------------------------------------------------------------

// Batch-local dedup: appends one row index and packed key per distinct
// row of `view` to `keep` / `keys`. GroupIdBuilder's first_row is
// ascending, so rows come out in first-occurrence order.
void DistinctRows(const TableSlice& view, GroupScratch* scratch,
                  SelectionVector* keep, std::vector<std::string>* keys) {
  const size_t ncols = view.num_columns();
  scratch->colptrs.clear();
  for (size_t c = 0; c < ncols; ++c) {
    scratch->colptrs.push_back(&view.column(c));
  }
  const size_t ngroups = scratch->builder.Build(
      scratch->colptrs.data(), ncols, view.offset(), view.num_rows());
  for (size_t g = 0; g < ngroups; ++g) {
    const size_t row = scratch->builder.first_row[g];
    scratch->key.clear();
    for (size_t c = 0; c < ncols; ++c) {
      PackRowKey(view.column(c), view.offset() + row, &scratch->key);
    }
    keep->push_back(static_cast<uint32_t>(row));
    keys->push_back(scratch->key);
  }
}

// Streaming duplicate elimination: a global seen-set of packed row keys;
// each batch forwards only its first-occurrence rows. In parallel mode it
// becomes a breaker: workers dedupe each batch locally (pure per-batch
// work) and the survivors are merged against the global set in seq order
// — exactly the serial first-occurrence output.
class DistinctOperator : public BatchOperator {
 public:
  DistinctOperator(ExecContext* ctx, BatchOperatorPtr child)
      : BatchOperator("Distinct"), ctx_(ctx) {
    AddChild(std::move(child));
  }

  // Streaming (serial) mode shares the seen-set across calls; only the
  // materialised parallel mode may be pulled concurrently.
  bool ParallelSafe() const override { return parallel_mode_; }
  size_t MorselCount() const override { return emitter_.MorselCount(); }

 protected:
  Status OpenImpl() override {
    size_t threads = ctx_->query_threads;
    if (ctx_->budgeted()) return OpenBudgeted(threads);
    parallel_mode_ = threads > 1 && child()->ParallelSafe();
    if (!parallel_mode_) return Status::OK();

    struct BatchPartial {
      uint64_t seq = 0;
      std::vector<std::string> keys;  // aligned with rows of `rows`
      Table rows;                     // first-in-batch occurrences
    };
    std::mutex mu;
    std::vector<BatchPartial> partials;
    std::vector<GroupScratch> scratches(std::max<size_t>(threads, 1));
    LAZYETL_RETURN_NOT_OK(ParallelDrain(
        child(), threads, [&](size_t worker, Batch&& batch) -> Status {
          BatchPartial partial;
          partial.seq = batch.seq;
          SelectionVector keep;
          DistinctRows(batch.view, &scratches[worker], &keep, &partial.keys);
          partial.rows = batch.view.Gather(keep);
          std::lock_guard<std::mutex> lock(mu);
          partials.push_back(std::move(partial));
          return Status::OK();
        }));
    std::sort(partials.begin(), partials.end(),
              [](const BatchPartial& a, const BatchPartial& b) {
                return a.seq < b.seq;
              });

    Table out;
    bool first = true;
    for (const BatchPartial& partial : partials) {
      if (first) {
        out = partial.rows.Gather({});  // schema
        first = false;
      }
      SelectionVector keep;
      for (size_t r = 0; r < partial.keys.size(); ++r) {
        bool inserted;
        seen_index_.FindOrInsert(partial.keys[r], seen_keys_, &inserted);
        if (inserted) {
          seen_keys_.push_back(partial.keys[r]);
          seen_bytes_ += partial.keys[r].size();
          keep.push_back(static_cast<uint32_t>(r));
        }
      }
      if (keep.empty()) continue;
      if (keep.size() == partial.rows.num_rows()) {
        LAZYETL_RETURN_NOT_OK(out.AppendTable(partial.rows));
      } else {
        LAZYETL_RETURN_NOT_OK(out.AppendTable(partial.rows.Gather(keep)));
      }
    }
    RecordStateBytes(seen_bytes_);
    emitter_.Reset(std::move(out), ctx_->batch_rows);
    return Status::OK();
  }

  Result<bool> NextImpl(Batch* out) override {
    if (external_) {
      Table merged;
      LAZYETL_ASSIGN_OR_RETURN(bool more,
                               merger_.Next(ctx_->batch_rows, &merged));
      if (!more) {
        if (!emitted_) {
          emitted_ = true;
          *out = Batch::Materialized(payload_proto_.Gather({}));
          return true;
        }
        return false;
      }
      *out = Batch::Materialized(std::move(merged));
      out->seq = next_seq_++;
      emitted_ = true;
      return true;
    }
    if (parallel_mode_) return emitter_.Next(out, parallel_drive());
    while (true) {
      Batch in;
      LAZYETL_ASSIGN_OR_RETURN(bool more, child()->Next(&in));
      if (!more) {
        if (!emitted_) {
          emitted_ = true;
          *out = Batch::Materialized(std::move(empty_));
          return true;
        }
        return false;
      }
      // Columnar streaming dedup: batch-local distinct rows first, then
      // one seen-set probe per local group. A row that duplicates an
      // earlier row of the same batch is never new (the earlier row either
      // entered the set or was already in it), so only first occurrences
      // probe.
      local_rows_.clear();
      local_keys_.clear();
      DistinctRows(in.view, &scratch_, &local_rows_, &local_keys_);
      SelectionVector keep;
      for (size_t g = 0; g < local_rows_.size(); ++g) {
        bool inserted;
        seen_index_.FindOrInsert(local_keys_[g], seen_keys_, &inserted);
        if (inserted) {
          seen_keys_.push_back(std::move(local_keys_[g]));
          seen_bytes_ += seen_keys_.back().size();
          keep.push_back(local_rows_[g]);
        }
      }
      RecordStateBytes(seen_bytes_);
      if (keep.size() == in.num_rows()) {
        *out = std::move(in);
        emitted_ = true;
        return true;
      }
      if (keep.empty()) {
        if (!emitted_) empty_ = in.view.Gather({});
        continue;
      }
      uint64_t seq = in.seq;
      *out = Batch::Materialized(in.view.Gather(keep));
      out->seq = seq;
      emitted_ = true;
      return true;
    }
  }

  void CloseImpl() override { helper_.ReleaseReservations(); }

 private:
  // Budget mode (any thread count): Distinct becomes a breaker whose
  // seen-state is governed by the GroupSpillHelper — every column is a
  // group column, there are no accumulators, and duplicate rows are
  // byte-identical so keeping the minimum-tag representative reproduces
  // the streaming first-occurrence output exactly.
  Status OpenBudgeted(size_t threads) {
    external_ = true;
    helper_.Init(this, ctx_, {});  // names come from the first partial
    std::vector<GroupScratch> scratches(std::max<size_t>(threads, 1));
    std::mutex proto_mu;
    LAZYETL_RETURN_NOT_OK(ParallelDrain(
        child(), threads, [&](size_t worker, Batch&& batch) -> Status {
          GroupedPartial partial;
          partial.seq = batch.seq;
          for (size_t c = 0; c < batch.view.num_columns(); ++c) {
            partial.names.push_back(batch.view.column_name(c));
          }
          SelectionVector keep;
          DistinctRows(batch.view, &scratches[worker], &keep, &partial.keys);
          partial.tag_seq.assign(keep.size(), static_cast<int64_t>(batch.seq));
          partial.tag_row.assign(keep.begin(), keep.end());
          Table rows = batch.view.Gather(keep);
          for (size_t c = 0; c < rows.num_columns(); ++c) {
            partial.values.push_back(std::move(rows.column(c)));
          }
          {
            std::lock_guard<std::mutex> lock(proto_mu);
            if (payload_proto_.num_columns() == 0) {
              payload_proto_ = batch.view.Gather({});
            }
          }
          return helper_.MergePartial(std::move(partial));
        }));
    if (!helper_.spilled()) {
      // Fit within the budget: parallel emitter path, as unbudgeted.
      LAZYETL_ASSIGN_OR_RETURN(Table out, helper_.FinishInMemory());
      RecordStateBytes(helper_.resident_bytes());
      emitter_.Reset(std::move(out), ctx_->batch_rows);
      external_ = false;
      parallel_mode_ = true;
      return Status::OK();
    }
    LAZYETL_ASSIGN_OR_RETURN(merger_, helper_.Finish());
    RecordStateBytes(helper_.resident_bytes());
    return Status::OK();
  }

  ExecContext* ctx_;
  bool parallel_mode_ = false;
  TableEmitter emitter_;
  // Open-addressing seen-index + its key store.
  PackedKeyIndex seen_index_;
  std::vector<std::string> seen_keys_;
  // Streaming-mode scratch for the batch-local dedup.
  GroupScratch scratch_;
  SelectionVector local_rows_;
  std::vector<std::string> local_keys_;
  uint64_t seen_bytes_ = 0;
  Table empty_;
  bool emitted_ = false;
  // Budget-mode state.
  bool external_ = false;
  uint64_t next_seq_ = 0;
  Table payload_proto_;
  GroupSpillHelper helper_;
  RunMerger merger_;
};

// --------------------------------------------------------------------------
// HashJoin
// --------------------------------------------------------------------------

// Build side (left child) is consumed whole into a hash index — the
// pipeline-breaking half; the probe side (right child) then streams
// through, emitting one joined batch per probe batch. The build index is
// read-only after Open, so probe batches may be processed concurrently
// (parallel probe): each worker probes and assembles its own joined
// batch.
//
// Budget mode: the build side accumulates under a reservation; on
// overflow both sides are radix-partitioned on the join key to spill
// files (Grace join) and the partitions are joined one at a time,
// recursing with a re-seeded hash when a build partition still exceeds
// the budget. Every joined row carries the probe arrival tag (seq, row)
// plus a match counter in build-row order, and the joined fragments are
// re-merged by that tag — the emitted row sequence equals the in-memory
// join's seq-ordered output exactly.
// Build sides below this many rows keep the Bloom pushdown unpublished
// under kAuto (which already limits the pushdown to Grace joins): the
// per-partition probe is cheap against a tiny index, so double-hashing
// every probe row at the scan would not pay for itself.
constexpr size_t kBloomMinBuildRows = 1024;

class HashJoinOperator : public BatchOperator {
 public:
  HashJoinOperator(const PlanNode* node, ExecContext* ctx,
                   BatchOperatorPtr left, BatchOperatorPtr right,
                   std::shared_ptr<JoinBloomSlot> bloom_slot)
      : BatchOperator("HashJoin"),
        node_(node),
        ctx_(ctx),
        bloom_slot_(std::move(bloom_slot)) {
    AddChild(std::move(left));
    AddChild(std::move(right));
  }

  bool ParallelSafe() const override {
    return !grace_ && child(1)->ParallelSafe();
  }
  size_t MorselCount() const override { return child(1)->MorselCount(); }

 protected:
  Status OpenImpl() override {
    if (node_->left_keys.size() != node_->right_keys.size() ||
        node_->left_keys.empty()) {
      return Status::InvalidArgument("join key arity mismatch");
    }
    if (ctx_->budgeted()) return OpenBudgeted(ctx_->query_threads);
    Stopwatch build_timer;
    LAZYETL_ASSIGN_OR_RETURN(
        build_table_, DrainToTableOrdered(child(0), ctx_->query_threads));
    kernels::BlockedBloomFilter* bloom = nullptr;
    // An in-memory probe discards non-matching rows in the hash lookup
    // almost as cheaply as the filter would, while the pushdown's
    // scan-side gather copies every surviving morsel — so kAuto reserves
    // the filter for the budgeted path, where dropped probe rows save
    // partition and spill I/O. kForce overrides for tests and benches.
    if (bloom_slot_ != nullptr &&
        ResolveJoinBloomMode() == JoinBloomMode::kForce) {
      bloom_slot_->filter.Init(build_table_.num_rows());
      bloom = &bloom_slot_->filter;
    }
    LAZYETL_RETURN_NOT_OK(build_.Init(&build_table_, node_->left_keys,
                                      ctx_->query_threads, bloom));
    RecordJoinBuild();
    // Publish before the first probe batch is pulled; the scan observes
    // `ready` with acquire ordering, so the filled filter is visible.
    if (bloom != nullptr) {
      bloom_slot_->ready.store(true, std::memory_order_release);
    }
    RecordJoinBuildSeconds(build_timer.ElapsedSeconds());
    RecordStateBytes(build_table_.MemoryBytes() + build_.IndexBytes());
    return Status::OK();
  }

  Result<bool> NextImpl(Batch* out) override {
    if (grace_) {
      Table merged;
      LAZYETL_ASSIGN_OR_RETURN(bool more,
                               merger_.Next(ctx_->batch_rows, &merged));
      if (!more) {
        if (!grace_emitted_) {
          grace_emitted_ = true;
          LAZYETL_ASSIGN_OR_RETURN(Table empty, EmptyJoined());
          *out = Batch::Materialized(std::move(empty));
          return true;
        }
        return false;
      }
      *out = Batch::Materialized(std::move(merged));
      out->seq = next_seq_++;
      grace_emitted_ = true;
      return true;
    }
    while (true) {
      Batch in;
      LAZYETL_ASSIGN_OR_RETURN(bool more, child(1)->Next(&in));
      if (!more) {
        if (parallel_drive()) return false;
        if (!emitted_.exchange(true)) {
          std::lock_guard<std::mutex> lock(empty_mu_);
          LAZYETL_ASSIGN_OR_RETURN(Table empty, JoinBatch({}, probe_empty_));
          *out = Batch::Materialized(std::move(empty));
          return true;
        }
        return false;
      }
      SelectionVector build_sel;
      SelectionVector probe_sel;
      Stopwatch probe_timer;
      LAZYETL_RETURN_NOT_OK(
          build_.Probe(in.view, node_->right_keys, &build_sel, &probe_sel));
      RecordJoinProbeSeconds(probe_timer.ElapsedSeconds());
      if (probe_sel.empty()) {
        if (!emitted_.load()) {
          std::lock_guard<std::mutex> lock(empty_mu_);
          if (!empty_captured_) {
            probe_empty_ = in.view.Gather({});
            empty_captured_ = true;
          }
        }
        continue;
      }
      uint64_t seq = in.seq;
      LAZYETL_ASSIGN_OR_RETURN(
          Table joined, JoinBatch(build_sel, in.view.Gather(probe_sel)));
      *out = Batch::Materialized(std::move(joined));
      out->seq = seq;
      emitted_.store(true);
      return true;
    }
  }

  void CloseImpl() override { res_state_.ReleaseAll(); }

 private:
  using WriterVec = SpillWriterVec;

  // Joined output: build-side rows picked by `build_sel` extended with the
  // already-gathered probe-side columns.
  Result<Table> JoinBatch(const SelectionVector& build_sel,
                          const Table& probe_rows) {
    Table out = build_table_.Gather(build_sel);
    for (size_t i = 0; i < probe_rows.num_columns(); ++i) {
      LAZYETL_RETURN_NOT_OK(
          out.AddColumn(probe_rows.column_name(i), probe_rows.column(i)));
    }
    return out;
  }

  // Appends "#tseq"/"#trow" tag columns to a materialised batch.
  static Result<Table> TagRows(Table rows, uint64_t seq) {
    std::vector<int64_t> tseq(rows.num_rows(), static_cast<int64_t>(seq));
    std::vector<int64_t> trow(rows.num_rows());
    std::iota(trow.begin(), trow.end(), 0);
    LAZYETL_RETURN_NOT_OK(
        rows.AddColumn("#tseq", Column::FromInt64(std::move(tseq))));
    LAZYETL_RETURN_NOT_OK(
        rows.AddColumn("#trow", Column::FromInt64(std::move(trow))));
    return rows;
  }

  // Radix-partitions `rows` on the packed key of `key_cols` at `level`
  // into the writers, frame-bounded so replay memory stays bounded even
  // when `rows` is a budget-sized buffer.
  Status PartitionRows(const Table& rows, const std::vector<size_t>& key_cols,
                       size_t level, WriterVec* writers) {
    return PartitionTableToWriters(rows, key_cols, level, ctx_->batch_rows,
                                   writers);
  }

  // Key column indices within a tagged partition table (payload columns
  // precede the two tag columns, so payload indices are stable).
  static Result<std::vector<size_t>> ResolveKeys(
      const Table& table, const std::vector<std::string>& names) {
    std::vector<size_t> cols;
    for (const auto& name : names) {
      LAZYETL_ASSIGN_OR_RETURN(size_t i, table.ColumnIndex(name));
      cols.push_back(i);
    }
    return cols;
  }

  Status OpenBudgeted(size_t threads) {
    // Phase 1: drain the build side under the reservation; on overflow,
    // switch to writing key-partitioned build files.
    std::mutex mu;
    Table build_rows;             // tagged accumulation (payload + tags)
    bool build_init = false;
    WriterVec build_writers;
    std::vector<size_t> build_key_cols;
    res_state_.Reset(ctx_->budget);
    Stopwatch build_timer;

    // Budgeted Bloom fill: every build row passes through the phase-1
    // sink exactly once (fit and Grace alike), so the filter is complete
    // before any probe row is pulled. The key count is unknown upfront;
    // a fixed 64 KiB filter keeps the false-positive rate useful without
    // charging the budget (it is deliberately outside governance — a
    // fixed small cost that *reduces* spill volume).
    const bool fill_bloom = bloom_slot_ != nullptr;
    uint64_t bloom_rows = 0;
    if (fill_bloom) bloom_slot_->filter.InitBlocks(1024);

    LAZYETL_RETURN_NOT_OK(ParallelDrain(
        child(0), threads, [&](size_t, Batch&& batch) -> Status {
          LAZYETL_ASSIGN_OR_RETURN(Table tagged,
                                   TagRows(batch.view.Materialize(),
                                           batch.seq));
          std::lock_guard<std::mutex> lock(mu);
          if (!build_init) {
            build_rows = tagged.Gather({});
            build_proto_ = batch.view.Gather({});
            LAZYETL_ASSIGN_OR_RETURN(
                build_key_cols, ResolveKeys(build_rows, node_->left_keys));
            build_init = true;
          }
          if (fill_bloom) {
            bloom_rows += tagged.num_rows();
            BloomInsertRows(tagged, build_key_cols);
          }
          if (!build_writers.empty()) {
            return PartitionRows(tagged, build_key_cols, 0, &build_writers);
          }
          uint64_t added = tagged.MemoryBytes();
          LAZYETL_RETURN_NOT_OK(build_rows.AppendTable(tagged));
          if (!res_state_.Grow(added)) {
            RecordStateBytes(res_state_.held() + added);
            LAZYETL_ASSIGN_OR_RETURN(
                build_writers,
                OpenPartitionWriters(kSpillFanout, build_rows.schema(),
                                     ctx_->spill));
            LAZYETL_RETURN_NOT_OK(
                PartitionRows(build_rows, build_key_cols, 0, &build_writers));
            build_rows = build_rows.Gather({});
            res_state_.ReleaseAll();
          }
          return Status::OK();
        }));

    // kForce publishes for fit and Grace alike; kAuto waits until the
    // join actually goes Grace (below) — that is where dropped probe
    // rows save partition and spill I/O, while an in-memory probe
    // discards them just as cheaply without the scan-side gather.
    if (fill_bloom && ResolveJoinBloomMode() == JoinBloomMode::kForce) {
      bloom_slot_->ready.store(true, std::memory_order_release);
    }

    if (build_writers.empty()) {
      // Everything fit: reorder into arrival order and try the in-memory
      // index (reserving roughly its footprint on top of the payload). An
      // index reservation failure still forces Grace.
      Table sorted = SortRunRows(build_rows, 2, {true, true});
      build_rows = Table();
      if (res_state_.Grow(sorted.MemoryBytes())) {
        for (size_t c = 0; c + 2 < sorted.num_columns(); ++c) {
          LAZYETL_RETURN_NOT_OK(build_table_.AddColumn(
              sorted.column_name(c), std::move(sorted.column(c))));
        }
        LAZYETL_RETURN_NOT_OK(build_.Init(&build_table_, node_->left_keys,
                                          ctx_->query_threads));
        RecordJoinBuild();
        RecordJoinBuildSeconds(build_timer.ElapsedSeconds());
        RecordStateBytes(build_table_.MemoryBytes() + build_.IndexBytes());
        return Status::OK();
      }
      LAZYETL_ASSIGN_OR_RETURN(
          build_writers,
          OpenPartitionWriters(kSpillFanout, sorted.schema(), ctx_->spill));
      LAZYETL_RETURN_NOT_OK(
          PartitionRows(sorted, build_key_cols, 0, &build_writers));
      res_state_.ReleaseAll();
    }
    grace_ = true;
    if (fill_bloom && bloom_rows >= kBloomMinBuildRows) {
      bloom_slot_->ready.store(true, std::memory_order_release);
    }
    RecordJoinBuildSeconds(build_timer.ElapsedSeconds());
    LAZYETL_ASSIGN_OR_RETURN(
        std::vector<std::string> build_paths,
        SealPartitionWriters(&build_writers, this, ctx_->spill));

    // Phase 2: drain the probe side into matching key partitions.
    WriterVec probe_writers;
    std::vector<size_t> probe_key_cols;
    bool probe_init = false;
    LAZYETL_RETURN_NOT_OK(ParallelDrain(
        child(1), threads, [&](size_t, Batch&& batch) -> Status {
          LAZYETL_ASSIGN_OR_RETURN(Table tagged,
                                   TagRows(batch.view.Materialize(),
                                           batch.seq));
          std::lock_guard<std::mutex> lock(mu);
          if (!probe_init) {
            probe_proto_ = batch.view.Gather({});
            LAZYETL_ASSIGN_OR_RETURN(
                probe_key_cols, ResolveKeys(tagged, node_->right_keys));
            LAZYETL_ASSIGN_OR_RETURN(
                probe_writers,
                OpenPartitionWriters(kSpillFanout, tagged.schema(),
                                     ctx_->spill));
            probe_init = true;
          }
          return PartitionRows(tagged, probe_key_cols, 0, &probe_writers);
        }));
    std::vector<std::string> probe_paths;
    if (probe_init) {
      LAZYETL_ASSIGN_OR_RETURN(
          probe_paths,
          SealPartitionWriters(&probe_writers, this, ctx_->spill));
    } else {
      probe_paths.assign(kSpillFanout, "");
    }

    // Phase 3: join the partition pairs; joined fragments become
    // tag-sorted runs merged at emission.
    merger_.Configure(3, {true, true, true}, ctx_->spill);
    for (size_t p = 0; p < kSpillFanout; ++p) {
      if (build_paths[p].empty() || probe_paths[p].empty()) {
        if (!build_paths[p].empty()) ctx_->spill->RemoveFile(build_paths[p]);
        if (!probe_paths[p].empty()) ctx_->spill->RemoveFile(probe_paths[p]);
        continue;
      }
      if (PartitionPairDisjoint(build_paths[p], probe_paths[p], build_key_cols,
                                probe_key_cols)) {
        ctx_->spill->RemoveFile(build_paths[p]);
        ctx_->spill->RemoveFile(probe_paths[p]);
        continue;
      }
      LAZYETL_RETURN_NOT_OK(JoinPartition(build_paths[p], probe_paths[p], 1));
    }
    return Status::OK();
  }

  // Zone-map pair skip: the run headers carry per-column min/max, so a
  // build/probe pair whose key ranges provably cannot intersect joins to
  // nothing and need not be read at all. Conservative on any error.
  static bool PartitionPairDisjoint(const std::string& build_path,
                                    const std::string& probe_path,
                                    const std::vector<size_t>& build_keys,
                                    const std::vector<size_t>& probe_keys) {
    storage::SpillRunHeader bh;
    storage::SpillRunHeader ph;
    if (!storage::ReadSpillHeader(build_path, &bh).ok()) return false;
    if (!storage::ReadSpillHeader(probe_path, &ph).ok()) return false;
    return SpillRunsDisjoint(bh, ph, build_keys, probe_keys);
  }

  // Joins one build/probe partition pair, recursing when the build side
  // still overflows the budget.
  Status JoinPartition(const std::string& build_path,
                       const std::string& probe_path, size_t level) {
    RecordPartitions(1);
    common::MemoryReservation res(ctx_->budget);

    // Load the build partition (payload + tags).
    storage::SpillReader breader;
    LAZYETL_RETURN_NOT_OK(breader.Open(build_path));
    Table build_part;
    bool overflow = false;
    Table frame;
    while (true) {
      LAZYETL_ASSIGN_OR_RETURN(bool more, breader.Next(&frame));
      if (!more) break;
      if (build_part.num_columns() == 0) build_part = frame.Gather({});
      LAZYETL_RETURN_NOT_OK(build_part.AppendTable(frame));
      if (!res.Grow(frame.MemoryBytes()) && level < kMaxSpillLevel &&
          build_part.num_rows() >= kMinSplitRows) {
        overflow = true;
        break;
      }
    }
    if (overflow) {
      // Sub-partition both sides with the re-seeded hash and recurse.
      LAZYETL_ASSIGN_OR_RETURN(std::vector<size_t> bkeys,
                               ResolveKeys(build_part, node_->left_keys));
      WriterVec sub_build;
      LAZYETL_ASSIGN_OR_RETURN(
          sub_build,
          OpenPartitionWriters(kSpillFanout, build_part.schema(),
                               ctx_->spill));
      LAZYETL_RETURN_NOT_OK(
          PartitionRows(build_part, bkeys, level, &sub_build));
      build_part = Table();
      res.ReleaseAll();
      while (true) {
        LAZYETL_ASSIGN_OR_RETURN(bool more, breader.Next(&frame));
        if (!more) break;
        LAZYETL_RETURN_NOT_OK(PartitionRows(frame, bkeys, level, &sub_build));
      }
      ctx_->spill->RemoveFile(build_path);
      LAZYETL_ASSIGN_OR_RETURN(
          std::vector<std::string> sub_build_paths,
          SealPartitionWriters(&sub_build, this, ctx_->spill));

      storage::SpillReader preader;
      LAZYETL_RETURN_NOT_OK(preader.Open(probe_path));
      WriterVec sub_probe;
      std::vector<size_t> pkeys;
      bool pkeys_init = false;
      while (true) {
        LAZYETL_ASSIGN_OR_RETURN(bool more, preader.Next(&frame));
        if (!more) break;
        if (!pkeys_init) {
          LAZYETL_ASSIGN_OR_RETURN(pkeys,
                                   ResolveKeys(frame, node_->right_keys));
          LAZYETL_ASSIGN_OR_RETURN(
              sub_probe,
              OpenPartitionWriters(kSpillFanout, frame.schema(),
                                   ctx_->spill));
          pkeys_init = true;
        }
        LAZYETL_RETURN_NOT_OK(PartitionRows(frame, pkeys, level, &sub_probe));
      }
      ctx_->spill->RemoveFile(probe_path);
      std::vector<std::string> sub_probe_paths;
      if (pkeys_init) {
        LAZYETL_ASSIGN_OR_RETURN(
            sub_probe_paths,
            SealPartitionWriters(&sub_probe, this, ctx_->spill));
      } else {
        sub_probe_paths.assign(kSpillFanout, "");
      }
      for (size_t p = 0; p < kSpillFanout; ++p) {
        if (sub_build_paths[p].empty() || sub_probe_paths[p].empty()) {
          if (!sub_build_paths[p].empty()) {
            ctx_->spill->RemoveFile(sub_build_paths[p]);
          }
          if (!sub_probe_paths[p].empty()) {
            ctx_->spill->RemoveFile(sub_probe_paths[p]);
          }
          continue;
        }
        if (PartitionPairDisjoint(sub_build_paths[p], sub_probe_paths[p],
                                  bkeys, pkeys)) {
          ctx_->spill->RemoveFile(sub_build_paths[p]);
          ctx_->spill->RemoveFile(sub_probe_paths[p]);
          continue;
        }
        LAZYETL_RETURN_NOT_OK(
            JoinPartition(sub_build_paths[p], sub_probe_paths[p], level + 1));
      }
      return Status::OK();
    }
    ctx_->spill->RemoveFile(build_path);

    // Build the partition index over arrival-ordered payload rows, so
    // per-probe-row matches enumerate in global build-row order.
    Stopwatch part_build_timer;
    Table bt;
    if (build_part.num_rows() > 0) {
      Table sorted = SortRunRows(build_part, 2, {true, true});
      for (size_t c = 0; c + 2 < sorted.num_columns(); ++c) {
        LAZYETL_RETURN_NOT_OK(
            bt.AddColumn(sorted.column_name(c), std::move(sorted.column(c))));
      }
    }
    JoinBuild jb;
    LAZYETL_RETURN_NOT_OK(
        jb.Init(&bt, node_->left_keys, ctx_->query_threads));
    RecordJoinBuild();
    RecordJoinBuildSeconds(part_build_timer.ElapsedSeconds());

    // Stream the probe partition, spooling tagged joined fragments.
    storage::SpillReader preader;
    LAZYETL_RETURN_NOT_OK(preader.Open(probe_path));
    Table out_buf;
    common::MemoryReservation out_res(ctx_->budget);
    double probe_seconds = 0;
    while (true) {
      LAZYETL_ASSIGN_OR_RETURN(bool more, preader.Next(&frame));
      if (!more) break;
      if (frame.num_rows() == 0) continue;
      TableSlice probe = frame.Slice(0, frame.num_rows());
      SelectionVector build_sel;
      SelectionVector probe_sel;
      Stopwatch probe_timer;
      LAZYETL_RETURN_NOT_OK(
          jb.Probe(probe, node_->right_keys, &build_sel, &probe_sel));
      probe_seconds += probe_timer.ElapsedSeconds();
      if (probe_sel.empty()) continue;

      // Joined fragment: build payload + probe payload + (#tseq, #trow,
      // #tk) with the match counter in build-row order per probe row.
      Table joined = bt.Gather(build_sel);
      const size_t probe_payload = frame.num_columns() - 2;
      for (size_t c = 0; c < probe_payload; ++c) {
        LAZYETL_RETURN_NOT_OK(joined.AddColumn(
            frame.column_name(c), frame.column(c).Gather(probe_sel)));
      }
      LAZYETL_RETURN_NOT_OK(joined.AddColumn(
          "#tseq", frame.column(probe_payload).Gather(probe_sel)));
      LAZYETL_RETURN_NOT_OK(joined.AddColumn(
          "#trow", frame.column(probe_payload + 1).Gather(probe_sel)));
      std::vector<int64_t> tk(probe_sel.size());
      for (size_t i = 0; i < probe_sel.size(); ++i) {
        tk[i] = (i > 0 && probe_sel[i] == probe_sel[i - 1]) ? tk[i - 1] + 1
                                                            : 0;
      }
      LAZYETL_RETURN_NOT_OK(
          joined.AddColumn("#tk", Column::FromInt64(std::move(tk))));

      if (out_buf.num_columns() == 0) out_buf = joined.Gather({});
      uint64_t added = joined.MemoryBytes();
      LAZYETL_RETURN_NOT_OK(out_buf.AppendTable(joined));
      if (!out_res.Grow(added)) {
        Table run = SortRunRows(out_buf, 3, {true, true, true});
        std::string run_path;
        LAZYETL_ASSIGN_OR_RETURN(
            SpillWriteStats stats,
            WriteRunFile(run, ctx_->batch_rows, ctx_->spill, &run_path));
        RecordSpill(stats.logical_bytes, 1);
        RecordSpillIO(stats.compressed_bytes, stats.write_wait_seconds);
        LAZYETL_RETURN_NOT_OK(merger_.AddSpilledRun(run_path));
        out_buf = out_buf.Gather({});
        out_res.ReleaseAll();
      }
    }
    ctx_->spill->RemoveFile(probe_path);
    RecordJoinProbeSeconds(probe_seconds);
    RecordStateBytes(res.held() + out_res.held());
    res.ReleaseAll();

    if (out_buf.num_rows() > 0) {
      // Always to disk: in-memory runs would eat the headroom the later
      // partitions need (see GroupSpillHelper::ProcessPartition).
      Table run = SortRunRows(out_buf, 3, {true, true, true});
      std::string run_path;
      LAZYETL_ASSIGN_OR_RETURN(
          SpillWriteStats stats,
          WriteRunFile(run, ctx_->batch_rows, ctx_->spill, &run_path));
      RecordSpill(stats.logical_bytes, 1);
      RecordSpillIO(stats.compressed_bytes, stats.write_wait_seconds);
      LAZYETL_RETURN_NOT_OK(merger_.AddSpilledRun(run_path));
    }
    return Status::OK();
  }

  // Budgeted Bloom fill: folds the key columns of one tagged build batch
  // into per-row hashes (same seed/fold as JoinBuild and BloomProbe) and
  // inserts them. Called under the phase-1 mutex; per-batch dictionaries
  // hash once via a pointer-keyed cache (the shared_ptr pins the address).
  void BloomInsertRows(const Table& tagged,
                       const std::vector<size_t>& key_cols) {
    const size_t n = tagged.num_rows();
    if (n == 0) return;
    std::vector<uint64_t> hashes(n, kernels::kGroupHashSeed);
    for (size_t i : key_cols) {
      const Column& c = tagged.column(i);
      const uint64_t* dh = nullptr;
      if (c.type() == DataType::kString && c.dict_encoded()) {
        std::vector<uint64_t>* cached = nullptr;
        for (auto& e : bloom_dict_hashes_) {
          if (e.first.get() == c.dictionary().get()) {
            cached = &e.second;
            break;
          }
        }
        if (cached == nullptr) {
          bloom_dict_hashes_.emplace_back(c.dictionary(),
                                          std::vector<uint64_t>());
          cached = &bloom_dict_hashes_.back().second;
          kernels::HashDictionary(*c.dictionary(), cached);
        }
        dh = cached->data();
      }
      kernels::JoinHashColumn(c, 0, n, dh, hashes.data());
    }
    for (uint64_t h : hashes) bloom_slot_->filter.Insert(h);
  }

  // Zero-row joined table: build payload schema + probe payload schema.
  Result<Table> EmptyJoined() const {
    Table out;
    for (size_t c = 0; c < build_proto_.num_columns(); ++c) {
      LAZYETL_RETURN_NOT_OK(out.AddColumn(
          build_proto_.column_name(c),
          Column(build_proto_.schema()[c].type)));
    }
    for (size_t c = 0; c < probe_proto_.num_columns(); ++c) {
      LAZYETL_RETURN_NOT_OK(out.AddColumn(
          probe_proto_.column_name(c),
          Column(probe_proto_.schema()[c].type)));
    }
    return out;
  }

  const PlanNode* node_;
  ExecContext* ctx_;
  std::shared_ptr<JoinBloomSlot> bloom_slot_;
  std::vector<std::pair<std::shared_ptr<const std::vector<std::string>>,
                        std::vector<uint64_t>>>
      bloom_dict_hashes_;
  Table build_table_;
  JoinBuild build_;
  std::mutex empty_mu_;
  Table probe_empty_;
  bool empty_captured_ = false;
  std::atomic<bool> emitted_{false};
  // Budget-mode state.
  bool grace_ = false;
  bool grace_emitted_ = false;
  uint64_t next_seq_ = 0;
  Table build_proto_;
  Table probe_proto_;
  RunMerger merger_;
  common::MemoryReservation res_state_;
};

}  // namespace

Result<BatchOperatorPtr> MakeSortOperator(const PlanNode& node,
                                          ExecContext* ctx,
                                          BatchOperatorPtr child) {
  return BatchOperatorPtr(
      std::make_unique<SortOperator>(&node, ctx, std::move(child)));
}

Result<BatchOperatorPtr> MakeTopKOperator(const PlanNode& node,
                                          ExecContext* ctx,
                                          BatchOperatorPtr child) {
  return BatchOperatorPtr(
      std::make_unique<TopKOperator>(&node, ctx, std::move(child)));
}

Result<BatchOperatorPtr> MakeAggregateOperator(const PlanNode& node,
                                               ExecContext* ctx,
                                               BatchOperatorPtr child) {
  return BatchOperatorPtr(
      std::make_unique<AggregateOperator>(&node, ctx, std::move(child)));
}

Result<BatchOperatorPtr> MakeDistinctOperator(const PlanNode& node,
                                              ExecContext* ctx,
                                              BatchOperatorPtr child) {
  (void)node;
  return BatchOperatorPtr(
      std::make_unique<DistinctOperator>(ctx, std::move(child)));
}

Result<BatchOperatorPtr> MakeHashJoinOperator(
    const PlanNode& node, ExecContext* ctx, BatchOperatorPtr left,
    BatchOperatorPtr right, std::shared_ptr<JoinBloomSlot> bloom) {
  return BatchOperatorPtr(std::make_unique<HashJoinOperator>(
      &node, ctx, std::move(left), std::move(right), std::move(bloom)));
}

}  // namespace lazyetl::engine
