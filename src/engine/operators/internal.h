// Internal factory functions wiring PlanNodes to concrete operators, plus
// small helpers shared between the operator translation units. Not part
// of the engine's public surface.

#ifndef LAZYETL_ENGINE_OPERATORS_INTERNAL_H_
#define LAZYETL_ENGINE_OPERATORS_INTERNAL_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "engine/kernels.h"
#include "engine/operators/operator.h"

namespace lazyetl::engine {

// Semi-join pushdown channel between a hash join and its probe-side scan.
// The operator-tree builder allocates one slot per eligible join, hands it
// to both operators, and the join publishes a Bloom filter over its
// build-side key hashes before the first probe batch is pulled (the join's
// OpenImpl runs after its children open, before any Next). The scan
// checks `ready` with acquire ordering on every batch; until the join
// stores it with release ordering the scan passes rows through untouched,
// so the filter is strictly an early-out — never a correctness input.
// `key_names` are the scan-output names of the probe-side join keys, in
// build-key order so both sides fold hashes identically.
struct JoinBloomSlot {
  std::vector<std::string> key_names;
  kernels::BlockedBloomFilter filter;
  std::atomic<bool> ready{false};
};

// Re-emits an operator-owned table as a sequence of zero-copy batches of
// at most `batch_rows` rows (at least one batch, possibly empty, so the
// schema always flows). Used by pipeline breakers. Thread-safe: morsels
// are handed out through an atomic cursor, and `seq` is the slice index —
// a pure function of the morsel range.
class TableEmitter {
 public:
  void Reset(storage::Table table, size_t batch_rows) {
    table_ = std::make_shared<const storage::Table>(std::move(table));
    step_ = std::min(batch_rows, std::max<size_t>(table_->num_rows(), 1));
    offset_.store(0, std::memory_order_relaxed);
    emitted_.store(false, std::memory_order_relaxed);
  }

  // `suppress_empty` (the parallel-drive flag) skips the one-empty-batch
  // end-of-stream contract; the drive loop restores it serially.
  bool Next(Batch* out, bool suppress_empty = false) {
    size_t rows = table_->num_rows();
    size_t start = offset_.fetch_add(step_, std::memory_order_relaxed);
    if (start >= rows) {
      if (rows == 0 && !suppress_empty && !emitted_.exchange(true)) {
        out->owner = table_;
        out->view = table_->Slice(0, 0);
        out->seq = 0;
        return true;
      }
      return false;
    }
    out->owner = table_;
    out->view = table_->Slice(start, std::min(step_, rows - start));
    out->seq = start / step_;
    return true;
  }

  // The slices Next() hands out (0 for an empty table).
  size_t MorselCount() const {
    return table_ == nullptr ? 0 : (table_->num_rows() + step_ - 1) / step_;
  }

  const storage::Table& table() const { return *table_; }

 private:
  std::shared_ptr<const storage::Table> table_;
  size_t step_ = kDefaultBatchRows;
  std::atomic<size_t> offset_{0};
  std::atomic<bool> emitted_{false};
};

// Pipeline breakers (breakers.cc).
Result<BatchOperatorPtr> MakeSortOperator(const PlanNode& node,
                                          ExecContext* ctx,
                                          BatchOperatorPtr child);
Result<BatchOperatorPtr> MakeTopKOperator(const PlanNode& node,
                                          ExecContext* ctx,
                                          BatchOperatorPtr child);
Result<BatchOperatorPtr> MakeAggregateOperator(const PlanNode& node,
                                               ExecContext* ctx,
                                               BatchOperatorPtr child);
Result<BatchOperatorPtr> MakeDistinctOperator(const PlanNode& node,
                                              ExecContext* ctx,
                                              BatchOperatorPtr child);
Result<BatchOperatorPtr> MakeHashJoinOperator(
    const PlanNode& node, ExecContext* ctx, BatchOperatorPtr left,
    BatchOperatorPtr right,
    std::shared_ptr<JoinBloomSlot> bloom = nullptr);

// The §3.1 run-time rewrite operator (lazy_scan.cc); builds its own
// metadata subtree from node.children.
Result<BatchOperatorPtr> MakeLazyDataScanOperator(const PlanNode& node,
                                                  ExecContext* ctx);

}  // namespace lazyetl::engine

#endif  // LAZYETL_ENGINE_OPERATORS_INTERNAL_H_
