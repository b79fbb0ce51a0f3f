// Spilled-run utilities for budget-governed pipeline breakers.
//
// Breakers that overflow their memory budget write *runs* — tables whose
// trailing columns order their rows (evaluated sort keys and/or arrival
// tags (seq, row) that are unique per input row) — to temp files via
// storage::SpillWriter, then stream them back through a k-way RunMerger.
// Because the runs are ordered by deterministic tags, the merged sequence
// is independent of spill timing, scheduling and thread count: it equals
// the in-memory operator's output row sequence exactly.

#ifndef LAZYETL_ENGINE_OPERATORS_SPILL_RUN_H_
#define LAZYETL_ENGINE_OPERATORS_SPILL_RUN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/spill.h"
#include "storage/spill_format.h"
#include "storage/table.h"

namespace lazyetl::engine {

// Three-way comparison of row `ar` of `a` against row `br` of `b` (same
// type). Integer-exact for int-like types; strings lexicographic; doubles
// under kernels::CompareDoubles.
int CompareColumnRows(const storage::Column& a, size_t ar,
                      const storage::Column& b, size_t br);

// Deterministic partition of a packed row key at recursion `level`
// (different levels decorrelate, so re-partitioning an overflowing
// partition actually splits it).
size_t SpillPartitionOf(const std::string& key, size_t level, size_t fanout);

// Sorts `table` rows by its trailing `order_cols` columns (per-column
// ascending flags, lexicographic). The last order column must be unique
// (an arrival tag), so the result is a total, deterministic order.
storage::Table SortRunRows(const storage::Table& table, size_t order_cols,
                           const std::vector<bool>& ascending);

// What one run write cost: logical (uncompressed-equivalent) spill volume,
// physical bytes after per-column compression, and how long the producer
// was blocked on disk I/O (0 when the async writer fully overlapped it).
struct SpillWriteStats {
  uint64_t logical_bytes = 0;
  uint64_t compressed_bytes = 0;
  double write_wait_seconds = 0.0;
};

// Writes `table` to a fresh spill file in frames of `frame_rows` rows so
// read-back memory stays bounded; returns the write stats.
Result<SpillWriteStats> WriteRunFile(const storage::Table& table,
                                     size_t frame_rows,
                                     common::SpillManager* spill,
                                     std::string* path_out);

// True when the run-level zone maps of `a` and `b` prove the paired key
// columns cannot share any value (some int-like key column has disjoint
// [min,max] ranges). Conservative: false whenever bounds are missing.
// Lets Grace hash join skip build/probe partition pairs outright.
bool SpillRunsDisjoint(const storage::SpillRunHeader& a,
                       const storage::SpillRunHeader& b,
                       const std::vector<size_t>& a_cols,
                       const std::vector<size_t>& b_cols);

class BatchOperator;

using SpillWriterVec = std::vector<std::unique_ptr<storage::SpillWriter>>;

// Opens `fanout` fresh partition spill files sharing `schema`.
Result<SpillWriterVec> OpenPartitionWriters(size_t fanout,
                                            const storage::TableSchema& schema,
                                            common::SpillManager* spill);

// Finishes every writer, charges the non-empty ones to `op`'s spill
// counters, deletes the empty ones, and returns one path per partition
// ("" where the partition was empty). Clears `writers`.
Result<std::vector<std::string>> SealPartitionWriters(
    SpillWriterVec* writers, BatchOperator* op, common::SpillManager* spill);

// Radix-partitions `rows` on the packed key of `key_cols` at recursion
// `level` into the writers, appending each partition in frames of at
// most `frame_rows` rows — `rows` may be far larger than a batch (e.g.
// a budget-sized build buffer), and replay memory is bounded by the
// frame size, so the frames must be too.
Status PartitionTableToWriters(const storage::Table& rows,
                               const std::vector<size_t>& key_cols,
                               size_t level, size_t frame_rows,
                               SpillWriterVec* writers);

// Streaming k-way merge over runs ordered by their trailing columns.
// Holds one frame per spilled run; consumed spill files are deleted
// eagerly. Emitted tables carry only the payload (leading) columns.
// When deep recursion produced more runs than kMaxFanIn, groups of runs
// are pre-merged into larger spilled runs first (multi-pass external
// merge), bounding open file handles and resident frames.
//
// Run headers are read exactly once (at AddSpilledRun) and carried with
// the run through every merge pass. Two zone-map optimizations ride on
// them when the merge columns are int-like:
//   - deferred opens: a run whose run-level minimum orders after the
//     current merge head stays unopened and undecoded until a row
//     actually reaches its range;
//   - bulk appends: when the remainder of the leading run's frame orders
//     before every other head (frames are sorted), it is appended
//     column-at-a-time instead of row-at-a-time.
class RunMerger {
 public:
  static constexpr size_t kMaxFanIn = 64;

  // `ascending[i]` applies to trailing order column i (of `order_cols`).
  void Configure(size_t order_cols, std::vector<bool> ascending,
                 common::SpillManager* spill) {
    order_cols_ = order_cols;
    asc_ = std::move(ascending);
    spill_ = spill;
  }

  Status AddSpilledRun(const std::string& path);
  void AddMemoryRun(storage::Table table);

  // Fills *out with up to `max_rows` merged rows (payload columns only);
  // returns false when all runs are exhausted.
  Result<bool> Next(size_t max_rows, storage::Table* out);

 private:
  struct Run {
    std::unique_ptr<storage::SpillReader> reader;  // null for memory runs
    std::string path;
    storage::SpillRunHeader header;  // parsed once, reused on every open
    // Merge-order lower bound of all rows (per merge column, already
    // oriented by the ascending flags), from the run-level zone map.
    std::vector<int64_t> min_key;
    bool has_min_key = false;
    storage::Table current;
    size_t cursor = 0;
    bool done = false;
    bool opened = false;  // frames are being streamed (or memory run)
  };

  Status Advance(Run* run);
  // Merge-order three-way comparison of row `ar` of `a` vs `br` of `b`.
  int CompareRuns(const Run& a, size_t ar, const Run& b, size_t br) const;
  bool RowLess(const Run& a, const Run& b) const;
  // True when `deferred`'s zone-map lower bound orders strictly after row
  // `row` of `r` — every row of the unopened run then comes later.
  bool BoundAfter(const Run& deferred, const Run& r, size_t row) const;
  // Reduces runs_ to at most kMaxFanIn by merging groups of runs into
  // fresh spilled runs (order columns preserved).
  Status PrepareFanIn();

  // Trailing columns the merge compares on. Normally order_cols_; the
  // internal pre-merge passes strip nothing (order_cols_ = 0) but still
  // compare on the parent's order columns.
  size_t merge_cols() const { return merge_cols_ ? merge_cols_ : order_cols_; }

  size_t order_cols_ = 0;  // trailing columns stripped from the output
  size_t merge_cols_ = 0;  // 0 = same as order_cols_
  std::vector<bool> asc_;
  common::SpillManager* spill_ = nullptr;
  std::vector<Run> runs_;
  size_t payload_cols_ = 0;
  storage::TableSchema payload_schema_;
  bool schema_known_ = false;
  bool prepared_ = false;
};

}  // namespace lazyetl::engine

#endif  // LAZYETL_ENGINE_OPERATORS_SPILL_RUN_H_
