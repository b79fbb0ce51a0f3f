// Shared row-key packing and the hash-join build side, used by the join,
// aggregate and distinct operators and by the LazyDataScan run-time
// rewrite (build once over the metadata side, probe per record batch).
//
// Build-side rows are batch-hashed (optionally in parallel on the shared
// ThreadPool), landed in an open-addressing table with cached hashes, and
// match lists are stored as one counting-sorted row array sliced by
// per-key offsets. Probes batch-hash the probe columns and verify
// hash-equal candidates with the exact cross-table row equality of
// kernels::JoinRowsEqual: integer types and doubles compare as 8-byte
// words (doubles by bit pattern, so NaN joins NaN and -0.0 does not join
// 0.0), strings by contents, bools by truth value; keys of different
// classes never match. Dict-encoded string keys hash via per-dictionary
// content hashes, so they join against plain (or differently-coded)
// string columns without decoding. Matches are emitted in probe order
// with build rows ascending per probe row.

#ifndef LAZYETL_ENGINE_OPERATORS_JOIN_BUILD_H_
#define LAZYETL_ENGINE_OPERATORS_JOIN_BUILD_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/kernels.h"
#include "storage/slice.h"
#include "storage/table.h"

namespace lazyetl::engine {

// Appends a type-tagged binary encoding of row `row` of `col` to `out`,
// such that two rows encode equal iff their values are equal.
void PackRowKey(const storage::Column& col, size_t row, std::string* out);

// Bloom semi-join pushdown policy, from LAZYETL_JOIN_BLOOM:
// unset/"1"/"auto" -> kAuto (push only when the join goes Grace and the
// build side is big enough to pay for the hashing — dropped probe rows
// then save partition and spill I/O, whereas an in-memory probe discards
// them nearly as cheaply as the filter would), "0"/"off" -> kOff,
// "force" -> kForce (push for in-memory joins too — tests and benches).
enum class JoinBloomMode { kOff, kAuto, kForce };
JoinBloomMode ResolveJoinBloomMode();

// Hash index over the key columns of a materialised build-side table.
class JoinBuild {
 public:
  // `build` must outlive this object. `threads` > 1 hashes build rows in
  // parallel on the shared ThreadPool (per-row work is pure, so the
  // result is identical at any thread count). When `bloom` is non-null,
  // every distinct build-key hash is inserted into it (the filter must
  // already be Init'd).
  Status Init(const storage::Table* build,
              const std::vector<std::string>& keys, size_t threads = 1,
              kernels::BlockedBloomFilter* bloom = nullptr);

  // Probes the viewed rows of `probe` on `keys` (same arity as the build
  // keys); appends matching (build_row, slice-relative probe_row) pairs in
  // probe order. Thread-safe: concurrent Probe calls against one Init'd
  // JoinBuild are allowed (LazyDataScan probes from pool workers).
  Status Probe(const storage::TableSlice& probe,
               const std::vector<std::string>& keys,
               storage::SelectionVector* build_sel,
               storage::SelectionVector* probe_sel) const;

  const storage::Table& table() const { return *build_; }

  // Approximate bytes held by the hash index (not the build table).
  uint64_t IndexBytes() const { return index_bytes_; }

 private:
  // Per-dictionary content hashes for probe-side dict columns, cached so
  // repeated probe batches sharing a dictionary hash it once. Keyed by
  // the dictionary's address; the shared_ptr keeps that address alive so
  // a recycled allocation can never alias a stale entry.
  const std::vector<uint64_t>* ProbeDictHashes(
      const std::shared_ptr<const std::vector<std::string>>& dict) const;

  const storage::Table* build_ = nullptr;
  size_t key_arity_ = 0;
  uint64_t index_bytes_ = 0;

  // Open addressing over distinct keys. slots_ holds key-id+1 (0 =
  // empty); key_hashes_/key_first_ cache each distinct key's hash and a
  // representative build row; rows_sorted_ holds all build rows
  // counting-sorted by key id (ascending within a key) and row_offsets_
  // (size = #keys + 1) slices it per key.
  std::vector<uint32_t> slots_;
  size_t slot_mask_ = 0;
  std::vector<uint64_t> key_hashes_;
  std::vector<uint32_t> key_first_;
  std::vector<uint32_t> rows_sorted_;
  std::vector<uint32_t> row_offsets_;
  std::vector<const storage::Column*> build_cols_;
  std::vector<std::vector<uint64_t>> build_dict_hashes_;

  mutable std::mutex probe_cache_mu_;
  mutable std::vector<std::pair<std::shared_ptr<const std::vector<std::string>>,
                                std::unique_ptr<std::vector<uint64_t>>>>
      probe_dict_cache_;
};

}  // namespace lazyetl::engine

#endif  // LAZYETL_ENGINE_OPERATORS_JOIN_BUILD_H_
