// Vectorized scan kernels: tight, auto-vectorizable per-type loops used by
// predicate evaluation (engine/expr_eval) and the streaming aggregates
// (engine/operators/breakers). No per-row virtual dispatch and no Value
// boxing — the comparison op is dispatched once, outside the loop, and each
// branch body is a plain loop over contiguous data the compiler can SIMD.
//
// Determinism contract: every kernel visits rows in ascending order and
// performs exactly the arithmetic of the generic path it replaces. The
// comparators are the transparent std functors (std::less<> etc.), so mixed
// operand types go through the usual arithmetic conversions — identical to
// the generic evaluator's promoted compares. Double summation stays a
// serial in-order accumulation within each call (see SumRange), so a
// serial, unbudgeted aggregate sums its doubles in row order.

#ifndef LAZYETL_ENGINE_KERNELS_H_
#define LAZYETL_ENGINE_KERNELS_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "storage/column.h"

namespace lazyetl::engine::kernels {

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

// Applies `op` between `v` and `c` with the functor's usual arithmetic
// conversions (int32 vs int64 -> int64, int vs double -> double).
template <typename T, typename V>
inline bool ApplyCmp(CmpOp op, T v, V c) {
  switch (op) {
    case CmpOp::kEq: return std::equal_to<>()(v, c);
    case CmpOp::kNe: return std::not_equal_to<>()(v, c);
    case CmpOp::kLt: return std::less<>()(v, c);
    case CmpOp::kLe: return std::less_equal<>()(v, c);
    case CmpOp::kGt: return std::greater<>()(v, c);
    case CmpOp::kGe: return std::greater_equal<>()(v, c);
  }
  return false;
}

// data[i] `op` constant over [0, n) -> selection vector of passing rows.
// Op dispatch happens once; each case body is one branch-free loop: every
// row's index is written, and the write position advances only past the
// rows that pass.
template <typename T, typename V>
inline void CompareConstSelect(const T* data, size_t n, CmpOp op, V constant,
                               storage::SelectionVector* out) {
  out->resize(n);
  uint32_t* o = out->data();
  size_t k = 0;
  switch (op) {
#define LAZYETL_CMP_CASE(OP, FUNCTOR)                            \
  case CmpOp::OP:                                                \
    for (size_t i = 0; i < n; ++i) {                             \
      o[k] = static_cast<uint32_t>(i);                           \
      k += static_cast<size_t>(FUNCTOR()(data[i], constant));    \
    }                                                            \
    break;
    LAZYETL_CMP_CASE(kEq, std::equal_to<>)
    LAZYETL_CMP_CASE(kNe, std::not_equal_to<>)
    LAZYETL_CMP_CASE(kLt, std::less<>)
    LAZYETL_CMP_CASE(kLe, std::less_equal<>)
    LAZYETL_CMP_CASE(kGt, std::greater<>)
    LAZYETL_CMP_CASE(kGe, std::greater_equal<>)
#undef LAZYETL_CMP_CASE
  }
  out->resize(k);
}

// In-place refine: keeps only rows of `sel` whose value still passes
// data[row] `op` constant. Preserves ascending order.
template <typename T, typename V>
inline void CompareConstRefine(const T* data, CmpOp op, V constant,
                               storage::SelectionVector* sel) {
  size_t kept = 0;
  switch (op) {
#define LAZYETL_CMP_CASE(OP, FUNCTOR)                            \
  case CmpOp::OP:                                                \
    for (size_t i = 0; i < sel->size(); ++i) {                   \
      uint32_t row = (*sel)[i];                                  \
      if (FUNCTOR()(data[row], constant)) (*sel)[kept++] = row;  \
    }                                                            \
    break;
    LAZYETL_CMP_CASE(kEq, std::equal_to<>)
    LAZYETL_CMP_CASE(kNe, std::not_equal_to<>)
    LAZYETL_CMP_CASE(kLt, std::less<>)
    LAZYETL_CMP_CASE(kLe, std::less_equal<>)
    LAZYETL_CMP_CASE(kGt, std::greater<>)
    LAZYETL_CMP_CASE(kGe, std::greater_equal<>)
#undef LAZYETL_CMP_CASE
  }
  sel->resize(kept);
}

// The one order on doubles, shared by MIN/MAX and ORDER BY: NaN is greater
// than every number and equal to itself, as PostgreSQL orders it, and -0.0
// equals 0.0. It is a strict weak order (plain < is not once NaN appears),
// so an extreme or a stable sort does not depend on how the input was
// split into batches, morsels or spill runs. Returns -1, 0 or 1.
inline int CompareDoubles(double a, double b) {
  const bool a_nan = std::isnan(a);
  const bool b_nan = std::isnan(b);
  if (a_nan || b_nan) return static_cast<int>(a_nan) - static_cast<int>(b_nan);
  return a < b ? -1 : (a > b ? 1 : 0);
}

// Whether `v` strictly improves on the running MIN (`want_min`) or MAX
// `cur`; doubles compare under CompareDoubles.
template <typename V>
inline bool Improves(const V& v, const V& cur, bool want_min) {
  if constexpr (std::is_floating_point_v<V>) {
    const int cmp = CompareDoubles(v, cur);
    return want_min ? cmp < 0 : cmp > 0;
  } else {
    return want_min ? v < cur : v > cur;
  }
}

// Min/max over data[offset, offset+n) refining running bounds. `first`
// marks whether the running bounds are not yet seeded. Integers reduce
// with std::min/std::max (equal integers are indistinguishable, so this is
// the strict-improvement chain); doubles keep the CompareDoubles chain.
template <typename T, typename V>
inline void MinMaxRange(const T* data, size_t offset, size_t n, bool want_min,
                        bool* first, V* extreme) {
  if (n == 0) return;
  data += offset;
  size_t i = 0;
  if (*first) {
    *extreme = static_cast<V>(data[0]);
    *first = false;
    i = 1;
  }
  V ext = *extreme;
  if constexpr (std::is_floating_point_v<V>) {
    for (; i < n; ++i) {
      const V v = static_cast<V>(data[i]);
      if (Improves(v, ext, want_min)) ext = v;
    }
  } else if (want_min) {
    for (; i < n; ++i) ext = std::min(ext, static_cast<V>(data[i]));
  } else {
    for (; i < n; ++i) ext = std::max(ext, static_cast<V>(data[i]));
  }
  *extreme = ext;
}

// Sum over a contiguous range for SUM/AVG state: integer part vectorizes
// freely (int addition is associative); the double mirror accumulates
// row by row IN ORDER with a two-step cast (T -> int64 -> double).
template <typename T>
inline void SumRange(const T* data, size_t offset, size_t n, int64_t* isum,
                     double* dsum) {
  int64_t is = 0;
  for (size_t i = 0; i < n; ++i) is += static_cast<int64_t>(data[offset + i]);
  *isum += is;
  double ds = *dsum;
  for (size_t i = 0; i < n; ++i) {
    ds += static_cast<double>(static_cast<int64_t>(data[offset + i]));
  }
  *dsum = ds;
}

// Double-typed sum: strictly in-order accumulation (FP addition is not
// associative; a serial aggregate sums its doubles in row order).
inline void SumDoubleRange(const double* data, size_t offset, size_t n,
                           double* dsum) {
  double ds = *dsum;
  for (size_t i = 0; i < n; ++i) ds += data[offset + i];
  *dsum = ds;
}

// --- Batch hashing & group-id building (vectorized grouped aggregation) --

// Group identity in the aggregate/distinct breakers is defined by byte
// equality of PackRowKey-packed keys: doubles compare by bit pattern
// (NaN == NaN, -0.0 != 0.0), bools by truth value, strings by contents.
// GroupIdBuilder reproduces exactly that equivalence relation column-at-a-
// time: it hashes the grouping columns batch-wide (dictionary-encoded
// strings hash their u32 codes — within one column, code equality is
// string equality), then assigns dense group ids in ascending row order
// through an open-addressing map whose probe check is per-column bit
// equality against the group's first row. Because rows are visited in
// order, ids are dense in first-occurrence order — packing is only
// needed once per *group*, not once per row. When the batch comes in runs
// of equal keys (the lazy data scan emits one run per mSEED record), only
// run heads are hashed and probed; see FindRunHeads.

inline constexpr uint64_t kGroupHashSeed = 0x2545F4914F6CDD1Dull;

// 64-bit mix (splitmix-style finalizer folded into a rotate-combine).
inline uint64_t MixHash(uint64_t h, uint64_t v) {
  v *= 0xFF51AFD7ED558CCDull;
  v ^= v >> 33;
  v *= 0xC4CEB9FE1A85EC53ull;
  h ^= v;
  h = (h << 27) | (h >> 37);
  return h * 5 + 0x52DCE729;
}

inline uint64_t HashBytes(const char* data, size_t n) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

// Folds row `base + row(i)` of `c` into hashes[i], for i in [0, n).
// `row` is the identity for a contiguous range and a selection lookup for
// a gather; it inlines, so each case stays one plain loop. A dictionary-
// encoded string hashes dict_hashes[code] when `dict_hashes` is given
// (the encoding-independent join hash, see HashDictionary) and its code
// itself otherwise (the grouping identity within one column).
template <typename RowFn>
inline void HashColumnAt(const storage::Column& c, size_t base, size_t n,
                         RowFn row, const uint64_t* dict_hashes,
                         uint64_t* hashes) {
  switch (c.type()) {
    case storage::DataType::kString:
      if (c.dict_encoded()) {
        const uint32_t* codes = c.dict_codes().data() + base;
        if (dict_hashes != nullptr) {
          for (size_t i = 0; i < n; ++i) {
            hashes[i] = MixHash(hashes[i], dict_hashes[codes[row(i)]]);
          }
        } else {
          for (size_t i = 0; i < n; ++i) {
            hashes[i] = MixHash(hashes[i], codes[row(i)]);
          }
        }
      } else {
        const std::string* s = c.string_data().data() + base;
        for (size_t i = 0; i < n; ++i) {
          const std::string& v = s[row(i)];
          hashes[i] = MixHash(hashes[i], HashBytes(v.data(), v.size()));
        }
      }
      break;
    case storage::DataType::kDouble: {
      const double* d = c.double_data().data() + base;
      for (size_t i = 0; i < n; ++i) {
        hashes[i] = MixHash(hashes[i], std::bit_cast<uint64_t>(d[row(i)]));
      }
      break;
    }
    case storage::DataType::kBool: {
      const uint8_t* b = c.bool_data().data() + base;
      for (size_t i = 0; i < n; ++i) {
        hashes[i] = MixHash(hashes[i], b[row(i)] != 0 ? 1u : 0u);
      }
      break;
    }
    case storage::DataType::kInt32: {
      const int32_t* v = c.int32_data().data() + base;
      for (size_t i = 0; i < n; ++i) {
        hashes[i] = MixHash(
            hashes[i], static_cast<uint64_t>(static_cast<int64_t>(v[row(i)])));
      }
      break;
    }
    default: {  // kInt64 / kTimestamp
      const int64_t* v = c.int64_data().data() + base;
      for (size_t i = 0; i < n; ++i) {
        hashes[i] = MixHash(hashes[i], static_cast<uint64_t>(v[row(i)]));
      }
      break;
    }
  }
}

// Folds rows [offset, offset+n) of `c` into the per-row hash accumulators.
inline void HashColumn(const storage::Column& c, size_t offset, size_t n,
                       uint64_t* hashes) {
  HashColumnAt(c, offset, n, [](size_t i) { return i; }, nullptr, hashes);
}

// Bit-exact row equality over the grouping columns — the PackRowKey
// equivalence relation (see the block comment above). Always inlined: it
// is the per-row probe check of GroupIdBuilder.
[[gnu::always_inline]] inline bool GroupRowsEqual(
    const storage::Column* const* cols, size_t ncols, size_t offset,
    size_t a, size_t b) {
  for (size_t c = 0; c < ncols; ++c) {
    const storage::Column& col = *cols[c];
    switch (col.type()) {
      case storage::DataType::kString:
        if (col.dict_encoded()) {
          if (col.dict_codes()[offset + a] != col.dict_codes()[offset + b]) {
            return false;
          }
        } else if (col.string_data()[offset + a] !=
                   col.string_data()[offset + b]) {
          return false;
        }
        break;
      case storage::DataType::kDouble: {
        uint64_t ba;
        uint64_t bb;
        std::memcpy(&ba, &col.double_data()[offset + a], sizeof(ba));
        std::memcpy(&bb, &col.double_data()[offset + b], sizeof(bb));
        if (ba != bb) return false;
        break;
      }
      case storage::DataType::kBool:
        if ((col.bool_data()[offset + a] != 0) !=
            (col.bool_data()[offset + b] != 0)) {
          return false;
        }
        break;
      case storage::DataType::kInt32:
        if (col.int32_data()[offset + a] != col.int32_data()[offset + b]) {
          return false;
        }
        break;
      default:  // kInt64 / kTimestamp
        if (col.int64_data()[offset + a] != col.int64_data()[offset + b]) {
          return false;
        }
        break;
    }
  }
  return true;
}

// --- Run detection (run-aware grouping and join) -------------------------

// Marks d[i] for each row i in [1, n) whose value differs from row i-1
// under `differs`, overwriting d[1, n) when `first` and or-ing into it
// otherwise. Returns the number of marks in d[1, n) afterwards. For
// numbers, a stretch of kStride rows whose bytes equal their
// predecessors' (one memcmp of the column against itself shifted by a
// row) cannot differ under `differs`, which is bit-wise or coarser, so it
// is skipped without a per-row compare: long runs cost memcmp's speed.
template <typename T, typename DiffersFn>
inline size_t MarkChanges(const T* v, size_t n, bool first, uint8_t* d,
                          DiffersFn differs) {
  constexpr size_t kStride = 32;
  for (size_t i = 1; i < n;) {
    const size_t end = std::min(n, i + kStride);
    if constexpr (std::is_arithmetic_v<T>) {
      if (std::memcmp(v + i, v + i - 1, (end - i) * sizeof(T)) == 0) {
        if (first) std::memset(d + i, 0, end - i);
        i = end;
        continue;
      }
    }
    for (; i < end; ++i) {
      const uint8_t m = static_cast<uint8_t>(differs(v[i - 1], v[i]));
      d[i] = first ? m : static_cast<uint8_t>(d[i] | m);
    }
  }
  uint32_t marks = 0;
  for (size_t i = 1; i < n; ++i) marks += d[i];
  return marks;
}

// Lists in `heads` the rows of [offset, offset+rows) that start a run of
// equal keys: row 0, and every row whose key differs from the previous
// row's in some column — bit-wise, as GroupRowsEqual compares (dictionary
// codes, 8-byte words, double bit patterns, bool truth values, string
// contents). Works column at a time; `differs` is caller scratch. Returns
// false, with `heads` unspecified, once more than `max_heads` rows are
// known to head a run, or when the first block of the first column
// already holds more than its pro-rata share of max_heads: a batch
// without runs, whose caller's per-row path is then cheaper, pays for one
// block of compares.
inline bool FindRunHeads(const storage::Column* const* cols, size_t ncols,
                         size_t offset, size_t rows, size_t max_heads,
                         std::vector<uint8_t>* differs,
                         storage::SelectionVector* heads) {
  heads->clear();
  if (rows == 0) return true;
  differs->resize(rows);
  uint8_t* d = differs->data();
  d[0] = 1;
  if (ncols == 0) std::fill(d + 1, d + rows, 0);
  size_t count = 1;
  // Within a column, the count covers the rows compared so far: a lower
  // bound on the final count, checked every kBlock rows.
  constexpr size_t kBlock = 256;
  for (size_t c = 0; c < ncols; ++c) {
    const storage::Column& col = *cols[c];
    count = 1;
    for (size_t b = 1; b < rows; b += kBlock) {
      // Rows [b, e) are compared against their predecessors, so the
      // block's view starts one row early.
      const size_t e = std::min(rows, b + kBlock);
      const size_t n = e - b + 1;
      uint8_t* db = d + b - 1;
      const size_t at = offset + b - 1;
      const bool first = c == 0;
      switch (col.type()) {
        case storage::DataType::kString:
          if (col.dict_encoded()) {
            count += MarkChanges(col.dict_codes().data() + at, n, first, db,
                                 std::not_equal_to<>());
          } else {
            count += MarkChanges(col.string_data().data() + at, n, first, db,
                                 std::not_equal_to<>());
          }
          break;
        case storage::DataType::kDouble:
          count += MarkChanges(col.double_data().data() + at, n, first, db,
                               [](double x, double y) {
                                 return std::bit_cast<uint64_t>(x) !=
                                        std::bit_cast<uint64_t>(y);
                               });
          break;
        case storage::DataType::kBool:
          count += MarkChanges(col.bool_data().data() + at, n, first, db,
                               [](uint8_t x, uint8_t y) {
                                 return (x != 0) != (y != 0);
                               });
          break;
        case storage::DataType::kInt32:
          count += MarkChanges(col.int32_data().data() + at, n, first, db,
                               std::not_equal_to<>());
          break;
        default:  // kInt64 / kTimestamp
          count += MarkChanges(col.int64_data().data() + at, n, first, db,
                               std::not_equal_to<>());
          break;
      }
      if (count > max_heads) return false;
      if (c == 0 && b == 1 && (count - 1) * rows > max_heads * (e - 1)) {
        return false;
      }
    }
  }
  heads->resize(count + 1);  // one slack slot for the branch-free scatter
  uint32_t* h = heads->data();
  size_t k = 0;
  for (size_t i = 0; i < rows; ++i) {
    h[k] = static_cast<uint32_t>(i);
    k += d[i];
  }
  heads->resize(count);
  return true;
}

// Calls fn(gid, begin, length) for each run [begin, begin+length) that
// `heads` (FindRunHeads output over [0, rows)) delimits, in row order; a
// run's gid is its head's gids[] entry.
template <typename Fn>
inline void ForEachRun(const storage::SelectionVector& heads, size_t rows,
                       const uint32_t* gids, Fn fn) {
  for (size_t k = 0; k < heads.size(); ++k) {
    const size_t begin = heads[k];
    const size_t end = k + 1 < heads.size() ? heads[k + 1] : rows;
    fn(gids[begin], begin, end - begin);
  }
}

// Open-addressing batch group-id map. Build() fills `gids` (one dense id
// per row) and `first_row` (representative row per group, strictly
// ascending = first-occurrence order) and returns the group count. When
// the batch's mean run length is at least kMinRunLength (and its first
// block of rows does not already show shorter runs), `run_heads` lists
// its runs (every row of a run has its head's gid) and only the heads are
// hashed and probed; otherwise `run_heads` is empty and every row is. The
// choice follows the batch's own run count, and both paths assign the
// same ids. A caller that already knows runs of equal keys (the record
// runs of a lazy data scan, when every key reads metadata) passes them as
// `known_runs`, and no row is compared to find them. The scratch vectors
// persist across batches, so steady-state builds allocate nothing.
struct GroupIdBuilder {
  static constexpr size_t kMinRunLength = 4;

  std::vector<uint64_t> hashes;      // per hashed row (or run head)
  std::vector<uint32_t> gids;        // per row: dense group id
  std::vector<uint32_t> first_row;   // per group: first row (batch-relative)
  std::vector<uint64_t> group_hash;  // per group: its key hash
  storage::SelectionVector run_heads;
  std::vector<uint8_t> run_marks;    // FindRunHeads scratch
  std::vector<uint32_t> slots;       // probe table: group id + 1; 0 = empty
  size_t mask = 0;

  size_t Build(const storage::Column* const* cols, size_t ncols,
               size_t offset, size_t rows,
               const storage::SelectionVector* known_runs = nullptr) {
    if (known_runs != nullptr && !known_runs->empty()) {
      run_heads = *known_runs;
    } else if (!FindRunHeads(cols, ncols, offset, rows, rows / kMinRunLength,
                             &run_marks, &run_heads)) {
      run_heads.clear();
    }
    const bool runs = !run_heads.empty();
    const size_t keyed = runs ? run_heads.size() : rows;
    hashes.assign(keyed, kGroupHashSeed);
    for (size_t c = 0; c < ncols; ++c) {
      if (runs) {
        const uint32_t* heads = run_heads.data();
        HashColumnAt(*cols[c], offset, keyed,
                     [heads](size_t i) { return heads[i]; }, nullptr,
                     hashes.data());
      } else {
        HashColumn(*cols[c], offset, rows, hashes.data());
      }
    }
    size_t cap = 16;
    while (cap < keyed * 2) cap <<= 1;
    mask = cap - 1;
    slots.assign(cap, 0);
    gids.resize(rows);
    first_row.clear();
    group_hash.clear();
    if (runs) {
      Probe<true>(cols, ncols, offset, rows);
    } else {
      Probe<false>(cols, ncols, offset, rows);
    }
    return first_row.size();
  }

 private:
  // Gives the k-th hashed row (run head k when kRuns, else row k) its
  // group, found or added in first-occurrence order, and gives the rest
  // of its run the same group.
  template <bool kRuns>
  void Probe(const storage::Column* const* cols, size_t ncols, size_t offset,
             size_t rows) {
    const size_t keyed = kRuns ? run_heads.size() : rows;
    for (size_t k = 0; k < keyed; ++k) {
      const size_t r = kRuns ? run_heads[k] : k;
      const uint64_t h = hashes[k];
      size_t slot = h & mask;
      uint32_t g;
      for (;;) {
        const uint32_t s = slots[slot];
        if (s == 0) {
          g = static_cast<uint32_t>(first_row.size());
          slots[slot] = g + 1;
          first_row.push_back(static_cast<uint32_t>(r));
          group_hash.push_back(h);
          break;
        }
        g = s - 1;
        if (group_hash[g] == h &&
            GroupRowsEqual(cols, ncols, offset, first_row[g], r)) {
          break;
        }
        slot = (slot + 1) & mask;
      }
      if constexpr (kRuns) {
        const size_t end = k + 1 < keyed ? run_heads[k + 1] : rows;
        std::fill(gids.begin() + r, gids.begin() + end, g);
      } else {
        gids[r] = g;
      }
    }
  }
};

// --- Grouped accumulator kernels -----------------------------------------
//
// One pass over the batch with a group-id scatter. All kernels visit rows
// in ascending order, so each group's double SUM/AVG state accumulates in
// row order and a NaN that seeds a group's double MIN/MAX sticks. (A batch
// in runs folds each run through the range kernels above instead, which
// make the same updates in the same order.)

inline void CountGrouped(const uint32_t* gids, size_t n, int64_t* counts) {
  for (size_t i = 0; i < n; ++i) ++counts[gids[i]];
}

// Integer-typed SUM/AVG state: per-row updates of both the exact integer
// sum and its double mirror, in row order, with the two-step cast
// (T -> int64 -> double) of SumRange.
template <typename T>
inline void SumGrouped(const T* data, const uint32_t* gids, size_t n,
                       int64_t* isum, double* dsum) {
  for (size_t i = 0; i < n; ++i) {
    int64_t v = static_cast<int64_t>(data[i]);
    isum[gids[i]] += v;
    dsum[gids[i]] += static_cast<double>(v);
  }
}

inline void SumDoubleGrouped(const double* data, const uint32_t* gids,
                             size_t n, double* dsum) {
  for (size_t i = 0; i < n; ++i) dsum[gids[i]] += data[i];
}

// MIN/MAX with first-row seeding derived from the running counts (a group
// whose count is still zero takes the value unconditionally). Also
// advances counts.
template <typename T, typename V>
inline void MinMaxGrouped(const T* data, const uint32_t* gids, size_t n,
                          bool want_min, int64_t* counts, V* ext) {
  for (size_t i = 0; i < n; ++i) {
    uint32_t g = gids[i];
    bool first = counts[g]++ == 0;
    V v = static_cast<V>(data[i]);
    if (first || Improves(v, ext[g], want_min)) ext[g] = v;
  }
}

// --- Join-key hashing & cross-table row equality (vectorized hash join) --
//
// Join identity: doubles compare by bit pattern (NaN == NaN, -0.0 !=
// 0.0), int32 widens to int64 (so it matches an int64 of the same value —
// and a double whose bit pattern aliases, as their PackRowKey bytes do),
// bools by truth value, strings by contents, and keys of different
// classes (bool / 8-byte word / string) never match. Unlike the grouping
// kernels above, a join hashes keys from TWO tables, so dictionary codes
// are useless as hash input:
// the same string carries different codes in different dictionaries.
// Dict-encoded columns instead hash per-CODE content hashes precomputed
// once per dictionary (HashDictionary) — per row the hash is still one
// table lookup, and it equals the plain column's HashBytes of the same
// string, so hashes agree across encodings and tables.

// Content hash of every dictionary entry, one per code.
inline void HashDictionary(const std::vector<std::string>& dict,
                           std::vector<uint64_t>* out) {
  out->resize(dict.size());
  for (size_t i = 0; i < dict.size(); ++i) {
    (*out)[i] = HashBytes(dict[i].data(), dict[i].size());
  }
}

// Folds rows [offset, offset+n) of `c` into the per-row hash accumulators
// using encoding-independent value hashes. `dict_hashes` must be the
// HashDictionary output for c's dictionary when c is dict-encoded (null
// otherwise).
inline void JoinHashColumn(const storage::Column& c, size_t offset, size_t n,
                           const uint64_t* dict_hashes, uint64_t* hashes) {
  HashColumnAt(c, offset, n, [](size_t i) { return i; }, dict_hashes, hashes);
}

// Gather variant: folds rows base_offset + rows[i] of `c` into hashes[i].
// Used by the Bloom-pushdown scan, whose candidate rows are a selection.
inline void JoinHashRows(const storage::Column& c, size_t base_offset,
                         const uint32_t* rows, size_t n,
                         const uint64_t* dict_hashes, uint64_t* hashes) {
  HashColumnAt(c, base_offset, n, [rows](size_t i) { return rows[i]; },
               dict_hashes, hashes);
}

// Equality classes of the packed-key encoding: bool packs one byte,
// int32/int64/timestamp/double all pack the same 8-byte word (int32
// sign-extended, double by bit pattern), strings pack length + contents.
enum class JoinKeyClass { kBool, kWord, kString };

inline JoinKeyClass JoinClassOf(storage::DataType t) {
  switch (t) {
    case storage::DataType::kBool: return JoinKeyClass::kBool;
    case storage::DataType::kString: return JoinKeyClass::kString;
    default: return JoinKeyClass::kWord;
  }
}

// The 8-byte word a kWord-class column packs for `row`.
inline uint64_t JoinWordAt(const storage::Column& c, size_t row) {
  switch (c.type()) {
    case storage::DataType::kInt32:
      return static_cast<uint64_t>(
          static_cast<int64_t>(c.int32_data()[row]));
    case storage::DataType::kDouble: {
      uint64_t bits;
      std::memcpy(&bits, &c.double_data()[row], sizeof(bits));
      return bits;
    }
    default:  // kInt64 / kTimestamp
      return static_cast<uint64_t>(c.int64_data()[row]);
  }
}

// Row equality across two column sets (build vs probe) under the join
// identity above: word-class pairs of different types (int32 vs int64 vs
// double) compare by the 8-byte word, and pairs of different classes
// compare unequal.
inline bool JoinRowsEqual(const storage::Column* const* build_cols,
                          const storage::Column* const* probe_cols,
                          size_t ncols, size_t build_row, size_t probe_row) {
  for (size_t c = 0; c < ncols; ++c) {
    const storage::Column& bc = *build_cols[c];
    const storage::Column& pc = *probe_cols[c];
    const JoinKeyClass cls = JoinClassOf(bc.type());
    if (cls != JoinClassOf(pc.type())) return false;
    switch (cls) {
      case JoinKeyClass::kBool:
        if ((bc.bool_data()[build_row] != 0) !=
            (pc.bool_data()[probe_row] != 0)) {
          return false;
        }
        break;
      case JoinKeyClass::kWord:
        if (JoinWordAt(bc, build_row) != JoinWordAt(pc, probe_row)) {
          return false;
        }
        break;
      case JoinKeyClass::kString:
        if (bc.StringAt(build_row) != pc.StringAt(probe_row)) return false;
        break;
    }
  }
  return true;
}

// Blocked Bloom filter over the 64-bit join-key hashes: one 64-byte block
// (8 words, a cache line) per key, selected by the hash's high bits; six
// probe bits derived from the low 32 bits (Kirsch-Mitzenmacher double
// hashing). False positives only reduce the pushdown's skip rate — a
// passed row still goes through the exact join probe — so sizing is a
// performance knob, never a correctness one. Insert is not thread-safe;
// the join fills the filter before publishing it read-only.
class BlockedBloomFilter {
 public:
  static constexpr size_t kWordsPerBlock = 8;  // 512 bits

  // Sizes for ~12 bits per expected key, clamped to [16, 4096] blocks
  // (1 KiB .. 256 KiB). Also used with a fixed block count when the key
  // count is unknown upfront (the Grace build phase).
  void Init(size_t expected_keys) {
    size_t blocks = 16;
    while (blocks * kWordsPerBlock * 64 < expected_keys * 12 &&
           blocks < 4096) {
      blocks <<= 1;
    }
    InitBlocks(blocks);
  }

  void InitBlocks(size_t blocks) {  // `blocks` must be a power of two
    words_.assign(blocks * kWordsPerBlock, 0);
    block_mask_ = blocks - 1;
  }

  bool initialized() const { return !words_.empty(); }

  void Insert(uint64_t h) {
    uint64_t* block =
        words_.data() + ((h >> 32) & block_mask_) * kWordsPerBlock;
    const uint32_t lo = static_cast<uint32_t>(h);
    for (size_t k = 0; k < 6; ++k) {
      const uint32_t p = (lo * kOdd[k]) >> 23;  // top 9 bits: 0..511
      block[p >> 6] |= 1ull << (p & 63);
    }
  }

  bool MayContain(uint64_t h) const {
    const uint64_t* block =
        words_.data() + ((h >> 32) & block_mask_) * kWordsPerBlock;
    const uint32_t lo = static_cast<uint32_t>(h);
    for (size_t k = 0; k < 6; ++k) {
      const uint32_t p = (lo * kOdd[k]) >> 23;
      if ((block[p >> 6] & (1ull << (p & 63))) == 0) return false;
    }
    return true;
  }

  uint64_t MemoryBytes() const { return words_.capacity() * sizeof(uint64_t); }

 private:
  static constexpr uint32_t kOdd[6] = {0x9E3779B1u, 0x85EBCA77u, 0xC2B2AE3Du,
                                       0x27D4EB2Fu, 0x165667B1u, 0xD3A2646Du};
  std::vector<uint64_t> words_;
  size_t block_mask_ = 0;
};

}  // namespace lazyetl::engine::kernels

#endif  // LAZYETL_ENGINE_KERNELS_H_
