// Recycler: the warehouse's two caches (§3.3), one class.
//
// "Materialization of the extracted and transformed data is simply caching
// the result of a view definition", and "usually the end result of a view
// is saved in the cache". Both tiers are an LruCache: a byte-bounded LRU
// of shared, immutable values.
//
//   RecordCache  one decoded, transformed mSEED record per (file, seq_no):
//                its sample values plus the start time and sample rate its
//                timestamps derive from, within cache_budget_bytes. An
//                entry remembers its file's mtime at admission; a lookup
//                under another mtime erases it.
//   ResultCache  one whole query result of at most cursor_window_batches
//                batches per SQL text, within cache_budget_bytes / 32. It
//                keeps the (file, mtime) of every file the execution read;
//                a probe re-checks them. An entry counts its SQL, table and
//                dependencies: about 0.5 KB for a one-row answer.
//
// Concurrency: a cache is shared by every in-flight query of a Warehouse.
// The structure is mutex-guarded and lookups hand out shared_ptr handles,
// so a hit stays valid even if the entry is evicted by a concurrent
// admission. A lookup's freshness check runs outside the lock, so slow
// filesystem stats never serialise concurrent queries here. Counters are
// atomics — observable (Warehouse::Stats) without taking the cache lock.
//
// Memory governance: a cache can additionally charge its resident bytes
// to a `governor` budget (normally the process-global one), so cached
// values and in-flight query state compete for one cap. Resident cache
// bytes are bounded to a share of a finite global cap (half for the record
// tier, 1/64 for the result tier) — evictions only run at admission time,
// so a larger share could pin bytes queries have no way to reclaim — and
// under pressure admission evicts LRU entries (cache contents only ever
// affect timings, never results), bounded per admission so a transient
// spike cannot wipe the working set; what cannot be admitted is counted in
// `rejected`.
//
// Admission fence: every Clear() starts a new generation. A value computed
// from state that a Clear() replaced is refused when its admission names
// the generation read before computing it (see Admit).

#ifndef LAZYETL_ENGINE_RECYCLER_H_
#define LAZYETL_ENGINE_RECYCLER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/memory_budget.h"
#include "common/result.h"
#include "common/time.h"
#include "storage/table.h"

namespace lazyetl::engine {

// Identity of one record in the repository.
struct RecordKey {
  int64_t file_id = 0;
  int64_t seq_no = 0;

  bool operator==(const RecordKey& other) const {
    return file_id == other.file_id && seq_no == other.seq_no;
  }
};

struct RecordKeyHash {
  size_t operator()(const RecordKey& k) const {
    uint64_t h = static_cast<uint64_t>(k.file_id) * 0x9E3779B97F4A7C15ULL;
    h ^= static_cast<uint64_t>(k.seq_no) + 0x9E3779B97F4A7C15ULL +
         (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

// One cached record: already extracted *and* transformed. It holds what
// extraction produces — the decoded values and the two header fields that
// determine every sample's timestamp (core::AppendSampleTimes derives them
// at assembly) — so a cached sample costs 4 bytes. Immutable once shared:
// the record a query stream assembles from is the same object the cache
// holds.
struct CachedRecord {
  NanoTime start_time = 0;             // first sample's timestamp
  double sample_rate = 0.0;            // samples per second
  std::vector<int32_t> sample_values;  // raw counts
  NanoTime file_mtime = 0;             // source file mtime at admission

  // Bytes accounted against the cache budget.
  uint64_t Bytes() const {
    return sample_values.size() * sizeof(int32_t) + sizeof(CachedRecord);
  }
};

// Eviction-safe handle to a cache entry.
using CachedRecordPtr = std::shared_ptr<const CachedRecord>;

// A file a cached result was computed from, at the mtime it was read
// under. The path is not kept: the registry has it.
struct ResultDependency {
  int64_t file_id = 0;
  NanoTime mtime = 0;
};

// A whole query result. This tier holds mostly small results, where an
// in-memory Table costs about 190 B per column before its values, so the
// result is kept encoded: the column names and types, then its rows as one
// spill frame (storage/spill_format.h).
struct CachedResult {
  std::string encoded;
  std::vector<ResultDependency> deps;

  static std::string Encode(const storage::Table& table);
  Result<storage::Table> Decode() const;

  // Bytes accounted against the cache budget, counting the `sql` key.
  uint64_t Bytes(const std::string& sql) const {
    return sizeof(CachedResult) + sql.size() + encoded.capacity() +
           deps.capacity() * sizeof(ResultDependency);
  }
};

using CachedResultPtr = std::shared_ptr<const CachedResult>;

// Value snapshot of one cache's counters (the live counters are atomics).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t stale = 0;        // lookups that found an outdated entry
  uint64_t admissions = 0;
  uint64_t evictions = 0;
  uint64_t rejected = 0;     // admissions refused under global pressure
  uint64_t current_bytes = 0;
  uint64_t budget_bytes = 0;
  uint64_t entries = 0;
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  using Ptr = std::shared_ptr<const Value>;

  // `budget_bytes` caps the summed bytes of the entries; admission evicts
  // LRU entries until the new entry fits. Entries larger than the whole
  // budget are not admitted. `governor` (may be null) is additionally
  // charged for every resident byte and must outlive the cache; under a
  // finite governor limit the cache holds at most limit / share_divisor.
  explicit LruCache(uint64_t budget_bytes,
                    common::MemoryBudget* governor = nullptr,
                    uint64_t share_divisor = 2)
      : budget_bytes_(budget_bytes),
        governor_(governor),
        share_divisor_(share_divisor) {}
  // Returns the resident bytes to the governor.
  ~LruCache() {
    if (governor_ != nullptr) governor_->Release(current_bytes_.load());
  }

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  // Returns the entry (bumped to most-recently-used) when `fresh(value)`
  // holds, else null. `fresh` runs outside the cache lock; an entry it
  // rejects is erased (unless a concurrent admission already replaced it)
  // and counted as stale. When `stale` is non-null it is set to whether
  // the miss was due to staleness. Thread-safe.
  template <typename FreshFn>
  Ptr Lookup(const Key& key, FreshFn&& fresh, bool* stale = nullptr) {
    if (stale != nullptr) *stale = false;
    Ptr value;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = map_.find(key);
      if (it == map_.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
      }
      // Bump to most-recently-used: relinks the node, allocating nothing.
      lru_.splice(lru_.end(), lru_, it->second.lru_it);
      value = it->second.value;
    }
    if (!fresh(*value)) {
      stale_.fetch_add(1, std::memory_order_relaxed);
      if (stale != nullptr) *stale = true;
      std::lock_guard<std::mutex> lock(mu_);
      auto it = map_.find(key);
      if (it != map_.end() && it->second.value == value) EraseLocked(it);
      return nullptr;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return value;
  }

  // The current generation; every Clear() starts a new one.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  // Inserts or replaces `key`, sharing `value` (never copied) and charging
  // `bytes`. With a `generation`, refuses a value computed before the
  // last Clear(). Returns whether the value is now cached. Thread-safe.
  bool Admit(const Key& key, Ptr value, uint64_t bytes,
             std::optional<uint64_t> generation = std::nullopt);

  // Drops every entry whose key satisfies `pred`.
  template <typename Pred>
  void EraseIf(Pred&& pred) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = map_.begin(); it != map_.end();) {
      auto next = std::next(it);
      if (pred(it->first)) EraseLocked(it);
      it = next;
    }
  }

  // Drops every entry and starts a new generation.
  void Clear();

  // Race-free counter snapshot (no cache lock taken for the counters).
  CacheStats stats() const;
  void ResetCounters();

  // Snapshot of cached keys in LRU order (least recent first) — lets the
  // repo browser show "the contents of the cache" (demo point 7).
  std::vector<Key> Keys() const;

 private:
  struct Node {
    Ptr value;
    uint64_t bytes = 0;
    typename std::list<const Key*>::iterator lru_it;
  };
  using Map = std::unordered_map<Key, Node, Hash>;

  // Both require mu_ held. EvictOneLocked returns the victim's bytes.
  uint64_t EvictOneLocked();
  void EraseLocked(typename Map::iterator it);

  const uint64_t budget_bytes_;
  common::MemoryBudget* const governor_;
  const uint64_t share_divisor_;

  mutable std::mutex mu_;  // guards map_, lru_; Clear() bumps generation_
  Map map_;
  // Front = least recently used. Points at the keys stored in map_ (node
  // addresses are stable), so each key is held once.
  std::list<const Key*> lru_;
  std::atomic<uint64_t> generation_{0};

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> stale_{0};
  std::atomic<uint64_t> admissions_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> current_bytes_{0};
  std::atomic<uint64_t> entries_{0};
};

using RecordCache = LruCache<RecordKey, CachedRecord, RecordKeyHash>;
using ResultCache = LruCache<std::string, CachedResult>;

extern template class LruCache<RecordKey, CachedRecord, RecordKeyHash>;
extern template class LruCache<std::string, CachedResult>;

}  // namespace lazyetl::engine

#endif  // LAZYETL_ENGINE_RECYCLER_H_
