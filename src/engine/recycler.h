// Recycler: the intermediate-result cache implementing the paper's lazy
// loading (§3.3).
//
// "Materialization of the extracted and transformed data is simply caching
// the result of a view definition" — here at record granularity: the unit
// of caching is one decoded, transformed mSEED record (its sample values
// plus the start time and sample rate its timestamps derive from). An LRU
// policy bounds the cache to a byte budget. Each entry remembers the
// source file's modification time at admission; lazy refresh compares it
// against the file's current mtime and re-extracts when outdated.
//
// Concurrency: both caches are shared by every in-flight query of a
// Warehouse. The structures are mutex-guarded and lookups hand out
// shared_ptr handles, so a hit stays valid even if the entry is evicted by
// a concurrent admission. Hit/miss/eviction counters are atomics —
// observable (Warehouse::Stats) without taking the cache lock and race-free
// under any interleaving.
//
// Memory governance: a Recycler can additionally charge its resident bytes
// to a `governor` budget (normally the process-global one), so cached
// records and in-flight query state compete for one cap. Resident cache
// bytes are bounded to half of a finite global cap —
// evictions only run at admission time, so a larger share could pin bytes
// queries have no way to reclaim — and under pressure admission evicts LRU
// entries (cache contents only ever affect timings, never results),
// bounded per admission so a transient spike cannot wipe the working set;
// what cannot be admitted is counted in `rejected`.
//
// A second, optional layer (ResultRecycler) caches whole query results —
// "usually the end result of a view is saved in the cache" — with
// conservative invalidation: a cached result lists the (file, mtime) pairs
// it depends on and is only served while all of them are unchanged.

#ifndef LAZYETL_ENGINE_RECYCLER_H_
#define LAZYETL_ENGINE_RECYCLER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/memory_budget.h"
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
  NanoTime admitted_at = 0;

  // Bytes accounted against the cache budget.
  uint64_t Bytes() const {
    return sample_values.size() * sizeof(int32_t) + sizeof(CachedRecord);
  }
};

// Eviction-safe handle to a cache entry.
using CachedRecordPtr = std::shared_ptr<const CachedRecord>;

// Value snapshot of the cache counters (the live counters are atomics).
struct RecyclerStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t stale = 0;
  uint64_t admissions = 0;
  uint64_t evictions = 0;
  uint64_t rejected = 0;     // admissions refused under global pressure
  uint64_t current_bytes = 0;
  uint64_t budget_bytes = 0;
  uint64_t entries = 0;
};

class Recycler {
 public:
  // `budget_bytes` caps the summed CachedRecord::bytes; admission evicts
  // LRU entries until the new entry fits. Entries larger than the whole
  // budget are not admitted. `governor` (may be null) is additionally
  // charged for every resident byte — under global pressure admission
  // evicts, and gives up rather than exceed the cap. The governor must
  // outlive the recycler.
  explicit Recycler(uint64_t budget_bytes,
                    common::MemoryBudget* governor = nullptr);
  ~Recycler();

  Recycler(const Recycler&) = delete;
  Recycler& operator=(const Recycler&) = delete;

  // Returns the entry (bumped to most-recently-used) or null. The handle
  // stays valid after eviction. `current_file_mtime` triggers the
  // staleness check: an entry whose admission mtime differs is erased and
  // counted as stale. When `stale` is non-null it is set to whether the
  // miss was due to staleness. Thread-safe.
  CachedRecordPtr Lookup(const RecordKey& key, NanoTime current_file_mtime,
                         bool* stale = nullptr);

  // Inserts or replaces, sharing `record` (never copied). Thread-safe.
  void Admit(const RecordKey& key, CachedRecordPtr record);

  // Drops all entries of a file (used when a file disappears).
  void InvalidateFile(int64_t file_id);

  void Clear();

  // Race-free counter snapshot (no cache lock taken for the counters).
  RecyclerStats stats() const;
  void ResetCounters();

  // Snapshot of cached keys in LRU order (least recent first) — lets the
  // repo browser show "the contents of the cache" (demo point 7).
  std::vector<RecordKey> Keys() const;

 private:
  struct Node {
    CachedRecordPtr record;
    std::list<RecordKey>::iterator lru_it;
  };

  // Both require mu_ held. EvictOneLocked returns the victim's bytes.
  uint64_t EvictOneLocked();
  void EraseLocked(const RecordKey& key);

  const uint64_t budget_bytes_;
  common::MemoryBudget* const governor_;

  mutable std::mutex mu_;  // guards map_, lru_
  std::unordered_map<RecordKey, Node, RecordKeyHash> map_;
  std::list<RecordKey> lru_;  // front = least recently used

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> stale_{0};
  std::atomic<uint64_t> admissions_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> current_bytes_{0};
  std::atomic<uint64_t> entries_{0};
};

// Dependencies of a cached query result.
struct ResultDependency {
  int64_t file_id = 0;
  std::string path;
  NanoTime mtime = 0;
};

struct CachedResult {
  storage::Table table;
  std::vector<ResultDependency> deps;
  NanoTime admitted_at = 0;
};

using CachedResultPtr = std::shared_ptr<const CachedResult>;

// Whole-query result cache keyed by SQL text. Validation is the caller's
// job (it knows how to stat files); ValidateAndGet takes a callback that
// returns the current mtime for a dependency or a negative value when the
// file is gone. Thread-safe; the dependency stats run outside the cache
// lock so slow filesystems never serialise concurrent queries here.
class ResultRecycler {
 public:
  explicit ResultRecycler(size_t max_entries = 64) : max_entries_(max_entries) {}

  ResultRecycler(const ResultRecycler&) = delete;
  ResultRecycler& operator=(const ResultRecycler&) = delete;

  template <typename MtimeFn>
  CachedResultPtr ValidateAndGet(const std::string& sql, MtimeFn mtime_fn) {
    CachedResultPtr entry;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = map_.find(sql);
      if (it != map_.end()) entry = it->second;
    }
    if (entry == nullptr) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    for (const auto& dep : entry->deps) {
      NanoTime current = mtime_fn(dep);
      if (current != dep.mtime) {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(sql);
        // Only drop the entry we validated; a concurrent re-admission
        // under the same SQL may already be fresher.
        if (it != map_.end() && it->second == entry) map_.erase(it);
        invalidations_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
      }
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return entry;
  }

  // Admission fence: every Clear() — each metadata reload or hydration
  // calls it — starts a new generation. A query records generation()
  // before it plans and hands it to Admit, which refuses the result when
  // the cache was cleared in between: a result planned from metadata that
  // has since changed is never admitted under the new file mtimes.
  uint64_t generation() const {
    std::lock_guard<std::mutex> lock(mu_);
    return generation_;
  }

  // Inserts `result` unless `generation` is stale; returns whether it did.
  bool Admit(const std::string& sql, CachedResult result, uint64_t generation);
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    ++generation_;
  }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }
  size_t entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

 private:
  const size_t max_entries_;
  mutable std::mutex mu_;  // guards map_, generation_
  std::unordered_map<std::string, CachedResultPtr> map_;
  uint64_t generation_ = 0;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> invalidations_{0};
};

}  // namespace lazyetl::engine

#endif  // LAZYETL_ENGINE_RECYCLER_H_
