#include "engine/recycler.h"

namespace lazyetl::engine {

Recycler::Recycler(uint64_t budget_bytes, common::MemoryBudget* governor)
    : budget_bytes_(budget_bytes), governor_(governor) {}

Recycler::~Recycler() {
  // Return the resident bytes to the global budget.
  if (governor_ != nullptr) {
    governor_->Release(current_bytes_.load(std::memory_order_relaxed));
  }
}

CachedRecordPtr Recycler::Lookup(const RecordKey& key,
                                 NanoTime current_file_mtime, bool* stale) {
  if (stale != nullptr) *stale = false;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  if (it->second.record->file_mtime != current_file_mtime) {
    // Outdated: the source file changed after this entry was admitted.
    stale_.fetch_add(1, std::memory_order_relaxed);
    if (stale != nullptr) *stale = true;
    EraseLocked(key);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  // Bump to most-recently-used: relinks the node, allocating nothing, and
  // keeps lru_it valid.
  lru_.splice(lru_.end(), lru_, it->second.lru_it);
  return it->second.record;
}

void Recycler::Admit(const RecordKey& key, CachedRecordPtr record) {
  const uint64_t bytes = record->Bytes();
  if (bytes > budget_bytes_) {
    return;  // larger than the whole cache; not admissible
  }

  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) EraseLocked(key);

  while (current_bytes_.load(std::memory_order_relaxed) + bytes >
             budget_bytes_ &&
         !lru_.empty()) {
    EvictOneLocked();
  }

  // Global pressure: the cache yields its least-recently-used entries to
  // queries rather than push the process over the global cap; once empty,
  // the record simply is not cached (a future query re-extracts it).
  if (governor_ != nullptr) {
    // The cache's resident bytes are capped at half of a finite global
    // budget. Evictions only happen at admission time, so without this
    // share bound a fully warmed cache could pin the whole global cap
    // with no path for queries to reclaim it — every breaker and window
    // reservation would fail forever while reclaimable records sit idle.
    uint64_t global_limit = governor_->limit();
    if (global_limit != 0) {
      uint64_t share = global_limit / 2;
      if (bytes > share) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      while (current_bytes_.load(std::memory_order_relaxed) + bytes >
                 share &&
             !lru_.empty()) {
        EvictOneLocked();
      }
    }
    // Under contention the bytes an eviction frees can be raced away by
    // concurrent query reservations; bound the yield per admission so one
    // transient pressure spike cannot wipe the whole working set.
    uint64_t evicted = 0;
    const uint64_t max_evict = bytes * 4;
    while (!governor_->TryReserve(bytes)) {
      if (lru_.empty() || evicted >= max_evict) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      evicted += EvictOneLocked();
    }
  }

  lru_.push_back(key);
  Node node;
  node.lru_it = std::prev(lru_.end());
  current_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  node.record = std::move(record);
  map_.emplace(key, std::move(node));
  admissions_.fetch_add(1, std::memory_order_relaxed);
  entries_.store(map_.size(), std::memory_order_relaxed);
}

uint64_t Recycler::EvictOneLocked() {
  const RecordKey& victim = lru_.front();
  auto it = map_.find(victim);
  uint64_t bytes = it->second.record->Bytes();
  current_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  if (governor_ != nullptr) governor_->Release(bytes);
  map_.erase(it);
  lru_.pop_front();
  evictions_.fetch_add(1, std::memory_order_relaxed);
  entries_.store(map_.size(), std::memory_order_relaxed);
  return bytes;
}

void Recycler::EraseLocked(const RecordKey& key) {
  auto it = map_.find(key);
  if (it == map_.end()) return;
  uint64_t bytes = it->second.record->Bytes();
  current_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  if (governor_ != nullptr) governor_->Release(bytes);
  lru_.erase(it->second.lru_it);
  map_.erase(it);
  entries_.store(map_.size(), std::memory_order_relaxed);
}

void Recycler::InvalidateFile(int64_t file_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->first.file_id == file_id) {
      uint64_t bytes = it->second.record->Bytes();
      current_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
      if (governor_ != nullptr) governor_->Release(bytes);
      lru_.erase(it->second.lru_it);
      it = map_.erase(it);
    } else {
      ++it;
    }
  }
  entries_.store(map_.size(), std::memory_order_relaxed);
}

void Recycler::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
  if (governor_ != nullptr) {
    governor_->Release(current_bytes_.load(std::memory_order_relaxed));
  }
  current_bytes_.store(0, std::memory_order_relaxed);
  entries_.store(0, std::memory_order_relaxed);
}

RecyclerStats Recycler::stats() const {
  RecyclerStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.stale = stale_.load(std::memory_order_relaxed);
  s.admissions = admissions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.current_bytes = current_bytes_.load(std::memory_order_relaxed);
  s.budget_bytes = budget_bytes_;
  s.entries = entries_.load(std::memory_order_relaxed);
  return s;
}

void Recycler::ResetCounters() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  stale_.store(0, std::memory_order_relaxed);
  admissions_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  rejected_.store(0, std::memory_order_relaxed);
}

std::vector<RecordKey> Recycler::Keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {lru_.begin(), lru_.end()};
}

bool ResultRecycler::Admit(const std::string& sql, CachedResult result,
                           uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  if (generation != generation_) return false;
  if (map_.size() >= max_entries_ && !map_.count(sql)) {
    // Simple bound: drop an arbitrary entry (result cache is a small,
    // best-effort layer; record-level recycling does the heavy lifting).
    map_.erase(map_.begin());
  }
  map_[sql] = std::make_shared<const CachedResult>(std::move(result));
  return true;
}

}  // namespace lazyetl::engine
