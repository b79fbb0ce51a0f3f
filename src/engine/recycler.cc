#include "engine/recycler.h"

#include <cstring>

#include "common/macros.h"
#include "storage/spill_format.h"

namespace lazyetl::engine {

template <typename Key, typename Value, typename Hash>
bool LruCache<Key, Value, Hash>::Admit(const Key& key, Ptr value,
                                       uint64_t bytes,
                                       std::optional<uint64_t> generation) {
  if (bytes > budget_bytes_) return false;  // larger than the whole cache

  std::lock_guard<std::mutex> lock(mu_);
  if (generation.has_value() &&
      *generation != generation_.load(std::memory_order_relaxed)) {
    return false;
  }
  auto it = map_.find(key);
  if (it != map_.end()) EraseLocked(it);

  while (current_bytes_.load(std::memory_order_relaxed) + bytes >
             budget_bytes_ &&
         !lru_.empty()) {
    EvictOneLocked();
  }

  // Global pressure: the cache yields its least-recently-used entries to
  // queries rather than push the process over the global cap; once empty,
  // the value simply is not cached (a future query recomputes it).
  if (governor_ != nullptr) {
    // The cache's resident bytes are capped at a share of a finite global
    // budget. Evictions only happen at admission time, so without this
    // share bound a fully warmed cache could pin the whole global cap
    // with no path for queries to reclaim it — every breaker and window
    // reservation would fail forever while reclaimable entries sit idle.
    uint64_t global_limit = governor_->limit();
    if (global_limit != 0) {
      uint64_t share = global_limit / share_divisor_;
      if (bytes > share) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return false;
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
        return false;
      }
      evicted += EvictOneLocked();
    }
  }

  it = map_.emplace(key, Node{std::move(value), bytes, {}}).first;
  it->second.lru_it = lru_.insert(lru_.end(), &it->first);
  current_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  admissions_.fetch_add(1, std::memory_order_relaxed);
  entries_.store(map_.size(), std::memory_order_relaxed);
  return true;
}

template <typename Key, typename Value, typename Hash>
uint64_t LruCache<Key, Value, Hash>::EvictOneLocked() {
  auto it = map_.find(*lru_.front());
  const uint64_t bytes = it->second.bytes;
  EraseLocked(it);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  return bytes;
}

template <typename Key, typename Value, typename Hash>
void LruCache<Key, Value, Hash>::EraseLocked(typename Map::iterator it) {
  current_bytes_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
  if (governor_ != nullptr) governor_->Release(it->second.bytes);
  lru_.erase(it->second.lru_it);
  map_.erase(it);
  entries_.store(map_.size(), std::memory_order_relaxed);
}

template <typename Key, typename Value, typename Hash>
void LruCache<Key, Value, Hash>::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
  generation_.fetch_add(1, std::memory_order_release);
  if (governor_ != nullptr) {
    governor_->Release(current_bytes_.load(std::memory_order_relaxed));
  }
  current_bytes_.store(0, std::memory_order_relaxed);
  entries_.store(0, std::memory_order_relaxed);
}

template <typename Key, typename Value, typename Hash>
CacheStats LruCache<Key, Value, Hash>::stats() const {
  CacheStats s;
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

template <typename Key, typename Value, typename Hash>
void LruCache<Key, Value, Hash>::ResetCounters() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  stale_.store(0, std::memory_order_relaxed);
  admissions_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  rejected_.store(0, std::memory_order_relaxed);
}

template <typename Key, typename Value, typename Hash>
std::vector<Key> LruCache<Key, Value, Hash>::Keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Key> keys;
  keys.reserve(lru_.size());
  for (const Key* key : lru_) keys.push_back(*key);
  return keys;
}

std::string CachedResult::Encode(const storage::Table& table) {
  std::string out;
  auto append_u32 = [&out](uint32_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  append_u32(static_cast<uint32_t>(table.num_columns()));
  for (size_t c = 0; c < table.num_columns(); ++c) {
    out.push_back(static_cast<char>(table.column(c).type()));
    append_u32(static_cast<uint32_t>(table.column_name(c).size()));
    out.append(table.column_name(c));
  }
  storage::SerializeSlice(table.Slice(0, table.num_rows()), &out);
  out.shrink_to_fit();
  return out;
}

Result<storage::Table> CachedResult::Decode() const {
  auto read_u32 = [this](size_t* offset) {
    uint32_t v = 0;
    std::memcpy(&v, encoded.data() + *offset, sizeof(v));
    *offset += sizeof(v);
    return v;
  };
  size_t offset = 0;
  std::vector<storage::DataType> types(read_u32(&offset));
  std::vector<std::string> names(types.size());
  for (size_t c = 0; c < types.size(); ++c) {
    types[c] = static_cast<storage::DataType>(encoded[offset++]);
    const uint32_t len = read_u32(&offset);
    names[c] = encoded.substr(offset, len);
    offset += len;
  }
  storage::Table table;
  LAZYETL_RETURN_NOT_OK(storage::DeserializeBatch(
      encoded.data(), encoded.size(), &offset, types, names, &table));
  return table;
}

template class LruCache<RecordKey, CachedRecord, RecordKeyHash>;
template class LruCache<std::string, CachedResult>;

}  // namespace lazyetl::engine
