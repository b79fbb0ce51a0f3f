#include "engine/plan_cache.h"

#include <sstream>

namespace lazyetl::engine {

namespace {

void FingerprintNode(const PlanNode& node, std::ostringstream* os,
                     bool* ok) {
  if (!*ok) return;
  *os << PlanNodeTypeToString(node.type) << '(';
  switch (node.type) {
    case PlanNodeType::kScan:
    case PlanNodeType::kLazyDataScan:
      *os << "t=" << node.table << ";c=";
      for (const auto& sc : node.scan_columns) {
        *os << sc.base_column << '>' << sc.output_name << ',';
      }
      if (node.type == PlanNodeType::kLazyDataScan) {
        *os << ";p=" << node.probe_file_id_column << ','
            << node.probe_seq_no_column << ";u=";
        for (const auto& name : node.used_above) *os << name << ',';
      }
      break;
    case PlanNodeType::kCachedScan:
      // An already-substituted subtree has no canonical definition.
      *ok = false;
      return;
    case PlanNodeType::kFilter:
      *os << node.predicate->ToString();
      break;
    case PlanNodeType::kHashJoin:
      for (size_t i = 0; i < node.left_keys.size(); ++i) {
        *os << node.left_keys[i] << '=' << node.right_keys[i] << ',';
      }
      break;
    case PlanNodeType::kAggregate:
      *os << "g=";
      for (const auto& g : node.group_exprs) *os << g->ToString() << ',';
      *os << ";a=";
      for (const auto& a : node.aggregates) {
        *os << a.function << ':' << (a.arg ? a.arg->ToString() : "*") << '>'
            << a.display << ',';
      }
      break;
    case PlanNodeType::kProject:
      for (size_t i = 0; i < node.project_exprs.size(); ++i) {
        *os << node.project_exprs[i]->ToString() << '>'
            << node.project_names[i] << ',';
      }
      break;
    case PlanNodeType::kDistinct:
      break;
    case PlanNodeType::kSort:
    case PlanNodeType::kTopK:
      if (node.type == PlanNodeType::kTopK) *os << "k=" << node.limit << ';';
      for (const auto& item : node.order_items) {
        *os << item.expr->ToString() << (item.ascending ? "+" : "-") << ',';
      }
      break;
    case PlanNodeType::kLimit:
      *os << node.limit;
      break;
  }
  *os << ")[";
  for (const auto& child : node.children) {
    FingerprintNode(*child, os, ok);
    *os << '|';
  }
  *os << ']';
}

bool IsBreaker(PlanNodeType t) {
  return t == PlanNodeType::kAggregate || t == PlanNodeType::kDistinct ||
         t == PlanNodeType::kSort || t == PlanNodeType::kTopK;
}

}  // namespace

std::string PlanFingerprint(const PlanNode& node) {
  std::ostringstream os;
  bool ok = true;
  FingerprintNode(node, &os, &ok);
  return ok ? os.str() : std::string();
}

PlanNodePtr* FindCacheableSubPlan(PlanNodePtr* root) {
  PlanNodePtr* slot = root;
  while (*slot != nullptr) {
    PlanNode& node = **slot;
    if (IsBreaker(node.type)) return slot;
    // Only streaming single-child wrappers are walked through; anything
    // else (scans, joins) ends the spine.
    if ((node.type == PlanNodeType::kFilter ||
         node.type == PlanNodeType::kProject ||
         node.type == PlanNodeType::kLimit) &&
        node.children.size() == 1) {
      slot = &node.children[0];
      continue;
    }
    return nullptr;
  }
  return nullptr;
}

PlanCache::PlanCache(uint64_t budget_bytes, common::MemoryPool* pool)
    : budget_bytes_(budget_bytes), pool_(pool) {
  if (pool_ != nullptr) {
    // Yielder takes only mu_ (pool locking protocol); EvictOneLocked
    // releases pool charges, which never re-enters any yielder.
    yielder_id_ = pool_->RegisterYielder([this](uint64_t want) {
      std::lock_guard<std::mutex> lock(mu_);
      uint64_t freed = 0;
      while (freed < want && !lru_.empty()) freed += EvictOneLocked();
      return freed;
    });
  }
}

PlanCache::~PlanCache() {
  if (pool_ != nullptr) {
    pool_->UnregisterYielder(yielder_id_);
    pool_->Release(current_bytes_.load(std::memory_order_relaxed));
  }
}

void PlanCache::Admit(const std::string& fingerprint, CachedSubPlan entry,
                      uint64_t epoch_at_plan) {
  if (entry.table == nullptr) return;
  if (entry.bytes == 0) {
    entry.bytes = entry.table->MemoryBytes() + fingerprint.size() +
                  entry.deps.size() * sizeof(ResultDependency) +
                  sizeof(CachedSubPlan);
  }
  uint64_t bytes = entry.bytes;
  if (bytes > budget_bytes_) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Charge the pool with mu_ NOT held: ChargeWithYield may run the other
  // tiers' yielders (each takes its own lock), excluding our own.
  if (pool_ != nullptr && !pool_->ChargeWithYield(bytes, yielder_id_)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (epoch_.load(std::memory_order_acquire) != epoch_at_plan) {
    // Clear() ran between planning and admission: the entry was computed
    // against a catalog that has since been republished.
    if (pool_ != nullptr) pool_->Release(bytes);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto it = map_.find(fingerprint);
  if (it != map_.end()) EraseLocked(it);
  while (current_bytes_.load(std::memory_order_relaxed) + bytes >
             budget_bytes_ &&
         !lru_.empty()) {
    EvictOneLocked();
  }

  lru_.push_back(fingerprint);
  Node node;
  node.lru_it = std::prev(lru_.end());
  node.entry = std::make_shared<const CachedSubPlan>(std::move(entry));
  current_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  map_[fingerprint] = std::move(node);
  admissions_.fetch_add(1, std::memory_order_relaxed);
  entries_.store(map_.size(), std::memory_order_relaxed);
}

uint64_t PlanCache::EvictOneLocked() {
  auto it = map_.find(lru_.front());
  uint64_t bytes = it->second.entry->bytes;
  current_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  if (pool_ != nullptr) pool_->Release(bytes);
  map_.erase(it);
  lru_.pop_front();
  evictions_.fetch_add(1, std::memory_order_relaxed);
  entries_.store(map_.size(), std::memory_order_relaxed);
  return bytes;
}

void PlanCache::EraseLocked(Map::iterator it) {
  uint64_t bytes = it->second.entry->bytes;
  current_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  if (pool_ != nullptr) pool_->Release(bytes);
  lru_.erase(it->second.lru_it);
  map_.erase(it);
  entries_.store(map_.size(), std::memory_order_relaxed);
}

void PlanCache::InvalidateFile(int64_t file_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = map_.begin(); it != map_.end();) {
    bool depends = false;
    for (const auto& dep : it->second.entry->deps) {
      if (dep.file_id == file_id) {
        depends = true;
        break;
      }
    }
    if (depends) {
      uint64_t bytes = it->second.entry->bytes;
      current_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
      if (pool_ != nullptr) pool_->Release(bytes);
      lru_.erase(it->second.lru_it);
      it = map_.erase(it);
    } else {
      ++it;
    }
  }
  entries_.store(map_.size(), std::memory_order_relaxed);
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
  if (pool_ != nullptr) {
    pool_->Release(current_bytes_.load(std::memory_order_relaxed));
  }
  current_bytes_.store(0, std::memory_order_relaxed);
  entries_.store(0, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  s.admissions = admissions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.current_bytes = current_bytes_.load(std::memory_order_relaxed);
  s.budget_bytes = budget_bytes_;
  s.entries = entries_.load(std::memory_order_relaxed);
  return s;
}

void PlanCache::ResetCounters() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  invalidations_.store(0, std::memory_order_relaxed);
  admissions_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  rejected_.store(0, std::memory_order_relaxed);
}

}  // namespace lazyetl::engine
