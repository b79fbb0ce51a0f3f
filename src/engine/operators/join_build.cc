#include "engine/operators/join_build.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/macros.h"
#include "common/thread_pool.h"

namespace lazyetl::engine {

using storage::Column;
using storage::DataType;
using storage::SelectionVector;
using storage::Table;
using storage::TableSlice;

void PackRowKey(const Column& col, size_t row, std::string* out) {
  switch (col.type()) {
    case DataType::kBool:
      out->push_back(col.bool_data()[row] ? '\1' : '\0');
      break;
    case DataType::kInt32: {
      int64_t v = col.int32_data()[row];
      out->append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
    case DataType::kInt64:
    case DataType::kTimestamp: {
      int64_t v = col.int64_data()[row];
      out->append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
    case DataType::kDouble: {
      double v = col.double_data()[row];
      out->append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
    case DataType::kString: {
      const std::string& s = col.StringAt(row);
      uint32_t len = static_cast<uint32_t>(s.size());
      out->append(reinterpret_cast<const char*>(&len), sizeof(len));
      out->append(s);
      break;
    }
  }
  out->push_back('\x1f');  // field separator
}

JoinBloomMode ResolveJoinBloomMode() {
  const char* env = std::getenv("LAZYETL_JOIN_BLOOM");
  if (env == nullptr || *env == '\0') return JoinBloomMode::kAuto;
  if (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0) {
    return JoinBloomMode::kOff;
  }
  if (std::strcmp(env, "force") == 0) return JoinBloomMode::kForce;
  return JoinBloomMode::kAuto;
}

Status JoinBuild::Init(const Table* build,
                       const std::vector<std::string>& keys, size_t threads,
                       kernels::BlockedBloomFilter* bloom) {
  if (keys.empty()) {
    return Status::InvalidArgument("join requires at least one key");
  }
  build_ = build;
  key_arity_ = keys.size();
  std::vector<const Column*> cols;
  cols.reserve(keys.size());
  for (const auto& name : keys) {
    LAZYETL_ASSIGN_OR_RETURN(const Column* c, build->ColumnByName(name));
    cols.push_back(c);
  }
  build_cols_ = cols;
  index_bytes_ = 0;
  const size_t n = build_->num_rows();

  build_dict_hashes_.assign(cols.size(), {});
  for (size_t c = 0; c < cols.size(); ++c) {
    if (cols[c]->type() == DataType::kString && cols[c]->dict_encoded()) {
      kernels::HashDictionary(*cols[c]->dictionary(),
                              &build_dict_hashes_[c]);
    }
  }

  slots_.clear();
  slot_mask_ = 0;
  key_hashes_.clear();
  key_first_.clear();
  rows_sorted_.clear();
  row_offsets_.assign(1, 0);
  if (n == 0) return Status::OK();

  // Batch-hash all build rows; per-row work is pure, so morsels can run on
  // any worker without affecting the result.
  std::vector<uint64_t> hashes(n, kernels::kGroupHashSeed);
  constexpr size_t kChunk = 4096;
  const size_t chunks = (n + kChunk - 1) / kChunk;
  auto hash_chunk = [&](size_t ci) {
    const size_t begin = ci * kChunk;
    const size_t len = std::min(kChunk, n - begin);
    for (size_t c = 0; c < cols.size(); ++c) {
      kernels::JoinHashColumn(
          *cols[c], begin, len,
          build_dict_hashes_[c].empty() ? nullptr
                                        : build_dict_hashes_[c].data(),
          hashes.data() + begin);
    }
  };
  if (threads > 1 && chunks > 1) {
    common::ThreadPool::Shared().ParallelFor(chunks, threads, hash_chunk);
  } else {
    for (size_t ci = 0; ci < chunks; ++ci) hash_chunk(ci);
  }

  // Open-addressing insert over distinct keys. Sized to load factor <= 1/2
  // upfront (distinct keys <= rows), so no rehash mid-build.
  size_t cap = 16;
  while (cap < n * 2) cap <<= 1;
  slots_.assign(cap, 0);
  slot_mask_ = cap - 1;
  std::vector<uint32_t> kids(n);
  const Column* const* bc = build_cols_.data();
  for (size_t r = 0; r < n; ++r) {
    const uint64_t h = hashes[r];
    size_t s = h & slot_mask_;
    for (;;) {
      const uint32_t tag = slots_[s];
      if (tag == 0) {
        const uint32_t kid = static_cast<uint32_t>(key_hashes_.size());
        slots_[s] = kid + 1;
        key_hashes_.push_back(h);
        key_first_.push_back(static_cast<uint32_t>(r));
        kids[r] = kid;
        break;
      }
      const uint32_t kid = tag - 1;
      if (key_hashes_[kid] == h &&
          kernels::JoinRowsEqual(bc, bc, cols.size(), key_first_[kid], r)) {
        kids[r] = kid;
        break;
      }
      s = (s + 1) & slot_mask_;
    }
  }

  // Counting sort of build rows by key id. Rows are visited ascending, so
  // each key's match list stays ascending.
  const size_t nkeys = key_hashes_.size();
  row_offsets_.assign(nkeys + 1, 0);
  for (size_t r = 0; r < n; ++r) ++row_offsets_[kids[r] + 1];
  for (size_t k = 0; k < nkeys; ++k) row_offsets_[k + 1] += row_offsets_[k];
  rows_sorted_.resize(n);
  std::vector<uint32_t> cursor(row_offsets_.begin(), row_offsets_.end() - 1);
  for (size_t r = 0; r < n; ++r) {
    rows_sorted_[cursor[kids[r]]++] = static_cast<uint32_t>(r);
  }

  if (bloom != nullptr && bloom->initialized()) {
    for (uint64_t h : key_hashes_) bloom->Insert(h);
  }

  index_bytes_ = slots_.capacity() * sizeof(uint32_t) +
                 key_hashes_.capacity() * sizeof(uint64_t) +
                 (key_first_.capacity() + rows_sorted_.capacity() +
                  row_offsets_.capacity()) *
                     sizeof(uint32_t);
  for (const auto& dh : build_dict_hashes_) {
    index_bytes_ += dh.capacity() * sizeof(uint64_t);
  }
  return Status::OK();
}

Status JoinBuild::Probe(const TableSlice& probe,
                        const std::vector<std::string>& keys,
                        SelectionVector* build_sel,
                        SelectionVector* probe_sel) const {
  if (keys.size() != key_arity_) {
    return Status::InvalidArgument("join key arity mismatch");
  }
  std::vector<const Column*> cols;
  cols.reserve(keys.size());
  for (const auto& name : keys) {
    LAZYETL_ASSIGN_OR_RETURN(size_t i, probe.ColumnIndex(name));
    cols.push_back(&probe.column(i));
  }
  const size_t n = probe.num_rows();
  if (n == 0 || key_hashes_.empty()) return Status::OK();

  std::vector<const uint64_t*> dict_hashes(cols.size(), nullptr);
  for (size_t c = 0; c < cols.size(); ++c) {
    if (cols[c]->type() == DataType::kString && cols[c]->dict_encoded()) {
      dict_hashes[c] = ProbeDictHashes(cols[c]->dictionary())->data();
    }
  }

  std::vector<uint64_t> hashes(n, kernels::kGroupHashSeed);
  for (size_t c = 0; c < cols.size(); ++c) {
    kernels::JoinHashColumn(*cols[c], probe.offset(), n, dict_hashes[c],
                            hashes.data());
  }

  const Column* const* bc = build_cols_.data();
  const Column* const* pc = cols.data();
  const size_t ncols = cols.size();
  for (size_t row = 0; row < n; ++row) {
    const uint64_t h = hashes[row];
    size_t s = h & slot_mask_;
    while (slots_[s] != 0) {
      const uint32_t kid = slots_[s] - 1;
      if (key_hashes_[kid] == h &&
          kernels::JoinRowsEqual(bc, pc, ncols, key_first_[kid],
                                 probe.offset() + row)) {
        for (size_t i = row_offsets_[kid]; i < row_offsets_[kid + 1]; ++i) {
          build_sel->push_back(rows_sorted_[i]);
          probe_sel->push_back(static_cast<uint32_t>(row));
        }
        break;
      }
      s = (s + 1) & slot_mask_;
    }
  }
  return Status::OK();
}

const std::vector<uint64_t>* JoinBuild::ProbeDictHashes(
    const std::shared_ptr<const std::vector<std::string>>& dict) const {
  {
    std::lock_guard<std::mutex> lock(probe_cache_mu_);
    for (const auto& e : probe_dict_cache_) {
      if (e.first.get() == dict.get()) return e.second.get();
    }
  }
  // Hash outside the lock (worst case two threads duplicate the work, the
  // loser's copy is dropped). Entries are never evicted — concurrent
  // probes hold raw pointers into them, and a query touches only a
  // handful of dictionaries.
  auto hashes = std::make_unique<std::vector<uint64_t>>();
  kernels::HashDictionary(*dict, hashes.get());
  std::lock_guard<std::mutex> lock(probe_cache_mu_);
  for (const auto& e : probe_dict_cache_) {
    if (e.first.get() == dict.get()) return e.second.get();
  }
  probe_dict_cache_.emplace_back(dict, std::move(hashes));
  return probe_dict_cache_.back().second.get();
}

}  // namespace lazyetl::engine
