#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/memory_budget.h"
#include "engine/recycler.h"

#include "test_util.h"

namespace lazyetl::engine {
namespace {

CachedRecordPtr MakeRecord(size_t samples, NanoTime mtime) {
  auto rec = std::make_shared<CachedRecord>();
  rec->start_time = 1;
  rec->sample_rate = 40.0;
  rec->sample_values.resize(samples, 2);
  rec->file_mtime = mtime;
  rec->admitted_at = 100;
  return rec;
}

TEST(RecyclerTest, AdmitAndLookup) {
  Recycler cache(1 << 20);
  cache.Admit({1, 1}, MakeRecord(10, 500));
  bool stale = false;
  CachedRecordPtr hit = cache.Lookup({1, 1}, 500, &stale);
  ASSERT_NE(hit, nullptr);
  EXPECT_FALSE(stale);
  EXPECT_EQ(hit->sample_values.size(), 10u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().admissions, 1u);
}

TEST(RecyclerTest, ChargesFourBytesPerSample) {
  // A cached record holds its decoded values and the two header fields its
  // timestamps derive from, so it charges 4n + sizeof(CachedRecord).
  for (size_t n : {size_t{0}, size_t{1}, size_t{100}, size_t{4000}}) {
    CachedRecordPtr rec = MakeRecord(n, 1);
    EXPECT_EQ(rec->Bytes(), 4 * n + sizeof(CachedRecord)) << n;
    Recycler cache(1 << 20);
    cache.Admit({1, 1}, rec);
    EXPECT_EQ(cache.stats().current_bytes, 4 * n + sizeof(CachedRecord))
        << n;
  }
}

TEST(RecyclerTest, MissOnAbsentKey) {
  Recycler cache(1 << 20);
  bool stale = true;
  EXPECT_EQ(cache.Lookup({9, 9}, 0, &stale), nullptr);
  EXPECT_FALSE(stale);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(RecyclerTest, StaleEntryEvictedOnMtimeChange) {
  Recycler cache(1 << 20);
  cache.Admit({1, 1}, MakeRecord(10, 500));
  bool stale = false;
  // File was modified: mtime differs.
  EXPECT_EQ(cache.Lookup({1, 1}, 501, &stale), nullptr);
  EXPECT_TRUE(stale);
  EXPECT_EQ(cache.stats().stale, 1u);
  // The entry is gone now even with the original mtime.
  EXPECT_EQ(cache.Lookup({1, 1}, 500), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(RecyclerTest, LruEvictionUnderBudget) {
  // Each 100-sample record costs 100 * 4 + sizeof(CachedRecord) bytes.
  CachedRecordPtr probe = MakeRecord(100, 1);
  uint64_t per_entry = 100 * 4 + sizeof(CachedRecord);
  Recycler cache(per_entry * 3);
  cache.Admit({1, 1}, MakeRecord(100, 1));
  cache.Admit({1, 2}, MakeRecord(100, 1));
  cache.Admit({1, 3}, MakeRecord(100, 1));
  EXPECT_EQ(cache.stats().entries, 3u);
  // Touch (1,1) so (1,2) becomes LRU.
  EXPECT_NE(cache.Lookup({1, 1}, 1), nullptr);
  cache.Admit({1, 4}, MakeRecord(100, 1));
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.Lookup({1, 2}, 1), nullptr);  // evicted
  EXPECT_NE(cache.Lookup({1, 1}, 1), nullptr);  // survived
  EXPECT_NE(cache.Lookup({1, 4}, 1), nullptr);
  (void)probe;
}

TEST(RecyclerTest, OversizedEntryNotAdmitted) {
  Recycler cache(100);
  cache.Admit({1, 1}, MakeRecord(1000, 1));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.Lookup({1, 1}, 1), nullptr);
}

TEST(RecyclerTest, ReplacingEntryKeepsAccounting) {
  Recycler cache(1 << 20);
  cache.Admit({1, 1}, MakeRecord(10, 1));
  uint64_t bytes_small = cache.stats().current_bytes;
  cache.Admit({1, 1}, MakeRecord(20, 2));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_GT(cache.stats().current_bytes, bytes_small);
  CachedRecordPtr hit = cache.Lookup({1, 1}, 2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->sample_values.size(), 20u);
}

TEST(RecyclerTest, InvalidateFileDropsAllItsRecords) {
  Recycler cache(1 << 20);
  cache.Admit({1, 1}, MakeRecord(10, 1));
  cache.Admit({1, 2}, MakeRecord(10, 1));
  cache.Admit({2, 1}, MakeRecord(10, 1));
  cache.InvalidateFile(1);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.Lookup({1, 1}, 1), nullptr);
  EXPECT_EQ(cache.Lookup({1, 2}, 1), nullptr);
  EXPECT_NE(cache.Lookup({2, 1}, 1), nullptr);
}

TEST(RecyclerTest, ClearAndResetCounters) {
  Recycler cache(1 << 20);
  cache.Admit({1, 1}, MakeRecord(10, 1));
  EXPECT_NE(cache.Lookup({1, 1}, 1), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().current_bytes, 0u);
  // Counters survive Clear but reset with ResetCounters.
  EXPECT_GT(cache.stats().hits, 0u);
  cache.ResetCounters();
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().budget_bytes, 1u << 20);
}

TEST(RecyclerTest, KeysInLruOrder) {
  Recycler cache(1 << 20);
  cache.Admit({1, 1}, MakeRecord(1, 1));
  cache.Admit({1, 2}, MakeRecord(1, 1));
  cache.Admit({1, 3}, MakeRecord(1, 1));
  EXPECT_NE(cache.Lookup({1, 1}, 1), nullptr);  // bump to MRU
  auto keys = cache.Keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys.front().seq_no, 2);  // LRU
  EXPECT_EQ(keys.back().seq_no, 1);   // MRU
}

TEST(RecyclerTest, HitEntryIsEvictedLast) {
  // Admitted 1..3, then (1,1) and (1,2) are hit in that order: eviction
  // order becomes 3, 1, 2, and a hit entry outlives every entry not hit
  // since. Each admission past the budget evicts exactly one entry.
  uint64_t per_entry = 100 * 4 + sizeof(CachedRecord);
  Recycler cache(per_entry * 3);
  for (int seq = 1; seq <= 3; ++seq) {
    cache.Admit({1, seq}, MakeRecord(100, 1));
  }
  ASSERT_NE(cache.Lookup({1, 1}, 1), nullptr);
  ASSERT_NE(cache.Lookup({1, 2}, 1), nullptr);
  auto keys = cache.Keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0].seq_no, 3);
  EXPECT_EQ(keys[1].seq_no, 1);
  EXPECT_EQ(keys[2].seq_no, 2);

  cache.Admit({1, 4}, MakeRecord(100, 1));  // evicts (1,3)
  cache.Admit({1, 5}, MakeRecord(100, 1));  // evicts (1,1)
  EXPECT_EQ(cache.stats().evictions, 2u);
  keys = cache.Keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0].seq_no, 2);  // the last hit entry: next to go
  EXPECT_EQ(keys[1].seq_no, 4);
  EXPECT_EQ(keys[2].seq_no, 5);

  // A hit on the LRU entry moves it to the back, repeatedly, without
  // losing or duplicating any entry.
  for (int round = 0; round < 3; ++round) {
    ASSERT_NE(cache.Lookup({1, cache.Keys().front().seq_no}, 1), nullptr);
  }
  keys = cache.Keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0].seq_no, 2);
  EXPECT_EQ(keys[1].seq_no, 4);
  EXPECT_EQ(keys[2].seq_no, 5);
  cache.Admit({1, 6}, MakeRecord(100, 1));  // evicts (1,2)
  EXPECT_EQ(cache.Lookup({1, 2}, 1), nullptr);
  EXPECT_NE(cache.Lookup({1, 4}, 1), nullptr);
  EXPECT_NE(cache.Lookup({1, 5}, 1), nullptr);
  EXPECT_NE(cache.Lookup({1, 6}, 1), nullptr);
  EXPECT_EQ(cache.stats().entries, 3u);
}

TEST(RecyclerTest, GlobalPressureEvictsInLruOrder) {
  // A finite governor bounds the cache to half the global cap even though
  // the cache's own budget has room: entries must leave strictly
  // least-recently-used first at that share boundary.
  uint64_t per_entry = 100 * 4 + sizeof(CachedRecord);
  common::MemoryBudget global(per_entry * 8);  // cache share: 4 entries
  Recycler cache(1 << 20, &global);
  for (int seq = 1; seq <= 4; ++seq) {
    cache.Admit({1, seq}, MakeRecord(100, 1));
  }
  EXPECT_EQ(cache.stats().entries, 4u);
  EXPECT_EQ(global.used(), per_entry * 4);

  // Touch (1,1) so (1,2) is LRU; the next admission must evict exactly
  // (1,2) at the share boundary — never the recently-used entry.
  EXPECT_NE(cache.Lookup({1, 1}, 1), nullptr);
  cache.Admit({1, 5}, MakeRecord(100, 1));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 4u);  // stays at the half-cap share
  EXPECT_EQ(cache.Lookup({1, 2}, 1), nullptr);  // the LRU victim
  EXPECT_NE(cache.Lookup({1, 1}, 1), nullptr);
  EXPECT_NE(cache.Lookup({1, 5}, 1), nullptr);
  // The governor never over-commits, and the cache never exceeds half of
  // the global cap — queries always keep reclaim-free headroom.
  EXPECT_LE(global.used(), global.limit());
  EXPECT_LE(cache.stats().current_bytes, global.limit() / 2);

  // Exhaust the remaining global headroom from the outside (concurrent
  // queries reserving state): the next admission yields LRU entries —
  // boundedly — and either fits or is rejected; the cap always holds.
  while (global.TryReserve(per_entry)) {
  }
  cache.Admit({1, 6}, MakeRecord(100, 1));
  EXPECT_LE(global.used(), global.limit());
  EXPECT_EQ(cache.stats().rejected + cache.stats().admissions, 6u);
}

TEST(RecyclerTest, HandleSurvivesEviction) {
  // A lookup handle must stay readable after the entry is evicted by a
  // later admission (the concurrent-query safety contract).
  uint64_t per_entry = 100 * 4 + sizeof(CachedRecord);
  Recycler cache(per_entry);  // room for exactly one entry
  cache.Admit({1, 1}, MakeRecord(100, 7));
  CachedRecordPtr hit = cache.Lookup({1, 1}, 7);
  ASSERT_NE(hit, nullptr);
  cache.Admit({1, 2}, MakeRecord(100, 7));  // evicts (1,1)
  EXPECT_EQ(cache.Lookup({1, 1}, 7), nullptr);
  EXPECT_EQ(hit->sample_values.size(), 100u);  // still valid
  EXPECT_EQ(hit->file_mtime, 7);
}

TEST(RecyclerTest, ConcurrentMixedUseKeepsCountersConsistent) {
  uint64_t per_entry = 10 * 4 + sizeof(CachedRecord);
  Recycler cache(per_entry * 8);
  constexpr int kThreads = 8;
  constexpr int kOps = 400;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; ++i) {
        RecordKey key{1 + (i + t) % 4, (i * 7 + t) % 16};
        if (i % 3 == 0) {
          cache.Admit(key, MakeRecord(10, 1));
        } else {
          bool stale = false;
          CachedRecordPtr hit = cache.Lookup(key, 1, &stale);
          if (hit != nullptr) {
            // Reading through the handle must always be safe.
            EXPECT_EQ(hit->sample_values.size(), 10u);
          }
        }
        if (i % 97 == 0) cache.InvalidateFile(2);
      }
    });
  }
  for (auto& w : workers) w.join();
  RecyclerStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses + s.stale,
            static_cast<uint64_t>(kThreads) * ((kOps * 2) / 3));
  EXPECT_LE(s.current_bytes, per_entry * 8);
  EXPECT_EQ(s.entries, cache.Keys().size());
}

TEST(ResultRecyclerTest, HitMissAndInvalidation) {
  ResultRecycler cache;
  CachedResult result;
  ASSERT_STATUS_OK(result.table.AddColumn(
      "x", storage::Column::FromInt64({42})));
  result.deps = {{1, "/repo/a.mseed", 100}};
  EXPECT_TRUE(cache.Admit("SELECT 1", std::move(result), cache.generation()));

  // All deps unchanged -> hit.
  auto unchanged = [](const ResultDependency& d) { return d.mtime; };
  CachedResultPtr hit = cache.ValidateAndGet("SELECT 1", unchanged);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->table.num_rows(), 1u);
  EXPECT_EQ(cache.hits(), 1u);

  // Unknown query -> miss.
  EXPECT_EQ(cache.ValidateAndGet("SELECT 2", unchanged), nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  // Changed dependency -> invalidated and removed.
  auto changed = [](const ResultDependency& d) { return d.mtime + 1; };
  EXPECT_EQ(cache.ValidateAndGet("SELECT 1", changed), nullptr);
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(ResultRecyclerTest, BoundedEntries) {
  ResultRecycler cache(2);
  for (int i = 0; i < 5; ++i) {
    CachedResult r;
    cache.Admit("q" + std::to_string(i), std::move(r), cache.generation());
  }
  EXPECT_LE(cache.entries(), 2u);
}

TEST(ResultRecyclerTest, AdmitFromBeforeClearIsRefused) {
  ResultRecycler cache;
  // A query records the generation before planning; a metadata reload
  // (Clear) lands before it completes.
  const uint64_t planned_at = cache.generation();
  cache.Clear();
  CachedResult stale;
  stale.deps = {{1, "/repo/a.mseed", 200}};
  EXPECT_FALSE(cache.Admit("SELECT 1", std::move(stale), planned_at));
  EXPECT_EQ(cache.entries(), 0u);
  auto any = [](const ResultDependency& d) { return d.mtime; };
  EXPECT_EQ(cache.ValidateAndGet("SELECT 1", any), nullptr);

  // A query planned after the reload is admitted.
  CachedResult fresh;
  EXPECT_TRUE(cache.Admit("SELECT 1", std::move(fresh), cache.generation()));
  EXPECT_EQ(cache.entries(), 1u);
}

}  // namespace
}  // namespace lazyetl::engine
