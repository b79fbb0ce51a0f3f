#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/memory_budget.h"
#include "engine/recycler.h"
#include "storage/slice.h"

#include "test_util.h"

namespace lazyetl::engine {
namespace {

CachedRecordPtr MakeRecord(size_t samples, NanoTime mtime) {
  auto rec = std::make_shared<CachedRecord>();
  rec->start_time = 1;
  rec->sample_rate = 40.0;
  rec->sample_values.resize(samples, 2);
  rec->file_mtime = mtime;
  return rec;
}

// The record tier's freshness rule: an entry is current under the mtime
// its file had at admission.
CachedRecordPtr Lookup(RecordCache* cache, const RecordKey& key,
                       NanoTime mtime, bool* stale = nullptr) {
  return cache->Lookup(
      key, [mtime](const CachedRecord& r) { return r.file_mtime == mtime; },
      stale);
}

void Admit(RecordCache* cache, const RecordKey& key, CachedRecordPtr rec) {
  cache->Admit(key, rec, rec->Bytes());
}

TEST(RecordCacheTest, AdmitAndLookup) {
  RecordCache cache(1 << 20);
  Admit(&cache, {1, 1}, MakeRecord(10, 500));
  bool stale = false;
  CachedRecordPtr hit = Lookup(&cache, {1, 1}, 500, &stale);
  ASSERT_NE(hit, nullptr);
  EXPECT_FALSE(stale);
  EXPECT_EQ(hit->sample_values.size(), 10u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().admissions, 1u);
}

TEST(RecordCacheTest, ChargesFourBytesPerSample) {
  // A cached record holds its decoded values and the two header fields its
  // timestamps derive from, so it charges 4n + sizeof(CachedRecord).
  for (size_t n : {size_t{0}, size_t{1}, size_t{100}, size_t{4000}}) {
    CachedRecordPtr rec = MakeRecord(n, 1);
    EXPECT_EQ(rec->Bytes(), 4 * n + sizeof(CachedRecord)) << n;
    RecordCache cache(1 << 20);
    Admit(&cache, {1, 1}, rec);
    EXPECT_EQ(cache.stats().current_bytes, 4 * n + sizeof(CachedRecord))
        << n;
  }
}

TEST(RecordCacheTest, MissOnAbsentKey) {
  RecordCache cache(1 << 20);
  bool stale = true;
  EXPECT_EQ(Lookup(&cache, {9, 9}, 0, &stale), nullptr);
  EXPECT_FALSE(stale);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(RecordCacheTest, StaleEntryEvictedOnMtimeChange) {
  RecordCache cache(1 << 20);
  Admit(&cache, {1, 1}, MakeRecord(10, 500));
  bool stale = false;
  // File was modified: mtime differs.
  EXPECT_EQ(Lookup(&cache, {1, 1}, 501, &stale), nullptr);
  EXPECT_TRUE(stale);
  EXPECT_EQ(cache.stats().stale, 1u);
  // The entry is gone now even with the original mtime.
  EXPECT_EQ(Lookup(&cache, {1, 1}, 500), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(RecordCacheTest, LruEvictionUnderBudget) {
  // Each 100-sample record costs 100 * 4 + sizeof(CachedRecord) bytes.
  CachedRecordPtr probe = MakeRecord(100, 1);
  uint64_t per_entry = 100 * 4 + sizeof(CachedRecord);
  RecordCache cache(per_entry * 3);
  Admit(&cache, {1, 1}, MakeRecord(100, 1));
  Admit(&cache, {1, 2}, MakeRecord(100, 1));
  Admit(&cache, {1, 3}, MakeRecord(100, 1));
  EXPECT_EQ(cache.stats().entries, 3u);
  // Touch (1,1) so (1,2) becomes LRU.
  EXPECT_NE(Lookup(&cache, {1, 1}, 1), nullptr);
  Admit(&cache, {1, 4}, MakeRecord(100, 1));
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(Lookup(&cache, {1, 2}, 1), nullptr);  // evicted
  EXPECT_NE(Lookup(&cache, {1, 1}, 1), nullptr);  // survived
  EXPECT_NE(Lookup(&cache, {1, 4}, 1), nullptr);
  (void)probe;
}

TEST(RecordCacheTest, OversizedEntryNotAdmitted) {
  RecordCache cache(100);
  Admit(&cache, {1, 1}, MakeRecord(1000, 1));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(Lookup(&cache, {1, 1}, 1), nullptr);
}

TEST(RecordCacheTest, ReplacingEntryKeepsAccounting) {
  RecordCache cache(1 << 20);
  Admit(&cache, {1, 1}, MakeRecord(10, 1));
  uint64_t bytes_small = cache.stats().current_bytes;
  Admit(&cache, {1, 1}, MakeRecord(20, 2));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_GT(cache.stats().current_bytes, bytes_small);
  CachedRecordPtr hit = Lookup(&cache, {1, 1}, 2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->sample_values.size(), 20u);
}

TEST(RecordCacheTest, EraseIfDropsAllRecordsOfAFile) {
  RecordCache cache(1 << 20);
  Admit(&cache, {1, 1}, MakeRecord(10, 1));
  Admit(&cache, {1, 2}, MakeRecord(10, 1));
  Admit(&cache, {2, 1}, MakeRecord(10, 1));
  cache.EraseIf([](const RecordKey& k) { return k.file_id == 1; });
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(Lookup(&cache, {1, 1}, 1), nullptr);
  EXPECT_EQ(Lookup(&cache, {1, 2}, 1), nullptr);
  EXPECT_NE(Lookup(&cache, {2, 1}, 1), nullptr);
}

TEST(RecordCacheTest, ClearAndResetCounters) {
  RecordCache cache(1 << 20);
  Admit(&cache, {1, 1}, MakeRecord(10, 1));
  EXPECT_NE(Lookup(&cache, {1, 1}, 1), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().current_bytes, 0u);
  // Counters survive Clear but reset with ResetCounters.
  EXPECT_GT(cache.stats().hits, 0u);
  cache.ResetCounters();
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().budget_bytes, 1u << 20);
}

TEST(RecordCacheTest, KeysInLruOrder) {
  RecordCache cache(1 << 20);
  Admit(&cache, {1, 1}, MakeRecord(1, 1));
  Admit(&cache, {1, 2}, MakeRecord(1, 1));
  Admit(&cache, {1, 3}, MakeRecord(1, 1));
  EXPECT_NE(Lookup(&cache, {1, 1}, 1), nullptr);  // bump to MRU
  auto keys = cache.Keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys.front().seq_no, 2);  // LRU
  EXPECT_EQ(keys.back().seq_no, 1);   // MRU
}

TEST(RecordCacheTest, HitEntryIsEvictedLast) {
  // Admitted 1..3, then (1,1) and (1,2) are hit in that order: eviction
  // order becomes 3, 1, 2, and a hit entry outlives every entry not hit
  // since. Each admission past the budget evicts exactly one entry.
  uint64_t per_entry = 100 * 4 + sizeof(CachedRecord);
  RecordCache cache(per_entry * 3);
  for (int seq = 1; seq <= 3; ++seq) {
    Admit(&cache, {1, seq}, MakeRecord(100, 1));
  }
  ASSERT_NE(Lookup(&cache, {1, 1}, 1), nullptr);
  ASSERT_NE(Lookup(&cache, {1, 2}, 1), nullptr);
  auto keys = cache.Keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0].seq_no, 3);
  EXPECT_EQ(keys[1].seq_no, 1);
  EXPECT_EQ(keys[2].seq_no, 2);

  Admit(&cache, {1, 4}, MakeRecord(100, 1));  // evicts (1,3)
  Admit(&cache, {1, 5}, MakeRecord(100, 1));  // evicts (1,1)
  EXPECT_EQ(cache.stats().evictions, 2u);
  keys = cache.Keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0].seq_no, 2);  // the last hit entry: next to go
  EXPECT_EQ(keys[1].seq_no, 4);
  EXPECT_EQ(keys[2].seq_no, 5);

  // A hit on the LRU entry moves it to the back, repeatedly, without
  // losing or duplicating any entry.
  for (int round = 0; round < 3; ++round) {
    ASSERT_NE(Lookup(&cache, {1, cache.Keys().front().seq_no}, 1), nullptr);
  }
  keys = cache.Keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0].seq_no, 2);
  EXPECT_EQ(keys[1].seq_no, 4);
  EXPECT_EQ(keys[2].seq_no, 5);
  Admit(&cache, {1, 6}, MakeRecord(100, 1));  // evicts (1,2)
  EXPECT_EQ(Lookup(&cache, {1, 2}, 1), nullptr);
  EXPECT_NE(Lookup(&cache, {1, 4}, 1), nullptr);
  EXPECT_NE(Lookup(&cache, {1, 5}, 1), nullptr);
  EXPECT_NE(Lookup(&cache, {1, 6}, 1), nullptr);
  EXPECT_EQ(cache.stats().entries, 3u);
}

TEST(RecordCacheTest, GlobalPressureEvictsInLruOrder) {
  // A finite governor bounds the cache to half the global cap even though
  // the cache's own budget has room: entries must leave strictly
  // least-recently-used first at that share boundary.
  uint64_t per_entry = 100 * 4 + sizeof(CachedRecord);
  common::MemoryBudget global(per_entry * 8);  // cache share: 4 entries
  RecordCache cache(1 << 20, &global);
  for (int seq = 1; seq <= 4; ++seq) {
    Admit(&cache, {1, seq}, MakeRecord(100, 1));
  }
  EXPECT_EQ(cache.stats().entries, 4u);
  EXPECT_EQ(global.used(), per_entry * 4);

  // Touch (1,1) so (1,2) is LRU; the next admission must evict exactly
  // (1,2) at the share boundary — never the recently-used entry.
  EXPECT_NE(Lookup(&cache, {1, 1}, 1), nullptr);
  Admit(&cache, {1, 5}, MakeRecord(100, 1));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 4u);  // stays at the half-cap share
  EXPECT_EQ(Lookup(&cache, {1, 2}, 1), nullptr);  // the LRU victim
  EXPECT_NE(Lookup(&cache, {1, 1}, 1), nullptr);
  EXPECT_NE(Lookup(&cache, {1, 5}, 1), nullptr);
  // The governor never over-commits, and the cache never exceeds half of
  // the global cap — queries always keep reclaim-free headroom.
  EXPECT_LE(global.used(), global.limit());
  EXPECT_LE(cache.stats().current_bytes, global.limit() / 2);

  // Exhaust the remaining global headroom from the outside (concurrent
  // queries reserving state): the next admission yields LRU entries —
  // boundedly — and either fits or is rejected; the cap always holds.
  while (global.TryReserve(per_entry)) {
  }
  Admit(&cache, {1, 6}, MakeRecord(100, 1));
  EXPECT_LE(global.used(), global.limit());
  EXPECT_EQ(cache.stats().rejected + cache.stats().admissions, 6u);
}

TEST(RecordCacheTest, HandleSurvivesEviction) {
  // A lookup handle must stay readable after the entry is evicted by a
  // later admission (the concurrent-query safety contract).
  uint64_t per_entry = 100 * 4 + sizeof(CachedRecord);
  RecordCache cache(per_entry);  // room for exactly one entry
  Admit(&cache, {1, 1}, MakeRecord(100, 7));
  CachedRecordPtr hit = Lookup(&cache, {1, 1}, 7);
  ASSERT_NE(hit, nullptr);
  Admit(&cache, {1, 2}, MakeRecord(100, 7));  // evicts (1,1)
  EXPECT_EQ(Lookup(&cache, {1, 1}, 7), nullptr);
  EXPECT_EQ(hit->sample_values.size(), 100u);  // still valid
  EXPECT_EQ(hit->file_mtime, 7);
}

TEST(RecordCacheTest, ConcurrentMixedUseKeepsCountersConsistent) {
  uint64_t per_entry = 10 * 4 + sizeof(CachedRecord);
  RecordCache cache(per_entry * 8);
  constexpr int kThreads = 8;
  constexpr int kOps = 400;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; ++i) {
        RecordKey key{1 + (i + t) % 4, (i * 7 + t) % 16};
        if (i % 3 == 0) {
          Admit(&cache, key, MakeRecord(10, 1));
        } else {
          bool stale = false;
          CachedRecordPtr hit = Lookup(&cache, key, 1, &stale);
          if (hit != nullptr) {
            // Reading through the handle must always be safe.
            EXPECT_EQ(hit->sample_values.size(), 10u);
          }
        }
        if (i % 97 == 0) {
          cache.EraseIf([](const RecordKey& k) { return k.file_id == 2; });
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  CacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses + s.stale,
            static_cast<uint64_t>(kThreads) * ((kOps * 2) / 3));
  EXPECT_LE(s.current_bytes, per_entry * 8);
  EXPECT_EQ(s.entries, cache.Keys().size());
}

// A one-column result of `rows` int64 rows depending on file 1 at mtime
// 100, and the bytes the result tier charges for it under `sql`.
CachedResultPtr MakeResult(size_t rows) {
  storage::Table table;
  EXPECT_STATUS_OK(table.AddColumn(
      "x", storage::Column::FromInt64(std::vector<int64_t>(rows, 42))));
  auto result = std::make_shared<CachedResult>();
  result->encoded = CachedResult::Encode(table);
  result->deps = {{1, 100}};
  return result;
}

bool AdmitResult(ResultCache* cache, const std::string& sql,
                 CachedResultPtr result, uint64_t generation) {
  const uint64_t bytes = result->Bytes(sql);
  return cache->Admit(sql, std::move(result), bytes, generation);
}

// Dependencies still at their recorded mtime.
bool Unchanged(const CachedResult& r) {
  for (const ResultDependency& d : r.deps) {
    if (d.mtime != 100) return false;
  }
  return true;
}

TEST(ResultCacheTest, HitMissAndInvalidation) {
  ResultCache cache(1 << 20);
  EXPECT_TRUE(AdmitResult(&cache, "SELECT 1", MakeResult(1),
                          cache.generation()));

  // All deps unchanged -> hit.
  CachedResultPtr hit = cache.Lookup("SELECT 1", Unchanged);
  ASSERT_NE(hit, nullptr);
  auto table = hit->Decode();
  ASSERT_OK(table);
  EXPECT_EQ(table->num_rows(), 1u);
  EXPECT_EQ(table->GetValue(0, 0).int64_value(), 42);
  EXPECT_EQ(cache.stats().hits, 1u);

  // Unknown query -> miss.
  EXPECT_EQ(cache.Lookup("SELECT 2", Unchanged), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);

  // Changed dependency -> invalidated and removed.
  bool stale = false;
  auto changed = [](const CachedResult&) { return false; };
  EXPECT_EQ(cache.Lookup("SELECT 1", changed, &stale), nullptr);
  EXPECT_TRUE(stale);
  EXPECT_EQ(cache.stats().stale, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().current_bytes, 0u);
}

TEST(ResultCacheTest, EntryBytesCountKeyTableAndDeps) {
  const std::string sql(200, 's');
  CachedResultPtr one = MakeResult(1);
  CachedResultPtr many = MakeResult(1000);
  EXPECT_GE(one->Bytes(sql), sql.size() + sizeof(int64_t) +
                                 sizeof(ResultDependency) +
                                 sizeof(CachedResult));
  EXPECT_EQ(many->Bytes(sql) - one->Bytes(sql), 999 * sizeof(int64_t));
  EXPECT_EQ(one->Bytes(sql) - one->Bytes(""), sql.size());
}

// A result decodes to the same names, types and values it was encoded
// from, for every column type, plain and dictionary-encoded strings, and
// no rows.
TEST(ResultCacheTest, EncodingRoundTripsEveryType) {
  storage::Table table;
  ASSERT_STATUS_OK(table.AddColumn("b", storage::Column::FromBool({1, 0, 1})));
  ASSERT_STATUS_OK(
      table.AddColumn("i32", storage::Column::FromInt32({-7, 0, 2147483647})));
  ASSERT_STATUS_OK(table.AddColumn(
      "COUNT(*)", storage::Column::FromInt64({INT64_MIN, 0, INT64_MAX})));
  ASSERT_STATUS_OK(table.AddColumn(
      "D.sample_time", storage::Column::FromTimestamp({1, 2, 3})));
  ASSERT_STATUS_OK(table.AddColumn(
      "AVG(D.sample_value)",
      storage::Column::FromDouble({-0.0, std::nan(""), 1e300})));
  ASSERT_STATUS_OK(table.AddColumn(
      "station", storage::Column::FromString({"HGN", "a longer station name",
                                              ""})));
  ASSERT_STATUS_OK(table.AddColumn(
      "network", storage::Column::FromString({"ISK", "", "ISK"})));
  ASSERT_EQ(table.DictEncodeStrings(2), 1u);  // "network" only
  for (size_t rows : {size_t{3}, size_t{0}}) {
    SCOPED_TRACE(rows);
    const storage::Table source = table.Slice(0, rows).Materialize();
    CachedResult cached;
    cached.encoded = CachedResult::Encode(source);
    auto decoded = cached.Decode();
    ASSERT_OK(decoded);
    ASSERT_EQ(decoded->num_columns(), source.num_columns());
    ASSERT_EQ(decoded->num_rows(), rows);
    for (size_t c = 0; c < source.num_columns(); ++c) {
      EXPECT_EQ(decoded->column_name(c), source.column_name(c));
      EXPECT_EQ(decoded->column(c).type(), source.column(c).type());
      for (size_t r = 0; r < rows; ++r) {
        const storage::Value want = source.GetValue(r, c);
        const storage::Value got = decoded->GetValue(r, c);
        if (source.column(c).type() == storage::DataType::kDouble) {
          const double a = want.double_value();
          const double b = got.double_value();
          EXPECT_EQ(std::memcmp(&a, &b, sizeof(a)), 0) << r << "," << c;
        } else {
          EXPECT_TRUE(got.Equals(want)) << r << "," << c;
        }
      }
    }
  }
}

TEST(ResultCacheTest, EvictsByBytesInLruOrder) {
  // Room for three 100-row results; the fourth evicts the least recently
  // used one, and a hit protects an entry.
  const uint64_t per_entry = MakeResult(100)->Bytes("q0");
  ResultCache cache(per_entry * 3);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(AdmitResult(&cache, "q" + std::to_string(i), MakeResult(100),
                            cache.generation()));
  }
  EXPECT_EQ(cache.stats().current_bytes, per_entry * 3);
  ASSERT_NE(cache.Lookup("q0", Unchanged), nullptr);  // q1 becomes LRU
  ASSERT_TRUE(AdmitResult(&cache, "q3", MakeResult(100), cache.generation()));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.Keys(), (std::vector<std::string>{"q2", "q0", "q3"}));

  // A larger entry (under twice the size) evicts as many LRU entries as
  // it needs: two.
  ASSERT_TRUE(AdmitResult(&cache, "big", MakeResult(150), cache.generation()));
  EXPECT_EQ(cache.stats().evictions, 3u);
  EXPECT_EQ(cache.Keys(), (std::vector<std::string>{"q3", "big"}));
  EXPECT_LE(cache.stats().current_bytes, per_entry * 3);
}

TEST(ResultCacheTest, OversizedEntryNotAdmitted) {
  ResultCache cache(MakeResult(10)->Bytes("q"));
  EXPECT_TRUE(AdmitResult(&cache, "q", MakeResult(10), cache.generation()));
  EXPECT_FALSE(AdmitResult(&cache, "wide", MakeResult(11),
                           cache.generation()));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_NE(cache.Lookup("q", Unchanged), nullptr);
  EXPECT_EQ(cache.Lookup("wide", Unchanged), nullptr);
}

TEST(ResultCacheTest, GovernorBytesReturnedOnClearAndDestruction) {
  common::MemoryBudget global;
  {
    ResultCache cache(1 << 20, &global);
    ASSERT_TRUE(AdmitResult(&cache, "a", MakeResult(10), cache.generation()));
    ASSERT_TRUE(AdmitResult(&cache, "b", MakeResult(20), cache.generation()));
    EXPECT_EQ(global.used(), cache.stats().current_bytes);
    EXPECT_GT(global.used(), 0u);
    cache.Clear();
    EXPECT_EQ(global.used(), 0u);
    ASSERT_TRUE(AdmitResult(&cache, "c", MakeResult(30), cache.generation()));
    EXPECT_EQ(global.used(), MakeResult(30)->Bytes("c"));
  }
  EXPECT_EQ(global.used(), 0u);
}

TEST(ResultCacheTest, GlobalShareFollowsTheDivisor) {
  // Under a finite cap the result tier holds at most limit / divisor.
  const uint64_t per_entry = MakeResult(100)->Bytes("q0");
  common::MemoryBudget global(per_entry * 64 * 2);
  ResultCache cache(1 << 30, &global, /*share_divisor=*/64);
  for (int i = 0; i < 5; ++i) {
    AdmitResult(&cache, "q" + std::to_string(i), MakeResult(100),
                cache.generation());
  }
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 3u);
  EXPECT_EQ(global.used(), per_entry * 2);
}

TEST(ResultCacheTest, AdmitFromBeforeClearIsRefused) {
  ResultCache cache(1 << 20);
  // A query records the generation before planning; a metadata reload
  // (Clear) lands before it completes.
  const uint64_t planned_at = cache.generation();
  cache.Clear();
  EXPECT_FALSE(AdmitResult(&cache, "SELECT 1", MakeResult(1), planned_at));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.Lookup("SELECT 1", Unchanged), nullptr);

  // A query planned after the reload is admitted.
  EXPECT_TRUE(AdmitResult(&cache, "SELECT 1", MakeResult(1),
                          cache.generation()));
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCacheTest, ConcurrentProbeAndAdmitStayConsistent) {
  // Probes (some finding stale entries), admissions and clears race; the
  // counters add up, the handles stay readable and the bytes stay bounded.
  const uint64_t per_entry = MakeResult(8)->Bytes("q0");
  common::MemoryBudget global;
  ResultCache cache(per_entry * 4, &global);
  constexpr int kThreads = 8;
  constexpr int kOps = 400;
  std::atomic<uint64_t> probes{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::string sql = "q" + std::to_string((i * 7 + t) % 6);
        if (i % 3 == 0) {
          AdmitResult(&cache, sql, MakeResult(8), cache.generation());
        } else {
          probes.fetch_add(1);
          auto fresh = [i](const CachedResult& r) {
            return i % 5 != 0 && Unchanged(r);
          };
          CachedResultPtr hit = cache.Lookup(sql, fresh);
          if (hit != nullptr) EXPECT_EQ(hit->Decode()->num_rows(), 8u);
        }
        if (i % 97 == 0) cache.Clear();
      }
    });
  }
  for (auto& w : workers) w.join();
  CacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses + s.stale, probes.load());
  EXPECT_LE(s.current_bytes, per_entry * 4);
  EXPECT_EQ(s.entries, cache.Keys().size());
  EXPECT_EQ(global.used(), s.current_bytes);
}

}  // namespace
}  // namespace lazyetl::engine
