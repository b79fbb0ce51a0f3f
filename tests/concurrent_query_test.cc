// Concurrent query serving: one shared Warehouse driven by N client
// threads must return, for every query, exactly what a serial run
// returns — across admission limits (max_concurrent_queries {1, 4}) and
// global memory budgets {unlimited, tiny}, with recycler hits, evictions
// under pressure, lazy hydration and concurrent Refresh() in the mix.
// Workers never call gtest assertions; they record their outcomes and the
// main thread verifies, so the test is also meaningful under TSan.

#include <gtest/gtest.h>

#include <algorithm>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/memory_budget.h"
#include "core/warehouse.h"
#include "storage/table.h"
#include "test_util.h"
#include "warehouse_test_util.h"

namespace lazyetl::core {
namespace {

using storage::DataType;
using storage::Table;

void ExpectTablesEqual(const Table& a, const Table& b,
                       const std::string& context) {
  ASSERT_EQ(a.num_columns(), b.num_columns()) << context;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << context;
  for (size_t c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.column_name(c), b.column_name(c)) << context;
    for (size_t r = 0; r < a.num_rows(); ++r) {
      const auto va = a.GetValue(r, c);
      const auto vb = b.GetValue(r, c);
      if (va.type() == DataType::kDouble) {
        EXPECT_NEAR(va.double_value(), vb.double_value(),
                    1e-9 * (1.0 + std::abs(va.double_value())))
            << context << " row " << r << " col " << c;
      } else {
        EXPECT_TRUE(va.Equals(vb))
            << context << " row " << r << " col " << c << ": "
            << va.ToString() << " vs " << vb.ToString();
      }
    }
  }
}

// Scoped override of the process-global memory budget (0 = unlimited).
// The warehouse under test must be destroyed before the guard so every
// reservation (recycler residents, in-flight state) is returned first.
class GlobalBudgetGuard {
 public:
  explicit GlobalBudgetGuard(uint64_t limit)
      : prior_(common::MemoryBudget::Process().limit()) {
    common::MemoryBudget::Process().SetLimit(limit);
  }
  ~GlobalBudgetGuard() { common::MemoryBudget::Process().SetLimit(prior_); }

 private:
  uint64_t prior_;
};

// The mixed workload: lazy scans with time windows, joins through the
// dataview, grouped and global aggregates, metadata-only browsing, sorted
// top-k, distinct, and an empty result. Every query is deterministic
// under concurrency (aggregates and lazy-scan output follow the
// seq-ordered stream; bare scans carry ORDER BY).
const char* kWorkload[] = {
    testing::kPaperQ1,
    testing::kPaperQ2,
    "SELECT COUNT(*), AVG(D.sample_value) FROM mseed.dataview "
    "WHERE F.network = 'NL' AND F.channel = 'BHE';",
    "SELECT network, station, COUNT(*) FROM mseed.files "
    "GROUP BY network, station ORDER BY network, station;",
    "SELECT file_id, station FROM mseed.files ORDER BY file_id LIMIT 7;",
    "SELECT DISTINCT network FROM mseed.files;",
    "SELECT AVG(D.sample_value) FROM mseed.dataview "
    "WHERE F.station = 'ZZZ';",
};
constexpr size_t kWorkloadSize = sizeof(kWorkload) / sizeof(kWorkload[0]);

struct Outcome {
  std::string sql;
  bool ok = false;
  std::string error;
  Table table;
  uint64_t query_threads = 0;  // most workers of the query's drive loops
};

// Runs `threads` clients × `iters` passes of the workload (each client
// starts at a different offset) against `wh`; returns all outcomes.
std::vector<Outcome> RunClients(Warehouse* wh, int threads, int iters) {
  std::vector<Outcome> outcomes(
      static_cast<size_t>(threads) * iters * kWorkloadSize);
  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([wh, t, iters, &outcomes] {
      for (int iter = 0; iter < iters; ++iter) {
        for (size_t q = 0; q < kWorkloadSize; ++q) {
          const char* sql = kWorkload[(q + t) % kWorkloadSize];
          size_t slot = (static_cast<size_t>(t) * iters + iter) *
                            kWorkloadSize + q;
          Outcome& out = outcomes[slot];
          out.sql = sql;
          auto result = wh->Query(sql);
          if (result.ok()) {
            out.ok = true;
            out.table = std::move(result->table);
            out.query_threads = result->report.query_threads;
          } else {
            out.error = result.status().ToString();
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  return outcomes;
}

// Serial expected results, one fresh warehouse per call.
std::map<std::string, Table> SerialBaseline(LoadStrategy strategy,
                                            const std::string& root) {
  std::map<std::string, Table> expected;
  auto wh = testing::MustOpen(strategy, root, 64ULL << 20,
                              /*result_cache=*/false);
  for (const char* sql : kWorkload) {
    auto result = wh->Query(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << "\n  " << sql;
    if (result.ok()) expected.emplace(sql, std::move(result->table));
  }
  return expected;
}

std::unique_ptr<Warehouse> OpenConcurrent(LoadStrategy strategy,
                                          const std::string& root,
                                          size_t max_concurrent,
                                          uint64_t cache_budget = 64ULL
                                              << 20) {
  WarehouseOptions options;
  options.strategy = strategy;
  options.cache_budget_bytes = cache_budget;
  options.enable_result_cache = false;
  options.max_concurrent_queries = max_concurrent;
  options.extraction_threads = 2;
  options.query_threads = 2;
  options.batch_rows = 64;  // enough morsels for parallel drive loops
  auto wh = Warehouse::Open(options);
  EXPECT_TRUE(wh.ok()) << wh.status().ToString();
  auto stats = (*wh)->AttachRepository(root);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return std::move(*wh);
}

TEST(ConcurrentQueryTest, MixedWorkloadMatchesSerial) {
  testing::ScopedTempDir dir;
  testing::MustGenerate(dir.path(), testing::SmallRepoConfig());
  std::map<std::string, Table> expected =
      SerialBaseline(LoadStrategy::kLazy, dir.path());
  ASSERT_EQ(expected.size(), kWorkloadSize);

  const size_t kMaxConcurrent[] = {1, 4};
  const uint64_t kGlobalBudgets[] = {0, 4ULL << 20};
  for (size_t max_concurrent : kMaxConcurrent) {
    for (uint64_t global : kGlobalBudgets) {
      SCOPED_TRACE("max_concurrent=" + std::to_string(max_concurrent) +
                   " global_budget=" + std::to_string(global));
      GlobalBudgetGuard guard(global);
      std::vector<Outcome> outcomes;
      {
        auto wh = OpenConcurrent(LoadStrategy::kLazy, dir.path(),
                                 max_concurrent);
        outcomes = RunClients(wh.get(), /*threads=*/6, /*iters=*/2);
        WarehouseStats stats = wh->Stats();
        EXPECT_EQ(stats.queries_admitted, outcomes.size());
        EXPECT_EQ(stats.queries_active, 0u);
      }
      uint64_t workers = 0;
      for (const Outcome& out : outcomes) {
        ASSERT_TRUE(out.ok) << out.error << "\n  " << out.sql;
        ExpectTablesEqual(expected.at(out.sql), out.table, out.sql);
        workers = std::max(workers, out.query_threads);
      }
      // The concurrent queries include parallel drive loops.
      EXPECT_GT(workers, 1u);
    }
  }
}

TEST(ConcurrentQueryTest, FilenameOnlyConcurrentHydrationMatchesSerial) {
  testing::ScopedTempDir dir;
  testing::MustGenerate(dir.path(), testing::SmallRepoConfig());
  std::map<std::string, Table> expected =
      SerialBaseline(LoadStrategy::kLazyFilenameOnly, dir.path());

  // Concurrent first touch: many clients race to hydrate the candidate
  // files' record metadata. Hydration is exclusive and idempotent, so
  // every result still matches the serial run.
  auto wh = OpenConcurrent(LoadStrategy::kLazyFilenameOnly, dir.path(),
                           /*max_concurrent=*/4);
  std::vector<Outcome> outcomes = RunClients(wh.get(), 6, 1);
  for (const Outcome& out : outcomes) {
    ASSERT_TRUE(out.ok) << out.error << "\n  " << out.sql;
    ExpectTablesEqual(expected.at(out.sql), out.table, out.sql);
  }
}

TEST(ConcurrentQueryTest, ConcurrentRefreshDoesNotPerturbResults) {
  testing::ScopedTempDir dir;
  testing::MustGenerate(dir.path(), testing::SmallRepoConfig());
  std::map<std::string, Table> expected =
      SerialBaseline(LoadStrategy::kLazy, dir.path());

  auto wh = OpenConcurrent(LoadStrategy::kLazy, dir.path(), 4);
  std::atomic<bool> stop{false};
  std::atomic<int> refreshes{0};
  std::string refresh_error;
  std::thread refresher([&] {
    // Unchanged repository: every refresh is a no-op metadata pass racing
    // the queries' registry reads and catalog snapshots.
    while (!stop.load()) {
      auto r = wh->Refresh();
      if (!r.ok()) {
        refresh_error = r.status().ToString();
        return;
      }
      ++refreshes;
    }
  });
  std::vector<Outcome> outcomes = RunClients(wh.get(), 4, 2);
  stop.store(true);
  refresher.join();
  ASSERT_TRUE(refresh_error.empty()) << refresh_error;
  EXPECT_GT(refreshes.load(), 0);
  for (const Outcome& out : outcomes) {
    ASSERT_TRUE(out.ok) << out.error << "\n  " << out.sql;
    ExpectTablesEqual(expected.at(out.sql), out.table, out.sql);
  }
}

TEST(ConcurrentQueryTest, SchedulerReportsTicketsAndQueueing) {
  testing::ScopedTempDir dir;
  testing::MustGenerate(dir.path(), testing::SmallRepoConfig());

  GlobalBudgetGuard guard(4ULL << 20);
  {
    auto wh = OpenConcurrent(LoadStrategy::kLazy, dir.path(),
                             /*max_concurrent=*/1);
    constexpr int kThreads = 4;
    std::vector<engine::ExecutionReport> reports(kThreads);
    std::vector<std::string> errors(kThreads);
    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back([&wh, &reports, &errors, t] {
        auto result = wh->Query(testing::kPaperQ2);
        if (result.ok()) {
          reports[t] = std::move(result->report);
        } else {
          errors[t] = result.status().ToString();
        }
      });
    }
    for (auto& c : clients) c.join();

    double total_wait = 0;
    std::set<uint64_t> tickets;
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_TRUE(errors[t].empty()) << errors[t];
      EXPECT_GT(reports[t].ticket_id, 0u);
      tickets.insert(reports[t].ticket_id);
      total_wait += reports[t].queue_wait_seconds;
      // Bounded scheduler + finite global budget: each query's budget is
      // an equal carve of the global cap — unless a per-query budget is
      // configured (e.g. the spill-budget CI job's environment), which
      // takes precedence, or footprint-aware admission was switched on
      // via the environment, in which case the carve comes from the
      // query's (clamped) estimate.
      if (reports[t].estimated_footprint_bytes == 0) {
        uint64_t expected_budget = 4ULL << 20;
        if (const char* env = std::getenv("LAZYETL_MEMORY_BUDGET")) {
          expected_budget = std::strtoull(env, nullptr, 10);
        }
        EXPECT_EQ(reports[t].admitted_budget_bytes, expected_budget);
        EXPECT_EQ(reports[t].memory_budget_bytes, expected_budget);
      } else {
        EXPECT_GT(reports[t].admitted_budget_bytes, 0u);
        EXPECT_LE(reports[t].admitted_budget_bytes, 4ULL << 20);
        EXPECT_EQ(reports[t].memory_budget_bytes,
                  reports[t].admitted_budget_bytes);
      }
      // The report text surfaces the scheduler line.
      EXPECT_NE(reports[t].ToString().find("scheduler: ticket"),
                std::string::npos);
    }
    EXPECT_EQ(tickets.size(), static_cast<size_t>(kThreads));
    // With one slot and 4 clients, somebody must have queued.
    EXPECT_GT(total_wait, 0.0);
  }
}

// Stress / fault injection: 8 clients x mixed priorities x random queue
// timeouts hammer a 2-slot scheduler under a tiny (2 MiB) global budget
// with footprint-aware admission on. A third of the requests go through
// the streaming cursor and are abandoned mid-stream (explicit Close or a
// dropped handle after 0-2 batches) — the serving front-end's client
// disconnects. Every materializing query either succeeds with a result
// byte-identical to the serial run or fails with the typed
// DeadlineExceeded admission timeout — nothing else. After the storm, no
// ticket, budget reservation or spill directory may be leaked, cursors
// included. Seeded per-client RNGs make each client's request sequence
// reproducible; workers never call gtest assertions (TSan-meaningful).
TEST(ConcurrentQueryTest, SchedulerStressFaultInjectionLeavesNoLeaks) {
  testing::ScopedTempDir dir;
  testing::MustGenerate(dir.path(), testing::SmallRepoConfig());
  std::map<std::string, Table> expected =
      SerialBaseline(LoadStrategy::kLazy, dir.path());
  ASSERT_EQ(expected.size(), kWorkloadSize);

  const uint64_t pre_used = common::MemoryBudget::Process().used();
  testing::ScopedTempDir spill_root;
  GlobalBudgetGuard guard(2ULL << 20);

  struct StressOutcome {
    std::string sql;
    bool ok = false;
    bool deadline = false;
    bool abandoned = false;  // streamed and walked away mid-stream
    std::string error;
    Table table;
  };
  constexpr int kThreads = 8;
  constexpr int kIters = 3;
  std::vector<StressOutcome> outcomes(
      static_cast<size_t>(kThreads) * kIters * kWorkloadSize);
  uint64_t total_admitted = 0;
  uint64_t total_timed_out = 0;

  {
    WarehouseOptions options;
    options.strategy = LoadStrategy::kLazy;
    options.cache_budget_bytes = 64ULL << 20;
    options.enable_result_cache = false;
    options.max_concurrent_queries = 2;
    options.extraction_threads = 2;
    options.query_threads = 2;
    options.footprint_aware_admission = true;
    options.spill_dir = spill_root.path();
    auto opened = Warehouse::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto wh = std::move(*opened);
    auto attached = wh->AttachRepository(dir.path());
    ASSERT_TRUE(attached.ok()) << attached.status().ToString();

    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back([&wh, &outcomes, t] {
        std::mt19937 rng(1234u + static_cast<uint32_t>(t));
        for (int iter = 0; iter < kIters; ++iter) {
          for (size_t q = 0; q < kWorkloadSize; ++q) {
            const char* sql = kWorkload[rng() % kWorkloadSize];
            QueryOptions qo;
            qo.priority = static_cast<common::QueryPriority>(rng() % 3);
            qo.client_id = "tenant-" + std::to_string(t % 4);
            // Fault injection: ~1 in 4 queries carries a 1 ms queue
            // timeout, which under 8-vs-2 contention expires often; the
            // rest explicitly never time out.
            qo.queue_timeout_ms = (rng() % 4 == 0) ? 1 : -1;
            size_t slot =
                (static_cast<size_t>(t) * kIters + iter) * kWorkloadSize + q;
            StressOutcome& out = outcomes[slot];
            out.sql = sql;
            if (rng() % 3 == 0) {
              // Streaming client that gives up mid-stream: read a few
              // batches, then either Close explicitly or just drop the
              // handle (disconnect). Both must release the ticket, the
              // budget carve and any spill state.
              auto cursor = wh->OpenCursor(sql, qo);
              if (!cursor.ok()) {
                out.deadline = cursor.status().IsDeadlineExceeded();
                out.error = cursor.status().ToString();
                continue;
              }
              out.abandoned = true;
              const size_t reads = rng() % 3;
              Table batch;
              for (size_t i = 0; i < reads; ++i) {
                auto more = (*cursor)->Next(&batch);
                if (!more.ok()) {
                  out.error = more.status().ToString();
                  break;
                }
                if (!*more) break;
              }
              if (rng() % 2 == 0) (*cursor)->Close();
              continue;
            }
            auto result = wh->Query(sql, qo);
            if (result.ok()) {
              out.ok = true;
              out.table = std::move(result->table);
            } else {
              out.deadline = result.status().IsDeadlineExceeded();
              out.error = result.status().ToString();
            }
          }
        }
      });
    }
    for (auto& c : clients) c.join();

    WarehouseStats stats = wh->Stats();
    total_admitted = stats.queries_admitted;
    total_timed_out = stats.queries_timed_out;
    // Ticket accounting balances: nothing executing, nothing queued.
    EXPECT_EQ(stats.queries_active, 0u);
    EXPECT_EQ(stats.queries_waiting, 0u);
  }

  size_t ok_count = 0, deadline_count = 0, abandoned_count = 0;
  for (const StressOutcome& out : outcomes) {
    if (out.abandoned) {
      ++abandoned_count;
      // An abandoned stream may stop early, but it must never error.
      EXPECT_TRUE(out.error.empty()) << out.error << "\n  " << out.sql;
    } else if (out.ok) {
      ++ok_count;
      ExpectTablesEqual(expected.at(out.sql), out.table, "stress: " + out.sql);
    } else {
      ++deadline_count;
      // The only admissible failure is the typed admission timeout.
      EXPECT_TRUE(out.deadline) << out.error << "\n  " << out.sql;
    }
  }
  EXPECT_EQ(ok_count + deadline_count + abandoned_count, outcomes.size());
  // Abandoned cursors were admitted (they held a ticket mid-stream), so
  // they count toward admissions exactly like completed queries.
  EXPECT_EQ(total_admitted, ok_count + abandoned_count);
  EXPECT_EQ(total_timed_out, deadline_count);
  // The workload must genuinely have executed under contention, on both
  // the materializing and the streaming path.
  EXPECT_GT(ok_count, 0u);
  EXPECT_GT(abandoned_count, 0u);
  // Storm composition, for eyeballing that fault injection fired (the
  // timeout count is load-dependent; only the accounting is asserted).
  std::fprintf(stderr, "stress storm: %zu ok, %zu abandoned, %zu timed out\n",
               ok_count, abandoned_count, deadline_count);

  // No budget reservation outlives the warehouse (tickets, breaker state,
  // recycler residents and extraction windows all released)...
  EXPECT_EQ(common::MemoryBudget::Process().used(), pre_used);
  // ...and no per-query spill directory survives the storm.
  size_t leftover = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator(spill_root.path(), ec);
       !ec && it != std::filesystem::directory_iterator(); ++it) {
    ++leftover;
  }
  EXPECT_EQ(leftover, 0u);
}

TEST(ConcurrentQueryTest, EvictionUnderPressureKeepsCacheHitParity) {
  testing::ScopedTempDir dir;
  testing::MustGenerate(dir.path(), testing::SmallRepoConfig());

  // Tiny record cache: the second pass of every query mixes recycler hits
  // with re-extractions of evicted records. Results must be identical
  // run-to-run; evictions change only timings. A cached sample costs
  // 4 bytes, so the budget is sized against that.
  auto wh = OpenConcurrent(LoadStrategy::kLazy, dir.path(),
                           /*max_concurrent=*/4,
                           /*cache_budget=*/16ULL << 10);
  std::vector<Outcome> first = RunClients(wh.get(), 4, 1);
  WarehouseStats warm = wh->Stats();
  EXPECT_GT(warm.cache.admissions, 0u);
  EXPECT_GT(warm.cache.evictions, 0u);  // budget far below the working set
  EXPECT_LE(warm.cache.current_bytes, warm.cache.budget_bytes);

  std::vector<Outcome> second = RunClients(wh.get(), 4, 1);
  ASSERT_EQ(first.size(), second.size());
  std::map<std::string, const Table*> baseline;
  for (const Outcome& out : first) {
    ASSERT_TRUE(out.ok) << out.error << "\n  " << out.sql;
    baseline.emplace(out.sql, &out.table);
  }
  for (const Outcome& out : second) {
    ASSERT_TRUE(out.ok) << out.error << "\n  " << out.sql;
    ExpectTablesEqual(*baseline.at(out.sql), out.table,
                      "second pass: " + out.sql);
  }

  // Under global pressure the recycler yields to the cap: drain the
  // global budget and verify admissions are rejected, results unchanged.
  GlobalBudgetGuard guard(1);  // 1 byte: nothing fits
  // Re-opening is not needed — the shared recycler sees the new global
  // limit on its next admission attempt.
  std::vector<Outcome> squeezed = RunClients(wh.get(), 2, 1);
  for (const Outcome& out : squeezed) {
    ASSERT_TRUE(out.ok) << out.error << "\n  " << out.sql;
    ExpectTablesEqual(*baseline.at(out.sql), out.table,
                      "squeezed pass: " + out.sql);
  }
}

// TSan target for the record tier's eviction and rejection paths: eight
// clients share one warehouse whose record cache is far below the working
// set, under a 4 MiB global budget, so admissions, hits, evictions and
// rejections interleave. Results must match the unbudgeted serial run.
TEST(ConcurrentQueryTest, StarvedCacheUnderGlobalBudgetStaysCorrect) {
  testing::ScopedTempDir dir;
  testing::MustGenerate(dir.path(), testing::SmallRepoConfig());
  const std::vector<std::string> queries = {
      testing::kPaperQ2,
      "SELECT COUNT(*) FROM mseed.dataview WHERE F.channel = 'BHZ'",
      testing::kPaperQ1,
  };
  std::vector<Table> baseline;
  {
    auto serial = testing::MustOpen(LoadStrategy::kLazy, dir.path(),
                                    64ULL << 20, /*result_cache=*/false);
    for (const auto& sql : queries) {
      auto r = serial->Query(sql);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      baseline.push_back(std::move(r->table));
    }
  }

  constexpr uint64_t kGlobal = 4ULL << 20;
  constexpr uint64_t kCacheBudget = 16ULL << 10;
  GlobalBudgetGuard guard(kGlobal);
  auto wh = testing::MustOpen(LoadStrategy::kLazy, dir.path(), kCacheBudget,
                              /*result_cache=*/false);
  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::vector<std::thread> workers;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        size_t q = static_cast<size_t>(t + round) % queries.size();
        auto r = wh->Query(queries[q]);
        if (!r.ok() || r->table.num_rows() != baseline[q].num_rows()) {
          ++failures[t];
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;

  // Full content check once the dust has settled.
  for (size_t q = 0; q < queries.size(); ++q) {
    auto r = wh->Query(queries[q]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectTablesEqual(baseline[q], r->table,
                      "post-concurrency " + std::to_string(q));
  }
  WarehouseStats stats = wh->Stats();
  EXPECT_GT(stats.cache.evictions, 0u);
  EXPECT_LE(stats.cache.current_bytes, kCacheBudget);
  EXPECT_LE(common::MemoryBudget::Process().used(), kGlobal);
  wh.reset();  // return the cache's bytes before the guard lifts the cap
}

}  // namespace
}  // namespace lazyetl::core
