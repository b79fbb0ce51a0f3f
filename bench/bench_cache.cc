// E5 — Recycler cache behaviour (§3.3, demo point 7): latency and hit rate
// of a revisiting workload as a function of the cache byte budget, plus
// the record-level vs whole-result caching ablation.
//
// Paper-shaped result: once the budget covers the working set, hot-query
// latency drops to eager levels and the hit rate saturates; below it, LRU
// thrashing forces repeated extraction.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "common/time.h"

namespace lazyetl::bench {
namespace {

constexpr int kDays = 1;
constexpr double kSeconds = 60.0;

// A workload that revisits the same windows repeatedly across channels.
std::vector<std::string> RevisitingWorkload(
    const mseed::GeneratedRepository& repo) {
  std::vector<std::string> queries;
  for (const auto& f : repo.files) {
    NanoTime w0 = f.start_time + 5 * kNanosPerSecond;
    NanoTime w1 = w0 + 10 * kNanosPerSecond;
    queries.push_back(
        "SELECT AVG(ABS(D.sample_value)) FROM mseed.dataview "
        "WHERE F.station = '" + f.station + "' AND F.channel = '" +
        f.channel + "' AND D.sample_time >= '" + FormatTimestamp(w0) +
        "' AND D.sample_time < '" + FormatTimestamp(w1) + "'");
  }
  return queries;
}

void BM_Cache_BudgetSweep(benchmark::State& state) {
  const BenchRepo& repo = GetRepo(kDays, kSeconds);
  uint64_t budget = static_cast<uint64_t>(state.range(0)) << 10;  // KiB arg
  auto workload = RevisitingWorkload(repo.info);

  double hit_rate = 0;
  uint64_t evictions = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto wh = OpenWarehouse(core::LoadStrategy::kLazy, repo.root, budget);
    // Warm-up pass: first touch of every window; counters reset afterwards
    // so the measured hit rate reflects only the revisiting pass.
    for (const auto& sql : workload) MustQuery(wh.get(), sql);
    wh->ResetCacheCounters();
    state.ResumeTiming();
    // Measured pass: revisit everything.
    for (const auto& sql : workload) {
      auto result = MustQuery(wh.get(), sql);
      benchmark::DoNotOptimize(result.table);
    }
    auto stats = wh->Stats();
    uint64_t lookups = stats.cache.hits + stats.cache.misses;
    hit_rate = lookups ? static_cast<double>(stats.cache.hits) /
                             static_cast<double>(lookups)
                       : 0.0;
    evictions = stats.cache.evictions;
  }
  state.counters["budget_bytes"] = static_cast<double>(budget);
  state.counters["hit_rate"] = hit_rate;
  state.counters["evictions"] = static_cast<double>(evictions);
}

// Ablation: whole-result recycling on top of record-level caching.
void BM_Cache_ResultRecyclingAblation(benchmark::State& state) {
  const BenchRepo& repo = GetRepo(kDays, kSeconds);
  bool result_cache = state.range(0) != 0;
  auto workload = RevisitingWorkload(repo.info);
  for (auto _ : state) {
    state.PauseTiming();
    auto wh = OpenWarehouse(core::LoadStrategy::kLazy, repo.root,
                            256ULL << 20, result_cache);
    for (const auto& sql : workload) MustQuery(wh.get(), sql);
    state.ResumeTiming();
    for (const auto& sql : workload) {
      auto result = MustQuery(wh.get(), sql);
      benchmark::DoNotOptimize(result.table);
    }
  }
  state.SetLabel(result_cache ? "record+result-cache" : "record-cache-only");
}

// Doubling steps between 8 KiB and 4 MiB, so the budget at which the hit
// rate saturates is resolved to a factor of two.
BENCHMARK(BM_Cache_BudgetSweep)
    ->RangeMultiplier(2)
    ->Range(8, 4096)  // KiB: 8 KiB thrashes
    ->Arg(65536)      // 64 MiB: whole working set resident
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Cache_ResultRecyclingAblation)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lazyetl::bench

BENCHMARK_MAIN();
