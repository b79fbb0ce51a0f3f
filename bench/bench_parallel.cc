// Morsel-driven parallel execution vs. the serial pipeline.
//
// Scan-heavy aggregate, filtered aggregate, group-by, full sort, top-k
// and a join + aggregate over the warehouse view run at query_threads =
// 1/2/4/8; the per-thread-count timings give the speedup curve. Every
// run reports a checksum of the result table: deterministic merges mean
// the checksum is identical across thread counts (byte-identical results
// for these integer-aggregate workloads).
//
// BM_Parallel_SizeSweep runs one filtered aggregate over inputs of 4K to
// 2M rows (1 to 489 morsels of 4096 rows) at query_threads 1 and 4, on
// wall time. The smallest size at which 4 threads beat 1 is the
// crossover that kMorselsPerWorker (engine/operators/operator.h) is set
// from; the `workers` counter shows what the drive loops then used.
//
//   ./bench_parallel --benchmark_filter=SizeSweep

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "storage/catalog.h"

namespace lazyetl::bench {
namespace {

using engine::ExecutionReport;
using storage::Catalog;
using storage::Column;
using storage::Table;

constexpr int kRows = 2'000'000;

// One big synthetic fact table, built once per process.
const Catalog& BigCatalog() {
  static Catalog* catalog = [] {
    auto* c = new Catalog();
    std::vector<std::string> grp;
    std::vector<int32_t> i32;
    std::vector<int64_t> i64;
    std::vector<std::string> s;
    grp.reserve(kRows);
    i32.reserve(kRows);
    i64.reserve(kRows);
    s.reserve(kRows);
    for (int i = 0; i < kRows; ++i) {
      grp.push_back(i % 16 ? "minor" : "major");
      i32.push_back(i * 2654435761u % 8191 - 4096);
      i64.push_back(static_cast<int64_t>(i) * 1103515245 % (1LL << 40));
      s.push_back("k" + std::to_string(i % 1024));
    }
    auto t = std::make_shared<Table>();
    (void)t->AddColumn("grp", Column::FromString(std::move(grp)));
    (void)t->AddColumn("i32", Column::FromInt32(std::move(i32)));
    (void)t->AddColumn("i64", Column::FromInt64(std::move(i64)));
    (void)t->AddColumn("s", Column::FromString(std::move(s)));
    (void)c->RegisterTable("t", t);
    return c;
  }();
  return *catalog;
}

// FNV-1a over the printed cells: identical across thread counts when the
// result is byte-identical.
uint64_t Checksum(const Table& t) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      for (char ch : t.GetValue(r, c).ToString()) {
        h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ULL;
      }
    }
  }
  return h;
}

Table MustRun(const Catalog& catalog, const std::string& sql,
              size_t threads) {
  auto stmt = sql::Parse(sql);
  sql::Binder binder(&catalog);
  auto bound = binder.Bind(*stmt);
  engine::Planner planner(&catalog, {});
  auto planned = planner.Plan(*bound);
  engine::Executor executor(&catalog, nullptr,
                            {engine::kDefaultBatchRows, threads});
  ExecutionReport report;
  auto result = executor.Execute(*planned->plan, &report);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(*result);
}

void RunEngineBench(benchmark::State& state, const std::string& sql) {
  const Catalog& catalog = BigCatalog();
  size_t threads = static_cast<size_t>(state.range(0));
  uint64_t checksum = 0;
  for (auto _ : state) {
    Table result = MustRun(catalog, sql, threads);
    checksum = Checksum(result);
    benchmark::DoNotOptimize(result);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["checksum"] = static_cast<double>(checksum % 1000000);
}

void BM_Parallel_ScanAggregate(benchmark::State& state) {
  RunEngineBench(state,
                 "SELECT COUNT(*), SUM(i64), MIN(i32), MAX(i64) FROM t");
}

void BM_Parallel_FilterAggregate(benchmark::State& state) {
  RunEngineBench(state,
                 "SELECT COUNT(*), SUM(i64) FROM t WHERE i32 > 0");
}

void BM_Parallel_GroupBy(benchmark::State& state) {
  RunEngineBench(state,
                 "SELECT s, COUNT(*), SUM(i64), MAX(i32) FROM t "
                 "GROUP BY s ORDER BY s");
}

void BM_Parallel_Sort(benchmark::State& state) {
  RunEngineBench(state, "SELECT i64 FROM t ORDER BY i64 DESC");
}

void BM_Parallel_TopK(benchmark::State& state) {
  RunEngineBench(state,
                 "SELECT i64, s FROM t ORDER BY i64 DESC, s LIMIT 100");
}

// Join + aggregate through the warehouse view (eager: all in-memory, so
// the measurement isolates the parallel join/aggregate pipeline).
void BM_Parallel_JoinAggregate(benchmark::State& state) {
  const BenchRepo& repo = GetRepo(1, 120.0);
  size_t threads = static_cast<size_t>(state.range(0));
  core::WarehouseOptions options;
  options.strategy = core::LoadStrategy::kEager;
  options.query_threads = threads;
  options.enable_result_cache = false;
  auto wh = core::Warehouse::Open(options);
  if (!wh.ok()) std::abort();
  if (!(*wh)->AttachRepository(repo.root).ok()) std::abort();
  const char* sql =
      "SELECT F.station, COUNT(*), MIN(D.sample_value), MAX(D.sample_value) "
      "FROM mseed.dataview GROUP BY F.station ORDER BY F.station";
  uint64_t checksum = 0;
  for (auto _ : state) {
    auto result = (*wh)->Query(sql);
    if (!result.ok()) std::abort();
    checksum = Checksum(result->table);
    benchmark::DoNotOptimize(result->table);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["checksum"] = static_cast<double>(checksum % 1000000);
}

// The sweep's input: `rows` rows of (i32, i64). One size is resident at a
// time; the sweep visits each size at both thread counts before the next.
const Catalog& SweepCatalog(size_t rows) {
  static std::unique_ptr<Catalog> catalog;
  static size_t built_rows = 0;
  if (catalog == nullptr || built_rows != rows) {
    std::vector<int32_t> i32(rows);
    std::vector<int64_t> i64(rows);
    for (size_t i = 0; i < rows; ++i) {
      i32[i] = static_cast<int32_t>(i * 2654435761u % 8191) - 4096;
      i64[i] = static_cast<int64_t>(i) * 1103515245 % (1LL << 40);
    }
    auto t = std::make_shared<Table>();
    (void)t->AddColumn("i32", Column::FromInt32(std::move(i32)));
    (void)t->AddColumn("i64", Column::FromInt64(std::move(i64)));
    catalog = std::make_unique<Catalog>();
    (void)catalog->RegisterTable("t", t);
    built_rows = rows;
  }
  return *catalog;
}

void BM_Parallel_SizeSweep(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t threads = static_cast<size_t>(state.range(1));
  const Catalog& catalog = SweepCatalog(rows);
  auto stmt = sql::Parse(
      "SELECT COUNT(*), SUM(i64), MAX(i32) FROM t WHERE i32 > 0");
  sql::Binder binder(&catalog);
  auto bound = binder.Bind(*stmt);
  engine::Planner planner(&catalog, {});
  auto planned = planner.Plan(*bound);
  engine::Executor executor(&catalog, nullptr,
                            {engine::kDefaultBatchRows, threads});
  uint64_t workers = 0;
  for (auto _ : state) {
    ExecutionReport report;
    auto result = executor.Execute(*planned->plan, &report);
    if (!result.ok()) std::abort();
    workers = report.query_threads;
    benchmark::DoNotOptimize(*result);
  }
  state.counters["morsels"] = static_cast<double>(
      (rows + engine::kDefaultBatchRows - 1) / engine::kDefaultBatchRows);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["workers"] = static_cast<double>(workers);
}

void SweepArgs(benchmark::internal::Benchmark* b) {
  for (int64_t morsels : {1, 4, 7, 10, 13, 16, 19, 24, 32, 38, 64, 128, 256}) {
    for (int64_t threads : {1, 4}) b->Args({morsels * 4096, threads});
  }
  for (int64_t threads : {1, 4}) b->Args({kRows, threads});
}

#define PARALLEL_ARGS ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)

BENCHMARK(BM_Parallel_ScanAggregate) PARALLEL_ARGS;
BENCHMARK(BM_Parallel_FilterAggregate) PARALLEL_ARGS;
BENCHMARK(BM_Parallel_GroupBy) PARALLEL_ARGS;
BENCHMARK(BM_Parallel_Sort) PARALLEL_ARGS;
BENCHMARK(BM_Parallel_TopK) PARALLEL_ARGS;
BENCHMARK(BM_Parallel_JoinAggregate) PARALLEL_ARGS;
BENCHMARK(BM_Parallel_SizeSweep)
    ->Apply(SweepArgs)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lazyetl::bench

BENCHMARK_MAIN();
