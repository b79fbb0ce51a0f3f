// Grouped aggregation and DISTINCT throughput.
//
// Each workload runs one grouped query through the columnar group-id /
// accumulator kernels at 1 and 8 threads (results are checked against a
// reference evaluator in tests/vector_agg_test.cc). Counters report input
// rows/s and a result checksum, so a divergence between thread counts is
// visible directly in the bench output.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

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

// grp: low cardinality, dictionary-encoded (hashes by u32 code).
// hi:  ~200k distinct, dictionary-encoded only in `td`.
// k/i64/d: numeric keys and aggregate inputs.
const Catalog& GroupByCatalog() {
  static Catalog* catalog = [] {
    auto* c = new Catalog();
    std::vector<std::string> grp;
    std::vector<std::string> hi;
    std::vector<int64_t> k;
    std::vector<int64_t> i64;
    std::vector<double> d;
    grp.reserve(kRows);
    hi.reserve(kRows);
    k.reserve(kRows);
    i64.reserve(kRows);
    d.reserve(kRows);
    for (int i = 0; i < kRows; ++i) {
      grp.push_back("g" + std::to_string(i % 61));
      hi.push_back("h" + std::to_string(i % 199999));
      k.push_back(i % 1021);
      i64.push_back(static_cast<int64_t>(i) * 2654435761 % (1LL << 40));
      d.push_back(i * 0.3 - 250000.0);
    }
    auto t = std::make_shared<Table>();
    Column grp_col = Column::FromString(grp);
    grp_col.TryDictEncode(64);
    (void)t->AddColumn("grp", std::move(grp_col));
    (void)t->AddColumn("hi", Column::FromString(hi));
    (void)t->AddColumn("k", Column::FromInt64(k));
    (void)t->AddColumn("i64", Column::FromInt64(i64));
    (void)t->AddColumn("d", Column::FromDouble(d));
    (void)c->RegisterTable("t", t);

    auto td = std::make_shared<Table>(*t);
    td->DictEncodeStrings(1u << 20);
    (void)c->RegisterTable("td", td);
    return c;
  }();
  return *catalog;
}

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

// state.range(0): thread count for the executor.
void RunGroupByBench(benchmark::State& state, const std::string& sql) {
  const Catalog& catalog = GroupByCatalog();
  const size_t threads = static_cast<size_t>(state.range(0));

  uint64_t checksum = 0;
  for (auto _ : state) {
    auto stmt = sql::Parse(sql);
    sql::Binder binder(&catalog);
    auto bound = binder.Bind(*stmt);
    engine::Planner planner(&catalog, {});
    auto planned = planner.Plan(*bound);
    ExecutionReport report;
    engine::Executor executor(&catalog, nullptr,
                              {engine::kDefaultBatchRows, threads,
                               /*memory_budget=*/0, ""});
    auto result = executor.Execute(*planned->plan, &report);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      std::abort();
    }
    state.PauseTiming();  // checksum is verification, not workload
    checksum = Checksum(*result);
    state.ResumeTiming();
    benchmark::DoNotOptimize(*result);
  }

  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(kRows) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["checksum"] = static_cast<double>(checksum % 1000000);
}

void BM_GroupBy_DictLowCard(benchmark::State& state) {
  RunGroupByBench(state,
                  "SELECT grp, COUNT(*), SUM(i64), MIN(k), MAX(k), AVG(d) "
                  "FROM t GROUP BY grp");
}

void BM_GroupBy_PlainHighCard(benchmark::State& state) {
  RunGroupByBench(state,
                  "SELECT hi, COUNT(*), SUM(i64) FROM t GROUP BY hi");
}

void BM_GroupBy_DictHighCard(benchmark::State& state) {
  RunGroupByBench(state,
                  "SELECT hi, COUNT(*), SUM(i64) FROM td GROUP BY hi");
}

void BM_GroupBy_MultiKey(benchmark::State& state) {
  RunGroupByBench(state,
                  "SELECT grp, k, COUNT(*), SUM(d) FROM t GROUP BY grp, k");
}

void BM_Distinct_HighCard(benchmark::State& state) {
  RunGroupByBench(state, "SELECT DISTINCT hi FROM td");
}

// Thread counts.
#define GROUPBY_ARGS                                              \
  ->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond)                 \
      ->MeasureProcessCPUTime()->UseRealTime()

BENCHMARK(BM_GroupBy_DictLowCard) GROUPBY_ARGS;
BENCHMARK(BM_GroupBy_PlainHighCard) GROUPBY_ARGS;
BENCHMARK(BM_GroupBy_DictHighCard) GROUPBY_ARGS;
BENCHMARK(BM_GroupBy_MultiKey) GROUPBY_ARGS;
BENCHMARK(BM_Distinct_HighCard) GROUPBY_ARGS;

}  // namespace
}  // namespace lazyetl::bench

BENCHMARK_MAIN();
