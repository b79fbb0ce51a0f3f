// Hash-join throughput, and the Bloom semi-join pushdown across join
// selectivities.
//
// Each join workload runs one view join through the batched build/probe
// kernels at 1 and 8 threads (results are checked against a reference
// evaluator in tests/vector_join_test.cc). The Bloom sweep toggles
// LAZYETL_JOIN_BLOOM force/off over build sides matching ~1% / ~10% /
// ~50% of the probe rows, reporting the fraction of probe rows the filter
// skipped. Counters report probe rows/s, the join-build and Bloom-skip
// counters, and a result checksum so a divergence between runs is
// visible in the output.

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
using storage::ViewDefinition;

constexpr int kProbeRows = 2'000'000;
constexpr int kProbeKeyDomain = 1'000'000;  // probe.k = i % domain

void RegisterJoinView(Catalog* c, const std::string& name,
                      const std::string& build, const std::string& build_key,
                      const std::string& probe_key) {
  ViewDefinition view;
  view.name = name;
  view.root_table = build;
  view.joins.push_back({"probe", {{build + "." + build_key, probe_key}}});
  view.columns = {{"B", "bk", build, build_key},
                  {"B", "pay", build, "pay"},
                  {"P", "k", "probe", "k"},
                  {"P", "s", "probe", "s"},
                  {"P", "v", "probe", "v"}};
  (void)c->RegisterView(std::move(view));
}

// Build sides are the view roots (unique keys, so output rows == matching
// probe rows); the 2M-row probe table is the join target, scanned fresh
// each iteration so the Bloom pushdown runs against a plain Scan.
const Catalog& JoinCatalog() {
  static Catalog* catalog = [] {
    auto* c = new Catalog();

    std::vector<int64_t> pk;
    std::vector<int64_t> pv;
    std::vector<std::string> ps;
    pk.reserve(kProbeRows);
    pv.reserve(kProbeRows);
    ps.reserve(kProbeRows);
    for (int i = 0; i < kProbeRows; ++i) {
      pk.push_back(i % kProbeKeyDomain);
      pv.push_back(static_cast<int64_t>(i) * 2654435761 % (1LL << 40));
      ps.push_back("s" + std::to_string(i % 200000));
    }
    auto probe = std::make_shared<Table>();
    (void)probe->AddColumn("k", Column::FromInt64(pk));
    (void)probe->AddColumn("v", Column::FromInt64(pv));
    (void)probe->AddColumn("s", Column::FromString(ps));
    (void)c->RegisterTable("probe", probe);

    // Integer-keyed builds: keys 0..n-1 match probe keys i % domain, so
    // n/domain is the join selectivity (n=domain matches every row).
    auto int_build = [&](const std::string& name, int n) {
      std::vector<int64_t> bk;
      std::vector<int64_t> pay;
      bk.reserve(n);
      pay.reserve(n);
      for (int i = 0; i < n; ++i) {
        bk.push_back(i);
        pay.push_back(i * 7);
      }
      auto t = std::make_shared<Table>();
      (void)t->AddColumn("k", Column::FromInt64(bk));
      (void)t->AddColumn("pay", Column::FromInt64(pay));
      (void)c->RegisterTable(name, t);
    };
    int_build("blo", 1000);              // low-cardinality key domain
    int_build("bhi", kProbeKeyDomain);   // high-cardinality, every row hits
    int_build("b1", kProbeKeyDomain / 100);   // ~1% join selectivity
    int_build("b10", kProbeKeyDomain / 10);   // ~10%
    int_build("b50", kProbeKeyDomain / 2);    // ~50%

    // Plain string keys (200k distinct, above the publish-time dict cap).
    std::vector<std::string> sk;
    std::vector<int64_t> spay;
    for (int i = 0; i < 200000; ++i) {
      sk.push_back("s" + std::to_string(i));
      spay.push_back(i * 7);
    }
    auto bs = std::make_shared<Table>();
    (void)bs->AddColumn("sk", Column::FromString(sk));
    (void)bs->AddColumn("pay", Column::FromInt64(spay));
    (void)c->RegisterTable("bs", bs);

    RegisterJoinView(c, "jlo", "blo", "k", "k");
    RegisterJoinView(c, "jhi", "bhi", "k", "k");
    RegisterJoinView(c, "jstr", "bs", "sk", "s");
    RegisterJoinView(c, "jb1", "b1", "k", "k");
    RegisterJoinView(c, "jb10", "b10", "k", "k");
    RegisterJoinView(c, "jb50", "b50", "k", "k");
    return c;
  }();
  return *catalog;
}

// Sampled FNV over the result (joins emit millions of rows; hashing a
// deterministic subset is enough to expose a divergence between modes).
uint64_t Checksum(const Table& t) {
  uint64_t h = 1469598103934665603ULL;
  h = (h ^ t.num_rows()) * 1099511628211ULL;
  for (size_t r = 0; r < t.num_rows(); r += 997) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      for (char ch : t.GetValue(r, c).ToString()) {
        h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ULL;
      }
    }
  }
  return h;
}

struct RunResult {
  uint64_t checksum = 0;
  ExecutionReport report;
};

RunResult RunQuery(const std::string& sql, size_t threads,
                   benchmark::State& state) {
  const Catalog& catalog = JoinCatalog();
  RunResult out;
  auto stmt = sql::Parse(sql);
  sql::Binder binder(&catalog);
  auto bound = binder.Bind(*stmt);
  engine::Planner planner(&catalog, {});
  auto planned = planner.Plan(*bound);
  engine::Executor executor(&catalog, nullptr,
                            {engine::kDefaultBatchRows, threads,
                             /*memory_budget=*/0, ""});
  auto result = executor.Execute(*planned->plan, &out.report);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  state.PauseTiming();  // checksum is verification, not workload
  out.checksum = Checksum(*result);
  state.ResumeTiming();
  benchmark::DoNotOptimize(*result);
  return out;
}

// state.range(0): thread count for the executor.
void RunJoinBench(benchmark::State& state, const std::string& sql) {
  const size_t threads = static_cast<size_t>(state.range(0));

  RunResult last;
  for (auto _ : state) {
    last = RunQuery(sql, threads, state);
  }

  state.counters["probe_rows_per_sec"] = benchmark::Counter(
      static_cast<double>(kProbeRows) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["join_builds"] =
      static_cast<double>(last.report.join_builds);
  state.counters["build_ms"] = last.report.join_build_seconds * 1e3;
  state.counters["probe_ms"] = last.report.join_probe_seconds * 1e3;
  state.counters["checksum"] = static_cast<double>(last.checksum % 1000000);
}

// state.range(0): 0 = Bloom forced on, 1 = Bloom off.
// state.range(1): thread count.
void RunBloomBench(benchmark::State& state, const std::string& sql) {
  const bool off = state.range(0) != 0;
  const size_t threads = static_cast<size_t>(state.range(1));
  setenv("LAZYETL_JOIN_BLOOM", off ? "0" : "force", 1);

  RunResult last;
  for (auto _ : state) {
    last = RunQuery(sql, threads, state);
  }
  unsetenv("LAZYETL_JOIN_BLOOM");

  state.counters["probe_rows_per_sec"] = benchmark::Counter(
      static_cast<double>(kProbeRows) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["bloom_skipped_rows"] =
      static_cast<double>(last.report.probe_rows_bloom_filtered);
  state.counters["bloom_skip_pct"] =
      100.0 * static_cast<double>(last.report.probe_rows_bloom_filtered) /
      static_cast<double>(kProbeRows);
  state.counters["checksum"] = static_cast<double>(last.checksum % 1000000);
}

void BM_Join_LowCardIntKeys(benchmark::State& state) {
  RunJoinBench(state, "SELECT B.bk, B.pay, P.v FROM jlo");
}

void BM_Join_HighCardIntKeys(benchmark::State& state) {
  RunJoinBench(state, "SELECT B.bk, B.pay, P.v FROM jhi");
}

void BM_Join_PlainStringKeys(benchmark::State& state) {
  RunJoinBench(state, "SELECT B.bk, B.pay, P.v FROM jstr");
}

void BM_JoinBloom_Sel1(benchmark::State& state) {
  RunBloomBench(state, "SELECT B.bk, B.pay, P.v FROM jb1");
}

void BM_JoinBloom_Sel10(benchmark::State& state) {
  RunBloomBench(state, "SELECT B.bk, B.pay, P.v FROM jb10");
}

void BM_JoinBloom_Sel50(benchmark::State& state) {
  RunBloomBench(state, "SELECT B.bk, B.pay, P.v FROM jb50");
}

// Thread counts.
#define JOIN_ARGS                                                  \
  ->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond)                  \
      ->MeasureProcessCPUTime()->UseRealTime()

// (mode, threads): mode 0 = Bloom forced on, 1 = Bloom off.
#define BLOOM_ARGS                                                 \
  ->Args({0, 8})->Args({1, 8})                                     \
      ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()     \
      ->UseRealTime()

BENCHMARK(BM_Join_LowCardIntKeys) JOIN_ARGS;
BENCHMARK(BM_Join_HighCardIntKeys) JOIN_ARGS;
BENCHMARK(BM_Join_PlainStringKeys) JOIN_ARGS;
BENCHMARK(BM_JoinBloom_Sel1) BLOOM_ARGS;
BENCHMARK(BM_JoinBloom_Sel10) BLOOM_ARGS;
BENCHMARK(BM_JoinBloom_Sel50) BLOOM_ARGS;

}  // namespace
}  // namespace lazyetl::bench

BENCHMARK_MAIN();
