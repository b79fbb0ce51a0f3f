// Randomised differential testing: generate a few hundred random queries
// from a grammar of predicates/aggregates/groupings and check that the
// lazy and eager warehouses agree on every one of them, and that both
// agree with the reference evaluator of reference_eval.h. This is the
// volume version of the hand-picked cases in lazy_eager_equivalence_test
// and vector_agg_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "core/warehouse.h"
#include "mseed/repository.h"
#include "reference_eval.h"
#include "test_util.h"
#include "warehouse_test_util.h"

namespace lazyetl::core {
namespace {

using lazyetl::testing::MustGenerate;
using lazyetl::testing::MustOpen;
using lazyetl::testing::ScopedTempDir;

// One generated aggregate: `arg` is empty for COUNT(*).
struct GeneratedAggregate {
  std::string fn;
  std::string arg;

  std::string ToString() const {
    return fn + "(" + (arg.empty() ? "*" : arg) + ")";
  }
};

// The pieces of one generated query. A grouped query orders by its group
// and may filter on HAVING COUNT(*) > having; an ungrouped one has one or
// two aggregates and no HAVING.
struct GeneratedQuery {
  std::string group;  // empty: ungrouped
  std::vector<GeneratedAggregate> aggregates;
  std::string where;  // empty: no WHERE
  int having = -1;    // < 0: no HAVING

  std::string Sql() const {
    std::ostringstream sql;
    sql << "SELECT ";
    if (!group.empty()) sql << group << ", ";
    for (size_t i = 0; i < aggregates.size(); ++i) {
      sql << (i ? ", " : "") << aggregates[i].ToString();
    }
    sql << " FROM mseed.dataview";
    if (!where.empty()) sql << " WHERE " << where;
    if (!group.empty()) {
      sql << " GROUP BY " << group;
      if (having >= 0) sql << " HAVING COUNT(*) > " << having;
      sql << " ORDER BY " << group;
    }
    return sql.str();
  }
};

class QueryGenerator {
 public:
  explicit QueryGenerator(uint32_t seed) : rng_(seed) {}

  std::string Next() { return NextQuery().Sql(); }

  GeneratedQuery NextQuery() {
    GeneratedQuery q;
    bool grouped = Chance(0.4);
    if (grouped) {
      q.group = Pick({"F.station", "F.channel", "F.network", "R.seq_no"});
      q.aggregates.push_back(Aggregate());
      q.where = Where();
      if (Chance(0.3)) q.having = Int(0, 50);
    } else {
      q.aggregates.push_back(Aggregate());
      if (Chance(0.5)) q.aggregates.push_back(Aggregate());
      q.where = Where();
    }
    return q;
  }

 private:
  bool Chance(double p) { return std::uniform_real_distribution<>(0, 1)(rng_) < p; }
  int Int(int lo, int hi) { return std::uniform_int_distribution<>(lo, hi)(rng_); }

  template <size_t N>
  const char* Pick(const char* (&&options)[N]) {
    return options[static_cast<size_t>(Int(0, N - 1))];
  }

  GeneratedAggregate Aggregate() {
    const char* fn = Pick({"COUNT", "AVG", "MIN", "MAX", "SUM"});
    if (std::string(fn) == "COUNT" && Chance(0.5)) return {fn, ""};
    const char* arg =
        Pick({"D.sample_value", "ABS(D.sample_value)", "R.num_samples",
              "D.sample_value * 2", "D.sample_value + R.seq_no"});
    return {fn, arg};
  }

  std::string Predicate() {
    switch (Int(0, 5)) {
      case 0:
        return std::string("F.station ") + (Chance(0.5) ? "=" : "<>") + " '" +
               Pick({"HGN", "WIT", "OPLO", "ISK", "APE", "XXXX"}) + "'";
      case 1:
        return std::string("F.channel = '") + Pick({"BHZ", "BHN", "BHE"}) +
               "'";
      case 2:
        return std::string("F.network IN ('") + Pick({"NL", "KO", "GE"}) +
               "', '" + Pick({"NL", "KO", "GE"}) + "')";
      case 3:
        return "R.seq_no <= " + std::to_string(Int(1, 4));
      case 4: {
        // Random sub-window of the generated day (exercises containment
        // inference and boundary cases).
        int lo = Int(0, 50);
        int hi = lo + Int(0, 30);
        char a[64], b[64];
        std::snprintf(a, sizeof(a), "2010-01-10T00:00:%02d.%03d", lo / 2,
                      (lo % 2) * 500);
        std::snprintf(b, sizeof(b), "2010-01-10T00:00:%02d.%03d", hi / 2,
                      (hi % 2) * 500);
        return std::string("D.sample_time >= '") + a +
               "' AND D.sample_time < '" + b + "'";
      }
      default:
        return std::string("D.sample_value ") +
               Pick({">", "<", ">=", "<=", "="}) + " " +
               std::to_string(Int(-500, 500));
    }
  }

  std::string Where() {
    int n = Int(0, 3);
    std::string out;
    for (int i = 0; i < n; ++i) {
      if (i) out += " AND ";
      out += Predicate();
    }
    return out;
  }

  std::mt19937 rng_;
};

void ExpectTablesAgree(const storage::Table& a, const storage::Table& b,
                       const std::string& context) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << context;
  ASSERT_EQ(a.num_columns(), b.num_columns()) << context;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      auto va = a.GetValue(r, c);
      auto vb = b.GetValue(r, c);
      if (va.type() == storage::DataType::kDouble) {
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

// The reference answer to `q`: RefGroupBy over the warehouse's ungrouped
// rows `SELECT <group>, <aggregate args> FROM mseed.dataview WHERE
// <where>`, then HAVING and ORDER BY applied here.
storage::Table ReferenceAnswer(Warehouse* wh, const GeneratedQuery& q) {
  std::vector<std::string> cols;
  if (!q.group.empty()) cols.push_back(q.group);
  std::vector<testing::RefAggregate> aggs;
  for (const GeneratedAggregate& agg : q.aggregates) {
    int arg = -1;
    if (!agg.arg.empty()) {
      auto it = std::find(cols.begin(), cols.end(), agg.arg);
      arg = static_cast<int>(it - cols.begin());
      if (it == cols.end()) cols.push_back(agg.arg);
    }
    aggs.push_back({agg.fn, arg, agg.ToString()});
  }
  if (q.having >= 0) aggs.push_back({"COUNT", -1, "#having"});
  if (cols.empty()) cols.push_back("D.sample_value");  // COUNT(*) only

  std::string sql = "SELECT ";
  for (size_t i = 0; i < cols.size(); ++i) sql += (i ? ", " : "") + cols[i];
  sql += " FROM mseed.dataview";
  if (!q.where.empty()) sql += " WHERE " + q.where;
  auto rows = wh->Query(sql);
  EXPECT_TRUE(rows.ok()) << sql << ": " << rows.status().ToString();
  if (!rows.ok()) return storage::Table();
  std::vector<size_t> group_cols;
  if (!q.group.empty()) group_cols.push_back(0);
  storage::Table grouped = testing::RefGroupBy(rows->table, group_cols, aggs);

  storage::SelectionVector keep;
  for (size_t r = 0; r < grouped.num_rows(); ++r) {
    if (q.having < 0 ||
        grouped.GetValue(r, grouped.num_columns() - 1).int64_value() >
            q.having) {
      keep.push_back(static_cast<uint32_t>(r));
    }
  }
  if (!q.group.empty()) {
    std::stable_sort(keep.begin(), keep.end(), [&](uint32_t a, uint32_t b) {
      return grouped.GetValue(a, 0).LessThan(grouped.GetValue(b, 0));
    });
  }
  storage::Table sorted = grouped.Gather(keep);
  storage::Table out;
  const size_t width = group_cols.size() + q.aggregates.size();
  for (size_t c = 0; c < width; ++c) {
    EXPECT_TRUE(out.AddColumn(sorted.column_name(c), sorted.column(c)).ok());
  }
  return out;
}

class DifferentialTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DifferentialTest, RandomQueriesAgree) {
  static ScopedTempDir* dir = new ScopedTempDir();
  static std::unique_ptr<Warehouse> eager;
  static std::unique_ptr<Warehouse> lazy;
  if (!eager) {
    mseed::RepositoryConfig cfg = mseed::DefaultDemoConfig();
    cfg.num_days = 1;
    cfg.seconds_per_segment = 30.0;
    MustGenerate(dir->path(), cfg);
    eager = MustOpen(LoadStrategy::kEager, dir->path());
    lazy = MustOpen(LoadStrategy::kLazy, dir->path(),
                    /*cache_budget=*/48 << 10,  // small: eviction in play
                    /*result_cache=*/false);
  }

  QueryGenerator gen(GetParam());
  for (int i = 0; i < 40; ++i) {
    const GeneratedQuery q = gen.NextQuery();
    const std::string sql = q.Sql();
    SCOPED_TRACE(sql);
    auto a = eager->Query(sql);
    auto b = lazy->Query(sql);
    ASSERT_OK(a);
    ASSERT_OK(b);
    ExpectTablesAgree(a->table, b->table, sql);
    ExpectTablesAgree(a->table, ReferenceAnswer(eager.get(), q),
                      sql + " vs reference");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

// Seeded-random differential testing under concurrent, priority-scheduled
// serving: every generated query runs on a serial warehouse and then — from
// four client threads carrying distinct priorities and client ids —
// against a shared `max_concurrent = 4` warehouse, and the results must
// agree. Workers record outcomes; the main thread asserts.
class ConcurrentDifferentialTest : public ::testing::TestWithParam<uint32_t> {
};

TEST_P(ConcurrentDifferentialTest, RandomQueriesAgreeUnderPriorities) {
  static ScopedTempDir* dir = new ScopedTempDir();
  static std::unique_ptr<Warehouse> serial;
  static std::unique_ptr<Warehouse> concurrent;
  if (!serial) {
    mseed::RepositoryConfig cfg = mseed::DefaultDemoConfig();
    cfg.num_days = 1;
    cfg.seconds_per_segment = 30.0;
    MustGenerate(dir->path(), cfg);
    serial = MustOpen(LoadStrategy::kEager, dir->path());
    WarehouseOptions options;
    options.strategy = LoadStrategy::kLazy;
    options.cache_budget_bytes = 48 << 10;  // small: eviction in play
    options.enable_result_cache = false;
    options.max_concurrent_queries = 4;
    options.query_threads = 2;
    options.batch_rows = 64;  // enough morsels for parallel drive loops
    options.extraction_threads = 2;
    auto wh = Warehouse::Open(options);
    ASSERT_TRUE(wh.ok()) << wh.status().ToString();
    concurrent = std::move(*wh);
    auto attached = concurrent->AttachRepository(dir->path());
    ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  }
  // A partial setup failure on an earlier seed leaves the statics
  // half-built; fail cleanly instead of dereferencing null.
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(concurrent, nullptr);

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 6;
  QueryGenerator gen(GetParam());
  std::vector<std::string> sqls;
  std::vector<storage::Table> expected(kClients * kQueriesPerClient);
  for (int i = 0; i < kClients * kQueriesPerClient; ++i) {
    sqls.push_back(gen.Next());
    auto r = serial->Query(sqls.back());
    ASSERT_OK(r);
    expected[i] = std::move(r->table);
  }

  struct Outcome {
    bool ok = false;
    std::string error;
    storage::Table table;
    uint64_t query_threads = 0;
  };
  std::vector<Outcome> outcomes(sqls.size());
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      QueryOptions qo;
      qo.priority = static_cast<common::QueryPriority>(c % 3);
      qo.client_id = "client-" + std::to_string(c);
      for (int i = 0; i < kQueriesPerClient; ++i) {
        size_t slot = static_cast<size_t>(c) * kQueriesPerClient + i;
        auto r = concurrent->Query(sqls[slot], qo);
        if (r.ok()) {
          outcomes[slot].ok = true;
          outcomes[slot].table = std::move(r->table);
          outcomes[slot].query_threads = r->report.query_threads;
        } else {
          outcomes[slot].error = r.status().ToString();
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  uint64_t workers = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    SCOPED_TRACE(sqls[i]);
    ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
    ExpectTablesAgree(expected[i], outcomes[i].table, sqls[i]);
    workers = std::max(workers, outcomes[i].query_threads);
  }
  // Some generated query drives its pipeline on both workers.
  EXPECT_GT(workers, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcurrentDifferentialTest,
                         ::testing::Values(3u, 17u, 4242u));

}  // namespace
}  // namespace lazyetl::core
