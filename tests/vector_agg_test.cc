// Differential suite for grouped aggregation and DISTINCT: the engine's
// columnar group-id / accumulator path must be BIT-identical to the naive
// reference evaluator of reference_eval.h at every thread count and
// budget. The double aggregate inputs are multiples of 1/8 (plus NaN and
// ±0.0), whose sums are exact in any association order, so even the
// parallel and spilled merges must match the evaluator's row-order sums;
// one extra case with non-dyadic doubles pins the serial row-order sum.
// Covers dictionary-encoded and plain string keys, NaN / signed-zero
// double keys, NaN under MIN/MAX and ORDER BY, BOOL MIN/MAX,
// multi-column keys, empty inputs, recursive spill-partition overflow,
// and keys in runs (long, length-1 and alternating), which take the
// run-aware group-id and accumulator path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/executor.h"
#include "engine/kernels.h"
#include "engine/planner.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "reference_eval.h"
#include "storage/catalog.h"
#include "test_util.h"

namespace lazyetl::engine {
namespace {

using storage::Catalog;
using storage::Column;
using storage::DataType;
using storage::Table;

// Budgets are driven explicitly: a process-wide budget would make the
// budget=0 points budgeted too, and the serial row-order case needs a
// truly unbudgeted run.
class ClearEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    unsetenv("LAZYETL_MEMORY_BUDGET");
    unsetenv("LAZYETL_GLOBAL_MEMORY_BUDGET");
  }
};
const auto* const kClearEnv =
    ::testing::AddGlobalTestEnvironment(new ClearEnv);

const size_t kThreadCounts[] = {1, 8};
const uint64_t kBudgets[] = {0, 1u << 20};

// One aggregate of a test query; an empty `arg` is COUNT(*).
struct Agg {
  std::string fn;
  std::string arg;
};

class VectorAggTest : public ::testing::Test {
 protected:
  void SetUp() override {
    constexpr int kRows = 6000;
    std::vector<std::string> grp;   // low-cardinality: dictionary-encoded
    std::vector<std::string> hi;    // high-cardinality: stays plain
    std::vector<double> d;          // NaN and signed-zero keys
    std::vector<int64_t> i64;
    std::vector<int64_t> k;
    std::vector<uint8_t> flag;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (int i = 0; i < kRows; ++i) {
      grp.push_back("g" + std::to_string(i % 37));
      hi.push_back("h" + std::to_string(i % 1511));
      if (i % 13 == 0) {
        d.push_back(nan);
      } else if (i % 7 == 0) {
        d.push_back(i % 14 == 7 ? 0.0 : -0.0);
      } else {
        d.push_back(i * 0.125 - 300.0);
      }
      i64.push_back((1LL << 35) * (i % 5 - 2) + i * 131 % 7919);
      k.push_back(i % 211);
      flag.push_back(static_cast<uint8_t>(i % 3 == 0));
    }
    auto facts = std::make_shared<Table>();
    Column grp_col = Column::FromString(grp);
    grp_col.TryDictEncode(64);  // force the dict-code hash path
    ASSERT_STATUS_OK(facts->AddColumn("grp", std::move(grp_col)));
    ASSERT_STATUS_OK(facts->AddColumn("hi", Column::FromString(hi)));
    ASSERT_STATUS_OK(facts->AddColumn("d", Column::FromDouble(d)));
    ASSERT_STATUS_OK(facts->AddColumn("i64", Column::FromInt64(i64)));
    ASSERT_STATUS_OK(facts->AddColumn("k", Column::FromInt64(k)));
    ASSERT_STATUS_OK(facts->AddColumn("flag", Column::FromBool(flag)));
    ASSERT_STATUS_OK(catalog_.RegisterTable("facts", facts));

    // Same data with every string column force-encoded, so the dict path
    // also covers high-cardinality keys.
    auto forced = std::make_shared<Table>(*facts);
    forced->DictEncodeStrings(1u << 20);
    ASSERT_STATUS_OK(catalog_.RegisterTable("factsd", forced));

    // Non-dyadic doubles: their sums depend on the association order, so
    // only the serial row-order contract pins them.
    std::vector<double> x;
    for (int i = 0; i < kRows; ++i) x.push_back(std::sqrt(i + 2.0) * 10.1);
    auto noisy = std::make_shared<Table>();
    ASSERT_STATUS_OK(noisy->AddColumn("grp", Column::FromString(grp)));
    ASSERT_STATUS_OK(noisy->AddColumn("x", Column::FromDouble(x)));
    ASSERT_STATUS_OK(catalog_.RegisterTable("noisy", noisy));

    // Keys in runs, as the lazy data scan emits them (one run per mSEED
    // record): long runs, length-1 runs, alternating keys, and runs that
    // return to earlier groups. The first 4096-row batch takes the
    // run-aware path; the alternating tail keeps the per-row path.
    std::vector<int64_t> rk;
    for (int i = 0; i < kRows; ++i) {
      if (i >= 1000 && i < 1100) {
        rk.push_back(100000 + i);  // length-1 runs
      } else if (i >= 2000 && i < 2100) {
        rk.push_back(i % 2 == 0 ? 7 : 8);  // alternating
      } else if (i < 3000) {
        rk.push_back(i / 150);  // long runs
      } else if (i < 4000) {
        rk.push_back((i / 250) % 5);  // long runs of earlier groups
      } else {
        rk.push_back(i % 3);  // no runs
      }
    }
    std::vector<int64_t> ra;
    std::vector<double> rd;
    std::vector<std::string> rs;
    std::vector<uint8_t> rf;
    std::vector<int64_t> v;
    std::vector<double> w;
    std::vector<double> rx;
    for (int i = 0; i < kRows; ++i) {
      const int64_t key = rk[i];
      ra.push_back(i / 1500);  // changes rarely: multi-key runs split on rk
      // NaN, -0.0 and 0.0 keys in neighbouring runs must not merge.
      switch (key % 4) {
        case 0: rd.push_back(nan); break;
        case 1: rd.push_back(-0.0); break;
        case 2: rd.push_back(0.0); break;
        default: rd.push_back(static_cast<double>(key) * 0.25); break;
      }
      rs.push_back("s" + std::to_string(key % 50));
      rf.push_back(static_cast<uint8_t>(key / 3 % 2));
      v.push_back((i * 37LL) % 1000 - 500);
      if (i % 53 == 0) {
        w.push_back(nan);
      } else if (i % 11 == 0) {
        w.push_back(i % 22 == 0 ? 0.0 : -0.0);
      } else {
        w.push_back((i % 97) * 0.125 - 5.0);
      }
      rx.push_back(std::sqrt(i + 3.0) * 7.3);
    }
    auto runs = std::make_shared<Table>();
    ASSERT_STATUS_OK(runs->AddColumn("rk", Column::FromInt64(rk)));
    ASSERT_STATUS_OK(runs->AddColumn("ra", Column::FromInt64(ra)));
    ASSERT_STATUS_OK(runs->AddColumn("rd", Column::FromDouble(rd)));
    ASSERT_STATUS_OK(runs->AddColumn("rs", Column::FromString(rs)));
    Column rg_col = Column::FromString(rs);
    ASSERT_TRUE(rg_col.TryDictEncode(64));
    ASSERT_STATUS_OK(runs->AddColumn("rg", std::move(rg_col)));
    ASSERT_STATUS_OK(runs->AddColumn("rf", Column::FromBool(rf)));
    ASSERT_STATUS_OK(runs->AddColumn("v", Column::FromInt64(v)));
    ASSERT_STATUS_OK(runs->AddColumn("w", Column::FromDouble(w)));
    ASSERT_STATUS_OK(runs->AddColumn("rx", Column::FromDouble(rx)));
    ASSERT_STATUS_OK(catalog_.RegisterTable("runs", runs));

    tables_ = {{"facts", facts},
               {"factsd", forced},
               {"noisy", noisy},
               {"runs", runs}};
  }

  Result<Table> Run(const std::string& sql, size_t threads, uint64_t budget,
                    ExecutionReport* report) {
    auto stmt = sql::Parse(sql);
    if (!stmt.ok()) return stmt.status();
    sql::Binder binder(&catalog_);
    auto bound = binder.Bind(*stmt);
    if (!bound.ok()) return bound.status();
    Planner planner(&catalog_, {});
    auto planned = planner.Plan(*bound);
    if (!planned.ok()) return planned.status();
    Executor executor(&catalog_, nullptr, {4096, threads, budget, ""});
    return executor.Execute(*planned->plan, report);
  }

  // `SELECT <groups>, <aggs> FROM <table> [WHERE <where>] [GROUP BY
  // <groups>]`, and the reference evaluator's answer to it over `input`
  // (the rows of `table` that pass `where`).
  struct GroupQuery {
    std::string sql;
    Table expected;
  };
  GroupQuery MakeGroupQuery(const std::string& table,
                            const std::vector<std::string>& groups,
                            const std::vector<Agg>& aggs,
                            const std::string& where, const Table& input) {
    std::string select;
    std::vector<size_t> group_cols;
    for (const auto& g : groups) {
      select += (select.empty() ? "" : ", ") + g;
      group_cols.push_back(*input.ColumnIndex(g));
    }
    std::vector<testing::RefAggregate> ref_aggs;
    for (const Agg& agg : aggs) {
      std::string call = agg.fn + "(" + (agg.arg.empty() ? "*" : agg.arg) + ")";
      select += (select.empty() ? "" : ", ") + call;
      const int arg =
          agg.arg.empty() ? -1 : static_cast<int>(*input.ColumnIndex(agg.arg));
      ref_aggs.push_back({agg.fn, arg, call});
    }
    std::string sql = "SELECT " + select + " FROM " + table;
    if (!where.empty()) sql += " WHERE " + where;
    if (!groups.empty()) {
      sql += " GROUP BY ";
      for (size_t i = 0; i < groups.size(); ++i) {
        sql += (i ? ", " : "") + groups[i];
      }
    }
    return {sql, testing::RefGroupBy(input, group_cols, ref_aggs)};
  }

  // Runs `query` at every thread count and budget; each result must match
  // the reference bit for bit.
  void ExpectMatchesReference(const GroupQuery& query) {
    for (size_t threads : kThreadCounts) {
      for (uint64_t budget : kBudgets) {
        std::string context = query.sql + " @threads=" +
                              std::to_string(threads) +
                              " budget=" + std::to_string(budget);
        ExecutionReport report;
        auto got = Run(query.sql, threads, budget, &report);
        ASSERT_OK(got);
        testing::ExpectTablesBitEqual(*got, query.expected, context);
      }
    }
  }

  void ExpectGroupByMatches(const std::string& table,
                            const std::vector<std::string>& groups,
                            const std::vector<Agg>& aggs) {
    ExpectMatchesReference(
        MakeGroupQuery(table, groups, aggs, "", *tables_.at(table)));
  }

  // SELECT DISTINCT <cols> FROM <table> against RefDistinct.
  void ExpectDistinctMatches(const std::string& table,
                             const std::vector<std::string>& cols) {
    Table input;
    std::string list;
    for (const auto& c : cols) {
      ASSERT_STATUS_OK(
          input.AddColumn(c, **tables_.at(table)->ColumnByName(c)));
      list += (list.empty() ? "" : ", ") + c;
    }
    ExpectMatchesReference({"SELECT DISTINCT " + list + " FROM " + table,
                            testing::RefDistinct(input)});
  }

  Catalog catalog_;
  std::map<std::string, std::shared_ptr<Table>> tables_;
};

TEST_F(VectorAggTest, DictStringKeys) {
  ExpectGroupByMatches("facts", {"grp"},
                       {{"COUNT", ""},
                        {"SUM", "i64"},
                        {"MIN", "i64"},
                        {"MAX", "k"},
                        {"AVG", "d"}});
}

TEST_F(VectorAggTest, PlainAndForcedDictHighCardinalityKeys) {
  const std::vector<Agg> aggs = {
      {"COUNT", ""}, {"SUM", "k"}, {"MIN", "hi"}, {"MAX", "i64"}};
  ExpectGroupByMatches("facts", {"hi"}, aggs);
  ExpectGroupByMatches("factsd", {"hi"}, aggs);
}

TEST_F(VectorAggTest, NaNAndSignedZeroDoubleKeys) {
  // NaN keys collapse into one group (bit-pattern equality); -0.0 and 0.0
  // stay distinct. First-occurrence output order is deterministic, so no
  // ORDER BY is needed.
  ExpectGroupByMatches("facts", {"d"}, {{"COUNT", ""}, {"SUM", "i64"}});
}

TEST_F(VectorAggTest, BoolMinMaxStaysBool) {
  // The binder types MIN/MAX of a BOOL as BOOL; the result column must be
  // BOOL too, grouped and ungrouped.
  const std::vector<Agg> aggs = {{"MIN", "flag"}, {"MAX", "flag"}};
  ExpectGroupByMatches("facts", {"grp"}, aggs);
  ExpectGroupByMatches("facts", {}, aggs);
}

TEST_F(VectorAggTest, NaNDoubleMinMax) {
  // Every group holds NaNs, some as its first row. NaN orders above every
  // number, so MIN is the least number and MAX is NaN however the input
  // is split into morsels and spill partitions.
  const std::vector<Agg> aggs = {{"MIN", "d"}, {"MAX", "d"}};
  ExpectGroupByMatches("facts", {"grp"}, aggs);
  ExpectGroupByMatches("facts", {}, aggs);
}

TEST_F(VectorAggTest, OrderByDoubleSortsNaNLast) {
  // A stable sort under kernels::CompareDoubles: NaN after every number,
  // -0.0 tied with 0.0, ties in input order. Under the 1 MiB budget the
  // sort merges sorted runs, which compare doubles the same way.
  const Table& facts = *tables_.at("facts");
  const Column& d = **facts.ColumnByName("d");
  for (bool ascending : {true, false}) {
    storage::SelectionVector order(facts.num_rows());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      const int cmp =
          kernels::CompareDoubles(d.double_data()[a], d.double_data()[b]);
      return ascending ? cmp < 0 : cmp > 0;
    });
    const Table sorted = facts.Gather(order);
    Table expected;
    ASSERT_STATUS_OK(expected.AddColumn("d", **sorted.ColumnByName("d")));
    ASSERT_STATUS_OK(expected.AddColumn("i64", **sorted.ColumnByName("i64")));
    ExpectMatchesReference({std::string("SELECT d, i64 FROM facts ORDER BY d") +
                                (ascending ? "" : " DESC"),
                            std::move(expected)});
  }
}

TEST_F(VectorAggTest, MultiColumnKeysIncludingBool) {
  ExpectGroupByMatches("facts", {"grp", "k", "flag"},
                       {{"COUNT", ""}, {"SUM", "d"}, {"MIN", "i64"}});
}

TEST_F(VectorAggTest, EmptyInputAndEmptyGroups) {
  // Zero input rows: grouped output is empty, grand aggregates still
  // produce their COUNT=0 row.
  const Table none = tables_.at("facts")->Gather({});
  ExpectMatchesReference(
      MakeGroupQuery("facts", {"grp"}, {{"COUNT", ""}}, "k < 0", none));
  ExpectMatchesReference(MakeGroupQuery(
      "facts", {}, {{"COUNT", ""}, {"SUM", "i64"}, {"MIN", "k"}}, "k < 0",
      none));
}

TEST_F(VectorAggTest, UngroupedAggregates) {
  ExpectGroupByMatches("facts", {},
                       {{"COUNT", ""},
                        {"SUM", "d"},
                        {"AVG", "i64"},
                        {"MIN", "hi"},
                        {"MAX", "k"}});
}

TEST_F(VectorAggTest, BatchGroupIdsMatchReference) {
  // The batch-local group-id kernel on its own: over one whole-table
  // batch, its groups and first rows must be RefDistinct's. (In a query
  // the cross-batch packed-key index would re-merge groups the kernel
  // wrongly split, hiding such a bug from every result.)
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases =
      {{"facts", {"d"}},
       {"facts", {"grp"}},
       {"facts", {"grp", "k", "flag"}},
       {"factsd", {"hi"}},
       {"facts", {"d", "hi"}}};
  for (const auto& [table, cols] : cases) {
    const Table& t = *tables_.at(table);
    Table keys;
    std::vector<const Column*> colptrs;
    for (const auto& c : cols) {
      ASSERT_STATUS_OK(keys.AddColumn(c, **t.ColumnByName(c)));
    }
    for (size_t c = 0; c < keys.num_columns(); ++c) {
      colptrs.push_back(&keys.column(c));
    }
    kernels::GroupIdBuilder builder;
    const size_t ngroups =
        builder.Build(colptrs.data(), colptrs.size(), 0, keys.num_rows());
    ASSERT_EQ(builder.first_row.size(), ngroups);
    testing::ExpectTablesBitEqual(keys.Gather(builder.first_row),
                                  testing::RefDistinct(keys),
                                  table + " group ids");
  }
}

TEST_F(VectorAggTest, DistinctDifferential) {
  ExpectDistinctMatches("facts", {"grp", "k"});
  ExpectDistinctMatches("facts", {"d"});
  ExpectDistinctMatches("factsd", {"hi"});
}

TEST_F(VectorAggTest, RecursiveOverflowPartitions) {
  // A budget far below the grouped state forces Grace partitioning with
  // recursive splits (1511 groups >> kMinSplitGroups); the partition
  // re-merge path must match the reference too.
  const GroupQuery query = MakeGroupQuery(
      "facts", {"hi"},
      {{"COUNT", ""}, {"SUM", "i64"}, {"MIN", "hi"}, {"SUM", "d"}}, "",
      *tables_.at("facts"));
  for (size_t threads : kThreadCounts) {
    std::string context = "recursive @threads=" + std::to_string(threads);
    ExecutionReport report;
    auto got = Run(query.sql, threads, 4000, &report);
    ASSERT_OK(got);
    EXPECT_GT(report.spilled_bytes, 0u) << context;
    testing::ExpectTablesBitEqual(*got, query.expected, context);
  }
}

TEST_F(VectorAggTest, SerialDoubleSumsAddInRowOrder) {
  // The data must make association order visible: summing a group
  // backwards has to round differently somewhere.
  const Table& noisy = *tables_.at("noisy");
  std::map<std::string, std::pair<double, double>> sums;  // forward, back
  for (size_t r = 0; r < noisy.num_rows(); ++r) {
    sums[noisy.GetValue(r, 0).string_value()].first +=
        noisy.GetValue(r, 1).double_value();
  }
  for (size_t r = noisy.num_rows(); r-- > 0;) {
    sums[noisy.GetValue(r, 0).string_value()].second +=
        noisy.GetValue(r, 1).double_value();
  }
  size_t differ = 0;
  for (const auto& [grp, s] : sums) differ += s.first != s.second;
  ASSERT_GT(differ, 0u) << "non-dyadic data sums exactly in any order";

  // One thread, no budget: the engine adds each group's doubles in row
  // order across batches, exactly like the reference.
  const std::vector<Agg> aggs = {
      {"SUM", "x"}, {"AVG", "x"}, {"MIN", "x"}, {"MAX", "x"}};
  for (const GroupQuery& query :
       {MakeGroupQuery("noisy", {"grp"}, aggs, "", noisy),
        MakeGroupQuery("noisy", {}, aggs, "", noisy)}) {
    ExecutionReport report;
    auto got = Run(query.sql, 1, 0, &report);
    ASSERT_OK(got);
    testing::ExpectTablesBitEqual(*got, query.expected,
                                  query.sql + " @threads=1");
  }
}

TEST_F(VectorAggTest, RunKeysInt64) {
  ExpectGroupByMatches("runs", {"rk"},
                       {{"COUNT", ""},
                        {"SUM", "v"},
                        {"MIN", "v"},
                        {"MAX", "v"},
                        {"AVG", "w"},
                        {"MIN", "w"},
                        {"MAX", "w"},
                        {"MIN", "rf"},
                        {"MAX", "rs"}});
}

TEST_F(VectorAggTest, RunKeysNaNAndSignedZeroDoubles) {
  ExpectGroupByMatches("runs", {"rd"},
                       {{"COUNT", ""}, {"SUM", "v"}, {"MIN", "w"},
                        {"MAX", "w"}, {"SUM", "w"}});
}

TEST_F(VectorAggTest, RunKeysDictAndPlainStrings) {
  const std::vector<Agg> aggs = {
      {"COUNT", ""}, {"SUM", "w"}, {"MIN", "rs"}, {"MAX", "v"}};
  ExpectGroupByMatches("runs", {"rs"}, aggs);
  ExpectGroupByMatches("runs", {"rg"}, aggs);
}

TEST_F(VectorAggTest, RunKeysMultiColumnOneColumnChanges) {
  // ra changes every 1500 rows, rk at every run head: a head is a change
  // in either column.
  ExpectGroupByMatches("runs", {"ra", "rk"},
                       {{"COUNT", ""}, {"SUM", "v"}, {"MAX", "w"}});
  ExpectGroupByMatches("runs", {"rg", "rf", "rd"},
                       {{"COUNT", ""}, {"MIN", "v"}, {"AVG", "w"}});
}

TEST_F(VectorAggTest, RunKeysDistinct) {
  ExpectDistinctMatches("runs", {"rk"});
  ExpectDistinctMatches("runs", {"ra", "rd"});
  ExpectDistinctMatches("runs", {"rg", "rs"});
}

TEST_F(VectorAggTest, RunKeysSerialDoubleSumsAddInRowOrder) {
  // The run path folds a run through SumDoubleRange: still row order.
  const std::vector<Agg> aggs = {
      {"SUM", "rx"}, {"AVG", "rx"}, {"MIN", "rx"}, {"MAX", "rx"}};
  for (const auto& groups :
       {std::vector<std::string>{"rk"}, std::vector<std::string>{"rs"}}) {
    const GroupQuery query =
        MakeGroupQuery("runs", groups, aggs, "", *tables_.at("runs"));
    ExecutionReport report;
    auto got = Run(query.sql, 1, 0, &report);
    ASSERT_OK(got);
    testing::ExpectTablesBitEqual(*got, query.expected,
                                  query.sql + " @threads=1");
  }
}

TEST_F(VectorAggTest, BatchGroupIdsOnRunsMatchReference) {
  // The builder on its own over a batch in runs (it must take the run
  // path) and over one without (it must not): per row, the gid's first
  // row holds an equal key; per group, first rows are RefDistinct's.
  const Table& runs = *tables_.at("runs");
  storage::SelectionVector head(4000);
  for (uint32_t i = 0; i < head.size(); ++i) head[i] = i;
  const Table run_part = runs.Gather(head);
  const std::vector<std::pair<const Table*, std::vector<std::string>>> cases =
      {{&run_part, {"rk"}},
       {&run_part, {"rd"}},
       {&run_part, {"rs"}},
       {&run_part, {"rg", "rf"}},
       {&run_part, {"ra", "rk"}},
       {&runs, {"rk"}},
       {tables_.at("facts").get(), {"grp", "k"}}};
  for (const auto& [table, cols] : cases) {
    const std::string context = cols.front() + " over " +
                                std::to_string(table->num_rows()) + " rows";
    Table keys;
    std::vector<const Column*> colptrs;
    for (const auto& c : cols) {
      ASSERT_STATUS_OK(keys.AddColumn(c, **table->ColumnByName(c)));
    }
    for (size_t c = 0; c < keys.num_columns(); ++c) {
      colptrs.push_back(&keys.column(c));
    }
    kernels::GroupIdBuilder builder;
    const size_t rows = keys.num_rows();
    const size_t ngroups =
        builder.Build(colptrs.data(), colptrs.size(), 0, rows);
    EXPECT_EQ(builder.run_heads.empty(), table != &run_part) << context;
    ASSERT_EQ(builder.first_row.size(), ngroups);
    for (size_t r = 0; r < rows; ++r) {
      const uint32_t g = builder.gids[r];
      ASSERT_LT(g, ngroups) << context;
      ASSERT_LE(builder.first_row[g], r) << context;
      ASSERT_TRUE(kernels::GroupRowsEqual(colptrs.data(), colptrs.size(), 0,
                                          builder.first_row[g], r))
          << context << " row " << r;
    }
    testing::ExpectTablesBitEqual(keys.Gather(builder.first_row),
                                  testing::RefDistinct(keys), context);
  }
}

TEST_F(VectorAggTest, RunHeadsMarkEveryKeyChange) {
  // FindRunHeads against a row-by-row GroupRowsEqual scan, and its
  // give-up bound.
  const Table& runs = *tables_.at("runs");
  for (const auto& cols : {std::vector<std::string>{"rk"},
                           std::vector<std::string>{"rd"},
                           std::vector<std::string>{"rs"},
                           std::vector<std::string>{"rg", "rf"},
                           std::vector<std::string>{"ra", "rd", "rs"}}) {
    std::vector<const Column*> colptrs;
    for (const auto& c : cols) colptrs.push_back(*runs.ColumnByName(c));
    const size_t offset = 7;
    const size_t rows = runs.num_rows() - offset;
    storage::SelectionVector want;
    for (size_t r = 0; r < rows; ++r) {
      if (r == 0 || !kernels::GroupRowsEqual(colptrs.data(), colptrs.size(),
                                             offset, r - 1, r)) {
        want.push_back(static_cast<uint32_t>(r));
      }
    }
    std::vector<uint8_t> marks;
    storage::SelectionVector heads;
    ASSERT_TRUE(kernels::FindRunHeads(colptrs.data(), colptrs.size(), offset,
                                      rows, rows, &marks, &heads));
    EXPECT_EQ(heads, want) << cols.front();
    ASSERT_TRUE(kernels::FindRunHeads(colptrs.data(), colptrs.size(), offset,
                                      rows, want.size(), &marks, &heads));
    EXPECT_EQ(heads, want) << cols.front();
    EXPECT_FALSE(kernels::FindRunHeads(colptrs.data(), colptrs.size(), offset,
                                       rows, want.size() - 1, &marks,
                                       &heads))
        << cols.front();
  }
}

TEST_F(VectorAggTest, MorselRowsKnobSurfacesInReport) {
  setenv("LAZYETL_MORSEL_ROWS", "512", 1);
  ExecutionReport report;
  auto got = Run("SELECT grp, COUNT(*) FROM facts GROUP BY grp", 1, 0,
                 &report);
  unsetenv("LAZYETL_MORSEL_ROWS");
  ASSERT_OK(got);
  EXPECT_EQ(report.morsel_rows, 512u);

  // Out-of-range and non-numeric values fall back to the default.
  setenv("LAZYETL_MORSEL_ROWS", "7", 1);
  ExecutionReport fallback;
  auto got2 = Run("SELECT COUNT(*) FROM facts", 1, 0, &fallback);
  unsetenv("LAZYETL_MORSEL_ROWS");
  ASSERT_OK(got2);
  EXPECT_EQ(fallback.morsel_rows, kDefaultBatchRows);

  // The knob changes locality only — results are identical.
  setenv("LAZYETL_MORSEL_ROWS", "128", 1);
  ExecutionReport small_report;
  auto small = Run("SELECT grp, COUNT(*), SUM(i64) FROM facts GROUP BY grp",
                   8, 0, &small_report);
  unsetenv("LAZYETL_MORSEL_ROWS");
  ASSERT_OK(small);
  ExecutionReport base_report;
  auto base = Run("SELECT grp, COUNT(*), SUM(i64) FROM facts GROUP BY grp",
                  1, 0, &base_report);
  ASSERT_OK(base);
  EXPECT_EQ(small_report.morsel_rows, 128u);
  testing::ExpectTablesBitEqual(*small, *base, "morsel 128 vs default");
}

}  // namespace
}  // namespace lazyetl::engine
