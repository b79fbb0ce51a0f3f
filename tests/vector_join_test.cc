// Differential suite for the hash-join path: the batched build/probe
// kernels must be BIT-identical to the naive reference evaluator of
// reference_eval.h at every thread count and budget — including the
// Grace-partitioned spill path. Covers NaN / signed-zero double keys,
// dictionary-encoded vs plain string keys, multi-column keys, empty build
// and probe sides, duplicate-heavy build keys, and the Bloom-filter
// semi-join pushdown (forced on vs off must also be byte-identical, since
// the filter only drops provably-non-matching probe rows).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "engine/executor.h"
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

// Budgets and the Bloom policy are driven explicitly; both knobs must
// start cleared.
class ClearEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    unsetenv("LAZYETL_MEMORY_BUDGET");
    unsetenv("LAZYETL_JOIN_BLOOM");
  }
};
const auto* const kClearEnv =
    ::testing::AddGlobalTestEnvironment(new ClearEnv);

const size_t kThreadCounts[] = {1, 8};
const uint64_t kBudgets[] = {0, 1u << 20};

// Budget low enough that the 6000-row build side must go Grace.
constexpr uint64_t kGraceBudget = 64000;

uint64_t SpilledBytesFor(const ExecutionReport& report,
                         const std::string& op) {
  uint64_t bytes = 0;
  for (const auto& os : report.operator_stats) {
    if (os.op == op) bytes += os.spilled_bytes;
  }
  return bytes;
}

class VectorJoinTest : public ::testing::Test {
 protected:
  static constexpr int kFactRows = 6000;
  static constexpr int kDimRows = 4000;  // keys 0..3999; facts cover 0..210

  void SetUp() override {
    // Fact table (the build side of every view below): duplicate-heavy
    // int key, dict-encoded and plain string keys, doubles with NaN and
    // both zero signs, wide-ranging int64.
    std::vector<std::string> grp;
    std::vector<std::string> hi;
    std::vector<double> d;
    std::vector<int64_t> i64;
    std::vector<int64_t> k;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (int i = 0; i < kFactRows; ++i) {
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
    }
    auto facts = std::make_shared<Table>();
    Column grp_col = Column::FromString(grp);
    grp_col.TryDictEncode(64);  // force the dict-code hash path
    ASSERT_STATUS_OK(facts->AddColumn("grp", std::move(grp_col)));
    ASSERT_STATUS_OK(facts->AddColumn("hi", Column::FromString(hi)));
    ASSERT_STATUS_OK(facts->AddColumn("d", Column::FromDouble(d)));
    ASSERT_STATUS_OK(facts->AddColumn("i64", Column::FromInt64(i64)));
    ASSERT_STATUS_OK(facts->AddColumn("k", Column::FromInt64(k)));
    ASSERT_STATUS_OK(catalog_.RegisterTable("facts", facts));

    // Same data with every string column force-encoded, so dict-vs-dict
    // key joins are covered too.
    auto forced = std::make_shared<Table>(*facts);
    forced->DictEncodeStrings(1u << 20);
    ASSERT_STATUS_OK(catalog_.RegisterTable("factsd", forced));

    // Probe-side dimensions. dim's keys 211..3999 never match facts, so
    // the Bloom pushdown has ~95% of probe rows to drop; dimi mirrors it
    // with an int64 key whose value span defeats the zone-map
    // cardinality hint (footprint test below).
    std::vector<int64_t> dk;
    std::vector<int64_t> dv;
    std::vector<std::string> dname;
    for (int j = 0; j < kDimRows; ++j) {
      dk.push_back(j);
      dv.push_back((1LL << 35) * (j % 5 - 2) + j * 131 % 7919);
      dname.push_back("dim" + std::to_string(j));
    }
    auto dim = std::make_shared<Table>();
    ASSERT_STATUS_OK(dim->AddColumn("k", Column::FromInt64(dk)));
    ASSERT_STATUS_OK(dim->AddColumn("name", Column::FromString(dname)));
    ASSERT_STATUS_OK(catalog_.RegisterTable("dim", dim));
    auto dimi = std::make_shared<Table>();
    ASSERT_STATUS_OK(dimi->AddColumn("v", Column::FromInt64(dv)));
    ASSERT_STATUS_OK(dimi->AddColumn("name", Column::FromString(dname)));
    ASSERT_STATUS_OK(catalog_.RegisterTable("dimi", dimi));

    // Double keys: NaN, both zero signs, facts-matching values and
    // never-matching values.
    std::vector<double> dd;
    std::vector<std::string> dtag;
    for (int j = 0; j < 60; ++j) {
      if (j == 0) {
        dd.push_back(nan);
      } else if (j == 1) {
        dd.push_back(0.0);
      } else if (j == 2) {
        dd.push_back(-0.0);
      } else if (j < 40) {
        dd.push_back(j * 0.125 - 300.0);  // matches facts rows i == j
      } else {
        dd.push_back(j * 1000.5);  // matches nothing
      }
      dtag.push_back("t" + std::to_string(j));
    }
    auto dimd = std::make_shared<Table>();
    ASSERT_STATUS_OK(dimd->AddColumn("d", Column::FromDouble(dd)));
    ASSERT_STATUS_OK(dimd->AddColumn("tag", Column::FromString(dtag)));
    ASSERT_STATUS_OK(catalog_.RegisterTable("dimd", dimd));

    // Low-cardinality string keys g0..g49 (g37..g49 never match): the
    // catalog's publish-time policy dictionary-encodes these, so jg/jgd
    // join dict keys against an independently-built dictionary.
    std::vector<std::string> dgrp;
    std::vector<std::string> gtag;
    for (int j = 0; j < 50; ++j) {
      dgrp.push_back("g" + std::to_string(j));
      gtag.push_back("s" + std::to_string(j));
    }
    auto dimg = std::make_shared<Table>();
    ASSERT_STATUS_OK(dimg->AddColumn("grp", Column::FromString(dgrp)));
    ASSERT_STATUS_OK(dimg->AddColumn("tag", Column::FromString(gtag)));
    ASSERT_STATUS_OK(catalog_.RegisterTable("dimg", dimg));
    auto dimgd = std::make_shared<Table>(*dimg);
    dimgd->DictEncodeStrings(1u << 20);
    ASSERT_STATUS_OK(catalog_.RegisterTable("dimgd", dimgd));

    // High-cardinality string keys (400 distinct, above the publish-time
    // dict cap): dimh stays plain — joining facts.hi gives plain⋈plain —
    // while dimhd is force-encoded for the plain-build⋈dict-probe combo.
    std::vector<std::string> dhi;
    std::vector<std::string> htag;
    for (int j = 0; j < 400; ++j) {
      dhi.push_back("h" + std::to_string(j * 3));
      htag.push_back("u" + std::to_string(j));
    }
    auto dimh = std::make_shared<Table>();
    ASSERT_STATUS_OK(dimh->AddColumn("hi", Column::FromString(dhi)));
    ASSERT_STATUS_OK(dimh->AddColumn("tag", Column::FromString(htag)));
    ASSERT_STATUS_OK(catalog_.RegisterTable("dimh", dimh));
    auto dimhd = std::make_shared<Table>(*dimh);
    dimhd->DictEncodeStrings(1u << 20);
    ASSERT_STATUS_OK(catalog_.RegisterTable("dimhd", dimhd));

    // Composite (int64, string) keys.
    std::vector<int64_t> mk;
    std::vector<std::string> mgrp;
    std::vector<std::string> mtag;
    for (int j = 0; j < 422; ++j) {
      mk.push_back(j % 211);
      mgrp.push_back("g" + std::to_string(j % 41));  // g37..g40 never match
      mtag.push_back("m" + std::to_string(j));
    }
    auto dim2 = std::make_shared<Table>();
    ASSERT_STATUS_OK(dim2->AddColumn("k", Column::FromInt64(mk)));
    Column mgrp_col = Column::FromString(mgrp);
    mgrp_col.TryDictEncode(64);
    ASSERT_STATUS_OK(dim2->AddColumn("grp", std::move(mgrp_col)));
    ASSERT_STATUS_OK(dim2->AddColumn("tag", Column::FromString(mtag)));
    ASSERT_STATUS_OK(catalog_.RegisterTable("dim2", dim2));

    // Zero-row table, used as build side and as probe side.
    auto emptyt = std::make_shared<Table>();
    ASSERT_STATUS_OK(
        emptyt->AddColumn("k", Column::FromInt64(std::vector<int64_t>{})));
    ASSERT_STATUS_OK(emptyt->AddColumn(
        "name", Column::FromString(std::vector<std::string>{})));
    ASSERT_STATUS_OK(catalog_.RegisterTable("emptyt", emptyt));

    RegisterJoinView("jv", "facts", "dim", "facts.k", "k",
                     {{"F", "grp", "facts", "grp"},
                      {"F", "i64", "facts", "i64"},
                      {"F", "k", "facts", "k"},
                      {"D", "name", "dim", "name"},
                      {"D", "k", "dim", "k"}});
    RegisterJoinView("jvi", "facts", "dimi", "facts.i64", "v",
                     {{"F", "k", "facts", "k"},
                      {"F", "i64", "facts", "i64"},
                      {"D", "v", "dimi", "v"},
                      {"D", "name", "dimi", "name"}});
    RegisterJoinView("jd", "facts", "dimd", "facts.d", "d",
                     {{"F", "d", "facts", "d"},
                      {"F", "i64", "facts", "i64"},
                      {"D", "d", "dimd", "d"},
                      {"D", "tag", "dimd", "tag"}});
    RegisterJoinView("jg", "facts", "dimg", "facts.grp", "grp",
                     {{"F", "grp", "facts", "grp"},
                      {"F", "i64", "facts", "i64"},
                      {"D", "grp", "dimg", "grp"},
                      {"D", "tag", "dimg", "tag"}});
    RegisterJoinView("jgd", "factsd", "dimgd", "factsd.grp", "grp",
                     {{"F", "grp", "factsd", "grp"},
                      {"F", "hi", "factsd", "hi"},
                      {"F", "i64", "factsd", "i64"},
                      {"D", "grp", "dimgd", "grp"},
                      {"D", "tag", "dimgd", "tag"}});
    RegisterJoinView("jh", "facts", "dimh", "facts.hi", "hi",
                     {{"F", "hi", "facts", "hi"},
                      {"F", "i64", "facts", "i64"},
                      {"D", "hi", "dimh", "hi"},
                      {"D", "tag", "dimh", "tag"}});
    RegisterJoinView("jhd", "facts", "dimhd", "facts.hi", "hi",
                     {{"F", "hi", "facts", "hi"},
                      {"F", "i64", "facts", "i64"},
                      {"D", "hi", "dimhd", "hi"},
                      {"D", "tag", "dimhd", "tag"}});
    RegisterJoinView("jeb", "emptyt", "dim", "emptyt.k", "k",
                     {{"F", "k", "emptyt", "k"},
                      {"F", "name", "emptyt", "name"},
                      {"D", "k", "dim", "k"},
                      {"D", "name", "dim", "name"}});
    RegisterJoinView("jep", "facts", "emptyt", "facts.k", "k",
                     {{"F", "k", "facts", "k"},
                      {"F", "i64", "facts", "i64"},
                      {"D", "k", "emptyt", "k"},
                      {"D", "name", "emptyt", "name"}});

    storage::ViewDefinition jm;
    jm.name = "jm";
    jm.root_table = "facts";
    jm.joins.push_back({"dim2", {{"facts.k", "k"}, {"facts.grp", "grp"}}});
    jm.columns = {{"F", "k", "facts", "k"},
                  {"F", "grp", "facts", "grp"},
                  {"F", "i64", "facts", "i64"},
                  {"D", "k", "dim2", "k"},
                  {"D", "grp", "dim2", "grp"},
                  {"D", "tag", "dim2", "tag"}};
    ASSERT_STATUS_OK(catalog_.RegisterView(std::move(jm)));

    // Cross-class composite keys: (int64, bool) against (int64, int64).
    // A bool and an int64 of equal numeric value hash alike, but keys of
    // different classes never match, so jx joins to nothing.
    std::vector<int64_t> xk;
    std::vector<uint8_t> xflag;
    std::vector<int64_t> xf;
    for (int j = 0; j < 422; ++j) {
      xk.push_back(j % 211);
      xflag.push_back(static_cast<uint8_t>(j % 2));
      xf.push_back(j % 2);
    }
    auto factsb = std::make_shared<Table>();
    ASSERT_STATUS_OK(factsb->AddColumn("k", Column::FromInt64(xk)));
    ASSERT_STATUS_OK(factsb->AddColumn("flag", Column::FromBool(xflag)));
    ASSERT_STATUS_OK(catalog_.RegisterTable("factsb", factsb));
    auto dimx = std::make_shared<Table>();
    ASSERT_STATUS_OK(dimx->AddColumn("k", Column::FromInt64(xk)));
    ASSERT_STATUS_OK(dimx->AddColumn("f", Column::FromInt64(xf)));
    ASSERT_STATUS_OK(catalog_.RegisterTable("dimx", dimx));
    storage::ViewDefinition jx;
    jx.name = "jx";
    jx.root_table = "factsb";
    jx.joins.push_back({"dimx", {{"factsb.k", "k"}, {"factsb.flag", "f"}}});
    jx.columns = {{"F", "k", "factsb", "k"},
                  {"F", "flag", "factsb", "flag"},
                  {"D", "k", "dimx", "k"},
                  {"D", "f", "dimx", "f"}};
    ASSERT_STATUS_OK(catalog_.RegisterView(std::move(jx)));
  }

  void RegisterJoinView(
      const std::string& name, const std::string& root,
      const std::string& target, const std::string& left_key,
      const std::string& right_key,
      std::vector<storage::ViewColumn> columns) {
    storage::ViewDefinition view;
    view.name = name;
    view.root_table = root;
    view.joins.push_back({target, {{left_key, right_key}}});
    view.columns = std::move(columns);
    ASSERT_STATUS_OK(catalog_.RegisterView(std::move(view)));
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

  // `SELECT <cols> FROM <view>`, and the reference evaluator's answer to
  // it: the view's one join step evaluated over its two base tables.
  struct JoinQuery {
    std::string sql;
    Table expected;
  };
  JoinQuery MakeJoinQuery(const std::string& view,
                          const std::vector<std::string>& cols) {
    const storage::ViewDefinition* def = *catalog_.GetView(view);
    const storage::ViewJoinStep& step = def->joins.at(0);
    std::vector<std::string> build_keys;
    std::vector<std::string> probe_keys;
    for (const auto& [left, right] : step.keys) {
      build_keys.push_back(left.substr(left.find('.') + 1));
      probe_keys.push_back(right);
    }
    std::string sql;
    std::vector<testing::RefJoinColumn> outputs;
    for (const std::string& col : cols) {
      sql += (sql.empty() ? "SELECT " : ", ") + col;
      for (const storage::ViewColumn& vc : def->columns) {
        if (vc.qualifier + "." + vc.name == col) {
          outputs.push_back(
              {vc.base_table == step.table, vc.base_column, col});
        }
      }
    }
    EXPECT_EQ(outputs.size(), cols.size()) << view;
    sql += " FROM " + view;
    return {sql, testing::RefJoin(**catalog_.GetTable(def->root_table),
                                  build_keys, **catalog_.GetTable(step.table),
                                  probe_keys, outputs)};
  }

  // Runs the join at every thread count and budget; each result must
  // match the reference bit for bit.
  void ExpectMatchesReference(const std::string& view,
                              const std::vector<std::string>& cols) {
    const JoinQuery query = MakeJoinQuery(view, cols);
    for (size_t threads : kThreadCounts) {
      for (uint64_t budget : kBudgets) {
        std::string context = query.sql + " @threads=" +
                              std::to_string(threads) +
                              " budget=" + std::to_string(budget);
        ExecutionReport report;
        auto got = Run(query.sql, threads, budget, &report);
        ASSERT_OK(got);
        EXPECT_GT(report.join_builds, 0u) << context;
        testing::ExpectTablesBitEqual(*got, query.expected, context);
      }
    }
  }

  Catalog catalog_;
};

TEST_F(VectorJoinTest, IntKeysWithDuplicateHeavyBuild) {
  // Every dim key below 211 matches ~28 facts rows; 211..3999 match none.
  ExpectMatchesReference("jv", {"F.k", "F.i64", "D.name"});
}

TEST_F(VectorJoinTest, NaNAndSignedZeroDoubleKeys) {
  // NaN joins NaN (bit-pattern equality); 0.0 and -0.0 stay distinct keys.
  ExpectMatchesReference("jd", {"F.d", "F.i64", "D.tag"});
}

TEST_F(VectorJoinTest, DictAndPlainStringKeys) {
  // Dict keys joined across two independently-built dictionaries (the
  // per-dictionary content hashes must agree across tables).
  ExpectMatchesReference("jg", {"F.grp", "F.i64", "D.tag"});
  ExpectMatchesReference("jgd", {"F.grp", "F.hi", "F.i64", "D.tag"});
  // Plain build keys against a plain probe and a dict-encoded probe.
  ExpectMatchesReference("jh", {"F.hi", "F.i64", "D.tag"});
  ExpectMatchesReference("jhd", {"F.hi", "F.i64", "D.tag"});
}

TEST_F(VectorJoinTest, MultiColumnKeys) {
  ExpectMatchesReference("jm", {"F.k", "F.grp", "F.i64", "D.tag"});
}

TEST_F(VectorJoinTest, KeysOfDifferentClassesNeverMatch) {
  // Every candidate pair agrees on k and on the numeric value of its
  // second key (bool vs int64), and so on its hash; the class check must
  // still reject it.
  ExpectMatchesReference("jx", {"F.k", "F.flag", "D.f"});
  EXPECT_EQ(MakeJoinQuery("jx", {"F.k"}).expected.num_rows(), 0u);
}

TEST_F(VectorJoinTest, EmptyBuildAndEmptyProbeSides) {
  ExpectMatchesReference("jeb", {"F.k", "D.name"});
  ExpectMatchesReference("jep", {"F.k", "F.i64", "D.name"});
}

TEST_F(VectorJoinTest, GraceJoinStaysBitIdentical) {
  // A budget far below the build side forces the Grace spill path; the
  // per-partition build/probe must still reproduce the reference.
  const JoinQuery query = MakeJoinQuery("jv", {"F.k", "F.i64", "D.name"});
  for (size_t threads : kThreadCounts) {
    std::string context = "grace @threads=" + std::to_string(threads);
    ExecutionReport report;
    auto got = Run(query.sql, threads, kGraceBudget, &report);
    ASSERT_OK(got);
    EXPECT_GT(SpilledBytesFor(report, "HashJoin"), 0u) << context;
    EXPECT_GT(report.join_builds, 0u) << context;
    testing::ExpectTablesBitEqual(*got, query.expected, context);
  }
}

TEST_F(VectorJoinTest, BloomPushdownParityForcedVsOff) {
  // The Bloom filter only drops probe rows that provably cannot match,
  // so forcing it on and switching it off must give identical bytes —
  // in memory and through the Grace path alike.
  const JoinQuery query = MakeJoinQuery("jv", {"F.k", "F.i64", "D.name"});
  const std::string& sql = query.sql;
  const uint64_t budgets[] = {0, kGraceBudget};
  for (size_t threads : kThreadCounts) {
    for (uint64_t budget : budgets) {
      std::string context = sql + " @threads=" + std::to_string(threads) +
                            " budget=" + std::to_string(budget);
      setenv("LAZYETL_JOIN_BLOOM", "force", 1);
      ExecutionReport bloom_report;
      auto with_bloom = Run(sql, threads, budget, &bloom_report);
      setenv("LAZYETL_JOIN_BLOOM", "0", 1);
      ExecutionReport off_report;
      auto without = Run(sql, threads, budget, &off_report);
      unsetenv("LAZYETL_JOIN_BLOOM");
      ASSERT_OK(with_bloom);
      ASSERT_OK(without);
      EXPECT_GT(bloom_report.probe_rows_bloom_filtered, 0u) << context;
      EXPECT_EQ(off_report.probe_rows_bloom_filtered, 0u) << context;
      testing::ExpectTablesBitEqual(*with_bloom, query.expected, context);
      testing::ExpectTablesBitEqual(*without, query.expected, context);
    }
  }
}

TEST_F(VectorJoinTest, BloomSkipsMostNonMatchingProbeRows) {
  // 3789 of dim's 4000 keys cannot match facts (~5% join selectivity):
  // the pushdown must skip at least half the probe rows (the acceptance
  // bar), and never more than the non-matching count.
  setenv("LAZYETL_JOIN_BLOOM", "force", 1);
  ExecutionReport report;
  auto got = Run("SELECT F.k, F.i64, D.name FROM jv", 8, 0, &report);
  unsetenv("LAZYETL_JOIN_BLOOM");
  ASSERT_OK(got);
  EXPECT_GE(report.probe_rows_bloom_filtered,
            static_cast<uint64_t>(kDimRows) / 2);
  EXPECT_LE(report.probe_rows_bloom_filtered,
            static_cast<uint64_t>(kDimRows - 211));

  // The default (auto) policy keeps in-memory joins filter-free (the
  // probe discards non-matching rows nearly as cheaply itself) ...
  ExecutionReport auto_mem_report;
  auto auto_mem = Run("SELECT F.k, F.i64, D.name FROM jv", 8, 0,
                      &auto_mem_report);
  ASSERT_OK(auto_mem);
  EXPECT_EQ(auto_mem_report.probe_rows_bloom_filtered, 0u);
  testing::ExpectTablesBitEqual(*got, *auto_mem,
                                "forced vs auto (in-memory)");

  // ... but publishes for a Grace join, where every skipped probe row is
  // a row never partitioned or spilled.
  ExecutionReport auto_grace_report;
  auto auto_grace = Run("SELECT F.k, F.i64, D.name FROM jv", 8, kGraceBudget,
                        &auto_grace_report);
  ASSERT_OK(auto_grace);
  EXPECT_GT(SpilledBytesFor(auto_grace_report, "HashJoin"), 0u);
  EXPECT_GT(auto_grace_report.probe_rows_bloom_filtered, 0u);
  testing::ExpectTablesBitEqual(*got, *auto_grace, "forced vs auto (grace)");
}

TEST_F(VectorJoinTest, FootprintSharpensWithBuildKeyCardinality) {
  // jv joins on facts.k (zone-map span 0..210 => 211 distinct keys);
  // jvi joins on facts.i64, whose span defeats the hint. The build
  // tables and probe-side bytes match, so the low-cardinality join must
  // get the smaller admission estimate (its index is bounded by distinct
  // keys, not by build bytes / 4).
  auto plan_bytes = [&](const std::string& sql) -> uint64_t {
    auto stmt = sql::Parse(sql);
    EXPECT_TRUE(stmt.ok());
    sql::Binder binder(&catalog_);
    auto bound = binder.Bind(*stmt);
    EXPECT_TRUE(bound.ok());
    Planner planner(&catalog_, {});
    auto planned = planner.Plan(*bound);
    EXPECT_TRUE(planned.ok());
    return EstimatePlanFootprint(*planned->plan, catalog_, 0);
  };
  uint64_t low_card = plan_bytes("SELECT F.i64, D.name FROM jv");
  uint64_t high_card = plan_bytes("SELECT F.k, D.name FROM jvi");
  EXPECT_LT(low_card, high_card)
      << "build-key cardinality should bound the join index estimate";
}

}  // namespace
}  // namespace lazyetl::engine
