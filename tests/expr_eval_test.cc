#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "engine/expr_eval.h"
#include "engine/kernels.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "storage/catalog.h"
#include "test_util.h"

namespace lazyetl::engine {
namespace {

using sql::Binder;
using sql::BoundQuery;
using storage::Catalog;
using storage::Column;
using storage::DataType;
using storage::Table;

// A small fixture: one base table "t" with assorted columns, and bound
// expressions produced by the real parser+binder so the evaluator sees
// realistic trees.
class ExprEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto t = std::make_shared<Table>();
    ASSERT_STATUS_OK(t->AddColumn("i", Column::FromInt64({1, 2, 3, 4})));
    ASSERT_STATUS_OK(t->AddColumn("j", Column::FromInt32({10, 20, 30, 40})));
    ASSERT_STATUS_OK(
        t->AddColumn("d", Column::FromDouble({0.5, 1.5, -2.5, 0.0})));
    ASSERT_STATUS_OK(
        t->AddColumn("s", Column::FromString({"a", "b", "a", "c"})));
    ASSERT_STATUS_OK(t->AddColumn(
        "ts", Column::FromTimestamp({1263254400000000000LL,
                                     1263254400000000001LL,
                                     1263254500000000000LL, 0})));
    ASSERT_STATUS_OK(catalog_.RegisterTable("t", t));
    input_ = *t;
  }

  // Binds the WHERE expression of "SELECT i FROM t WHERE <pred>".
  sql::BoundExprPtr BindPredicate(const std::string& pred) {
    auto stmt = sql::Parse("SELECT i FROM t WHERE " + pred);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    Binder binder(&catalog_);
    auto bound = binder.Bind(*stmt);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    return std::move(bound->where);
  }

  // Binds the first select expression of "SELECT <expr> FROM t".
  sql::BoundExprPtr BindSelect(const std::string& expr) {
    auto stmt = sql::Parse("SELECT " + expr + " FROM t");
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    Binder binder(&catalog_);
    auto bound = binder.Bind(*stmt);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    return std::move(bound->select_list[0].expr);
  }

  storage::SelectionVector Select(const std::string& pred) {
    auto e = BindPredicate(pred);
    auto sel = EvaluatePredicate(*e, input_);
    EXPECT_TRUE(sel.ok()) << sel.status().ToString();
    return *sel;
  }

  Catalog catalog_;
  Table input_;
};

TEST_F(ExprEvalTest, ColumnRefReturnsColumn) {
  auto e = BindSelect("i");
  auto col = EvaluateExpr(*e, input_);
  ASSERT_OK(col);
  EXPECT_EQ(col->int64_data(), (std::vector<int64_t>{1, 2, 3, 4}));
}

TEST_F(ExprEvalTest, IntComparisons) {
  EXPECT_EQ(Select("i = 2"), (storage::SelectionVector{1}));
  EXPECT_EQ(Select("i <> 2"), (storage::SelectionVector{0, 2, 3}));
  EXPECT_EQ(Select("i < 3"), (storage::SelectionVector{0, 1}));
  EXPECT_EQ(Select("i <= 3"), (storage::SelectionVector{0, 1, 2}));
  EXPECT_EQ(Select("i > 3"), (storage::SelectionVector{3}));
  EXPECT_EQ(Select("i >= 3"), (storage::SelectionVector{2, 3}));
}

TEST_F(ExprEvalTest, MixedIntWidthComparison) {
  EXPECT_EQ(Select("j = 20"), (storage::SelectionVector{1}));
  EXPECT_EQ(Select("i * 10 = j"), (storage::SelectionVector{0, 1, 2, 3}));
}

TEST_F(ExprEvalTest, DoubleComparisons) {
  EXPECT_EQ(Select("d > 0"), (storage::SelectionVector{0, 1}));
  EXPECT_EQ(Select("d = 1.5"), (storage::SelectionVector{1}));
}

TEST_F(ExprEvalTest, StringComparisons) {
  EXPECT_EQ(Select("s = 'a'"), (storage::SelectionVector{0, 2}));
  EXPECT_EQ(Select("s <> 'a'"), (storage::SelectionVector{1, 3}));
  EXPECT_EQ(Select("s < 'b'"), (storage::SelectionVector{0, 2}));
}

TEST_F(ExprEvalTest, TimestampExactComparison) {
  // Nanosecond-adjacent timestamps must not collapse via double rounding.
  EXPECT_EQ(Select("ts = '2010-01-12T00:00:00.000000001'"),
            (storage::SelectionVector{1}));
  EXPECT_EQ(Select("ts > '2010-01-12T00:00:00.000'"),
            (storage::SelectionVector{1, 2}));
}

TEST_F(ExprEvalTest, LogicalOperators) {
  EXPECT_EQ(Select("i > 1 AND i < 4"), (storage::SelectionVector{1, 2}));
  EXPECT_EQ(Select("i = 1 OR s = 'c'"), (storage::SelectionVector{0, 3}));
  EXPECT_EQ(Select("NOT (i = 1)"), (storage::SelectionVector{1, 2, 3}));
}

TEST_F(ExprEvalTest, Arithmetic) {
  auto e = BindSelect("i + j");
  auto col = EvaluateExpr(*e, input_);
  ASSERT_OK(col);
  EXPECT_EQ(col->int64_data(), (std::vector<int64_t>{11, 22, 33, 44}));

  auto div = BindSelect("j / 8");
  auto dcol = EvaluateExpr(*div, input_);
  ASSERT_OK(dcol);
  EXPECT_EQ(dcol->type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(dcol->double_data()[0], 1.25);

  auto mod = BindSelect("j % 7");
  auto mcol = EvaluateExpr(*mod, input_);
  ASSERT_OK(mcol);
  EXPECT_EQ(mcol->int64_data(), (std::vector<int64_t>{3, 6, 2, 5}));
}

TEST_F(ExprEvalTest, DivisionByZeroFails) {
  auto e = BindSelect("j / (i - 1)");
  auto col = EvaluateExpr(*e, input_);
  EXPECT_FALSE(col.ok());
  EXPECT_TRUE(col.status().IsExecutionError());
}

TEST_F(ExprEvalTest, UnaryNegateAndAbs) {
  auto neg = BindSelect("-i");
  auto ncol = EvaluateExpr(*neg, input_);
  ASSERT_OK(ncol);
  EXPECT_EQ(ncol->int64_data(), (std::vector<int64_t>{-1, -2, -3, -4}));

  auto abs = BindSelect("ABS(d)");
  auto acol = EvaluateExpr(*abs, input_);
  ASSERT_OK(acol);
  EXPECT_DOUBLE_EQ(acol->double_data()[2], 2.5);
}

TEST_F(ExprEvalTest, LiteralBroadcast) {
  auto e = BindSelect("i * 0 + 7");
  auto col = EvaluateExpr(*e, input_);
  ASSERT_OK(col);
  EXPECT_EQ(col->int64_data(), (std::vector<int64_t>{7, 7, 7, 7}));
}

TEST_F(ExprEvalTest, PrecomputedColumnShortCircuit) {
  // If the input already has a column named like the expression (as the
  // Aggregate operator produces for group keys), it is used directly.
  Table with_precomputed = input_;
  ASSERT_STATUS_OK(with_precomputed.AddColumn(
      "(i + j)", Column::FromInt64({-1, -2, -3, -4})));
  auto e = BindSelect("i + j");
  auto col = EvaluateExpr(*e, with_precomputed);
  ASSERT_OK(col);
  EXPECT_EQ(col->int64_data(), (std::vector<int64_t>{-1, -2, -3, -4}));
}

TEST_F(ExprEvalTest, EmptyInputYieldsEmptyColumns) {
  Table empty;
  ASSERT_STATUS_OK(empty.AddColumn("i", Column::FromInt64({})));
  auto e = BindSelect("i + 1");
  auto col = EvaluateExpr(*e, empty);
  ASSERT_OK(col);
  EXPECT_EQ(col->size(), 0u);
}

TEST_F(ExprEvalTest, PredicateMustBeBoolean) {
  auto e = BindSelect("i + 1");
  auto sel = EvaluatePredicate(*e, input_);
  EXPECT_FALSE(sel.ok());
}

TEST_F(ExprEvalTest, MissingColumnFails) {
  auto e = BindSelect("i");
  Table other;
  ASSERT_STATUS_OK(other.AddColumn("z", Column::FromInt64({1})));
  EXPECT_FALSE(EvaluateExpr(*e, other).ok());
}

// CompareConstSelect against the plain loop it replaces: for every op,
// every row whose comparison holds, ascending, and nothing else. Runs the
// input at each length from 0 (empty) to its full size, and over a
// selection vector that held more rows before, so a stale tail would show.
template <typename T, typename V>
void ExpectSelectMatchesScalarLoop(const std::vector<T>& data,
                                   const std::vector<V>& constants) {
  using kernels::CmpOp;
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                   CmpOp::kGt, CmpOp::kGe}) {
    for (const V& c : constants) {
      for (size_t n = 0; n <= data.size(); ++n) {
        storage::SelectionVector want;
        for (size_t i = 0; i < n; ++i) {
          if (kernels::ApplyCmp(op, data[i], c)) {
            want.push_back(static_cast<uint32_t>(i));
          }
        }
        storage::SelectionVector got(data.size() + 3, 99);
        kernels::CompareConstSelect(data.data(), n, op, c, &got);
        EXPECT_EQ(got, want) << "op " << static_cast<int>(op) << " n " << n;
      }
    }
  }
}

TEST(CompareConstSelectTest, MatchesScalarLoopForEveryOpAndType) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ExpectSelectMatchesScalarLoop<uint8_t, int64_t>({0, 1, 1, 0, 1},
                                                  {-1, 0, 1, 2});
  ExpectSelectMatchesScalarLoop<int32_t, int64_t>(
      {5, -3, 8, 5, std::numeric_limits<int32_t>::min(),
       std::numeric_limits<int32_t>::max(), 0},
      {5, 0, -4, std::numeric_limits<int64_t>::max(),
       std::numeric_limits<int64_t>::min()});
  ExpectSelectMatchesScalarLoop<int32_t, double>({5, -3, 8, 0}, {4.5, 5.0,
                                                                 nan});
  ExpectSelectMatchesScalarLoop<int64_t, int64_t>(
      {1263254400000000000LL, 1263254400000000001LL, -7, 0,
       std::numeric_limits<int64_t>::min(),
       std::numeric_limits<int64_t>::max()},
      {1263254400000000000LL, 0, -7, std::numeric_limits<int64_t>::max()});
  ExpectSelectMatchesScalarLoop<double, double>(
      {0.5, nan, -0.0, 0.0, -2.5, inf, -inf, nan, 1e300},
      {0.0, -0.0, nan, 0.5, inf, -inf});
  ExpectSelectMatchesScalarLoop<double, int64_t>({0.5, nan, -0.0, 3.0},
                                                 {0, 3});
  ExpectSelectMatchesScalarLoop<std::string, std::string>(
      {"a", "b", "", "a", "ab", "c"}, {"a", "", "b", "zz"});
  ExpectSelectMatchesScalarLoop<uint32_t, uint32_t>({0, 3, 3, 7, 1},
                                                    {0, 3, 8});
}

}  // namespace
}  // namespace lazyetl::engine
