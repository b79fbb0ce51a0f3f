#include <gtest/gtest.h>

#include "storage/column.h"
#include "storage/table.h"
#include "storage/types.h"
#include "test_util.h"

namespace lazyetl::storage {
namespace {

TEST(ValueTest, FactoriesAndAccessors) {
  EXPECT_EQ(Value::Int32(7).int32_value(), 7);
  EXPECT_EQ(Value::Int64(-3).int64_value(), -3);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::String("ISK").string_value(), "ISK");
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_EQ(Value::Timestamp(123).timestamp_value(), 123);
}

TEST(ValueTest, NumericWidening) {
  EXPECT_DOUBLE_EQ(Value::Int32(4).AsDouble(), 4.0);
  EXPECT_DOUBLE_EQ(Value::Bool(true).AsDouble(), 1.0);
  EXPECT_EQ(Value::Double(3.9).AsInt64(), 3);
  EXPECT_EQ(Value::Timestamp(55).AsInt64(), 55);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int64(42).ToString(), "42");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::String("x").ToString(), "x");
  EXPECT_EQ(Value::Timestamp(1263254400LL * kNanosPerSecond).ToString(),
            "2010-01-12T00:00:00.000");
}

TEST(ValueTest, ComparisonSemantics) {
  EXPECT_TRUE(Value::Int32(5).Equals(Value::Int64(5)));
  EXPECT_TRUE(Value::Int32(5).Equals(Value::Double(5.0)));
  EXPECT_FALSE(Value::String("5").Equals(Value::Int64(5)));
  EXPECT_TRUE(Value::String("a").LessThan(Value::String("b")));
  EXPECT_TRUE(Value::Int64(1).LessThan(Value::Double(1.5)));
}

TEST(DataTypeTest, NameRoundTrip) {
  for (DataType t : {DataType::kBool, DataType::kInt32, DataType::kInt64,
                     DataType::kDouble, DataType::kString,
                     DataType::kTimestamp}) {
    auto back = DataTypeFromString(DataTypeToString(t));
    ASSERT_OK(back);
    EXPECT_EQ(*back, t);
  }
  EXPECT_FALSE(DataTypeFromString("varchar").ok());
}

TEST(ColumnTest, TypedConstructionAndAccess) {
  Column c = Column::FromInt32({1, 2, 3});
  EXPECT_EQ(c.type(), DataType::kInt32);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.GetValue(1).int32_value(), 2);
  EXPECT_DOUBLE_EQ(c.NumericAt(2), 3.0);
}

TEST(ColumnTest, AppendValueTypeChecks) {
  Column c(DataType::kInt32);
  EXPECT_STATUS_OK(c.AppendValue(Value::Int32(1)));
  EXPECT_FALSE(c.AppendValue(Value::String("x")).ok());
  Column s(DataType::kString);
  EXPECT_STATUS_OK(s.AppendValue(Value::String("x")));
  EXPECT_FALSE(s.AppendValue(Value::Int64(1)).ok());
  // int64 columns accept int32 values (widening).
  Column w(DataType::kInt64);
  EXPECT_STATUS_OK(w.AppendValue(Value::Int32(7)));
  EXPECT_EQ(w.GetValue(0).int64_value(), 7);
}

TEST(ColumnTest, Gather) {
  Column c = Column::FromString({"a", "b", "c", "d"});
  Column g = c.Gather({3, 1, 1});
  ASSERT_EQ(g.size(), 3u);
  EXPECT_EQ(g.string_data()[0], "d");
  EXPECT_EQ(g.string_data()[1], "b");
  EXPECT_EQ(g.string_data()[2], "b");
}

TEST(ColumnTest, GatherRunsEqualsGatherOfRepeatedRows) {
  // Each rows[i] repeated counts[i] times, zero-length runs included: the
  // same column a per-row Gather of the expanded selection builds, for
  // plain, numeric and dictionary-encoded columns alike.
  const SelectionVector rows = {2, 0, 3, 2};
  const SelectionVector counts = {3, 0, 1, 2};
  const SelectionVector expanded = {2, 2, 2, 3, 2, 2};
  Column dict = Column::FromString({"x", "y", "x", "z"});
  ASSERT_TRUE(dict.TryDictEncode(16));
  for (const Column& c :
       {Column::FromString({"a", "b", "c", "d"}),
        Column::FromInt64({10, 11, 12, 13}),
        Column::FromDouble({0.5, 1.5, 2.5, 3.5}), dict}) {
    Column runs = c.GatherRuns(rows, counts);
    Column want = c.Gather(expanded);
    ASSERT_EQ(runs.size(), want.size());
    EXPECT_EQ(runs.dict_encoded(), c.dict_encoded());
    for (size_t r = 0; r < want.size(); ++r) {
      EXPECT_TRUE(runs.GetValue(r).Equals(want.GetValue(r))) << r;
    }
  }
  EXPECT_EQ(Column::FromInt32({1}).GatherRuns({}, {}).size(), 0u);
}

TEST(ColumnTest, AppendColumn) {
  Column a = Column::FromInt64({1, 2});
  Column b = Column::FromInt64({3});
  EXPECT_STATUS_OK(a.AppendColumn(b));
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.int64_data()[2], 3);
  Column s = Column::FromString({"x"});
  EXPECT_FALSE(a.AppendColumn(s).ok());
  // timestamp/int64 interop is allowed (same physical type).
  Column t = Column::FromTimestamp({5});
  EXPECT_STATUS_OK(a.AppendColumn(t));
}

TEST(ColumnTest, MemoryBytesGrowsWithData) {
  Column c(DataType::kInt64);
  uint64_t empty = c.MemoryBytes();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_STATUS_OK(c.AppendValue(Value::Int64(i)));
  }
  EXPECT_GE(c.MemoryBytes(), empty + 1000 * sizeof(int64_t));
}

TEST(TableTest, SchemaConstruction) {
  Table t({{"id", DataType::kInt64}, {"name", DataType::kString}});
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.num_rows(), 0u);
  ASSERT_STATUS_OK(t.AppendRow({Value::Int64(1), Value::String("a")}));
  ASSERT_STATUS_OK(t.AppendRow({Value::Int64(2), Value::String("b")}));
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.GetValue(1, 1).string_value(), "b");
}

TEST(TableTest, AppendRowArityAndTypeChecks) {
  Table t({{"id", DataType::kInt64}});
  EXPECT_FALSE(t.AppendRow({}).ok());
  EXPECT_FALSE(t.AppendRow({Value::String("x")}).ok());
}

TEST(TableTest, ColumnIndexQualifiedLookup) {
  Table t;
  ASSERT_STATUS_OK(t.AddColumn("F.station", Column::FromString({"ISK"})));
  ASSERT_STATUS_OK(t.AddColumn("R.seq_no", Column::FromInt64({1})));
  auto exact = t.ColumnIndex("F.station");
  ASSERT_OK(exact);
  EXPECT_EQ(*exact, 0u);
  // Unqualified suffix match.
  auto suffix = t.ColumnIndex("station");
  ASSERT_OK(suffix);
  EXPECT_EQ(*suffix, 0u);
  EXPECT_FALSE(t.ColumnIndex("nonexistent").ok());
}

TEST(TableTest, ColumnIndexAmbiguousSuffixFails) {
  Table t;
  ASSERT_STATUS_OK(t.AddColumn("F.file_id", Column::FromInt64({1})));
  ASSERT_STATUS_OK(t.AddColumn("R.file_id", Column::FromInt64({1})));
  auto res = t.ColumnIndex("file_id");
  EXPECT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsBindError());
}

TEST(TableTest, AddColumnSizeMismatch) {
  Table t;
  ASSERT_STATUS_OK(t.AddColumn("a", Column::FromInt64({1, 2})));
  EXPECT_FALSE(t.AddColumn("b", Column::FromInt64({1})).ok());
}

TEST(TableTest, GatherAndProject) {
  Table t;
  ASSERT_STATUS_OK(t.AddColumn("id", Column::FromInt64({10, 20, 30})));
  ASSERT_STATUS_OK(t.AddColumn("name", Column::FromString({"a", "b", "c"})));
  Table g = t.Gather({2, 0});
  EXPECT_EQ(g.num_rows(), 2u);
  EXPECT_EQ(g.GetValue(0, 0).int64_value(), 30);
  auto p = t.Project({"name"});
  ASSERT_OK(p);
  EXPECT_EQ(p->num_columns(), 1u);
  EXPECT_EQ(p->GetValue(1, 0).string_value(), "b");
  EXPECT_FALSE(t.Project({"missing"}).ok());
}

TEST(TableTest, AppendTable) {
  Table a;
  ASSERT_STATUS_OK(a.AddColumn("x", Column::FromInt64({1})));
  Table b;
  ASSERT_STATUS_OK(b.AddColumn("x", Column::FromInt64({2, 3})));
  ASSERT_STATUS_OK(a.AppendTable(b));
  EXPECT_EQ(a.num_rows(), 3u);
  Table c;  // arity mismatch
  EXPECT_FALSE(a.AppendTable(c).ok());
}

TEST(TableTest, FromColumnsValidatesLengths) {
  auto ok = Table::FromColumns({"a", "b"}, {Column::FromInt64({1, 2}),
                                            Column::FromString({"x", "y"})});
  ASSERT_OK(ok);
  auto bad = Table::FromColumns({"a", "b"}, {Column::FromInt64({1, 2}),
                                             Column::FromString({"x"})});
  EXPECT_FALSE(bad.ok());
}

TEST(TableTest, ToStringTruncates) {
  Table t;
  std::vector<int64_t> many(100);
  ASSERT_STATUS_OK(t.AddColumn("v", Column::FromInt64(std::move(many))));
  std::string s = t.ToString(5);
  EXPECT_NE(s.find("95 more rows"), std::string::npos);
}

}  // namespace
}  // namespace lazyetl::storage
