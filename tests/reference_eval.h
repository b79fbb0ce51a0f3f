// A naive reference evaluator for grouping, duplicate elimination and
// equi-joins, used only by tests as the oracle the engine's operators are
// diffed against. It deliberately shares no code with the engine but the
// double order kernels::CompareDoubles, which is the contract itself: it
// reads its input one value at a time through Table::GetValue, keys rows
// with std::map, and runs serially with no spill and no threads.
//
// Contract it reproduces (the engine's documented semantics):
//
//  - Key identity. Booleans compare by truth value, strings by contents,
//    and every other type by one 8-byte word: integers and timestamps by
//    value (int32 widened to int64), doubles by bit pattern, so NaN equals
//    NaN and -0.0 differs from 0.0. Keys of different classes (bool /
//    word / string) never match; a join of an int column against a double
//    column compares the integer with the double's bit pattern.
//  - Order. RefGroupBy and RefDistinct return one row per key, in order of
//    first occurrence, carrying the key values of that first row. RefJoin
//    returns matches in probe-row order, with build rows ascending per
//    probe row.
//  - Aggregates, per group, rows in input order: COUNT counts rows; SUM of
//    integers is an exact int64 sum; SUM of doubles adds in row order from
//    0.0; AVG is that double sum (integers converted one by one) divided by
//    the count; MIN/MAX are the least and greatest value, doubles ordered
//    by kernels::CompareDoubles (NaN above every number). An ungrouped
//    aggregate over no rows yields one row: COUNT 0, every other aggregate
//    0 / 0.0 / "".
//
// Row-order double sums are the engine's contract only for a serial,
// unbudgeted aggregate; parallel and budgeted aggregates merge per-morsel
// partial sums, which re-associates them. The suites that compare against
// this evaluator bit for bit at every thread count and budget therefore
// feed double aggregates only multiples of 1/8 with |x| < 1000, plus NaN
// and ±0.0: every partial and total sum of those is exact, so any
// association order gives the same bits. Values outside that domain are
// compared bit for bit only at one thread without a budget.

#ifndef LAZYETL_TESTS_REFERENCE_EVAL_H_
#define LAZYETL_TESTS_REFERENCE_EVAL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "engine/kernels.h"
#include "storage/table.h"
#include "storage/types.h"

namespace lazyetl::testing {

// One key value under the identity above: (class, word, contents).
struct RefKey {
  int cls = 0;  // 0 bool, 1 word, 2 string
  uint64_t word = 0;
  std::string str;

  bool operator<(const RefKey& o) const {
    return std::tie(cls, word, str) < std::tie(o.cls, o.word, o.str);
  }
};

inline uint64_t RefDoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

inline RefKey RefKeyOf(const storage::Value& v) {
  RefKey k;
  switch (v.type()) {
    case storage::DataType::kBool:
      k.cls = 0;
      k.word = v.bool_value() ? 1 : 0;
      break;
    case storage::DataType::kString:
      k.cls = 2;
      k.str = v.string_value();
      break;
    case storage::DataType::kDouble:
      k.cls = 1;
      k.word = RefDoubleBits(v.double_value());
      break;
    default:  // int32 / int64 / timestamp
      k.cls = 1;
      k.word = static_cast<uint64_t>(v.AsInt64());
      break;
  }
  return k;
}

inline std::vector<RefKey> RefRowKey(const storage::Table& t, size_t row,
                                     const std::vector<size_t>& cols) {
  std::vector<RefKey> key;
  for (size_t c : cols) key.push_back(RefKeyOf(t.GetValue(row, c)));
  return key;
}

// One aggregate: `function` is COUNT, SUM, AVG, MIN or MAX; `arg` is the
// input column index (ignored for COUNT; -1 means COUNT(*)); `name` is
// the output column name.
struct RefAggregate {
  std::string function;
  int arg = -1;
  std::string name;
};

// Per-group state of one aggregate.
struct RefAccumulator {
  int64_t count = 0;
  int64_t isum = 0;
  double dsum = 0.0;
  storage::Value ext;

  void Add(const std::string& fn, const storage::Value& v) {
    const bool first = count++ == 0;
    if (fn == "COUNT") return;
    if (fn == "SUM" || fn == "AVG") {
      if (v.type() == storage::DataType::kDouble) {
        dsum += v.double_value();
      } else {
        const int64_t i = v.type() == storage::DataType::kBool
                              ? (v.bool_value() ? 1 : 0)
                              : v.AsInt64();
        isum += i;
        dsum += static_cast<double>(i);
      }
      return;
    }
    const bool want_min = fn == "MIN";
    if (first) {
      ext = v;
      return;
    }
    bool replace;
    switch (v.type()) {
      case storage::DataType::kString:
        replace = want_min ? v.string_value() < ext.string_value()
                           : v.string_value() > ext.string_value();
        break;
      case storage::DataType::kDouble: {
        const int cmp = engine::kernels::CompareDoubles(v.double_value(),
                                                        ext.double_value());
        replace = want_min ? cmp < 0 : cmp > 0;
        break;
      }
      case storage::DataType::kBool:
        replace = want_min ? v.bool_value() < ext.bool_value()
                           : v.bool_value() > ext.bool_value();
        break;
      default:
        replace = want_min ? v.AsInt64() < ext.AsInt64()
                           : v.AsInt64() > ext.AsInt64();
        break;
    }
    if (replace) ext = v;
  }
};

inline storage::DataType RefAggregateType(const RefAggregate& agg,
                                          const storage::Table& input) {
  if (agg.function == "COUNT") return storage::DataType::kInt64;
  if (agg.function == "AVG") return storage::DataType::kDouble;
  const storage::DataType arg = input.schema()[agg.arg].type;
  if (agg.function == "SUM") {
    return arg == storage::DataType::kDouble ? storage::DataType::kDouble
                                             : storage::DataType::kInt64;
  }
  return arg;  // MIN / MAX
}

inline storage::Value RefFinish(const RefAggregate& agg,
                                const RefAccumulator& acc,
                                storage::DataType type) {
  if (agg.function == "COUNT") return storage::Value::Int64(acc.count);
  if (agg.function == "AVG") {
    return storage::Value::Double(
        acc.count ? acc.dsum / static_cast<double>(acc.count) : 0.0);
  }
  if (agg.function == "SUM") {
    return type == storage::DataType::kDouble
               ? storage::Value::Double(acc.dsum)
               : storage::Value::Int64(acc.isum);
  }
  if (acc.count > 0) return acc.ext;
  switch (type) {  // MIN / MAX of no rows
    case storage::DataType::kString: return storage::Value::String("");
    case storage::DataType::kDouble: return storage::Value::Double(0.0);
    case storage::DataType::kInt32: return storage::Value::Int32(0);
    case storage::DataType::kTimestamp: return storage::Value::Timestamp(0);
    case storage::DataType::kBool: return storage::Value::Bool(false);
    default: return storage::Value::Int64(0);
  }
}

// GROUP BY `group_cols` of `input`, computing `aggs`. Output columns: the
// group columns (input names), then one column per aggregate.
inline storage::Table RefGroupBy(const storage::Table& input,
                                 const std::vector<size_t>& group_cols,
                                 const std::vector<RefAggregate>& aggs) {
  std::map<std::vector<RefKey>, size_t> index;
  std::vector<size_t> first_rows;
  std::vector<std::vector<RefAccumulator>> state;
  for (size_t row = 0; row < input.num_rows(); ++row) {
    auto [it, inserted] =
        index.emplace(RefRowKey(input, row, group_cols), first_rows.size());
    if (inserted) {
      first_rows.push_back(row);
      state.emplace_back(aggs.size());
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      state[it->second][a].Add(aggs[a].function,
                               aggs[a].arg < 0
                                   ? storage::Value()
                                   : input.GetValue(row, aggs[a].arg));
    }
  }
  if (group_cols.empty() && first_rows.empty()) {
    state.emplace_back(aggs.size());  // the one row of an empty input
  }
  storage::Table out;
  for (size_t c : group_cols) {
    storage::Column col(input.schema()[c].type);
    for (size_t row : first_rows) {
      EXPECT_TRUE(col.AppendValue(input.GetValue(row, c)).ok());
    }
    EXPECT_TRUE(out.AddColumn(input.column_name(c), std::move(col)).ok());
  }
  for (size_t a = 0; a < aggs.size(); ++a) {
    const storage::DataType type = RefAggregateType(aggs[a], input);
    storage::Column col(type);
    for (const auto& group : state) {
      EXPECT_TRUE(col.AppendValue(RefFinish(aggs[a], group[a], type)).ok());
    }
    EXPECT_TRUE(out.AddColumn(aggs[a].name, std::move(col)).ok());
  }
  return out;
}

// SELECT DISTINCT over every column of `input`.
inline storage::Table RefDistinct(const storage::Table& input) {
  std::vector<size_t> all(input.num_columns());
  for (size_t c = 0; c < all.size(); ++c) all[c] = c;
  return RefGroupBy(input, all, {});
}

// One output column of RefJoin: a column of the build or the probe side.
struct RefJoinColumn {
  bool probe = false;
  std::string column;
  std::string name;
};

// Inner equi-join of `build` and `probe` on the paired key columns.
inline storage::Table RefJoin(const storage::Table& build,
                              const std::vector<std::string>& build_keys,
                              const storage::Table& probe,
                              const std::vector<std::string>& probe_keys,
                              const std::vector<RefJoinColumn>& outputs) {
  auto indices = [](const storage::Table& t,
                    const std::vector<std::string>& names) {
    std::vector<size_t> cols;
    for (const auto& name : names) {
      auto idx = t.ColumnIndex(name);
      EXPECT_TRUE(idx.ok()) << name;
      cols.push_back(idx.ok() ? *idx : 0);
    }
    return cols;
  };
  const std::vector<size_t> bkeys = indices(build, build_keys);
  const std::vector<size_t> pkeys = indices(probe, probe_keys);
  std::map<std::vector<RefKey>, std::vector<size_t>> index;
  for (size_t row = 0; row < build.num_rows(); ++row) {
    index[RefRowKey(build, row, bkeys)].push_back(row);
  }
  std::vector<std::pair<size_t, size_t>> matches;  // (build, probe)
  for (size_t row = 0; row < probe.num_rows(); ++row) {
    auto it = index.find(RefRowKey(probe, row, pkeys));
    if (it == index.end()) continue;
    for (size_t b : it->second) matches.emplace_back(b, row);
  }
  storage::Table out;
  for (const RefJoinColumn& oc : outputs) {
    const storage::Table& side = oc.probe ? probe : build;
    auto idx = side.ColumnIndex(oc.column);
    EXPECT_TRUE(idx.ok()) << oc.column;
    if (!idx.ok()) continue;
    storage::Column col(side.schema()[*idx].type);
    for (const auto& [b, p] : matches) {
      EXPECT_TRUE(col.AppendValue(side.GetValue(oc.probe ? p : b, *idx)).ok());
    }
    EXPECT_TRUE(out.AddColumn(oc.name, std::move(col)).ok());
  }
  return out;
}

// Bit-exact table equality: names, types, row order, and values, with
// doubles compared by bit pattern (NaN payloads and zero signs included).
inline void ExpectTablesBitEqual(const storage::Table& a,
                                 const storage::Table& b,
                                 const std::string& context) {
  ASSERT_EQ(a.num_columns(), b.num_columns()) << context;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << context;
  for (size_t c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.column_name(c), b.column_name(c)) << context;
    ASSERT_EQ(a.schema()[c].type, b.schema()[c].type) << context;
    for (size_t r = 0; r < a.num_rows(); ++r) {
      const storage::Value va = a.GetValue(r, c);
      const storage::Value vb = b.GetValue(r, c);
      if (va.type() == storage::DataType::kDouble) {
        EXPECT_EQ(RefDoubleBits(va.double_value()),
                  RefDoubleBits(vb.double_value()))
            << context << " row " << r << " col " << c << ": "
            << va.double_value() << " vs " << vb.double_value();
      } else {
        EXPECT_TRUE(va.Equals(vb))
            << context << " row " << r << " col " << c << ": "
            << va.ToString() << " vs " << vb.ToString();
      }
    }
  }
}

}  // namespace lazyetl::testing

#endif  // LAZYETL_TESTS_REFERENCE_EVAL_H_
