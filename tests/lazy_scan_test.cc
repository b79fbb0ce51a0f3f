// Operator-level coverage of the LazyDataScan run-time join. The scan
// probes the metadata side once per record (a run of rows with equal
// (file_id, seq_no)); when the metadata side holds several rows for one
// record key, its output must still equal the generic HashJoin's: the
// same rows in the same order — probe rows in order, each with its
// metadata rows ascending.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "storage/catalog.h"
#include "storage/slice.h"
#include "test_util.h"

namespace lazyetl::engine {
namespace {

using storage::Column;
using storage::SelectionVector;
using storage::Table;

// Emits a table in chunks of at most `batch_rows` rows (at least one),
// each listing its record runs from the rows' (file_id, seq_no) keys.
class TableRecordStream : public RecordStream {
 public:
  TableRecordStream(Table rows, std::vector<RecordKey> keys, size_t batch_rows)
      : rows_(std::move(rows)), keys_(std::move(keys)),
        batch_rows_(batch_rows) {}

  Result<bool> Next(RecordChunk* out) override {
    if (emitted_ && offset_ >= rows_.num_rows()) return false;
    const size_t n = std::min(batch_rows_, rows_.num_rows() - offset_);
    out->table = rows_.Slice(offset_, n).Materialize();
    out->runs.clear();
    for (size_t r = 0; r < n; ++r) {
      const RecordKey& k = keys_[offset_ + r];
      if (r == 0 || !(k == keys_[offset_ + r - 1])) {
        out->runs.push_back({k.file_id, k.seq_no, static_cast<uint32_t>(r)});
      }
    }
    offset_ += n;
    emitted_ = true;
    return true;
  }

 private:
  Table rows_;
  std::vector<RecordKey> keys_;  // per row
  size_t batch_rows_;
  size_t offset_ = 0;
  bool emitted_ = false;
};

// Serves the rows of each requested record, in request order, from an
// in-memory data table with file_id and seq_no columns.
class TableDataProvider : public LazyDataProvider {
 public:
  explicit TableDataProvider(const Table* data) : data_(data) {}

  Result<std::unique_ptr<RecordStream>> StreamRecords(
      const std::vector<RecordKey>& keys,
      const std::vector<ScanColumn>& columns, const SampleTimeRange&,
      size_t batch_rows, ExecutionReport*) override {
    LAZYETL_ASSIGN_OR_RETURN(const Column* fids,
                             data_->ColumnByName("file_id"));
    LAZYETL_ASSIGN_OR_RETURN(const Column* seqs, data_->ColumnByName("seq_no"));
    SelectionVector sel;
    std::vector<RecordKey> row_keys;
    for (const RecordKey& key : keys) {
      for (size_t r = 0; r < data_->num_rows(); ++r) {
        if (fids->int64_data()[r] == key.file_id &&
            seqs->int64_data()[r] == key.seq_no) {
          sel.push_back(static_cast<uint32_t>(r));
          row_keys.push_back(key);
        }
      }
    }
    Table picked = data_->Gather(sel);
    Table out;
    for (const ScanColumn& sc : columns) {
      LAZYETL_ASSIGN_OR_RETURN(const Column* c,
                               picked.ColumnByName(sc.base_column));
      LAZYETL_RETURN_NOT_OK(out.AddColumn(sc.output_name, *c));
    }
    return std::unique_ptr<RecordStream>(std::make_unique<TableRecordStream>(
        std::move(out), std::move(row_keys), batch_rows));
  }

  Result<std::unique_ptr<RecordStream>> StreamAllRecords(
      const std::vector<ScanColumn>&, size_t, ExecutionReport*) override {
    return Status::NotImplemented("not used by this test");
  }

 private:
  const Table* data_;
};

const std::vector<std::string> kMetaKeys = {"M.file_id", "M.seq_no"};
const std::vector<std::string> kDataKeys = {"D.file_id", "D.seq_no"};

PlanNodePtr MetaScan() {
  return MakeScan("meta", {{"file_id", "M.file_id"},
                           {"seq_no", "M.seq_no"},
                           {"tag", "M.tag"}});
}

PlanNodePtr DataScanColumns(PlanNodePtr node) {
  node->scan_columns = {{"file_id", "D.file_id"},
                        {"seq_no", "D.seq_no"},
                        {"value", "D.value"}};
  return node;
}

PlanNodePtr LazyJoin(std::vector<std::string> used_above) {
  auto node = std::make_unique<PlanNode>();
  node->type = PlanNodeType::kLazyDataScan;
  node->table = "data";
  node = DataScanColumns(std::move(node));
  node->probe_file_id_column = kMetaKeys[0];
  node->probe_seq_no_column = kMetaKeys[1];
  node->left_keys = kMetaKeys;
  node->right_keys = kDataKeys;
  std::sort(used_above.begin(), used_above.end());
  node->used_above = std::move(used_above);
  node->children.push_back(MetaScan());
  return node;
}

PlanNodePtr GenericJoin() {
  return MakeHashJoin(MetaScan(), DataScanColumns(MakeScan("data", {})),
                      kMetaKeys, kDataKeys);
}

void ExpectSameRows(const Table& want, const Table& got) {
  ASSERT_EQ(want.num_columns(), got.num_columns());
  ASSERT_EQ(want.num_rows(), got.num_rows());
  for (size_t c = 0; c < want.num_columns(); ++c) {
    EXPECT_EQ(want.column_name(c), got.column_name(c));
    for (size_t r = 0; r < want.num_rows(); ++r) {
      EXPECT_TRUE(want.GetValue(r, c).Equals(got.GetValue(r, c)))
          << "row " << r << " col " << want.column_name(c);
    }
  }
}

class LazyScanJoinTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    // Two metadata rows per record key, except (1, 2) with one. Record
    // (2, 2) has data but no metadata row, so it is never requested.
    auto meta = std::make_shared<Table>();
    ASSERT_STATUS_OK(meta->AddColumn(
        "file_id", Column::FromInt64({1, 1, 1, 2, 2, 2, 2})));
    ASSERT_STATUS_OK(meta->AddColumn(
        "seq_no", Column::FromInt64({1, 1, 2, 1, 1, 3, 3})));
    ASSERT_STATUS_OK(meta->AddColumn(
        "tag", Column::FromInt64({10, 11, 12, 13, 14, 15, 16})));
    ASSERT_STATUS_OK(catalog_.RegisterTable("meta", meta));

    data_ = std::make_shared<Table>();
    ASSERT_STATUS_OK(data_->AddColumn(
        "file_id", Column::FromInt64({1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2})));
    ASSERT_STATUS_OK(data_->AddColumn(
        "seq_no", Column::FromInt64({1, 1, 1, 2, 2, 1, 1, 1, 1, 2, 2, 3})));
    ASSERT_STATUS_OK(data_->AddColumn(
        "value", Column::FromInt32({1, 2, 3, 4, 5, 6, 7, 8, 9, 98, 99, 10})));
    ASSERT_STATUS_OK(catalog_.RegisterTable("data", data_));
  }

  Result<Table> Execute(const PlanNode& plan) {
    ExecutorOptions options;
    options.batch_rows = 2;  // records span several chunks
    options.query_threads = GetParam();
    TableDataProvider provider(data_.get());
    Executor executor(&catalog_, &provider, options);
    ExecutionReport report;
    return executor.Execute(plan, &report);
  }

  storage::Catalog catalog_;
  std::shared_ptr<Table> data_;
};

TEST_P(LazyScanJoinTest, SeveralMetadataRowsPerRecordMatchHashJoin) {
  auto want = Execute(*GenericJoin());
  ASSERT_OK(want);
  ASSERT_EQ(want->num_rows(), 18u);  // 3*2 + 2*1 + 4*2 + 1*2
  auto got = Execute(*LazyJoin({"M.file_id", "M.seq_no", "M.tag"}));
  ASSERT_OK(got);
  ExpectSameRows(*want, *got);
}

TEST_P(LazyScanJoinTest, CarriesOnlyMetadataColumnsUsedAbove) {
  auto full = Execute(*GenericJoin());
  ASSERT_OK(full);
  auto want = full->Project({"M.tag", "D.file_id", "D.seq_no", "D.value"});
  ASSERT_OK(want);
  auto got = Execute(*LazyJoin({"M.tag", "D.value"}));
  ASSERT_OK(got);
  ExpectSameRows(*want, *got);
}

// An Aggregate marked keys_constant_per_record over the scan. Where a
// record matches several metadata rows its rows do not stay in runs of
// one key, so the scan must not hand record runs up: the answer has to
// equal the same Aggregate over the generic join.
PlanNodePtr CountByTag(PlanNodePtr input) {
  auto ref = [](const std::string& name, storage::DataType type) {
    auto e = std::make_unique<sql::BoundExpr>();
    e->kind = sql::ExprKind::kColumnRef;
    e->display = name;
    e->type = type;
    return e;
  };
  auto agg = std::make_unique<PlanNode>();
  agg->type = PlanNodeType::kAggregate;
  agg->group_exprs.push_back(ref("M.tag", storage::DataType::kInt64));
  sql::BoundAggregate count;
  count.function = "COUNT";
  count.display = "#agg0";
  count.type = storage::DataType::kInt64;
  agg->aggregates.push_back(std::move(count));
  sql::BoundAggregate sum;
  sum.function = "SUM";
  sum.arg = ref("D.value", storage::DataType::kInt32);
  sum.display = "#agg1";
  sum.type = storage::DataType::kInt64;
  agg->aggregates.push_back(std::move(sum));
  agg->keys_constant_per_record = true;
  agg->children.push_back(std::move(input));
  return agg;
}

TEST_P(LazyScanJoinTest, GroupsPerRecordOnlyWhenEachRecordHasOneKey) {
  auto want = Execute(*CountByTag(GenericJoin()));
  ASSERT_OK(want);
  ASSERT_EQ(want->num_rows(), 7u);
  auto got = Execute(*CountByTag(LazyJoin({"M.tag", "D.value"})));
  ASSERT_OK(got);
  ExpectSameRows(*want, *got);
}

INSTANTIATE_TEST_SUITE_P(QueryThreads, LazyScanJoinTest,
                         ::testing::Values(size_t{1}, size_t{4}));

}  // namespace
}  // namespace lazyetl::engine
