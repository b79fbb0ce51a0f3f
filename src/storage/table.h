// Table: an ordered set of named, equal-length columns. Used both for base
// tables registered in the Catalog and for intermediate results flowing
// between engine operators.

#ifndef LAZYETL_STORAGE_TABLE_H_
#define LAZYETL_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/column.h"

namespace lazyetl::storage {

class TableSlice;

struct ColumnSchema {
  std::string name;  // possibly qualified, e.g. "F.station"
  DataType type = DataType::kInt64;
};

using TableSchema = std::vector<ColumnSchema>;

// Zone maps: per-chunk min/max statistics over a column, computed at
// catalog-publish time (Table::RefreshStats) and consulted by the scan
// operators to skip whole morsels whose value range cannot satisfy a
// conjunctive comparison predicate (engine/pruning).
inline constexpr size_t kZoneMapChunkRows = 4096;

struct ZoneMapEntry {
  uint64_t rows = 0;
  uint64_t bytes = 0;  // approximate heap bytes of the chunk's values
  // Bounds in the column's comparison domain; which pair is meaningful
  // depends on the column type. `has_bounds` is false when no orderable
  // value exists in the chunk (an all-NaN double chunk) — no comparison
  // predicate can match such rows.
  int64_t imin = 0, imax = 0;      // bool / int32 / int64 / timestamp
  double dmin = 0.0, dmax = 0.0;   // double
  std::string smin, smax;          // string (encoding-transparent)
  bool has_bounds = false;
};

struct ColumnZoneMap {
  DataType type = DataType::kInt64;
  std::vector<ZoneMapEntry> chunks;  // kZoneMapChunkRows rows per chunk
};

class Table {
 public:
  Table() = default;
  explicit Table(TableSchema schema);

  // Builds a table from parallel (name, column) pairs; all columns must
  // have equal length.
  static Result<Table> FromColumns(std::vector<std::string> names,
                                   std::vector<Column> columns);

  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return columns_.empty() ? 0 : columns_[0].size(); }

  const TableSchema& schema() const { return schema_; }

  // Index of column `name`; tries exact match first, then an unqualified
  // suffix match ("station" matches "F.station" if unambiguous).
  Result<size_t> ColumnIndex(const std::string& name) const;

  const Column& column(size_t i) const { return columns_[i]; }
  Column& column(size_t i) { return columns_[i]; }
  const std::string& column_name(size_t i) const { return schema_[i].name; }

  Result<const Column*> ColumnByName(const std::string& name) const;

  // Appends one row given values in schema order.
  Status AppendRow(const std::vector<Value>& values);

  // Overwrites row `row` with values in schema order.
  Status SetRow(size_t row, const std::vector<Value>& values);

  // Appends all rows of `other`, which must have an identical schema.
  Status AppendTable(const Table& other);

  // Appends the viewed rows of `slice` (same arity, compatible column
  // types) — the batch-aware append path used when draining a pipeline.
  Status AppendSlice(const TableSlice& slice);

  // Zero-copy view of rows [offset, offset + length); the caller must keep
  // this table alive while the slice is in use.
  TableSlice Slice(size_t offset, size_t length) const;

  // Adds a column to the right side; size must match num_rows() (or the
  // table must be empty of columns).
  Status AddColumn(std::string name, Column column);

  // New table with only the rows in `sel`.
  Table Gather(const SelectionVector& sel) const;

  // New table with only the named columns (in the given order).
  Result<Table> Project(const std::vector<std::string>& names) const;

  Value GetValue(size_t row, size_t col) const { return columns_[col].GetValue(row); }

  uint64_t MemoryBytes() const;

  // --- Statistics & encodings ----------------------------------------------
  // Zone maps are rebuilt explicitly (the catalog does this when a table is
  // published) and invalidated by any row-adding or row-setting mutator
  // above; values written through the typed column vectors bypass that. Readers of a
  // published (immutable) table may call zone_map() concurrently.

  // Recomputes per-chunk zone maps for every column. Idempotent.
  void RefreshStats();

  // Whether zone maps are present and consistent with the current row count.
  bool has_stats() const {
    return stats_rows_ == num_rows() && zone_maps_.size() == columns_.size();
  }

  // Zone map for column `i`, or nullptr when statistics are stale/absent.
  const ColumnZoneMap* zone_map(size_t i) const {
    return has_stats() ? &zone_maps_[i] : nullptr;
  }

  // Dictionary-encodes every plain string column whose cardinality is at
  // most `max_cardinality`; returns how many columns were encoded.
  size_t DictEncodeStrings(size_t max_cardinality);

  // Pretty-prints up to `max_rows` rows (for examples and the browser).
  std::string ToString(size_t max_rows = 20) const;

 private:
  static constexpr size_t kStatsStale = static_cast<size_t>(-1);

  void InvalidateStats() { stats_rows_ = kStatsStale; }

  TableSchema schema_;
  std::vector<Column> columns_;
  std::vector<ColumnZoneMap> zone_maps_;
  size_t stats_rows_ = kStatsStale;  // row count the zone maps describe
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace lazyetl::storage

#endif  // LAZYETL_STORAGE_TABLE_H_
