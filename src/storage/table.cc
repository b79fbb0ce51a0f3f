#include "storage/table.h"

#include <algorithm>
#include <sstream>

#include "common/macros.h"
#include "common/string_util.h"
#include "storage/slice.h"

namespace lazyetl::storage {

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.size());
  for (const auto& cs : schema_) columns_.emplace_back(cs.type);
}

Result<Table> Table::FromColumns(std::vector<std::string> names,
                                 std::vector<Column> columns) {
  if (names.size() != columns.size()) {
    return Status::InvalidArgument("names/columns size mismatch");
  }
  Table t;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0 && columns[i].size() != t.columns_[0].size()) {
      return Status::InvalidArgument("column length mismatch at '" +
                                     names[i] + "'");
    }
    t.schema_.push_back({names[i], columns[i].type()});
    t.columns_.push_back(std::move(columns[i]));
  }
  return t;
}

Result<size_t> Table::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (schema_[i].name == name) return i;
  }
  // Unqualified suffix match: "station" ~ "F.station".
  size_t found = schema_.size();
  int matches = 0;
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (EndsWith(schema_[i].name, "." + name)) {
      found = i;
      ++matches;
    }
  }
  if (matches == 1) return found;
  if (matches > 1) {
    return Status::BindError("ambiguous column name '" + name + "'");
  }
  return Status::NotFound("no column named '" + name + "'");
}

Result<const Column*> Table::ColumnByName(const std::string& name) const {
  LAZYETL_ASSIGN_OR_RETURN(size_t i, ColumnIndex(name));
  return &columns_[i];
}

Status Table::AppendRow(const std::vector<Value>& values) {
  if (values.size() != columns_.size()) {
    return Status::InvalidArgument("row arity mismatch: expected " +
                                   std::to_string(columns_.size()) + ", got " +
                                   std::to_string(values.size()));
  }
  for (size_t i = 0; i < values.size(); ++i) {
    LAZYETL_RETURN_NOT_OK(columns_[i].AppendValue(values[i]).WithContext(
        "column '" + schema_[i].name + "'"));
  }
  InvalidateStats();
  return Status::OK();
}

Status Table::SetRow(size_t row, const std::vector<Value>& values) {
  if (values.size() != columns_.size() || row >= num_rows()) {
    return Status::InvalidArgument("row " + std::to_string(row) +
                                   " of arity " +
                                   std::to_string(values.size()) +
                                   " does not fit the table");
  }
  for (size_t i = 0; i < values.size(); ++i) {
    LAZYETL_RETURN_NOT_OK(columns_[i].SetValue(row, values[i]).WithContext(
        "column '" + schema_[i].name + "'"));
  }
  InvalidateStats();
  return Status::OK();
}

Status Table::AppendTable(const Table& other) {
  if (other.num_columns() != num_columns()) {
    return Status::InvalidArgument("appending table with different arity");
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    LAZYETL_RETURN_NOT_OK(columns_[i].AppendColumn(other.columns_[i]));
  }
  InvalidateStats();
  return Status::OK();
}

Status Table::AppendSlice(const TableSlice& slice) {
  if (slice.num_columns() != num_columns()) {
    return Status::InvalidArgument("appending slice with different arity");
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    LAZYETL_RETURN_NOT_OK(
        columns_[i]
            .AppendRange(slice.column(i), slice.offset(), slice.num_rows())
            .WithContext("column '" + schema_[i].name + "'"));
  }
  InvalidateStats();
  return Status::OK();
}

TableSlice Table::Slice(size_t offset, size_t length) const {
  return TableSlice::FromTable(*this, offset, length);
}

Status Table::AddColumn(std::string name, Column column) {
  if (!columns_.empty() && column.size() != num_rows()) {
    return Status::InvalidArgument("column '" + name + "' has " +
                                   std::to_string(column.size()) +
                                   " rows, table has " +
                                   std::to_string(num_rows()));
  }
  schema_.push_back({std::move(name), column.type()});
  columns_.push_back(std::move(column));
  InvalidateStats();
  return Status::OK();
}

Table Table::Gather(const SelectionVector& sel) const {
  Table out;
  out.schema_ = schema_;
  out.columns_.reserve(columns_.size());
  for (const auto& c : columns_) out.columns_.push_back(c.Gather(sel));
  return out;
}

Result<Table> Table::Project(const std::vector<std::string>& names) const {
  Table out;
  for (const auto& name : names) {
    LAZYETL_ASSIGN_OR_RETURN(size_t i, ColumnIndex(name));
    out.schema_.push_back(schema_[i]);
    out.columns_.push_back(columns_[i]);
  }
  return out;
}

uint64_t Table::MemoryBytes() const {
  uint64_t total = 0;
  for (const auto& c : columns_) total += c.MemoryBytes();
  return total;
}

namespace {

// Bounds over [begin, end) of an int-backed vector (bool / int32 / int64 /
// timestamp), written into the zone-map entry's int64 domain.
template <typename T>
void IntBounds(const std::vector<T>& data, size_t begin, size_t end,
               ZoneMapEntry* e) {
  int64_t lo = static_cast<int64_t>(data[begin]);
  int64_t hi = lo;
  for (size_t r = begin + 1; r < end; ++r) {
    int64_t v = static_cast<int64_t>(data[r]);
    if (v < lo) lo = v;
    if (v > hi) hi = v;
  }
  e->imin = lo;
  e->imax = hi;
  e->has_bounds = true;
}

void ChunkBounds(const Column& col, size_t begin, size_t end,
                 ZoneMapEntry* e) {
  switch (col.type()) {
    case DataType::kBool:
      IntBounds(col.bool_data(), begin, end, e);
      break;
    case DataType::kInt32:
      IntBounds(col.int32_data(), begin, end, e);
      break;
    case DataType::kInt64:
    case DataType::kTimestamp:
      IntBounds(col.int64_data(), begin, end, e);
      break;
    case DataType::kDouble: {
      // NaN never satisfies a comparison, so NaNs are skipped; a chunk of
      // only NaNs gets no bounds and is prunable by every comparison.
      const auto& data = col.double_data();
      bool seen = false;
      double lo = 0.0, hi = 0.0;
      for (size_t r = begin; r < end; ++r) {
        double v = data[r];
        if (v != v) continue;
        if (!seen) {
          lo = hi = v;
          seen = true;
        } else {
          if (v < lo) lo = v;
          if (v > hi) hi = v;
        }
      }
      e->dmin = lo;
      e->dmax = hi;
      e->has_bounds = seen;
      break;
    }
    case DataType::kString: {
      const std::string* lo = &col.StringAt(begin);
      const std::string* hi = lo;
      for (size_t r = begin + 1; r < end; ++r) {
        const std::string& s = col.StringAt(r);
        if (s < *lo) lo = &s;
        if (s > *hi) hi = &s;
      }
      e->smin = *lo;
      e->smax = *hi;
      e->has_bounds = true;
      break;
    }
  }
}

}  // namespace

void Table::RefreshStats() {
  size_t rows = num_rows();
  zone_maps_.assign(columns_.size(), {});
  for (size_t c = 0; c < columns_.size(); ++c) {
    const Column& col = columns_[c];
    ColumnZoneMap& zm = zone_maps_[c];
    zm.type = col.type();
    size_t num_chunks = (rows + kZoneMapChunkRows - 1) / kZoneMapChunkRows;
    zm.chunks.resize(num_chunks);
    for (size_t ch = 0; ch < num_chunks; ++ch) {
      size_t begin = ch * kZoneMapChunkRows;
      size_t end = std::min(begin + kZoneMapChunkRows, rows);
      ZoneMapEntry& e = zm.chunks[ch];
      e.rows = end - begin;
      e.bytes = col.RangeBytes(begin, end - begin);
      ChunkBounds(col, begin, end, &e);
    }
  }
  stats_rows_ = rows;
}

size_t Table::DictEncodeStrings(size_t max_cardinality) {
  size_t encoded = 0;
  for (auto& c : columns_) {
    if (c.type() == DataType::kString && !c.dict_encoded() &&
        c.TryDictEncode(max_cardinality)) {
      ++encoded;
    }
  }
  return encoded;
}

std::string Table::ToString(size_t max_rows) const {
  std::ostringstream os;
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (i) os << " | ";
    os << schema_[i].name;
  }
  os << "\n";
  size_t n = std::min(num_rows(), max_rows);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (c) os << " | ";
      os << columns_[c].GetValue(r).ToString();
    }
    os << "\n";
  }
  if (num_rows() > n) {
    os << "... (" << num_rows() - n << " more rows)\n";
  }
  return os.str();
}

}  // namespace lazyetl::storage
