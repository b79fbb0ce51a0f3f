#include "server/json.h"

#include <cmath>
#include <cstdio>

#include "storage/column.h"
#include "storage/types.h"

namespace lazyetl::server {

using storage::DataType;
using storage::Table;

void AppendJsonString(std::string_view s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned char>(c));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonValue(const Table& t, size_t row, size_t col,
                     std::string* out) {
  const storage::Column& column = t.column(col);
  char buf[32];
  switch (column.type()) {
    case DataType::kBool:
      out->append(column.bool_data()[row] ? "true" : "false");
      break;
    case DataType::kInt32:
      std::snprintf(buf, sizeof(buf), "%d", column.int32_data()[row]);
      out->append(buf);
      break;
    case DataType::kInt64:
    case DataType::kTimestamp:
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(column.int64_data()[row]));
      out->append(buf);
      break;
    case DataType::kDouble: {
      double v = column.double_data()[row];
      if (!std::isfinite(v)) {
        out->append("null");
      } else {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out->append(buf);
      }
      break;
    }
    case DataType::kString:
      AppendJsonString(column.StringAt(row), out);
      break;
  }
}

void AppendJsonRow(const Table& t, size_t row, std::string* out) {
  out->push_back('[');
  for (size_t c = 0; c < t.num_columns(); ++c) {
    if (c > 0) out->push_back(',');
    AppendJsonValue(t, row, c, out);
  }
  out->push_back(']');
}

std::vector<std::string> JsonRows(const Table& t) {
  std::vector<std::string> rows;
  rows.reserve(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::string row;
    AppendJsonRow(t, r, &row);
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace lazyetl::server
