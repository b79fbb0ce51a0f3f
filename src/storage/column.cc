#include "storage/column.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/macros.h"

namespace lazyetl::storage {
namespace {

// Physical storage bucket for a logical type.
template <typename T>
std::vector<T>& Vec(std::variant<std::vector<uint8_t>, std::vector<int32_t>,
                                 std::vector<int64_t>, std::vector<double>,
                                 std::vector<std::string>>& v) {
  return std::get<std::vector<T>>(v);
}

}  // namespace

Column::Column(DataType type) : type_(type) {
  switch (type) {
    case DataType::kBool:
      data_ = std::vector<uint8_t>{};
      break;
    case DataType::kInt32:
      data_ = std::vector<int32_t>{};
      break;
    case DataType::kInt64:
    case DataType::kTimestamp:
      data_ = std::vector<int64_t>{};
      break;
    case DataType::kDouble:
      data_ = std::vector<double>{};
      break;
    case DataType::kString:
      data_ = std::vector<std::string>{};
      break;
  }
}

Column Column::FromInt32(std::vector<int32_t> data) {
  Column c(DataType::kInt32);
  c.data_ = std::move(data);
  return c;
}
Column Column::FromInt64(std::vector<int64_t> data) {
  Column c(DataType::kInt64);
  c.data_ = std::move(data);
  return c;
}
Column Column::FromDouble(std::vector<double> data) {
  Column c(DataType::kDouble);
  c.data_ = std::move(data);
  return c;
}
Column Column::FromString(std::vector<std::string> data) {
  Column c(DataType::kString);
  c.data_ = std::move(data);
  return c;
}
Column Column::FromTimestamp(std::vector<int64_t> data) {
  Column c(DataType::kTimestamp);
  c.data_ = std::move(data);
  return c;
}
Column Column::FromBool(std::vector<uint8_t> data) {
  Column c(DataType::kBool);
  c.data_ = std::move(data);
  return c;
}

Column Column::FromDictionary(
    std::shared_ptr<const std::vector<std::string>> dict,
    std::vector<uint32_t> codes) {
  Column c(DataType::kString);
  c.dict_ = std::move(dict);
  c.codes_ = std::move(codes);
  return c;
}

Column Column::Decoded() const {
  if (!dict_) return *this;
  std::vector<std::string> out;
  out.reserve(codes_.size());
  for (uint32_t code : codes_) out.push_back((*dict_)[code]);
  return FromString(std::move(out));
}

void Column::DecodeInPlace() {
  if (!dict_) return;
  std::vector<std::string> out;
  out.reserve(codes_.size());
  for (uint32_t code : codes_) out.push_back((*dict_)[code]);
  data_ = std::move(out);
  dict_.reset();
  codes_.clear();
  codes_.shrink_to_fit();
}

bool Column::TryDictEncode(size_t max_cardinality) {
  if (type_ != DataType::kString) return false;
  if (dict_) return true;
  const auto& src = string_data();
  std::vector<std::string> sorted;
  {
    // Early abort: stop collecting the moment the cap is exceeded, so a
    // high-cardinality column (URIs) costs one pass, not a full sort.
    std::unordered_set<std::string> distinct;
    for (const auto& s : src) {
      if (distinct.insert(s).second && distinct.size() > max_cardinality) {
        return false;
      }
    }
    sorted.assign(distinct.begin(), distinct.end());
  }
  std::sort(sorted.begin(), sorted.end());
  std::unordered_map<std::string, uint32_t> code_of;
  code_of.reserve(sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    code_of.emplace(sorted[i], static_cast<uint32_t>(i));
  }
  std::vector<uint32_t> codes;
  codes.reserve(src.size());
  for (const auto& s : src) codes.push_back(code_of.find(s)->second);
  dict_ = std::make_shared<const std::vector<std::string>>(std::move(sorted));
  codes_ = std::move(codes);
  data_ = std::vector<std::string>{};  // drop the plain storage
  return true;
}

size_t Column::size() const {
  if (dict_) return codes_.size();
  return std::visit([](const auto& v) { return v.size(); }, data_);
}

Value Column::GetValue(size_t row) const {
  switch (type_) {
    case DataType::kBool:
      return Value::Bool(bool_data()[row] != 0);
    case DataType::kInt32:
      return Value::Int32(int32_data()[row]);
    case DataType::kInt64:
      return Value::Int64(int64_data()[row]);
    case DataType::kDouble:
      return Value::Double(double_data()[row]);
    case DataType::kString:
      return Value::String(StringAt(row));
    case DataType::kTimestamp:
      return Value::Timestamp(int64_data()[row]);
  }
  return Value();
}

Status Column::AppendValue(const Value& v) {
  switch (type_) {
    case DataType::kBool:
      if (v.type() != DataType::kBool) break;
      bool_data().push_back(v.bool_value() ? 1 : 0);
      return Status::OK();
    case DataType::kInt32:
      if (v.type() != DataType::kInt32) break;
      int32_data().push_back(v.int32_value());
      return Status::OK();
    case DataType::kInt64:
    case DataType::kTimestamp:
      if (v.type() != DataType::kInt64 && v.type() != DataType::kTimestamp &&
          v.type() != DataType::kInt32) {
        break;
      }
      int64_data().push_back(v.AsInt64());
      return Status::OK();
    case DataType::kDouble:
      if (!IsNumeric(v.type())) break;
      double_data().push_back(v.AsDouble());
      return Status::OK();
    case DataType::kString:
      if (v.type() != DataType::kString) break;
      if (dict_) {
        // Known values append as a code; an unknown value falls back to
        // plain storage (re-encoded at the next catalog publish).
        auto it = std::lower_bound(dict_->begin(), dict_->end(),
                                   v.string_value());
        if (it != dict_->end() && *it == v.string_value()) {
          codes_.push_back(static_cast<uint32_t>(it - dict_->begin()));
        } else {
          DecodeInPlace();
          string_data().push_back(v.string_value());
        }
        return Status::OK();
      }
      string_data().push_back(v.string_value());
      return Status::OK();
  }
  return Status::InvalidArgument(
      std::string("cannot append ") + DataTypeToString(v.type()) +
      " value to " + DataTypeToString(type_) + " column");
}

Status Column::SetValue(size_t row, const Value& v) {
  // Append, then move the new last row into place: one set of type and
  // dictionary rules for both mutators.
  LAZYETL_RETURN_NOT_OK(AppendValue(v));
  if (dict_) {
    codes_[row] = codes_.back();
    codes_.pop_back();
    return Status::OK();
  }
  std::visit(
      [row](auto& values) {
        values[row] = std::move(values.back());
        values.pop_back();
      },
      data_);
  return Status::OK();
}

void Column::Reserve(size_t n) {
  if (dict_) {
    codes_.reserve(n);
    return;
  }
  std::visit([n](auto& v) { v.reserve(n); }, data_);
}

Status Column::AppendColumn(const Column& other) {
  if (dict_ || other.dict_) {
    return AppendRange(other, 0, other.size());
  }
  if (other.type_ != type_ &&
      !(type_ == DataType::kInt64 && other.type_ == DataType::kTimestamp) &&
      !(type_ == DataType::kTimestamp && other.type_ == DataType::kInt64)) {
    return Status::InvalidArgument(
        std::string("cannot append ") + DataTypeToString(other.type_) +
        " column to " + DataTypeToString(type_) + " column");
  }
  std::visit(
      [this](const auto& src) {
        using VecT = std::decay_t<decltype(src)>;
        auto& dst = std::get<VecT>(data_);
        dst.insert(dst.end(), src.begin(), src.end());
      },
      other.data_);
  return Status::OK();
}

Status Column::AppendRange(const Column& other, size_t offset, size_t length) {
  if (other.type_ != type_ &&
      !(type_ == DataType::kInt64 && other.type_ == DataType::kTimestamp) &&
      !(type_ == DataType::kTimestamp && other.type_ == DataType::kInt64)) {
    return Status::InvalidArgument(
        std::string("cannot append ") + DataTypeToString(other.type_) +
        " range to " + DataTypeToString(type_) + " column");
  }
  if (dict_ || other.dict_) {
    if (dict_ && dict_ == other.dict_) {
      // Shared dictionary: the append moves only codes.
      codes_.insert(codes_.end(), other.codes_.begin() + offset,
                    other.codes_.begin() + offset + length);
      return Status::OK();
    }
    // Mixed encodings (or distinct dictionaries): fall back to plain.
    DecodeInPlace();
    auto& dst = string_data();
    // Grow geometrically: callers append one row at a time (a grouping
    // emits a row per new group), and an exact-size reserve per call
    // would reallocate on every append, O(rows^2) string moves in all.
    if (dst.capacity() < dst.size() + length) {
      dst.reserve(std::max(dst.size() + length, 2 * dst.capacity()));
    }
    for (size_t i = 0; i < length; ++i) dst.push_back(other.StringAt(offset + i));
    return Status::OK();
  }
  std::visit(
      [this, offset, length](const auto& src) {
        using VecT = std::decay_t<decltype(src)>;
        auto& dst = std::get<VecT>(data_);
        dst.insert(dst.end(), src.begin() + offset,
                   src.begin() + offset + length);
      },
      other.data_);
  return Status::OK();
}

Column Column::Gather(const SelectionVector& sel) const {
  if (dict_) {
    std::vector<uint32_t> codes;
    codes.reserve(sel.size());
    for (uint32_t row : sel) codes.push_back(codes_[row]);
    return FromDictionary(dict_, std::move(codes));
  }
  Column out(type_);
  std::visit(
      [&](const auto& src) {
        using VecT = std::decay_t<decltype(src)>;
        auto& dst = std::get<VecT>(out.data_);
        dst.reserve(sel.size());
        for (uint32_t row : sel) dst.push_back(src[row]);
      },
      data_);
  return out;
}

Column Column::GatherRuns(const SelectionVector& rows,
                          const SelectionVector& counts) const {
  size_t total = 0;
  for (uint32_t count : counts) total += count;
  auto fill = [&](const auto& src, auto* dst) {
    dst->reserve(total);
    for (size_t i = 0; i < rows.size(); ++i) {
      dst->insert(dst->end(), counts[i], src[rows[i]]);
    }
  };
  if (dict_) {
    std::vector<uint32_t> codes;
    fill(codes_, &codes);
    return FromDictionary(dict_, std::move(codes));
  }
  Column out(type_);
  std::visit(
      [&](const auto& src) {
        using VecT = std::decay_t<decltype(src)>;
        fill(src, &std::get<VecT>(out.data_));
      },
      data_);
  return out;
}

Column Column::GatherFrom(const SelectionVector& sel,
                          size_t base_offset) const {
  if (dict_) {
    std::vector<uint32_t> codes;
    codes.reserve(sel.size());
    for (uint32_t row : sel) codes.push_back(codes_[base_offset + row]);
    return FromDictionary(dict_, std::move(codes));
  }
  Column out(type_);
  std::visit(
      [&](const auto& src) {
        using VecT = std::decay_t<decltype(src)>;
        auto& dst = std::get<VecT>(out.data_);
        dst.reserve(sel.size());
        for (uint32_t row : sel) dst.push_back(src[base_offset + row]);
      },
      data_);
  return out;
}

Column Column::CopyRange(size_t offset, size_t length) const {
  if (dict_) {
    return FromDictionary(
        dict_, std::vector<uint32_t>(codes_.begin() + offset,
                                     codes_.begin() + offset + length));
  }
  Column out(type_);
  std::visit(
      [&](const auto& src) {
        using VecT = std::decay_t<decltype(src)>;
        auto& dst = std::get<VecT>(out.data_);
        dst.assign(src.begin() + offset, src.begin() + offset + length);
      },
      data_);
  return out;
}

double Column::NumericAt(size_t row) const {
  switch (type_) {
    case DataType::kBool:
      return bool_data()[row] ? 1.0 : 0.0;
    case DataType::kInt32:
      return static_cast<double>(int32_data()[row]);
    case DataType::kInt64:
    case DataType::kTimestamp:
      return static_cast<double>(int64_data()[row]);
    case DataType::kDouble:
      return double_data()[row];
    case DataType::kString:
      return 0.0;
  }
  return 0.0;
}

uint64_t Column::MemoryBytes() const {
  if (dict_) {
    uint64_t bytes = codes_.capacity() * sizeof(uint32_t) +
                     dict_->capacity() * sizeof(std::string);
    for (const auto& s : *dict_) bytes += s.capacity();
    return bytes;
  }
  return std::visit(
      [](const auto& v) -> uint64_t {
        using VecT = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<VecT, std::vector<std::string>>) {
          uint64_t bytes = v.capacity() * sizeof(std::string);
          for (const auto& s : v) bytes += s.capacity();
          return bytes;
        } else {
          return v.capacity() * sizeof(typename VecT::value_type);
        }
      },
      data_);
}

uint64_t Column::RangeBytes(size_t offset, size_t length) const {
  if (dict_) {
    // Codes plus the viewed rows' amortised share of the shared
    // dictionary, so batch accounting stays proportional to coverage.
    uint64_t dict_bytes = 0;
    for (const auto& s : *dict_) dict_bytes += sizeof(std::string) + s.capacity();
    size_t rows = codes_.size();
    return length * sizeof(uint32_t) +
           (rows == 0 ? 0 : dict_bytes * length / rows);
  }
  return std::visit(
      [offset, length](const auto& v) -> uint64_t {
        using VecT = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<VecT, std::vector<std::string>>) {
          uint64_t bytes = length * sizeof(std::string);
          for (size_t i = offset; i < offset + length; ++i) {
            bytes += v[i].capacity();
          }
          return bytes;
        } else {
          (void)v;
          return length * sizeof(typename VecT::value_type);
        }
      },
      data_);
}

}  // namespace lazyetl::storage
