// Column: a typed, densely-packed vector of values — the BAT-tail analog of
// the MonetDB substrate. Engine operators work on whole columns plus
// selection vectors (row-id lists), the column-at-a-time execution model.

#ifndef LAZYETL_STORAGE_COLUMN_H_
#define LAZYETL_STORAGE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/types.h"

namespace lazyetl::storage {

// Row-id list produced by selections and joins.
using SelectionVector = std::vector<uint32_t>;

class Column {
 public:
  explicit Column(DataType type);

  Column(const Column&) = default;
  Column& operator=(const Column&) = default;
  Column(Column&&) = default;
  Column& operator=(Column&&) = default;

  // Typed factories taking ownership of existing vectors.
  static Column FromInt32(std::vector<int32_t> data);
  static Column FromInt64(std::vector<int64_t> data);
  static Column FromDouble(std::vector<double> data);
  static Column FromString(std::vector<std::string> data);
  static Column FromTimestamp(std::vector<int64_t> data);
  static Column FromBool(std::vector<uint8_t> data);

  // Dictionary-encoded string column: a shared, sorted, duplicate-free
  // dictionary plus one uint32 code per row. Because the dictionary is
  // sorted, codes are order-isomorphic to their strings, so comparison
  // predicates evaluate on the codes alone (see engine/expr_eval).
  static Column FromDictionary(
      std::shared_ptr<const std::vector<std::string>> dict,
      std::vector<uint32_t> codes);

  DataType type() const { return type_; }
  size_t size() const;
  bool empty() const { return size() == 0; }

  // --- Dictionary encoding (kString columns only) -------------------------

  bool dict_encoded() const { return dict_ != nullptr; }
  // Precondition for both: dict_encoded().
  const std::vector<uint32_t>& dict_codes() const { return codes_; }
  const std::shared_ptr<const std::vector<std::string>>& dictionary() const {
    return dict_;
  }

  // Row `row` as a string, transparent to the encoding. Precondition:
  // type() == kString. The reference stays valid while the column (or its
  // shared dictionary) lives.
  const std::string& StringAt(size_t row) const {
    return dict_ ? (*dict_)[codes_[row]] : string_data()[row];
  }

  // Plain (unencoded) copy; returns *this unchanged when already plain.
  Column Decoded() const;

  // Replaces the encoded representation with plain strings in place.
  void DecodeInPlace();

  // Encodes a plain kString column in place when its distinct-value count
  // is at most `max_cardinality`. Returns whether the column is encoded
  // afterwards (already-encoded columns report true; over-cardinality and
  // non-string columns are left untouched and report false).
  bool TryDictEncode(size_t max_cardinality);

  // --- Direct typed access ------------------------------------------------
  // Precondition: matching physical type, and for kString additionally
  // !dict_encoded() (use StringAt for encoding-transparent reads).
  // (kInt64 and kTimestamp share int64 storage; kBool uses uint8.)
  std::vector<int32_t>& int32_data() { return std::get<std::vector<int32_t>>(data_); }
  const std::vector<int32_t>& int32_data() const { return std::get<std::vector<int32_t>>(data_); }
  std::vector<int64_t>& int64_data() { return std::get<std::vector<int64_t>>(data_); }
  const std::vector<int64_t>& int64_data() const { return std::get<std::vector<int64_t>>(data_); }
  std::vector<double>& double_data() { return std::get<std::vector<double>>(data_); }
  const std::vector<double>& double_data() const { return std::get<std::vector<double>>(data_); }
  std::vector<std::string>& string_data() { return std::get<std::vector<std::string>>(data_); }
  const std::vector<std::string>& string_data() const { return std::get<std::vector<std::string>>(data_); }
  std::vector<uint8_t>& bool_data() { return std::get<std::vector<uint8_t>>(data_); }
  const std::vector<uint8_t>& bool_data() const { return std::get<std::vector<uint8_t>>(data_); }

  // Scalar access (slow path; bulk operators use the typed vectors).
  Value GetValue(size_t row) const;
  Status AppendValue(const Value& v);
  // Overwrites row `row` with `v` (type-checked as AppendValue).
  Status SetValue(size_t row, const Value& v);
  void Reserve(size_t n);

  // Appends all rows of `other` (same type) to this column.
  Status AppendColumn(const Column& other);

  // Appends rows [offset, offset + length) of `other` (same type) — the
  // batch-aware append path used when draining slices into a table.
  Status AppendRange(const Column& other, size_t offset, size_t length);

  // New column containing rows picked by `sel`, in order.
  Column Gather(const SelectionVector& sel) const;

  // New column holding row `rows[i]` repeated `counts[i]` times, for each
  // i in order: a gather of whole runs, filled once per run.
  Column GatherRuns(const SelectionVector& rows,
                    const SelectionVector& counts) const;

  // Gather with a base offset: rows picked are `base_offset + sel[i]`.
  // Used by slices, whose selection vectors are slice-relative.
  Column GatherFrom(const SelectionVector& sel, size_t base_offset) const;

  // New column holding a copy of rows [offset, offset + length).
  Column CopyRange(size_t offset, size_t length) const;

  // Numeric view of row `row` as double (0.0 for strings).
  double NumericAt(size_t row) const;

  // Approximate heap footprint in bytes (used for cache accounting and the
  // storage-footprint experiment).
  uint64_t MemoryBytes() const;

  // Approximate heap bytes of rows [offset, offset + length) only (batch
  // accounting for slices).
  uint64_t RangeBytes(size_t offset, size_t length) const;

 private:
  DataType type_;
  std::variant<std::vector<uint8_t>,      // bool
               std::vector<int32_t>,      // int32
               std::vector<int64_t>,      // int64 / timestamp
               std::vector<double>,       // double
               std::vector<std::string>>  // string
      data_;
  // Dictionary encoding lives beside the variant: when dict_ is set the
  // column is an encoded kString column, codes_ holds one code per row and
  // the variant's string vector stays empty. Gathers, slices and appends
  // between columns sharing a dictionary move only the codes.
  std::shared_ptr<const std::vector<std::string>> dict_;
  std::vector<uint32_t> codes_;
};

}  // namespace lazyetl::storage

#endif  // LAZYETL_STORAGE_COLUMN_H_
