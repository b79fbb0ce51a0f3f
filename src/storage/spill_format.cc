#include "storage/spill_format.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/macros.h"

namespace lazyetl::storage {

namespace {

constexpr uint32_t kMagicV1 = 0x4C53504Cu;  // "LSPL"
constexpr uint32_t kMagicV2 = 0x3253504Cu;  // "LSP2"

// On-disk size of one header zone-map slot: u8 has + 8B min + 8B max.
constexpr size_t kBoundsSlotBytes = 17;

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendI64(std::string* out, int64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendDouble(std::string* out, double v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
void AppendRaw(std::string* out, const T* data, size_t count) {
  out->append(reinterpret_cast<const char*>(data), count * sizeof(T));
}

void AppendVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

Status ReadExact(const char* data, size_t size, size_t* offset, void* dst,
                 size_t bytes, const char* what) {
  if (*offset + bytes > size) {
    return Status::CorruptData(std::string("spill frame truncated in ") +
                               what);
  }
  if (bytes > 0) std::memcpy(dst, data + *offset, bytes);  // dst may be null
  *offset += bytes;
  return Status::OK();
}

Status ReadVarint(const char* data, size_t size, size_t* offset,
                  uint64_t* out) {
  uint64_t v = 0;
  uint32_t shift = 0;
  while (true) {
    if (*offset >= size || shift > 63) {
      return Status::CorruptData("spill frame truncated in varint");
    }
    uint8_t b = static_cast<uint8_t>(data[(*offset)++]);
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  *out = v;
  return Status::OK();
}

uint32_t BitsNeeded(uint64_t v) {
  return v == 0 ? 0 : 64u - static_cast<uint32_t>(__builtin_clzll(v));
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

uint64_t LowMask(uint32_t bits) {
  return bits >= 64 ? ~0ull : ((1ull << bits) - 1);
}

bool IsIntLikeType(DataType t) {
  return t == DataType::kBool || t == DataType::kInt32 ||
         t == DataType::kInt64 || t == DataType::kTimestamp;
}

bool IsNumericType(DataType t) {
  return IsIntLikeType(t) || t == DataType::kDouble;
}

// --- bit packing ------------------------------------------------------------

class BitWriter {
 public:
  explicit BitWriter(std::string* out) : out_(out) {}

  void Put(uint64_t v, uint32_t width) {
    v &= LowMask(width);
    while (width > 0) {
      uint32_t take = std::min(width, 56u);
      acc_ |= (v & LowMask(take)) << accbits_;
      accbits_ += take;
      v >>= take;
      width -= take;
      while (accbits_ >= 8) {
        out_->push_back(static_cast<char>(acc_ & 0xFF));
        acc_ >>= 8;
        accbits_ -= 8;
      }
    }
  }

  void Flush() {
    if (accbits_ > 0) {
      out_->push_back(static_cast<char>(acc_ & 0xFF));
      acc_ = 0;
      accbits_ = 0;
    }
  }

 private:
  std::string* out_;
  uint64_t acc_ = 0;
  uint32_t accbits_ = 0;  // < 8 between Put calls
};

class BitReader {
 public:
  BitReader(const char* data, size_t size)
      : p_(reinterpret_cast<const uint8_t*>(data)), end_(p_ + size) {}

  bool Get(uint32_t width, uint64_t* out) {
    uint64_t v = 0;
    uint32_t got = 0;
    while (got < width) {
      if (accbits_ == 0) {
        if (p_ == end_) return false;
        acc_ = *p_++;
        accbits_ = 8;
      }
      uint32_t take = std::min(width - got, accbits_);
      v |= (acc_ & LowMask(take)) << got;
      acc_ >>= take;
      accbits_ -= take;
      got += take;
    }
    *out = v;
    return true;
  }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
  uint64_t acc_ = 0;
  uint32_t accbits_ = 0;
};

// --- int-like codecs --------------------------------------------------------

// One analysis pass feeding codec choice and zone-map bounds.
struct IntStats {
  int64_t vmin = 0;
  int64_t vmax = 0;
  size_t runs = 0;
  uint64_t max_zig = 0;  // max zigzag(wrapping delta) between neighbours
};

IntStats AnalyzeInts(const std::vector<int64_t>& v) {
  IntStats s;
  if (v.empty()) return s;
  s.vmin = s.vmax = v[0];
  s.runs = 1;
  for (size_t i = 1; i < v.size(); ++i) {
    s.vmin = std::min(s.vmin, v[i]);
    s.vmax = std::max(s.vmax, v[i]);
    if (v[i] != v[i - 1]) ++s.runs;
    uint64_t d = static_cast<uint64_t>(v[i]) - static_cast<uint64_t>(v[i - 1]);
    s.max_zig = std::max(s.max_zig, ZigZag(static_cast<int64_t>(d)));
  }
  return s;
}

void EncodeBitPack(const std::vector<int64_t>& v, int64_t base,
                   uint32_t width, std::string* out) {
  AppendI64(out, base);
  out->push_back(static_cast<char>(width));
  BitWriter bw(out);
  for (int64_t x : v) {
    bw.Put(static_cast<uint64_t>(x) - static_cast<uint64_t>(base), width);
  }
  bw.Flush();
}

Status DecodeBitPack(const char* data, size_t size, size_t rows,
                     std::vector<int64_t>* out) {
  size_t off = 0;
  int64_t base = 0;
  uint8_t width = 0;
  LAZYETL_RETURN_NOT_OK(ReadExact(data, size, &off, &base, 8, "bitpack base"));
  LAZYETL_RETURN_NOT_OK(
      ReadExact(data, size, &off, &width, 1, "bitpack width"));
  if (width > 64) return Status::CorruptData("bad bitpack width");
  BitReader br(data + off, size - off);
  out->resize(rows);
  for (size_t i = 0; i < rows; ++i) {
    uint64_t u = 0;
    if (!br.Get(width, &u)) {
      return Status::CorruptData("truncated bitpack payload");
    }
    (*out)[i] =
        static_cast<int64_t>(u + static_cast<uint64_t>(base));
  }
  return Status::OK();
}

void EncodeRle(const std::vector<int64_t>& v, std::string* out) {
  size_t i = 0;
  while (i < v.size()) {
    size_t j = i + 1;
    while (j < v.size() && v[j] == v[i]) ++j;
    AppendU32(out, static_cast<uint32_t>(j - i));
    AppendI64(out, v[i]);
    i = j;
  }
}

Status DecodeRle(const char* data, size_t size, size_t rows,
                 std::vector<int64_t>* out) {
  size_t off = 0;
  out->clear();
  out->reserve(rows);
  while (out->size() < rows) {
    uint32_t len = 0;
    int64_t val = 0;
    LAZYETL_RETURN_NOT_OK(ReadExact(data, size, &off, &len, 4, "rle length"));
    LAZYETL_RETURN_NOT_OK(ReadExact(data, size, &off, &val, 8, "rle value"));
    if (len == 0 || out->size() + len > rows) {
      return Status::CorruptData("bad rle run length");
    }
    out->insert(out->end(), len, val);
  }
  return Status::OK();
}

void EncodeDeltaPack(const std::vector<int64_t>& v, uint32_t width,
                     std::string* out) {
  AppendI64(out, v.empty() ? 0 : v[0]);
  out->push_back(static_cast<char>(width));
  BitWriter bw(out);
  for (size_t i = 1; i < v.size(); ++i) {
    uint64_t d = static_cast<uint64_t>(v[i]) - static_cast<uint64_t>(v[i - 1]);
    bw.Put(ZigZag(static_cast<int64_t>(d)), width);
  }
  bw.Flush();
}

Status DecodeDeltaPack(const char* data, size_t size, size_t rows,
                       std::vector<int64_t>* out) {
  size_t off = 0;
  int64_t first = 0;
  uint8_t width = 0;
  LAZYETL_RETURN_NOT_OK(ReadExact(data, size, &off, &first, 8, "delta first"));
  LAZYETL_RETURN_NOT_OK(ReadExact(data, size, &off, &width, 1, "delta width"));
  if (width > 64) return Status::CorruptData("bad delta width");
  out->resize(rows);
  if (rows == 0) return Status::OK();
  (*out)[0] = first;
  BitReader br(data + off, size - off);
  for (size_t i = 1; i < rows; ++i) {
    uint64_t z = 0;
    if (!br.Get(width, &z)) {
      return Status::CorruptData("truncated delta payload");
    }
    (*out)[i] = static_cast<int64_t>(static_cast<uint64_t>((*out)[i - 1]) +
                                     static_cast<uint64_t>(UnZigZag(z)));
  }
  return Status::OK();
}

// --- double codec (Steim-style XOR delta framing) ---------------------------
//
// First value raw; each successor stores XOR with its predecessor as a
// 0..8-byte little-endian remnant, with the byte count in a control
// nibble (two per byte). Repeated and slowly-varying doubles collapse to
// near-zero bytes; bit patterns round-trip exactly (incl. NaN payloads).

void EncodeDoubleXor(const double* v, size_t n, std::string* out) {
  if (n == 0) return;
  uint64_t prev = 0;
  std::memcpy(&prev, &v[0], 8);
  AppendRaw(out, &v[0], 1);
  std::string ctrl((n - 1 + 1) / 2, '\0');
  std::string payload;
  for (size_t i = 1; i < n; ++i) {
    uint64_t cur = 0;
    std::memcpy(&cur, &v[i], 8);
    uint64_t x = cur ^ prev;
    prev = cur;
    uint32_t k = (BitsNeeded(x) + 7) / 8;
    ctrl[(i - 1) / 2] |= static_cast<char>(k << (((i - 1) % 2) * 4));
    for (uint32_t b = 0; b < k; ++b) {
      payload.push_back(static_cast<char>((x >> (8 * b)) & 0xFF));
    }
  }
  out->append(ctrl);
  out->append(payload);
}

Status DecodeDoubleXor(const char* data, size_t size, size_t rows,
                       std::vector<double>* out) {
  out->resize(rows);
  if (rows == 0) return Status::OK();
  size_t off = 0;
  uint64_t prev = 0;
  LAZYETL_RETURN_NOT_OK(ReadExact(data, size, &off, &prev, 8, "xor first"));
  std::memcpy(&(*out)[0], &prev, 8);
  const size_t ctrl_bytes = (rows - 1 + 1) / 2;
  if (off + ctrl_bytes > size) {
    return Status::CorruptData("truncated xor control block");
  }
  const uint8_t* ctrl = reinterpret_cast<const uint8_t*>(data + off);
  off += ctrl_bytes;
  for (size_t i = 1; i < rows; ++i) {
    uint32_t k = (ctrl[(i - 1) / 2] >> (((i - 1) % 2) * 4)) & 0x0F;
    if (k > 8 || off + k > size) {
      return Status::CorruptData("truncated xor payload");
    }
    uint64_t x = 0;
    for (uint32_t b = 0; b < k; ++b) {
      x |= static_cast<uint64_t>(static_cast<uint8_t>(data[off + b]))
           << (8 * b);
    }
    off += k;
    prev ^= x;
    std::memcpy(&(*out)[i], &prev, 8);
  }
  return Status::OK();
}

// --- string codecs ----------------------------------------------------------

void EncodeStrRaw(const Column& col, size_t offset, size_t rows,
                  std::string* out) {
  for (size_t r = 0; r < rows; ++r) {
    const std::string& s = col.StringAt(offset + r);
    AppendU32(out, static_cast<uint32_t>(s.size()));
    out->append(s);
  }
}

// Shared-prefix + varint-length packing: the frame's longest common
// prefix is stored once, each row stores only its suffix.
void EncodeStrPack(const Column& col, size_t offset, size_t rows,
                   std::string* out) {
  size_t lcp = rows > 0 ? col.StringAt(offset).size() : 0;
  for (size_t r = 1; r < rows && lcp > 0; ++r) {
    const std::string& s = col.StringAt(offset + r);
    const std::string& first = col.StringAt(offset);
    size_t m = std::min(lcp, s.size());
    size_t i = 0;
    while (i < m && s[i] == first[i]) ++i;
    lcp = i;
  }
  AppendVarint(out, lcp);
  if (rows > 0) out->append(col.StringAt(offset).data(), lcp);
  for (size_t r = 0; r < rows; ++r) {
    const std::string& s = col.StringAt(offset + r);
    AppendVarint(out, s.size() - lcp);
    out->append(s.data() + lcp, s.size() - lcp);
  }
}

Status DecodeStrPack(const char* data, size_t size, size_t rows,
                     std::vector<std::string>* out) {
  size_t off = 0;
  uint64_t lcp = 0;
  LAZYETL_RETURN_NOT_OK(ReadVarint(data, size, &off, &lcp));
  if (off + lcp > size) return Status::CorruptData("truncated string prefix");
  std::string prefix(data + off, lcp);
  off += lcp;
  out->clear();
  out->reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    uint64_t len = 0;
    LAZYETL_RETURN_NOT_OK(ReadVarint(data, size, &off, &len));
    if (off + len > size) return Status::CorruptData("truncated string data");
    std::string s = prefix;
    s.append(data + off, len);
    off += len;
    out->push_back(std::move(s));
  }
  return Status::OK();
}

// Per-frame dictionary over the codes actually used, bit-packed codes.
// Only applies to columns that are already dictionary-encoded in memory.
void EncodeStrDict(const Column& col, size_t offset, size_t rows,
                   std::string* out) {
  const auto& dict = *col.dictionary();
  const auto& codes = col.dict_codes();
  std::vector<uint32_t> remap(dict.size(), UINT32_MAX);
  std::vector<uint32_t> used;
  for (size_t r = 0; r < rows; ++r) {
    uint32_t code = codes[offset + r];
    if (remap[code] == UINT32_MAX) {
      remap[code] = static_cast<uint32_t>(used.size());
      used.push_back(code);
    }
  }
  AppendU32(out, static_cast<uint32_t>(used.size()));
  for (uint32_t code : used) {
    AppendVarint(out, dict[code].size());
    out->append(dict[code]);
  }
  uint32_t width =
      used.empty() ? 0 : BitsNeeded(static_cast<uint64_t>(used.size() - 1));
  out->push_back(static_cast<char>(width));
  BitWriter bw(out);
  for (size_t r = 0; r < rows; ++r) bw.Put(remap[codes[offset + r]], width);
  bw.Flush();
}

Status DecodeStrDict(const char* data, size_t size, size_t rows,
                     std::vector<std::string>* out) {
  size_t off = 0;
  uint32_t dict_n = 0;
  LAZYETL_RETURN_NOT_OK(ReadExact(data, size, &off, &dict_n, 4, "dict size"));
  std::vector<std::string> entries;
  entries.reserve(dict_n);
  for (uint32_t i = 0; i < dict_n; ++i) {
    uint64_t len = 0;
    LAZYETL_RETURN_NOT_OK(ReadVarint(data, size, &off, &len));
    if (off + len > size) return Status::CorruptData("truncated dict entry");
    entries.emplace_back(data + off, len);
    off += len;
  }
  uint8_t width = 0;
  LAZYETL_RETURN_NOT_OK(ReadExact(data, size, &off, &width, 1, "dict width"));
  if (width > 32) return Status::CorruptData("bad dict code width");
  BitReader br(data + off, size - off);
  out->clear();
  out->reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    uint64_t code = 0;
    if (!br.Get(width, &code)) {
      return Status::CorruptData("truncated dict codes");
    }
    if (code >= entries.size()) return Status::CorruptData("bad dict code");
    out->push_back(entries[code]);
  }
  return Status::OK();
}

// --- per-column frame encoding ----------------------------------------------

// v1-equivalent (uncompressed) byte size of the column range — the
// engine's logical spill volume.
uint64_t RawColumnBytes(const Column& col, size_t offset, size_t rows) {
  switch (col.type()) {
    case DataType::kBool:
      return rows;
    case DataType::kInt32:
      return rows * 4;
    case DataType::kInt64:
    case DataType::kTimestamp:
    case DataType::kDouble:
      return rows * 8;
    case DataType::kString: {
      uint64_t total = 0;
      for (size_t r = 0; r < rows; ++r) {
        total += 4 + col.StringAt(offset + r).size();
      }
      return total;
    }
  }
  return 0;
}

void GatherInt64(const Column& col, size_t offset, size_t rows,
                 std::vector<int64_t>* out) {
  out->resize(rows);
  switch (col.type()) {
    case DataType::kBool: {
      const auto& v = col.bool_data();
      for (size_t r = 0; r < rows; ++r) (*out)[r] = v[offset + r];
      break;
    }
    case DataType::kInt32: {
      const auto& v = col.int32_data();
      for (size_t r = 0; r < rows; ++r) (*out)[r] = v[offset + r];
      break;
    }
    default: {
      const auto& v = col.int64_data();
      for (size_t r = 0; r < rows; ++r) (*out)[r] = v[offset + r];
      break;
    }
  }
}

void EncodeIntColumn(const Column& col, size_t offset, size_t rows,
                     SpillCompression mode, SpillCodec* codec,
                     std::string* payload, SpillColumnBounds* bounds) {
  std::vector<int64_t> vals;
  GatherInt64(col, offset, rows, &vals);
  IntStats st = AnalyzeInts(vals);
  if (rows > 0) {
    bounds->has_bounds = true;
    bounds->imin = st.vmin;
    bounds->imax = st.vmax;
  }
  const uint64_t elem = col.type() == DataType::kBool     ? 1
                        : col.type() == DataType::kInt32 ? 4
                                                         : 8;
  const uint64_t raw_cost = rows * elem;
  const uint32_t w_bp = BitsNeeded(static_cast<uint64_t>(st.vmax) -
                                   static_cast<uint64_t>(st.vmin));
  const uint64_t bp_cost = 9 + (rows * w_bp + 7) / 8;
  const uint64_t rle_cost = st.runs * 12;
  const uint32_t w_dp = BitsNeeded(st.max_zig);
  const uint64_t dp_cost =
      9 + ((rows > 0 ? rows - 1 : 0) * w_dp + 7) / 8;

  SpillCodec best = SpillCodec::kBitPack;
  uint64_t best_cost = bp_cost;
  if (rows > 0 && rle_cost < best_cost) {
    best = SpillCodec::kRle;
    best_cost = rle_cost;
  }
  if (rows > 0 && dp_cost < best_cost) {
    best = SpillCodec::kDeltaPack;
    best_cost = dp_cost;
  }
  if (mode == SpillCompression::kAuto && raw_cost <= best_cost) {
    best = SpillCodec::kRaw;
  }
  *codec = best;
  switch (best) {
    case SpillCodec::kRaw:
      switch (col.type()) {
        case DataType::kBool:
          AppendRaw(payload, col.bool_data().data() + offset, rows);
          break;
        case DataType::kInt32:
          AppendRaw(payload, col.int32_data().data() + offset, rows);
          break;
        default:
          AppendRaw(payload, col.int64_data().data() + offset, rows);
          break;
      }
      break;
    case SpillCodec::kRle:
      EncodeRle(vals, payload);
      break;
    case SpillCodec::kDeltaPack:
      EncodeDeltaPack(vals, w_dp, payload);
      break;
    default:
      EncodeBitPack(vals, st.vmin, w_bp, payload);
      break;
  }
}

void EncodeDoubleColumn(const Column& col, size_t offset, size_t rows,
                        SpillCompression mode, SpillCodec* codec,
                        std::string* payload, SpillColumnBounds* bounds) {
  const double* v = col.double_data().data() + offset;
  bool any_nan = false;
  double dmin = 0, dmax = 0;
  for (size_t r = 0; r < rows; ++r) {
    if (std::isnan(v[r])) {
      any_nan = true;
      break;
    }
    if (r == 0 || v[r] < dmin) dmin = v[r];
    if (r == 0 || v[r] > dmax) dmax = v[r];
  }
  if (rows > 0 && !any_nan) {
    bounds->has_bounds = true;
    bounds->dmin = dmin;
    bounds->dmax = dmax;
  }
  std::string xored;
  EncodeDoubleXor(v, rows, &xored);
  if (rows > 0 &&
      (mode == SpillCompression::kForce || xored.size() < rows * 8)) {
    *codec = SpillCodec::kDoubleXor;
    payload->append(xored);
  } else {
    *codec = SpillCodec::kRaw;
    AppendRaw(payload, v, rows);
  }
}

void EncodeStringColumn(const Column& col, size_t offset, size_t rows,
                        SpillCompression mode, SpillCodec* codec,
                        std::string* payload) {
  std::string packed;
  EncodeStrPack(col, offset, rows, &packed);
  std::string dicted;
  if (col.dict_encoded()) EncodeStrDict(col, offset, rows, &dicted);

  uint64_t raw_cost = RawColumnBytes(col, offset, rows);
  SpillCodec best = SpillCodec::kStrPack;
  const std::string* best_payload = &packed;
  if (col.dict_encoded() && dicted.size() < packed.size()) {
    best = SpillCodec::kStrDict;
    best_payload = &dicted;
  }
  if (mode == SpillCompression::kAuto && raw_cost <= best_payload->size()) {
    *codec = SpillCodec::kRaw;
    EncodeStrRaw(col, offset, rows, payload);
    return;
  }
  *codec = best;
  payload->append(*best_payload);
}

// Encodes one v2 frame of `slice` onto `out`; fills per-column bounds and
// adds the v1-equivalent size to *logical_bytes.
void EncodeFrameV2(const TableSlice& slice, SpillCompression mode,
                   std::string* out,
                   std::vector<SpillColumnBounds>* bounds_out,
                   uint64_t* logical_bytes) {
  const size_t rows = slice.num_rows();
  const size_t offset = slice.offset();
  const size_t ncols = slice.num_columns();
  bounds_out->assign(ncols, SpillColumnBounds{});
  std::vector<SpillCodec> codecs(ncols, SpillCodec::kRaw);
  std::vector<std::string> payloads(ncols);
  *logical_bytes += 4;  // v1 row-count word

  for (size_t c = 0; c < ncols; ++c) {
    const Column& col = slice.column(c);
    *logical_bytes += RawColumnBytes(col, offset, rows);
    if (IsIntLikeType(col.type())) {
      EncodeIntColumn(col, offset, rows, mode, &codecs[c], &payloads[c],
                      &(*bounds_out)[c]);
    } else if (col.type() == DataType::kDouble) {
      EncodeDoubleColumn(col, offset, rows, mode, &codecs[c], &payloads[c],
                         &(*bounds_out)[c]);
    } else {
      EncodeStringColumn(col, offset, rows, mode, &codecs[c], &payloads[c]);
    }
  }

  // Duplicate columns (identical type + encoding) collapse to a 4-byte
  // back-reference — aggregate state tables often carry byte-identical
  // counters (e.g. COUNT(*) next to SUM's count).
  for (size_t c = 1; c < ncols; ++c) {
    for (size_t p = 0; p < c; ++p) {
      if (codecs[p] == SpillCodec::kDupCol) continue;
      if (slice.column(p).type() != slice.column(c).type()) continue;
      if (codecs[p] != codecs[c] || payloads[p] != payloads[c]) continue;
      codecs[c] = SpillCodec::kDupCol;
      payloads[c].clear();
      AppendU32(&payloads[c], static_cast<uint32_t>(p));
      break;
    }
  }

  std::string body;
  for (size_t c = 0; c < ncols; ++c) {
    body.push_back(static_cast<char>(codecs[c]));
    DataType t = slice.column(c).type();
    if (IsNumericType(t)) {
      const SpillColumnBounds& b = (*bounds_out)[c];
      body.push_back(b.has_bounds ? '\1' : '\0');
      if (t == DataType::kDouble) {
        AppendDouble(&body, b.dmin);
        AppendDouble(&body, b.dmax);
      } else {
        AppendI64(&body, b.imin);
        AppendI64(&body, b.imax);
      }
    }
    AppendU32(&body, static_cast<uint32_t>(payloads[c].size()));
    body.append(payloads[c]);
  }
  AppendU32(out, static_cast<uint32_t>(rows));
  AppendU32(out, static_cast<uint32_t>(body.size()));
  out->append(body);
}

Status DecodeIntPayload(const char* data, size_t size, SpillCodec codec,
                        size_t rows, DataType type, Column* out) {
  if (codec == SpillCodec::kRaw) {
    size_t off = 0;
    switch (type) {
      case DataType::kBool: {
        std::vector<uint8_t> v(rows);
        LAZYETL_RETURN_NOT_OK(
            ReadExact(data, size, &off, v.data(), rows, "bool column"));
        *out = Column::FromBool(std::move(v));
        return Status::OK();
      }
      case DataType::kInt32: {
        std::vector<int32_t> v(rows);
        LAZYETL_RETURN_NOT_OK(ReadExact(data, size, &off, v.data(), rows * 4,
                                        "int32 column"));
        *out = Column::FromInt32(std::move(v));
        return Status::OK();
      }
      default: {
        std::vector<int64_t> v(rows);
        LAZYETL_RETURN_NOT_OK(ReadExact(data, size, &off, v.data(), rows * 8,
                                        "int64 column"));
        *out = type == DataType::kTimestamp
                   ? Column::FromTimestamp(std::move(v))
                   : Column::FromInt64(std::move(v));
        return Status::OK();
      }
    }
  }
  std::vector<int64_t> vals;
  switch (codec) {
    case SpillCodec::kRle:
      LAZYETL_RETURN_NOT_OK(DecodeRle(data, size, rows, &vals));
      break;
    case SpillCodec::kBitPack:
      LAZYETL_RETURN_NOT_OK(DecodeBitPack(data, size, rows, &vals));
      break;
    case SpillCodec::kDeltaPack:
      LAZYETL_RETURN_NOT_OK(DecodeDeltaPack(data, size, rows, &vals));
      break;
    default:
      return Status::CorruptData("bad int column codec");
  }
  switch (type) {
    case DataType::kBool: {
      std::vector<uint8_t> v(rows);
      for (size_t i = 0; i < rows; ++i) v[i] = static_cast<uint8_t>(vals[i]);
      *out = Column::FromBool(std::move(v));
      break;
    }
    case DataType::kInt32: {
      std::vector<int32_t> v(rows);
      for (size_t i = 0; i < rows; ++i) v[i] = static_cast<int32_t>(vals[i]);
      *out = Column::FromInt32(std::move(v));
      break;
    }
    default:
      *out = type == DataType::kTimestamp
                 ? Column::FromTimestamp(std::move(vals))
                 : Column::FromInt64(std::move(vals));
      break;
  }
  return Status::OK();
}

Status DecodeColumnV2(const char* data, size_t size, SpillCodec codec,
                      size_t rows, DataType type, Column* out) {
  switch (type) {
    case DataType::kDouble: {
      if (codec == SpillCodec::kRaw) {
        std::vector<double> v(rows);
        size_t off = 0;
        LAZYETL_RETURN_NOT_OK(ReadExact(data, size, &off, v.data(), rows * 8,
                                        "double column"));
        *out = Column::FromDouble(std::move(v));
        return Status::OK();
      }
      if (codec != SpillCodec::kDoubleXor) {
        return Status::CorruptData("bad double column codec");
      }
      std::vector<double> v;
      LAZYETL_RETURN_NOT_OK(DecodeDoubleXor(data, size, rows, &v));
      *out = Column::FromDouble(std::move(v));
      return Status::OK();
    }
    case DataType::kString: {
      std::vector<std::string> v;
      if (codec == SpillCodec::kRaw) {
        size_t off = 0;
        v.reserve(rows);
        for (size_t r = 0; r < rows; ++r) {
          uint32_t len = 0;
          LAZYETL_RETURN_NOT_OK(
              ReadExact(data, size, &off, &len, 4, "string length"));
          if (off + len > size) {
            return Status::CorruptData("spill frame truncated in string");
          }
          v.emplace_back(data + off, len);
          off += len;
        }
      } else if (codec == SpillCodec::kStrPack) {
        LAZYETL_RETURN_NOT_OK(DecodeStrPack(data, size, rows, &v));
      } else if (codec == SpillCodec::kStrDict) {
        LAZYETL_RETURN_NOT_OK(DecodeStrDict(data, size, rows, &v));
      } else {
        return Status::CorruptData("bad string column codec");
      }
      *out = Column::FromString(std::move(v));
      return Status::OK();
    }
    default:
      return DecodeIntPayload(data, size, codec, rows, type, out);
  }
}

// Decodes the body of one v2 frame (after the rows/body-size words).
Status DecodeFrameV2(const char* data, size_t size, uint32_t rows,
                     const SpillRunHeader& header, Table* out,
                     std::vector<SpillColumnBounds>* frame_bounds) {
  size_t off = 0;
  Table result;
  std::vector<Column> decoded;
  frame_bounds->assign(header.types.size(), SpillColumnBounds{});
  for (size_t c = 0; c < header.types.size(); ++c) {
    uint8_t codec_byte = 0;
    LAZYETL_RETURN_NOT_OK(
        ReadExact(data, size, &off, &codec_byte, 1, "column codec"));
    SpillCodec codec = static_cast<SpillCodec>(codec_byte);
    DataType type = header.types[c];
    if (IsNumericType(type)) {
      uint8_t has = 0;
      LAZYETL_RETURN_NOT_OK(
          ReadExact(data, size, &off, &has, 1, "bounds flag"));
      SpillColumnBounds& b = (*frame_bounds)[c];
      b.has_bounds = has != 0;
      if (type == DataType::kDouble) {
        LAZYETL_RETURN_NOT_OK(
            ReadExact(data, size, &off, &b.dmin, 8, "bounds min"));
        LAZYETL_RETURN_NOT_OK(
            ReadExact(data, size, &off, &b.dmax, 8, "bounds max"));
      } else {
        LAZYETL_RETURN_NOT_OK(
            ReadExact(data, size, &off, &b.imin, 8, "bounds min"));
        LAZYETL_RETURN_NOT_OK(
            ReadExact(data, size, &off, &b.imax, 8, "bounds max"));
      }
    }
    uint32_t psize = 0;
    LAZYETL_RETURN_NOT_OK(
        ReadExact(data, size, &off, &psize, 4, "payload size"));
    if (off + psize > size) {
      return Status::CorruptData("spill frame truncated in payload");
    }
    Column col(type);
    if (codec == SpillCodec::kDupCol) {
      uint32_t src = 0;
      size_t poff = off;
      LAZYETL_RETURN_NOT_OK(
          ReadExact(data, size, &poff, &src, 4, "dup column index"));
      if (src >= decoded.size()) {
        return Status::CorruptData("bad dup column reference");
      }
      col = decoded[src];
    } else {
      LAZYETL_RETURN_NOT_OK(
          DecodeColumnV2(data + off, psize, codec, rows, type, &col));
    }
    off += psize;
    decoded.push_back(col);
    LAZYETL_RETURN_NOT_OK(result.AddColumn(header.names[c], std::move(col)));
  }
  *out = std::move(result);
  return Status::OK();
}

// --- header parsing ---------------------------------------------------------

Status ParseHeader(std::istream& in, const std::string& path,
                   SpillRunHeader* out) {
  uint32_t magic = 0;
  uint32_t cols = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&cols), sizeof(cols));
  if (!in.good() || (magic != kMagicV1 && magic != kMagicV2)) {
    return Status::CorruptData("bad spill file header in " + path);
  }
  out->version = magic == kMagicV2 ? 2 : 1;
  out->schema.clear();
  out->types.clear();
  out->names.clear();
  out->bounds.clear();
  for (uint32_t c = 0; c < cols; ++c) {
    uint32_t len = 0;
    in.read(reinterpret_cast<char*>(&len), sizeof(len));
    std::string name(len, '\0');
    in.read(name.data(), len);
    char type = 0;
    in.read(&type, 1);
    if (!in.good()) {
      return Status::CorruptData("truncated spill schema in " + path);
    }
    out->schema.push_back({name, static_cast<DataType>(type)});
    out->types.push_back(static_cast<DataType>(type));
    out->names.push_back(std::move(name));
  }
  if (out->version == 2) {
    for (uint32_t c = 0; c < cols; ++c) {
      uint8_t has = 0;
      char raw[16];
      in.read(reinterpret_cast<char*>(&has), 1);
      in.read(raw, 16);
      if (!in.good()) {
        return Status::CorruptData("truncated spill zone map in " + path);
      }
      SpillColumnBounds b;
      b.has_bounds = has != 0;
      if (out->types[c] == DataType::kDouble) {
        std::memcpy(&b.dmin, raw, 8);
        std::memcpy(&b.dmax, raw + 8, 8);
      } else {
        std::memcpy(&b.imin, raw, 8);
        std::memcpy(&b.imax, raw + 8, 8);
      }
      out->bounds.push_back(b);
    }
  }
  out->data_offset = static_cast<uint64_t>(in.tellg());
  return Status::OK();
}

}  // namespace

SpillCompression ResolveSpillCompression() {
  const char* env = std::getenv("LAZYETL_SPILL_COMPRESSION");
  if (env == nullptr) return SpillCompression::kAuto;
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0) {
    return SpillCompression::kOff;
  }
  if (std::strcmp(env, "force") == 0) return SpillCompression::kForce;
  return SpillCompression::kAuto;
}

Status ReadSpillHeader(const std::string& path, SpillRunHeader* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open spill file " + path);
  }
  return ParseHeader(in, path, out);
}

void SerializeSlice(const TableSlice& slice, std::string* out) {
  const size_t rows = slice.num_rows();
  const size_t offset = slice.offset();
  AppendU32(out, static_cast<uint32_t>(rows));
  for (size_t c = 0; c < slice.num_columns(); ++c) {
    const Column& col = slice.column(c);
    switch (col.type()) {
      case DataType::kBool:
        AppendRaw(out, col.bool_data().data() + offset, rows);
        break;
      case DataType::kInt32:
        AppendRaw(out, col.int32_data().data() + offset, rows);
        break;
      case DataType::kInt64:
      case DataType::kTimestamp:
        AppendRaw(out, col.int64_data().data() + offset, rows);
        break;
      case DataType::kDouble:
        AppendRaw(out, col.double_data().data() + offset, rows);
        break;
      case DataType::kString: {
        EncodeStrRaw(col, offset, rows, out);
        break;
      }
    }
  }
}

Status DeserializeBatch(const char* data, size_t size, size_t* offset,
                        const std::vector<DataType>& types,
                        const std::vector<std::string>& names, Table* out) {
  uint32_t rows = 0;
  LAZYETL_RETURN_NOT_OK(
      ReadExact(data, size, offset, &rows, sizeof(rows), "row count"));
  Table result;
  for (size_t c = 0; c < types.size(); ++c) {
    Column col(types[c]);
    switch (types[c]) {
      case DataType::kBool: {
        std::vector<uint8_t> v(rows);
        LAZYETL_RETURN_NOT_OK(
            ReadExact(data, size, offset, v.data(), rows, "bool column"));
        col = Column::FromBool(std::move(v));
        break;
      }
      case DataType::kInt32: {
        std::vector<int32_t> v(rows);
        LAZYETL_RETURN_NOT_OK(ReadExact(data, size, offset, v.data(),
                                        rows * sizeof(int32_t),
                                        "int32 column"));
        col = Column::FromInt32(std::move(v));
        break;
      }
      case DataType::kInt64:
      case DataType::kTimestamp: {
        std::vector<int64_t> v(rows);
        LAZYETL_RETURN_NOT_OK(ReadExact(data, size, offset, v.data(),
                                        rows * sizeof(int64_t),
                                        "int64 column"));
        col = types[c] == DataType::kInt64
                  ? Column::FromInt64(std::move(v))
                  : Column::FromTimestamp(std::move(v));
        break;
      }
      case DataType::kDouble: {
        std::vector<double> v(rows);
        LAZYETL_RETURN_NOT_OK(ReadExact(data, size, offset, v.data(),
                                        rows * sizeof(double),
                                        "double column"));
        col = Column::FromDouble(std::move(v));
        break;
      }
      case DataType::kString: {
        std::vector<std::string> v;
        v.reserve(rows);
        for (uint32_t r = 0; r < rows; ++r) {
          uint32_t len = 0;
          LAZYETL_RETURN_NOT_OK(ReadExact(data, size, offset, &len,
                                          sizeof(len), "string length"));
          if (*offset + len > size) {
            return Status::CorruptData("spill frame truncated in string");
          }
          v.emplace_back(data + *offset, len);
          *offset += len;
        }
        col = Column::FromString(std::move(v));
        break;
      }
    }
    LAZYETL_RETURN_NOT_OK(result.AddColumn(names[c], std::move(col)));
  }
  *out = std::move(result);
  return Status::OK();
}

// --- SpillWriter ------------------------------------------------------------

Status SpillWriter::Open(const std::string& path, const TableSchema& schema) {
  path_ = path;
  bytes_written_ = 0;
  logical_bytes_ = 0;
  rows_written_ = 0;
  any_frames_ = false;
  mode_ = ResolveSpillCompression();
  types_.clear();
  for (const ColumnSchema& col : schema) types_.push_back(col.type);
  run_bounds_.assign(schema.size(), SpillColumnBounds{});
  bounds_valid_.assign(schema.size(), 1);
  async_.reset();
  if (out_.is_open()) out_.close();
  out_.clear();

  if (common::AsyncRunWriter::Enabled()) {
    async_ = std::make_unique<common::AsyncRunWriter>();
    LAZYETL_RETURN_NOT_OK(async_->Open(path));
  } else {
    out_.open(path, std::ios::binary | std::ios::trunc);
    if (!out_.is_open()) {
      return Status::IOError("cannot open spill file " + path +
                             " for writing");
    }
  }

  pending_.clear();
  AppendU32(&pending_,
            mode_ == SpillCompression::kOff ? kMagicV1 : kMagicV2);
  AppendU32(&pending_, static_cast<uint32_t>(schema.size()));
  for (const ColumnSchema& col : schema) {
    AppendU32(&pending_, static_cast<uint32_t>(col.name.size()));
    pending_.append(col.name);
    pending_.push_back(static_cast<char>(col.type));
  }
  bounds_offset_ = pending_.size();
  if (mode_ != SpillCompression::kOff) {
    // Zone-map slots, zero now, backpatched with run bounds at Finish.
    pending_.append(schema.size() * kBoundsSlotBytes, '\0');
  }
  return Status::OK();
}

Status SpillWriter::FlushPending() {
  if (pending_.empty()) return Status::OK();
  if (async_ != nullptr) {
    LAZYETL_RETURN_NOT_OK(async_->Write(std::move(pending_)));
    pending_ = std::string();
    return Status::OK();
  }
  out_.write(pending_.data(), static_cast<std::streamsize>(pending_.size()));
  if (!out_.good()) return Status::IOError("failed writing to " + path_);
  pending_.clear();
  return Status::OK();
}

Status SpillWriter::Append(const TableSlice& slice) {
  size_t before = pending_.size();
  if (mode_ == SpillCompression::kOff) {
    SerializeSlice(slice, &pending_);
    logical_bytes_ += pending_.size() - before;
  } else {
    std::vector<SpillColumnBounds> frame_bounds;
    EncodeFrameV2(slice, mode_, &pending_, &frame_bounds, &logical_bytes_);
    if (slice.num_rows() > 0) {
      for (size_t c = 0; c < frame_bounds.size(); ++c) {
        if (!bounds_valid_[c]) continue;
        if (!IsNumericType(types_[c])) continue;
        const SpillColumnBounds& fb = frame_bounds[c];
        if (!fb.has_bounds) {
          bounds_valid_[c] = 0;
          run_bounds_[c].has_bounds = false;
          continue;
        }
        SpillColumnBounds& rb = run_bounds_[c];
        if (!rb.has_bounds) {
          rb = fb;
        } else if (types_[c] == DataType::kDouble) {
          rb.dmin = std::min(rb.dmin, fb.dmin);
          rb.dmax = std::max(rb.dmax, fb.dmax);
        } else {
          rb.imin = std::min(rb.imin, fb.imin);
          rb.imax = std::max(rb.imax, fb.imax);
        }
      }
      any_frames_ = true;
    }
  }
  bytes_written_ += pending_.size() - before;
  rows_written_ += slice.num_rows();
  if (pending_.size() >= kWriteChunkBytes) return FlushPending();
  return Status::OK();
}

Status SpillWriter::BackpatchBounds() {
  bool any = false;
  for (const SpillColumnBounds& b : run_bounds_) any = any || b.has_bounds;
  if (!any) return Status::OK();
  std::string block;
  for (size_t c = 0; c < run_bounds_.size(); ++c) {
    const SpillColumnBounds& b = run_bounds_[c];
    block.push_back(b.has_bounds ? '\1' : '\0');
    if (types_[c] == DataType::kDouble) {
      AppendDouble(&block, b.dmin);
      AppendDouble(&block, b.dmax);
    } else {
      AppendI64(&block, b.imin);
      AppendI64(&block, b.imax);
    }
  }
  std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
  if (!f.is_open()) {
    return Status::IOError("cannot reopen spill file " + path_ +
                           " for zone-map backpatch");
  }
  f.seekp(static_cast<std::streamoff>(bounds_offset_));
  f.write(block.data(), static_cast<std::streamsize>(block.size()));
  f.flush();
  bool ok = f.good();
  f.close();
  if (!ok) return Status::IOError("failed backpatching " + path_);
  return Status::OK();
}

Status SpillWriter::Finish() {
  if (async_ == nullptr && !out_.is_open()) return Status::OK();
  LAZYETL_RETURN_NOT_OK(FlushPending());
  if (async_ != nullptr) {
    Status st = async_->Finish();
    if (!st.ok()) return st;
  } else {
    out_.flush();
    bool ok = out_.good();
    out_.close();
    if (!ok) return Status::IOError("failed flushing spill file " + path_);
  }
  if (mode_ != SpillCompression::kOff && any_frames_) {
    LAZYETL_RETURN_NOT_OK(BackpatchBounds());
  }
  return Status::OK();
}

double SpillWriter::write_wait_seconds() const {
  return async_ != nullptr ? async_->write_wait_seconds() : 0.0;
}

// --- SpillReader ------------------------------------------------------------

Status SpillReader::Open(const std::string& path,
                         const SpillRunHeader* cached) {
  path_ = path;
  read_buf_.resize(64 * 1024);
  in_.rdbuf()->pubsetbuf(read_buf_.data(),
                         static_cast<std::streamsize>(read_buf_.size()));
  in_.open(path, std::ios::binary);
  if (!in_.is_open()) {
    return Status::IOError("cannot open spill file " + path);
  }
  frame_bounds_.clear();
  if (cached != nullptr) {
    header_ = *cached;
    in_.seekg(static_cast<std::streamoff>(header_.data_offset));
    if (!in_.good()) {
      return Status::CorruptData("bad cached header offset for " + path);
    }
    return Status::OK();
  }
  return ParseHeader(in_, path, &header_);
}

Result<bool> SpillReader::Next(Table* out) {
  return header_.version == 2 ? NextV2(out) : NextV1(out);
}

Result<bool> SpillReader::NextV1(Table* out) {
  uint32_t rows = 0;
  in_.read(reinterpret_cast<char*>(&rows), sizeof(rows));
  if (in_.eof() && in_.gcount() == 0) return false;  // clean end of run
  if (in_.gcount() != sizeof(rows)) {
    return Status::CorruptData("truncated frame header in " + path_);
  }

  // Decode the frame through the shared parser: re-assemble the frame
  // bytes (row count + payload) in the reusable buffer. The payload size
  // of fixed-width columns is known; strings are read incrementally.
  buffer_.clear();
  AppendU32(&buffer_, rows);
  for (DataType type : header_.types) {
    size_t fixed = 0;
    switch (type) {
      case DataType::kBool:
        fixed = rows;
        break;
      case DataType::kInt32:
        fixed = rows * sizeof(int32_t);
        break;
      case DataType::kInt64:
      case DataType::kTimestamp:
        fixed = rows * sizeof(int64_t);
        break;
      case DataType::kDouble:
        fixed = rows * sizeof(double);
        break;
      case DataType::kString: {
        for (uint32_t r = 0; r < rows; ++r) {
          uint32_t len = 0;
          in_.read(reinterpret_cast<char*>(&len), sizeof(len));
          if (in_.gcount() != sizeof(len)) {
            return Status::CorruptData("truncated string length in " + path_);
          }
          size_t at = buffer_.size();
          buffer_.resize(at + sizeof(len) + len);
          std::memcpy(buffer_.data() + at, &len, sizeof(len));
          in_.read(buffer_.data() + at + sizeof(len), len);
          if (in_.gcount() != static_cast<std::streamsize>(len)) {
            return Status::CorruptData("truncated string data in " + path_);
          }
        }
        continue;
      }
    }
    size_t at = buffer_.size();
    buffer_.resize(at + fixed);
    in_.read(buffer_.data() + at, static_cast<std::streamsize>(fixed));
    if (in_.gcount() != static_cast<std::streamsize>(fixed)) {
      return Status::CorruptData("truncated column data in " + path_);
    }
  }

  size_t offset = 0;
  LAZYETL_RETURN_NOT_OK(DeserializeBatch(buffer_.data(), buffer_.size(),
                                         &offset, header_.types,
                                         header_.names, out));
  return true;
}

Result<bool> SpillReader::NextV2(Table* out) {
  uint32_t rows = 0;
  in_.read(reinterpret_cast<char*>(&rows), sizeof(rows));
  if (in_.eof() && in_.gcount() == 0) return false;  // clean end of run
  if (in_.gcount() != sizeof(rows)) {
    return Status::CorruptData("truncated frame header in " + path_);
  }
  uint32_t body = 0;
  in_.read(reinterpret_cast<char*>(&body), sizeof(body));
  if (in_.gcount() != sizeof(body)) {
    return Status::CorruptData("truncated frame body size in " + path_);
  }
  buffer_.resize(body);
  in_.read(buffer_.data(), static_cast<std::streamsize>(body));
  if (in_.gcount() != static_cast<std::streamsize>(body)) {
    return Status::CorruptData("truncated frame body in " + path_);
  }
  LAZYETL_RETURN_NOT_OK(
      DecodeFrameV2(buffer_.data(), body, rows, header_, out,
                    &frame_bounds_));
  return true;
}

}  // namespace lazyetl::storage
