#include "mseed/steim.h"

#include <cstring>
#include <string>

#include "common/byte_io.h"

namespace lazyetl::mseed {
namespace {

// Two-bit nibble codes stored in word 0 of each frame.
enum Nibble : uint32_t {
  kNibbleSpecial = 0,  // frame header, X0, Xn, or padding word
  kNibbleBytes = 1,    // four 8-bit differences (both Steim-1 and Steim-2)
  kNibble2 = 2,        // Steim-1: two 16-bit; Steim-2: dnib-selected
  kNibble3 = 3,        // Steim-1: one 32-bit; Steim-2: dnib-selected
};

// True iff v fits a `bits`-wide two's-complement field.
inline bool Fits(int64_t v, int bits) {
  const int64_t lo = -(int64_t{1} << (bits - 1));
  const int64_t hi = (int64_t{1} << (bits - 1)) - 1;
  return v >= lo && v <= hi;
}

// Computes the wrapped 32-bit first-order differences of `samples`.
std::vector<int32_t> Differences(const std::vector<int32_t>& samples,
                                 int32_t prev_sample) {
  std::vector<int32_t> diffs(samples.size());
  uint32_t prev = static_cast<uint32_t>(prev_sample);
  for (size_t i = 0; i < samples.size(); ++i) {
    uint32_t cur = static_cast<uint32_t>(samples[i]);
    diffs[i] = static_cast<int32_t>(cur - prev);
    prev = cur;
  }
  return diffs;
}

// Incremental frame writer: appends words with their nibble codes, opening
// new frames as needed, up to max_frames. Frame 0 reserves words 1-2 for the
// integration constants.
class FrameBuilder {
 public:
  explicit FrameBuilder(size_t max_frames) : max_frames_(max_frames) {}

  // Returns false if the frame budget is exhausted.
  bool Append(uint32_t word, uint32_t nibble) {
    if (word_index_ == kWordsPerFrame || frames_.empty()) {
      if (NumFrames() >= max_frames_) return false;
      OpenFrame();
    }
    SetNibble(word_index_, nibble);
    WriteBE32(CurrentFrame() + word_index_ * 4, word);
    ++word_index_;
    return true;
  }

  // True if at least one more data word can be appended.
  bool HasSpace() const {
    return word_index_ < kWordsPerFrame || NumFrames() < max_frames_;
  }

  void PatchIntegrationConstants(int32_t x0, int32_t xn) {
    WriteBE32s(frames_.data() + 4, x0);
    WriteBE32s(frames_.data() + 8, xn);
  }

  std::vector<uint8_t> TakeFrames() { return std::move(frames_); }

  size_t NumFrames() const { return frames_.size() / kSteimFrameBytes; }

 private:
  void OpenFrame() {
    bool first = frames_.empty();
    frames_.resize(frames_.size() + kSteimFrameBytes, 0);
    word_index_ = 1;  // word 0 is the nibble word
    if (first) {
      // Words 1 and 2 of the first frame hold X0/Xn; their nibbles stay 00.
      word_index_ = 3;
    }
  }

  uint8_t* CurrentFrame() {
    return frames_.data() + frames_.size() - kSteimFrameBytes;
  }

  void SetNibble(size_t word, uint32_t nibble) {
    uint8_t* frame = CurrentFrame();
    uint32_t w0 = ReadBE32(frame);
    int shift = 30 - static_cast<int>(word) * 2;
    w0 &= ~(0x3u << shift);
    w0 |= nibble << shift;
    WriteBE32(frame, w0);
  }

  size_t max_frames_;
  std::vector<uint8_t> frames_;
  size_t word_index_ = kWordsPerFrame;  // forces OpenFrame on first Append
};

// Shared greedy encode driver. `choose` inspects diffs[pos..] and returns
// the packing as (count, word, nibble); count==0 signals an unencodable
// difference (Steim-2 >30-bit case).
struct Packing {
  size_t count = 0;
  uint32_t word = 0;
  uint32_t nibble = 0;
};

template <typename ChooseFn>
Result<SteimEncodeResult> EncodeImpl(const std::vector<int32_t>& samples,
                                     size_t max_frames, int32_t prev_sample,
                                     ChooseFn choose) {
  if (max_frames == 0) {
    return Status::InvalidArgument("steim encode: max_frames must be > 0");
  }
  SteimEncodeResult result;
  if (samples.empty()) return result;

  std::vector<int32_t> diffs = Differences(samples, prev_sample);
  FrameBuilder builder(max_frames);
  size_t pos = 0;
  while (pos < diffs.size()) {
    Packing p = choose(diffs, pos);
    if (p.count == 0) {
      return Status::CorruptData(
          "steim2 encode: difference exceeds 30 bits at sample " +
          std::to_string(pos));
    }
    if (!builder.Append(p.word, p.nibble)) break;  // frame budget exhausted
    pos += p.count;
  }
  result.samples_encoded = pos;
  if (pos > 0) {
    builder.PatchIntegrationConstants(samples[0], samples[pos - 1]);
  }
  result.frames = builder.TakeFrames();
  return result;
}

Packing ChooseSteim1(const std::vector<int32_t>& d, size_t pos) {
  size_t left = d.size() - pos;
  auto fit_run = [&](size_t n, int bits) {
    if (left < n) return false;
    for (size_t i = 0; i < n; ++i) {
      if (!Fits(d[pos + i], bits)) return false;
    }
    return true;
  };
  Packing p;
  if (fit_run(4, 8)) {
    p.count = 4;
    p.nibble = kNibbleBytes;
    for (size_t i = 0; i < 4; ++i) {
      p.word |= (static_cast<uint32_t>(d[pos + i]) & 0xFFu) << (24 - 8 * i);
    }
  } else if (fit_run(2, 16)) {
    p.count = 2;
    p.nibble = kNibble2;
    p.word = ((static_cast<uint32_t>(d[pos]) & 0xFFFFu) << 16) |
             (static_cast<uint32_t>(d[pos + 1]) & 0xFFFFu);
  } else {
    p.count = 1;
    p.nibble = kNibble3;
    p.word = static_cast<uint32_t>(d[pos]);
  }
  return p;
}

// Packs `n` values of `bits` width into the low bits of a word, first value
// in the highest field.
uint32_t PackFields(const std::vector<int32_t>& d, size_t pos, size_t n,
                    int bits) {
  uint32_t word = 0;
  uint32_t mask = (bits == 32) ? 0xFFFFFFFFu : ((1u << bits) - 1);
  for (size_t i = 0; i < n; ++i) {
    int shift = static_cast<int>((n - 1 - i)) * bits;
    word |= (static_cast<uint32_t>(d[pos + i]) & mask) << shift;
  }
  return word;
}

Packing ChooseSteim2(const std::vector<int32_t>& d, size_t pos) {
  size_t left = d.size() - pos;
  auto fit_run = [&](size_t n, int bits) {
    if (left < n) return false;
    for (size_t i = 0; i < n; ++i) {
      if (!Fits(d[pos + i], bits)) return false;
    }
    return true;
  };
  Packing p;
  if (fit_run(7, 4)) {
    p.count = 7;
    p.nibble = kNibble3;
    p.word = (0x2u << 30) | PackFields(d, pos, 7, 4);
  } else if (fit_run(6, 5)) {
    p.count = 6;
    p.nibble = kNibble3;
    p.word = (0x1u << 30) | PackFields(d, pos, 6, 5);
  } else if (fit_run(5, 6)) {
    p.count = 5;
    p.nibble = kNibble3;
    p.word = (0x0u << 30) | PackFields(d, pos, 5, 6);
  } else if (fit_run(4, 8)) {
    p.count = 4;
    p.nibble = kNibbleBytes;
    p.word = PackFields(d, pos, 4, 8);
  } else if (fit_run(3, 10)) {
    p.count = 3;
    p.nibble = kNibble2;
    p.word = (0x3u << 30) | PackFields(d, pos, 3, 10);
  } else if (fit_run(2, 15)) {
    p.count = 2;
    p.nibble = kNibble2;
    p.word = (0x2u << 30) | PackFields(d, pos, 2, 15);
  } else if (fit_run(1, 30)) {
    p.count = 1;
    p.nibble = kNibble2;
    p.word = (0x1u << 30) | (static_cast<uint32_t>(d[pos]) & 0x3FFFFFFFu);
  } else {
    p.count = 0;  // difference too large for Steim-2
  }
  return p;
}

// Sign-extends the low `bits` of `v`.
inline int32_t SignExtend(uint32_t v, int bits) {
  uint32_t mask = (bits == 32) ? 0xFFFFFFFFu : ((1u << bits) - 1);
  v &= mask;
  uint32_t sign = 1u << (bits - 1);
  if (v & sign) v |= ~mask;
  return static_cast<int32_t>(v);
}

// Most differences one data word can hold (Steim-2 nibble 11, dnib 10).
constexpr size_t kMaxDiffsPerWord = 7;

// Decode driver shared by both codecs. `expand` writes the differences
// encoded in one data word at `out` and returns how many it wrote. The
// differences land in the output vector itself and are integrated in
// place, so a record costs one allocation.
template <typename ExpandFn>
Result<std::vector<int32_t>> DecodeImpl(const uint8_t* frames,
                                        size_t num_bytes,
                                        size_t expected_samples,
                                        ExpandFn expand, const char* codec) {
  if (expected_samples == 0) return std::vector<int32_t>{};
  if (frames == nullptr || num_bytes == 0 ||
      num_bytes % kSteimFrameBytes != 0) {
    return Status::CorruptData(std::string(codec) +
                               " decode: data area is not a multiple of 64 "
                               "bytes or empty");
  }
  size_t num_frames = num_bytes / kSteimFrameBytes;
  int32_t x0 = 0;
  int32_t xn = 0;
  // Slack for the last word's overshoot past expected_samples.
  std::vector<int32_t> samples(expected_samples + kMaxDiffsPerWord);
  int32_t* out = samples.data();
  size_t found = 0;

  for (size_t f = 0; f < num_frames && found < expected_samples; ++f) {
    const uint8_t* frame = frames + f * kSteimFrameBytes;
    uint32_t w0 = ReadBE32(frame);
    for (size_t w = 1; w < kWordsPerFrame && found < expected_samples; ++w) {
      uint32_t nibble = (w0 >> (30 - 2 * w)) & 0x3u;
      uint32_t word = ReadBE32(frame + 4 * w);
      if (f == 0 && w == 1) {
        x0 = static_cast<int32_t>(word);
        continue;
      }
      if (f == 0 && w == 2) {
        xn = static_cast<int32_t>(word);
        continue;
      }
      if (nibble == kNibbleSpecial) continue;  // padding
      found += expand(word, nibble, out + found);
    }
  }

  if (found < expected_samples) {
    return Status::CorruptData(
        std::string(codec) + " decode: expected " +
        std::to_string(expected_samples) + " samples, found " +
        std::to_string(found));
  }

  // The first difference is relative to the previous record: X0 replaces
  // it. Each later sample adds its difference, wrapping in 32 bits.
  samples.resize(expected_samples);
  out[0] = x0;
  uint32_t acc = static_cast<uint32_t>(x0);
  for (size_t i = 1; i < expected_samples; ++i) {
    acc += static_cast<uint32_t>(out[i]);
    out[i] = static_cast<int32_t>(acc);
  }
  if (samples.back() != xn) {
    return Status::CorruptData(
        std::string(codec) +
        " decode: reverse integration constant mismatch (expected " +
        std::to_string(xn) + ", got " + std::to_string(samples.back()) + ")");
  }
  return samples;
}

size_t ExpandSteim1(uint32_t word, uint32_t nibble, int32_t* out) {
  switch (nibble) {
    case kNibbleBytes:
      for (int i = 0; i < 4; ++i) out[i] = SignExtend(word >> (24 - 8 * i), 8);
      return 4;
    case kNibble2:
      out[0] = SignExtend(word >> 16, 16);
      out[1] = SignExtend(word, 16);
      return 2;
    case kNibble3:
      out[0] = static_cast<int32_t>(word);
      return 1;
    default:
      return 0;
  }
}

size_t ExpandSteim2(uint32_t word, uint32_t nibble, int32_t* out) {
  uint32_t dnib = word >> 30;
  switch (nibble) {
    case kNibbleBytes:
      for (int i = 0; i < 4; ++i) out[i] = SignExtend(word >> (24 - 8 * i), 8);
      return 4;
    case kNibble2:
      if (dnib == 0x1) {
        out[0] = SignExtend(word, 30);
        return 1;
      }
      if (dnib == 0x2) {
        out[0] = SignExtend(word >> 15, 15);
        out[1] = SignExtend(word, 15);
        return 2;
      }
      if (dnib == 0x3) {
        for (int i = 0; i < 3; ++i) {
          out[i] = SignExtend(word >> (20 - 10 * i), 10);
        }
        return 3;
      }
      return 0;
    case kNibble3:
      if (dnib == 0x0) {
        for (int i = 0; i < 5; ++i) {
          out[i] = SignExtend(word >> (24 - 6 * i), 6);
        }
        return 5;
      }
      if (dnib == 0x1) {
        for (int i = 0; i < 6; ++i) {
          out[i] = SignExtend(word >> (25 - 5 * i), 5);
        }
        return 6;
      }
      if (dnib == 0x2) {
        for (int i = 0; i < 7; ++i) {
          out[i] = SignExtend(word >> (24 - 4 * i), 4);
        }
        return 7;
      }
      return 0;
    default:
      return 0;
  }
}

}  // namespace

Result<SteimEncodeResult> Steim1Encode(const std::vector<int32_t>& samples,
                                       size_t max_frames,
                                       int32_t prev_sample) {
  return EncodeImpl(samples, max_frames, prev_sample, ChooseSteim1);
}

Result<SteimEncodeResult> Steim2Encode(const std::vector<int32_t>& samples,
                                       size_t max_frames,
                                       int32_t prev_sample) {
  return EncodeImpl(samples, max_frames, prev_sample, ChooseSteim2);
}

Result<std::vector<int32_t>> Steim1Decode(const uint8_t* frames,
                                          size_t num_bytes,
                                          size_t expected_samples) {
  return DecodeImpl(frames, num_bytes, expected_samples, ExpandSteim1,
                    "steim1");
}

Result<std::vector<int32_t>> Steim2Decode(const uint8_t* frames,
                                          size_t num_bytes,
                                          size_t expected_samples) {
  return DecodeImpl(frames, num_bytes, expected_samples, ExpandSteim2,
                    "steim2");
}

bool FitsSteim2(const std::vector<int32_t>& samples, int32_t prev_sample) {
  std::vector<int32_t> diffs = Differences(samples, prev_sample);
  for (int32_t d : diffs) {
    if (!Fits(d, 30)) return false;
  }
  return true;
}

}  // namespace lazyetl::mseed
