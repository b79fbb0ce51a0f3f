#include "mseed/steim.h"

#include <gtest/gtest.h>

#include <random>

#include "test_util.h"

namespace lazyetl::mseed {
namespace {

using Codec = std::pair<const char*, bool>;  // (name, is_steim2)

Result<SteimEncodeResult> Encode(bool steim2, const std::vector<int32_t>& s,
                                 size_t max_frames, int32_t prev) {
  return steim2 ? Steim2Encode(s, max_frames, prev)
                : Steim1Encode(s, max_frames, prev);
}

Result<std::vector<int32_t>> Decode(bool steim2, const std::vector<uint8_t>& f,
                                    size_t n) {
  return steim2 ? Steim2Decode(f.data(), f.size(), n)
                : Steim1Decode(f.data(), f.size(), n);
}

void ExpectRoundTrip(bool steim2, const std::vector<int32_t>& samples,
                     size_t max_frames = 64) {
  int32_t prev = samples.empty() ? 0 : samples[0];
  auto enc = Encode(steim2, samples, max_frames, prev);
  ASSERT_OK(enc);
  ASSERT_EQ(enc->samples_encoded, samples.size())
      << "frame budget too small for this test";
  auto dec = Decode(steim2, enc->frames, samples.size());
  ASSERT_OK(dec);
  EXPECT_EQ(*dec, samples);
}

TEST(SteimTest, EmptyInput) {
  for (bool steim2 : {false, true}) {
    auto enc = Encode(steim2, {}, 8, 0);
    ASSERT_OK(enc);
    EXPECT_EQ(enc->samples_encoded, 0u);
    EXPECT_TRUE(enc->frames.empty());
  }
}

TEST(SteimTest, SingleSample) {
  for (bool steim2 : {false, true}) {
    ExpectRoundTrip(steim2, {42});
    ExpectRoundTrip(steim2, {-42});
    ExpectRoundTrip(steim2, {0});
  }
}

TEST(SteimTest, ConstantSeries) {
  for (bool steim2 : {false, true}) {
    ExpectRoundTrip(steim2, std::vector<int32_t>(500, 1234));
  }
}

TEST(SteimTest, SmallRamp) {
  std::vector<int32_t> ramp(300);
  for (size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<int32_t>(i) - 150;
  }
  for (bool steim2 : {false, true}) ExpectRoundTrip(steim2, ramp);
}

TEST(SteimTest, AlternatingSigns) {
  std::vector<int32_t> v(257);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = (i % 2 == 0) ? 100 : -100;
  }
  for (bool steim2 : {false, true}) ExpectRoundTrip(steim2, v);
}

TEST(SteimTest, AllDifferenceWidthsSteim2) {
  // Hit every Steim-2 packing: 4, 5, 6, 8, 10, 15, 30-bit differences.
  std::vector<int32_t> v = {0};
  auto push_delta = [&](int32_t d) { v.push_back(v.back() + d); };
  for (int32_t d : {1, -2, 3, -4, 5, -6, 7}) push_delta(d);        // 4-bit
  for (int32_t d : {12, -13, 14, -15, 11, -10}) push_delta(d);     // 5-bit
  for (int32_t d : {25, -28, 30, -31, 29}) push_delta(d);          // 6-bit
  for (int32_t d : {100, -120, 127, -128}) push_delta(d);          // 8-bit
  for (int32_t d : {400, -500, 511}) push_delta(d);                // 10-bit
  for (int32_t d : {10000, -16000}) push_delta(d);                 // 15-bit
  push_delta(300000000);                                           // 30-bit
  push_delta(-400000000);
  ExpectRoundTrip(true, v);
}

TEST(SteimTest, AllDifferenceWidthsSteim1) {
  std::vector<int32_t> v = {0};
  auto push_delta = [&](int64_t d) {
    v.push_back(static_cast<int32_t>(v.back() + d));
  };
  for (int32_t d : {1, -2, 3, -4}) push_delta(d);               // 8-bit
  for (int32_t d : {1000, -2000}) push_delta(d);                // 16-bit
  push_delta(100000);                                           // 32-bit
  push_delta(-2000000000);
  ExpectRoundTrip(false, v);
}

TEST(SteimTest, Steim1HandlesExtremeValues) {
  // Full-range int32 values: differences wrap around 2^32 but the decoder
  // integrates with the same wrap-around arithmetic.
  std::vector<int32_t> v = {INT32_MAX, INT32_MIN, 0, INT32_MAX, -1,
                            INT32_MIN, INT32_MAX};
  ExpectRoundTrip(false, v);
}

TEST(SteimTest, Steim2RejectsOversizedDifference) {
  std::vector<int32_t> v = {0, 1 << 30};  // needs 31 bits
  auto enc = Steim2Encode(v, 8, 0);
  EXPECT_FALSE(enc.ok());
  EXPECT_TRUE(enc.status().IsCorruptData());
}

TEST(SteimTest, FitsSteim2Predicate) {
  EXPECT_TRUE(FitsSteim2({0, 1, -1, 1000}, 0));
  EXPECT_TRUE(FitsSteim2({0, (1 << 29) - 1}, 0));
  EXPECT_FALSE(FitsSteim2({0, 1 << 29}, 0));  // 2^29 needs 31 bits signed
  EXPECT_FALSE(FitsSteim2({INT32_MIN, INT32_MAX}, 0));
}

TEST(SteimTest, FrameBudgetStopsEncoding) {
  // A ramp of 16-bit differences: Steim-1 packs 2 samples/word, so one
  // frame (13 usable data words in frame 0) holds 26 samples.
  std::vector<int32_t> v(1000);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<int32_t>(i * 1000);
  }
  auto enc = Steim1Encode(v, 1, v[0]);
  ASSERT_OK(enc);
  EXPECT_EQ(enc->frames.size(), kSteimFrameBytes);
  EXPECT_GT(enc->samples_encoded, 0u);
  EXPECT_LT(enc->samples_encoded, v.size());
  // The encoded prefix round-trips.
  std::vector<int32_t> prefix(v.begin(), v.begin() + enc->samples_encoded);
  auto dec = Steim1Decode(enc->frames.data(), enc->frames.size(),
                          prefix.size());
  ASSERT_OK(dec);
  EXPECT_EQ(*dec, prefix);
}

TEST(SteimTest, MultiFrameRecord) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int32_t> dist(-20000, 20000);
  std::vector<int32_t> v(3000);
  int32_t acc = 0;
  for (auto& s : v) {
    acc += dist(rng);
    s = acc;
  }
  for (bool steim2 : {false, true}) ExpectRoundTrip(steim2, v, 512);
}

TEST(SteimTest, DecodeRejectsBadSizes) {
  std::vector<uint8_t> frames(kSteimFrameBytes, 0);
  EXPECT_FALSE(Steim1Decode(frames.data(), 63, 1).ok());
  EXPECT_FALSE(Steim1Decode(nullptr, 0, 1).ok());
  EXPECT_FALSE(Steim2Decode(frames.data(), 65, 1).ok());
}

TEST(SteimTest, DecodeZeroSamples) {
  auto dec = Steim1Decode(nullptr, 0, 0);
  ASSERT_OK(dec);
  EXPECT_TRUE(dec->empty());
}

TEST(SteimTest, DecodeDetectsTruncation) {
  // Encode 100 samples but ask the decoder for 200.
  std::vector<int32_t> v(100, 5);
  auto enc = Steim1Encode(v, 16, 5);
  ASSERT_OK(enc);
  auto dec = Steim1Decode(enc->frames.data(), enc->frames.size(), 200);
  EXPECT_FALSE(dec.ok());
  EXPECT_TRUE(dec.status().IsCorruptData());
}

TEST(SteimTest, DecodeDetectsReverseConstantMismatch) {
  std::vector<int32_t> v = {1, 2, 3, 4, 5};
  auto enc = Steim2Encode(v, 8, 1);
  ASSERT_OK(enc);
  // Corrupt Xn (word 2 of frame 0).
  std::vector<uint8_t> corrupted = enc->frames;
  corrupted[8] ^= 0xFF;
  auto dec = Steim2Decode(corrupted.data(), corrupted.size(), v.size());
  EXPECT_FALSE(dec.ok());
  EXPECT_TRUE(dec.status().IsCorruptData());
  EXPECT_NE(dec.status().message().find("reverse integration"),
            std::string::npos);
}

TEST(SteimTest, InPlaceIntegrationStillChecksXn) {
  // Multi-frame records of both codecs: a wrong Xn, or a flipped
  // difference that the in-place integration carries to the last sample,
  // is CorruptData; the intact frames still decode.
  std::mt19937 rng(7);
  std::uniform_int_distribution<int32_t> step(-300, 300);
  std::vector<int32_t> v(700);
  int32_t x = 1000;
  for (auto& s : v) s = x += step(rng);
  for (bool steim2 : {false, true}) {
    auto enc = Encode(steim2, v, 64, v[0]);
    ASSERT_OK(enc);
    ASSERT_EQ(enc->samples_encoded, v.size());
    ASSERT_GT(enc->frames.size(), 2 * kSteimFrameBytes);
    auto ok = Decode(steim2, enc->frames, v.size());
    ASSERT_OK(ok);
    EXPECT_EQ(*ok, v);

    std::vector<uint8_t> bad_xn = enc->frames;
    bad_xn[11] ^= 0x01;  // low byte of Xn (word 2 of frame 0)
    auto dec = Decode(steim2, bad_xn, v.size());
    ASSERT_FALSE(dec.ok()) << (steim2 ? "steim2" : "steim1");
    EXPECT_TRUE(dec.status().IsCorruptData());
    EXPECT_NE(dec.status().message().find("reverse integration"),
              std::string::npos);

    std::vector<uint8_t> bad_diff = enc->frames;
    bad_diff[kSteimFrameBytes + 7] ^= 0x01;  // low bit of frame 1, word 1
    auto dec2 = Decode(steim2, bad_diff, v.size());
    ASSERT_FALSE(dec2.ok()) << (steim2 ? "steim2" : "steim1");
    EXPECT_TRUE(dec2.status().IsCorruptData());
  }
}

TEST(SteimTest, CompressionRatioOnRealisticData) {
  // Seismic-like data (small differences) should compress well below
  // 4 bytes/sample with Steim-2.
  std::mt19937 rng(42);
  std::normal_distribution<double> noise(0.0, 30.0);
  std::vector<int32_t> v(10000);
  double acc = 0;
  for (auto& s : v) {
    acc = 0.97 * acc + noise(rng);
    s = static_cast<int32_t>(acc);
  }
  auto enc = Steim2Encode(v, 1 << 20, v[0]);
  ASSERT_OK(enc);
  ASSERT_EQ(enc->samples_encoded, v.size());
  double bytes_per_sample =
      static_cast<double>(enc->frames.size()) / static_cast<double>(v.size());
  EXPECT_LT(bytes_per_sample, 2.0);
  // And Steim-2 beats Steim-1 on the same data.
  auto enc1 = Steim1Encode(v, 1 << 20, v[0]);
  ASSERT_OK(enc1);
  EXPECT_LE(enc->frames.size(), enc1->frames.size());
}

// Parameterised property: random walks with varying step magnitudes
// round-trip through both codecs.
struct WalkParam {
  int32_t max_step;
  size_t length;
  uint32_t seed;
};

class SteimWalkTest : public ::testing::TestWithParam<WalkParam> {};

TEST_P(SteimWalkTest, RoundTripsBothCodecs) {
  const WalkParam& p = GetParam();
  std::mt19937 rng(p.seed);
  std::uniform_int_distribution<int32_t> dist(-p.max_step, p.max_step);
  std::vector<int32_t> v(p.length);
  int64_t acc = 0;
  for (auto& s : v) {
    acc += dist(rng);
    // Keep within a Steim-2-safe band.
    if (acc > 400000000) acc = 400000000;
    if (acc < -400000000) acc = -400000000;
    s = static_cast<int32_t>(acc);
  }
  ExpectRoundTrip(false, v, 1 << 20);
  ExpectRoundTrip(true, v, 1 << 20);
}

INSTANTIATE_TEST_SUITE_P(
    Walks, SteimWalkTest,
    ::testing::Values(WalkParam{1, 64, 1}, WalkParam{7, 100, 2},
                      WalkParam{15, 333, 3}, WalkParam{127, 1000, 4},
                      WalkParam{511, 100, 5}, WalkParam{16383, 512, 6},
                      WalkParam{100000, 77, 7}, WalkParam{250000000, 50, 8},
                      WalkParam{3, 1, 9}, WalkParam{3, 2, 10},
                      WalkParam{3, 63, 11}, WalkParam{3, 65, 12}));

}  // namespace
}  // namespace lazyetl::mseed
