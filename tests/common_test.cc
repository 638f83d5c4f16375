#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/bitutil.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/serde.h"
#include "common/status.h"

namespace streamlib {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

// ---------------------------------------------------------------- Hashing

TEST(HashTest, Murmur3IsDeterministic) {
  const char* data = "the quick brown fox";
  Hash128 a = Murmur3_128(data, std::strlen(data), 0);
  Hash128 b = Murmur3_128(data, std::strlen(data), 0);
  EXPECT_EQ(a.low, b.low);
  EXPECT_EQ(a.high, b.high);
}

TEST(HashTest, Murmur3SeedChangesOutput) {
  const char* data = "the quick brown fox";
  EXPECT_NE(Murmur3_64(data, std::strlen(data), 0),
            Murmur3_64(data, std::strlen(data), 1));
}

TEST(HashTest, Murmur3KnownVector) {
  // Reference value for MurmurHash3 x64 128 of the empty string, seed 0.
  Hash128 h = Murmur3_128("", 0, 0);
  EXPECT_EQ(h.low, 0u);
  EXPECT_EQ(h.high, 0u);
}

TEST(HashTest, Murmur3HandlesAllTailLengths) {
  // Exercise every switch-case tail length; distinct outputs expected.
  std::set<uint64_t> outputs;
  std::string data = "abcdefghijklmnopqrstuvwxyz012345";
  for (size_t len = 0; len <= 17; len++) {
    outputs.insert(Murmur3_64(data.data(), len, 7));
  }
  EXPECT_EQ(outputs.size(), 18u);
}

TEST(HashTest, HashValueDispatchesOnType) {
  // Strings hash by content, not pointer.
  std::string a = "hello";
  std::string b = "hello";
  EXPECT_EQ(HashValue(a), HashValue(b));
  EXPECT_EQ(HashValue(a), HashValue(std::string_view("hello")));
  // Integers work too and differ from their neighbors.
  EXPECT_NE(HashValue(uint64_t{1}), HashValue(uint64_t{2}));
}

TEST(HashTest, Mix64IsBijectiveOnSamples) {
  std::set<uint64_t> outputs;
  for (uint64_t i = 0; i < 10000; i++) outputs.insert(Mix64(i));
  EXPECT_EQ(outputs.size(), 10000u);
}

TEST(HashTest, DoubleHashProducesDistinctProbes) {
  uint64_t h1 = HashValue(std::string("key"), 1);
  uint64_t h2 = HashValue(std::string("key"), 2) | 1;
  std::set<uint64_t> probes;
  for (uint32_t i = 0; i < 16; i++) probes.insert(DoubleHash(h1, h2, i) % 4096);
  EXPECT_GT(probes.size(), 12u);  // Collisions possible but rare.
}

// ---------------------------------------------------------------- Bit utils

TEST(BitUtilTest, CountLeadingZeros) {
  EXPECT_EQ(CountLeadingZeros64(0), 64);
  EXPECT_EQ(CountLeadingZeros64(1), 63);
  EXPECT_EQ(CountLeadingZeros64(~uint64_t{0}), 0);
}

TEST(BitUtilTest, PowersOfTwo) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(12));
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(64), 64u);
  EXPECT_EQ(NextPowerOfTwo(65), 128u);
}

TEST(BitUtilTest, Logs) {
  EXPECT_EQ(Log2Floor(1), 0);
  EXPECT_EQ(Log2Floor(2), 1);
  EXPECT_EQ(Log2Floor(3), 1);
  EXPECT_EQ(Log2Ceil(3), 2);
  EXPECT_EQ(Log2Ceil(4), 2);
  EXPECT_EQ(Log2Ceil(5), 3);
}

TEST(BitUtilTest, RankOfLeadingOne) {
  // With 8-bit registers: 1000_0000 -> rank 1, 0000_0001 -> rank 8, 0 -> 9.
  EXPECT_EQ(RankOfLeadingOne(0x80, 8), 1);
  EXPECT_EQ(RankOfLeadingOne(0x01, 8), 8);
  EXPECT_EQ(RankOfLeadingOne(0x00, 8), 9);
  EXPECT_EQ(RankOfLeadingOne(uint64_t{1} << 63, 64), 1);
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; i++) {
    if (a.Next() == b.Next()) same++;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBoundedInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextBoundedIsRoughlyUniform) {
  Rng rng(11);
  const uint64_t kBuckets = 10;
  const int kDraws = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; i++) counts[rng.NextBounded(kBuckets)]++;
  for (uint64_t b = 0; b < kBuckets; b++) {
    EXPECT_NEAR(counts[b], kDraws / static_cast<int>(kBuckets),
                5 * std::sqrt(static_cast<double>(kDraws) / kBuckets));
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; i++) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0;
  double sum_sq = 0;
  for (int i = 0; i < n; i++) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0;
  for (int i = 0; i < n; i++) sum += rng.NextExponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

// ---------------------------------------------------------------- Serde

TEST(SerdeTest, RoundTripFixedWidth) {
  ByteWriter w;
  w.PutU8(0xab);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutI64(-42);
  w.PutDouble(3.25);

  ByteReader r(w.bytes());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  double d;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetI64(&i64).ok());
  ASSERT_TRUE(r.GetDouble(&d).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(d, 3.25);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, RoundTripVarintBoundaries) {
  std::vector<uint64_t> values = {0,    1,    127,  128,   16383, 16384,
                                  1u << 20, ~uint64_t{0}, 42};
  ByteWriter w;
  for (uint64_t v : values) w.PutVarint(v);
  ByteReader r(w.bytes());
  for (uint64_t expected : values) {
    uint64_t got;
    ASSERT_TRUE(r.GetVarint(&got).ok());
    EXPECT_EQ(got, expected);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, RoundTripStrings) {
  ByteWriter w;
  w.PutString("");
  w.PutString("hello");
  w.PutString(std::string(1000, 'x'));
  ByteReader r(w.bytes());
  std::string a;
  std::string b;
  std::string c;
  ASSERT_TRUE(r.GetString(&a).ok());
  ASSERT_TRUE(r.GetString(&b).ok());
  ASSERT_TRUE(r.GetString(&c).ok());
  EXPECT_EQ(a, "");
  EXPECT_EQ(b, "hello");
  EXPECT_EQ(c, std::string(1000, 'x'));
}

// A string length near 2^64 must not wrap the bounds check: 10 varint
// bytes of length plus 2 payload bytes is a truncated string.
TEST(SerdeTest, StringLengthNearTwoTo64IsCorruption) {
  ByteWriter w;
  w.PutVarint(UINT64_MAX - 1);
  w.PutU16(0);
  ASSERT_EQ(w.bytes().size(), 12u);
  ByteReader r(w.bytes());
  std::string out;
  EXPECT_EQ(r.GetString(&out).code(), StatusCode::kCorruption);
}

TEST(SerdeTest, TruncationIsCorruption) {
  ByteWriter w;
  w.PutU64(7);
  ByteReader r(w.bytes().data(), 4);  // Half the u64.
  uint64_t v;
  Status s = r.GetU64(&v);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST(SerdeTest, TruncatedVarintIsCorruption) {
  std::vector<uint8_t> bytes = {0x80, 0x80};  // Unterminated varint.
  ByteReader r(bytes.data(), bytes.size());
  uint64_t v;
  EXPECT_EQ(r.GetVarint(&v).code(), StatusCode::kCorruption);
}

TEST(SerdeTest, NonCanonicalVarintIsCorruption) {
  // PutVarint writes each value one way; anything else is not a varint it
  // wrote: a padded zero, or a tenth byte carrying bits past the 64th.
  const std::vector<std::vector<uint8_t>> bad = {
      {0x80, 0x00},
      {0x85, 0x80, 0x00},
      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x81, 0x00}};
  for (const std::vector<uint8_t>& bytes : bad) {
    ByteReader r(bytes);
    uint64_t v = 0;
    EXPECT_EQ(r.GetVarint(&v).code(), StatusCode::kCorruption);
  }
  for (uint64_t value : {uint64_t{0}, uint64_t{127}, uint64_t{128},
                         uint64_t{1} << 63, UINT64_MAX}) {
    ByteWriter w;
    w.PutVarint(value);
    ByteReader r(w.bytes());
    uint64_t v = 0;
    ASSERT_TRUE(r.GetVarint(&v).ok()) << value;
    EXPECT_EQ(v, value);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(SerdeTest, TruncatedStringIsCorruption) {
  ByteWriter w;
  w.PutVarint(100);  // Claims 100 bytes, provides none.
  ByteReader r(w.bytes());
  std::string s;
  EXPECT_EQ(r.GetString(&s).code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace streamlib
