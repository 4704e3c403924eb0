#include "edc/common/codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "edc/common/rng.h"

namespace edc {
namespace {

TEST(CodecTest, RoundTripsScalars) {
  Encoder enc;
  enc.U8(0xab);
  enc.Bool(true);
  enc.Bool(false);
  enc.U32(0xdeadbeef);
  enc.U64(0x1122334455667788ULL);
  enc.I64(-42);

  Decoder dec(enc.buffer());
  uint8_t u8 = 0;
  bool t = false;
  bool f = true;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  dec.U8(u8);
  dec.Bool(t);
  dec.Bool(f);
  dec.U32(u32);
  dec.U64(u64);
  dec.I64(i64);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_TRUE(t);
  EXPECT_FALSE(f);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x1122334455667788ULL);
  EXPECT_EQ(i64, -42);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(CodecTest, RoundTripsStringsAndBytes) {
  Encoder enc;
  enc.Str("hello");
  enc.Str("");
  std::vector<uint8_t> blob{0, 1, 2, 255};
  enc.Bytes(blob);

  Decoder dec(enc.buffer());
  std::string hello;
  std::string empty = "x";
  std::vector<uint8_t> bytes;
  dec.Str(hello);
  dec.Str(empty);
  dec.Bytes(bytes);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(hello, "hello");
  EXPECT_EQ(empty, "");
  EXPECT_EQ(bytes, blob);
  EXPECT_TRUE(dec.AtEnd());
}

class VarintParamTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintParamTest, RoundTrips) {
  Encoder enc;
  enc.Varint(GetParam());
  Decoder dec(enc.buffer());
  uint64_t v = 0;
  dec.Varint(v);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(v, GetParam());
  EXPECT_TRUE(dec.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Boundaries, VarintParamTest,
                         ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
                                           (1ULL << 32) - 1, 1ULL << 32,
                                           std::numeric_limits<uint64_t>::max()));

TEST(CodecTest, VarintIsCompact) {
  Encoder enc;
  enc.Varint(5);
  EXPECT_EQ(enc.size(), 1u);
  Encoder enc2;
  enc2.Varint(300);
  EXPECT_EQ(enc2.size(), 2u);
}

TEST(CodecTest, TruncatedScalarFails) {
  Encoder enc;
  enc.U32(7);
  Decoder dec(std::span(enc.buffer()).first(2));
  uint32_t v = 0;
  dec.U32(v);
  EXPECT_FALSE(dec.ok());
  EXPECT_EQ(dec.status().code(), ErrorCode::kDecodeError);
}

TEST(CodecTest, TruncatedStringFails) {
  Encoder enc;
  enc.Str("hello world");
  Decoder dec(std::span(enc.buffer()).first(4));
  std::string s;
  dec.Str(s);
  EXPECT_FALSE(dec.ok());
}

TEST(CodecTest, StringLengthLyingBeyondBufferFails) {
  Encoder enc;
  enc.Varint(1000);  // claims 1000 bytes follow
  enc.U8('x');
  Decoder dec(enc.buffer());
  std::string s;
  dec.Str(s);
  EXPECT_FALSE(dec.ok());
}

TEST(CodecTest, MalformedVarintFails) {
  // Eleven continuation bytes exceed the 64-bit shift budget.
  std::vector<uint8_t> bad(11, 0x80);
  Decoder dec(bad);
  uint64_t v = 0;
  dec.Varint(v);
  EXPECT_FALSE(dec.ok());
}

// The decoder is sticky: once a read fails, every later read is a no-op and
// leaves its target untouched.
TEST(CodecTest, EmptyBufferFailsEverything) {
  std::vector<uint8_t> empty;
  Decoder dec(empty);
  uint8_t u8 = 7;
  dec.U8(u8);
  EXPECT_FALSE(dec.ok());
  uint64_t u64 = 7;
  uint64_t var = 7;
  std::string s = "kept";
  dec.U64(u64);
  dec.Varint(var);
  dec.Str(s);
  EXPECT_FALSE(dec.ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u64, 7u);
  EXPECT_EQ(var, 7u);
  EXPECT_EQ(s, "kept");
  EXPECT_EQ(dec.status().code(), ErrorCode::kDecodeError);
}

TEST(CodecTest, FuzzRoundTripRandomSequences) {
  Rng rng(12345);
  for (int iter = 0; iter < 200; ++iter) {
    Encoder enc;
    std::vector<uint64_t> ints;
    std::vector<std::string> strs;
    int n = static_cast<int>(rng.UniformU64(20));
    for (int i = 0; i < n; ++i) {
      uint64_t v = rng.NextU64() >> rng.UniformU64(64);
      ints.push_back(v);
      enc.Varint(v);
      std::string s;
      size_t len = rng.UniformU64(50);
      for (size_t j = 0; j < len; ++j) {
        s += static_cast<char>(rng.UniformU64(256));
      }
      strs.push_back(s);
      enc.Str(s);
    }
    Decoder dec(enc.buffer());
    for (int i = 0; i < n; ++i) {
      uint64_t v = 0;
      std::string s;
      dec.Varint(v);
      dec.Str(s);
      ASSERT_TRUE(dec.ok());
      EXPECT_EQ(v, ints[static_cast<size_t>(i)]);
      EXPECT_EQ(s, strs[static_cast<size_t>(i)]);
    }
    EXPECT_TRUE(dec.AtEnd());
  }
}

}  // namespace
}  // namespace edc
