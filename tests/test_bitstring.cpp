#include "bitio/bitstring.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace oraclesize {
namespace {

TEST(BitString, EmptyByDefault) {
  BitString s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.to_string(), "");
}

TEST(BitString, AppendBitsRoundTrip) {
  BitString s;
  s.append_bit(true);
  s.append_bit(false);
  s.append_bit(true);
  s.append_bit(true);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.to_string(), "1011");
  EXPECT_TRUE(s.bit(0));
  EXPECT_FALSE(s.bit(1));
  EXPECT_TRUE(s.bit(2));
  EXPECT_TRUE(s.bit(3));
}

TEST(BitString, FromStringRoundTrip) {
  const std::string pattern = "0110100110010110";
  const BitString s = BitString::from_string(pattern);
  EXPECT_EQ(s.to_string(), pattern);
}

TEST(BitString, FromStringRejectsBadCharacters) {
  EXPECT_THROW(BitString::from_string("01x0"), std::invalid_argument);
  EXPECT_THROW(BitString::from_string(" 01"), std::invalid_argument);
}

TEST(BitString, AppendUintMsbFirst) {
  BitString s;
  s.append_uint(0b1011, 4);
  EXPECT_EQ(s.to_string(), "1011");
  s.append_uint(1, 3);
  EXPECT_EQ(s.to_string(), "1011001");
}

TEST(BitString, AppendUintZeroWidth) {
  BitString s;
  s.append_uint(0, 0);
  EXPECT_TRUE(s.empty());
}

TEST(BitString, AppendUintRejectsOverflowingValue) {
  BitString s;
  EXPECT_THROW(s.append_uint(4, 2), std::invalid_argument);
  EXPECT_THROW(s.append_uint(1, 0), std::invalid_argument);
  EXPECT_NO_THROW(s.append_uint(3, 2));
}

TEST(BitString, AppendUintFullWidth) {
  BitString s;
  s.append_uint(~std::uint64_t{0}, 64);
  EXPECT_EQ(s.size(), 64u);
  EXPECT_EQ(s.to_string(), std::string(64, '1'));
}

TEST(BitString, CrossesWordBoundary) {
  BitString s;
  for (int i = 0; i < 130; ++i) s.append_bit(i % 3 == 0);
  EXPECT_EQ(s.size(), 130u);
  for (std::size_t i = 0; i < 130; ++i) {
    EXPECT_EQ(s.bit(i), i % 3 == 0) << i;
  }
}

TEST(BitString, AppendConcatenates) {
  BitString a = BitString::from_string("101");
  const BitString b = BitString::from_string("0011");
  a.append(b);
  EXPECT_EQ(a.to_string(), "1010011");
}

TEST(BitString, EqualityIsContentBased) {
  const BitString a = BitString::from_string("1100");
  const BitString b = BitString::from_string("1100");
  const BitString c = BitString::from_string("110");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

/// The message of the std::out_of_range `read` throws ("" if none).
template <typename F>
std::string out_of_range_what(F read) {
  try {
    read();
  } catch (const std::out_of_range& e) {
    return e.what();
  }
  return "";
}

TEST(BitString, BitOutOfRangeThrows) {
  const BitString s = BitString::from_string("1");
  EXPECT_THROW(s.bit(1), std::out_of_range);
  EXPECT_EQ(out_of_range_what([&] { return s.bit(1); }), "BitString::bit");
}

TEST(BitReader, SequentialReads) {
  const BitString s = BitString::from_string("11010");
  BitReader r(s);
  EXPECT_TRUE(r.read_bit());
  EXPECT_TRUE(r.read_bit());
  EXPECT_FALSE(r.read_bit());
  EXPECT_EQ(r.position(), 3u);
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_FALSE(r.exhausted());
  EXPECT_TRUE(r.read_bit());
  EXPECT_FALSE(r.read_bit());
  EXPECT_TRUE(r.exhausted());
}

TEST(BitReader, ReadUintMsbFirst) {
  BitString s;
  s.append_uint(0b101101, 6);
  BitReader r(s);
  EXPECT_EQ(r.read_uint(6), 0b101101u);
}

TEST(BitReader, ReadPastEndThrows) {
  const BitString s = BitString::from_string("10");
  BitReader r(s);
  r.read_bit();
  r.read_bit();
  EXPECT_THROW(r.read_bit(), std::out_of_range);
  EXPECT_EQ(out_of_range_what([&] { return r.read_bit(); }),
            "BitReader: exhausted");
  BitReader r2(s);
  EXPECT_THROW(r2.read_uint(3), std::out_of_range);
}

TEST(BitReader, UintWriteReadRoundTripSweep) {
  for (std::uint64_t v = 0; v < 300; ++v) {
    BitString s;
    s.append_uint(v, 10);
    BitReader r(s);
    EXPECT_EQ(r.read_uint(10), v);
  }
}

}  // namespace
}  // namespace oraclesize
