// Bit-exact binary strings.
//
// Oracles in the paper assign each node a string in {0,1}*, and the whole
// point of the paper is to *count those bits*. std::string-of-'0'/'1' would
// work but makes size accounting accident-prone (bytes vs bits) and is 8x
// larger; we keep a packed bit vector with an explicit bit length, plus
// cursor-based readers/writers used by the codecs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace oraclesize {

/// An immutable-length-agnostic sequence of bits with append-only growth.
/// Bit i of the string is the i-th bit appended (big-endian within the
/// conceptual string, independent of byte packing).
class BitString {
 public:
  BitString() = default;

  /// Parses a string of '0'/'1' characters. Throws std::invalid_argument on
  /// any other character.
  static BitString from_string(const std::string& bits);

  void append_bit(bool b);

  /// Appends `width` bits holding `value`, most significant bit first.
  /// Requires value < 2^width (checked).
  void append_uint(std::uint64_t value, int width);

  /// Appends another bit string.
  void append(const BitString& other);

  /// Empties the string, retaining the word buffer's capacity — the
  /// building block for reusing one BitString as a scratch encoder across
  /// many events without reallocating.
  void clear() noexcept {
    words_.clear();
    size_ = 0;
  }

  /// Bit at index i (0-based). Throws std::out_of_range unless
  /// i < size().
  bool bit(std::size_t i) const {
    if (i >= size_) throw_bit_out_of_range();
    return (words_[i / 64] >> (i % 64)) & 1;
  }

  /// Number of bits. This is the quantity the paper's "oracle size" sums.
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Renders as a '0'/'1' string (for tests and debugging).
  std::string to_string() const;

  friend bool operator==(const BitString& a, const BitString& b) noexcept {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }
  friend bool operator!=(const BitString& a, const BitString& b) noexcept {
    return !(a == b);
  }

 private:
  [[noreturn]] static void throw_bit_out_of_range();

  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

/// Sequential reader over a BitString. All read_* methods throw
/// std::out_of_range when the string is exhausted mid-read, which the
/// decoding layer converts into "malformed oracle string" diagnostics.
class BitReader {
 public:
  explicit BitReader(const BitString& bits) noexcept : bits_(&bits) {}

  bool read_bit() {
    if (exhausted()) throw_exhausted();
    return bits_->bit(pos_++);
  }

  /// Reads `width` bits, most significant first.
  std::uint64_t read_uint(int width);

  std::size_t position() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return bits_->size() - pos_; }
  bool exhausted() const noexcept { return pos_ >= bits_->size(); }

 private:
  [[noreturn]] static void throw_exhausted();

  const BitString* bits_;
  std::size_t pos_ = 0;
};

}  // namespace oraclesize
