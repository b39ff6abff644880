#include "bitio/bitstring.h"

#include <stdexcept>

namespace oraclesize {

BitString BitString::from_string(const std::string& bits) {
  BitString out;
  for (char c : bits) {
    if (c == '0') {
      out.append_bit(false);
    } else if (c == '1') {
      out.append_bit(true);
    } else {
      throw std::invalid_argument("BitString::from_string: bad character");
    }
  }
  return out;
}

void BitString::append_bit(bool b) {
  const std::size_t word = size_ / 64;
  const std::size_t off = size_ % 64;
  if (word >= words_.size()) words_.push_back(0);
  if (b) words_[word] |= (std::uint64_t{1} << off);
  ++size_;
}

void BitString::append_uint(std::uint64_t value, int width) {
  if (width < 0 || width > 64) {
    throw std::invalid_argument("BitString::append_uint: bad width");
  }
  if (width < 64 && value >= (std::uint64_t{1} << width)) {
    throw std::invalid_argument("BitString::append_uint: value too wide");
  }
  for (int i = width - 1; i >= 0; --i) {
    append_bit((value >> i) & 1);
  }
}

void BitString::append(const BitString& other) {
  for (std::size_t i = 0; i < other.size(); ++i) append_bit(other.bit(i));
}

void BitString::throw_bit_out_of_range() {
  throw std::out_of_range("BitString::bit");
}

std::string BitString::to_string() const {
  std::string s;
  s.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) s.push_back(bit(i) ? '1' : '0');
  return s;
}

void BitReader::throw_exhausted() {
  throw std::out_of_range("BitReader: exhausted");
}

std::uint64_t BitReader::read_uint(int width) {
  if (width < 0 || width > 64) {
    throw std::invalid_argument("BitReader::read_uint: bad width");
  }
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v = (v << 1) | (read_bit() ? 1u : 0u);
  }
  return v;
}

}  // namespace oraclesize
