#include "util/mathx.h"

#include <cassert>
#include <cmath>
#include <limits>

namespace oraclesize {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kLn2 = 0.6931471805599453094172321214581766;
}  // namespace

int floor_log2(std::uint64_t x) noexcept {
  assert(x >= 1);
  return 63 - __builtin_clzll(x);
}

int ceil_log2(std::uint64_t x) noexcept {
  assert(x >= 1);
  const int f = floor_log2(x);
  return ((x & (x - 1)) == 0) ? f : f + 1;
}

int num_bits(std::uint64_t w) noexcept {
  if (w <= 1) return 1;
  return floor_log2(w) + 1;
}

double log2_factorial(std::uint64_t x) noexcept {
  // lgamma_r, not std::lgamma: lgamma writes the global `signgam`, a data
  // race when batch workers run the adversarial scheduler concurrently.
  int sign = 0;
  return ::lgamma_r(static_cast<double>(x) + 1.0, &sign) / kLn2;
}

double log2_choose(std::uint64_t a, std::uint64_t b) noexcept {
  if (b > a) return kNegInf;
  return log2_factorial(a) - log2_factorial(b) - log2_factorial(a - b);
}

double log2_pow(std::uint64_t a, std::uint64_t b) noexcept {
  assert(a >= 1);
  return static_cast<double>(b) * std::log2(static_cast<double>(a));
}

double log2_add(double a, double b) noexcept {
  if (a == kNegInf) return b;
  if (b == kNegInf) return a;
  const double hi = (a > b) ? a : b;
  const double lo = (a > b) ? b : a;
  return hi + std::log2(1.0 + std::exp2(lo - hi));
}

double log2_sub(double a, double b) noexcept {
  assert(a >= b);
  if (b == kNegInf) return a;
  if (a == b) return kNegInf;
  return a + std::log2(1.0 - std::exp2(b - a));
}

bool claim21_holds(std::uint64_t a, std::uint64_t b) noexcept {
  const std::uint64_t top = a * (1 + b);
  return log2_choose(top, a) <= static_cast<double>(a) *
                                    std::log2(6.0 * static_cast<double>(b));
}

}  // namespace oraclesize
