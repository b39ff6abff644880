// Deterministic pseudo-random number generation for reproducible simulations.
//
// Every randomized component in this library (graph generators, asynchronous
// schedulers, probe strategies) draws from an explicitly seeded Rng so that
// experiments and tests are bit-for-bit reproducible across runs and
// platforms. We wrap a SplitMix64 generator: tiny state, excellent
// statistical quality for simulation purposes, and a stable, documented
// algorithm (unlike std::mt19937 distributions, whose mapping from engine
// output to values is implementation-defined for std::uniform_int_distribution).
#pragma once

#include <cstdint>
#include <vector>

namespace oraclesize {

/// SplitMix64 finalizer: the stateless mixer behind every counter-based
/// keying scheme in the library (fault prekeys, counter-keyed scheduler
/// delays). Same constants as Rng::next_u64, so the whole library stays on
/// one documented generator family.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic 64-bit PRNG (SplitMix64) with convenience samplers.
///
/// All samplers are defined purely in terms of next_u64(), so sequences are
/// identical on every standard-conforming platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next raw 64-bit value: SplitMix64 (Steele, Lea, Flood 2014), i.e. the
  /// finalizer of the advanced state — mix64 adds the same increment first.
  /// Inline because graph builders draw once per vertex pair.
  std::uint64_t next_u64() noexcept {
    const std::uint64_t z = state_;
    state_ += 0x9e3779b97f4a7c15ULL;
    return mix64(z);
  }

  /// Uniform integer in [0, bound). Requires bound > 0.
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double unit() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]). Draws
  /// nothing when p <= 0 or p >= 1.
  bool chance(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return unit() < p;
  }

  /// Fisher-Yates shuffle of a vector, using this generator.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Sample k distinct indices from [0, n) in uniformly random order.
  /// Requires k <= n. O(n) time, O(n) space (partial Fisher-Yates).
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// Derive an independent child generator (for parallel or per-node use).
  Rng split() noexcept { return Rng(next_u64() ^ 0x9e3779b97f4a7c15ULL); }

 private:
  std::uint64_t state_;
};

}  // namespace oraclesize
