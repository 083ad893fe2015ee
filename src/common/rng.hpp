// Deterministic random-number generation for reproducible simulations.
//
// Every scenario derives all of its randomness from one seeded root Rng;
// identical seeds reproduce identical runs bit-for-bit. The generator is
// xoshiro256** (Blackman & Vigna), seeded via splitmix64 as its authors
// recommend. We implement it ourselves rather than using std::mt19937 so
// that streams can be forked cheaply (one independent stream per node)
// and so the sequence is stable across standard-library versions.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/det_checks.hpp"

namespace avmon {

/// splitmix64 step: advances the state and returns the next 64-bit output.
/// Used for seeding and as a fast stateless mixer. Inline: the splitmix64
/// pair hash and every id-index probe call it per check or per lookup.
inline std::uint64_t splitmix64Next(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One-shot splitmix64 finalizer: a high-quality 64-bit mix of the input.
inline std::uint64_t splitmix64Mix(std::uint64_t x) noexcept {
  return splitmix64Next(x);
}

/// xoshiro256** pseudo-random generator with convenience distributions.
///
/// Satisfies UniformRandomBitGenerator, so it also composes with <random>
/// distributions where needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0xA7B0C1D2E3F40516ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64 random bits.
  result_type operator()() noexcept;

  /// Forks an independent child stream. The child's sequence does not
  /// overlap the parent's for any practical simulation length (uses the
  /// xoshiro256** long-jump polynomial on a copied state).
  Rng fork() noexcept;

  /// Uniform integer in [0, bound). Requires bound > 0.
  /// Uses Lemire's unbiased multiply-shift rejection method.
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniformInt(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Uniform double in [lo, hi).
  double uniformReal(double lo, double hi) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p) noexcept;

  /// Exponentially distributed value with the given rate (mean 1/rate).
  /// Requires rate > 0.
  double exponential(double rate) noexcept;

  /// Uniformly chosen index into a container of the given size.
  /// Requires size > 0.
  std::size_t index(std::size_t size) noexcept;

  /// Fisher-Yates shuffles the given vector in place.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[below(i)]);
    }
  }

  /// Reservoir-samples k elements from v without replacement (k may exceed
  /// v.size(), in which case a shuffled copy of all of v is returned).
  template <typename T>
  std::vector<T> sample(const std::vector<T>& v, std::size_t k) {
    std::vector<T> out = v;
    shuffle(out);
    if (out.size() > k) out.resize(k);
    return out;
  }

  /// Shard-ownership tag for the determinism sentinel; expands to nothing
  /// unless AVMON_DET_CHECKS is on (the class stays trivially copyable
  /// either way — copies and forks inherit the parent's binding).
  AVMON_DET_TAG(detTag);

 private:
  std::uint64_t s_[4];
};

}  // namespace avmon
