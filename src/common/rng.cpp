#include "common/rng.hpp"

#include <cmath>

namespace avmon {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64Next(sm);
  // A theoretical all-zero state would lock the generator at zero; splitmix64
  // cannot emit four consecutive zeros, but guard anyway for cheap safety.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng::result_type Rng::operator()() noexcept {
  // Every distribution helper funnels through here, so this one check
  // covers all draws.
  AVMON_DET_CHECK(detTag, "Rng draw");
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::fork() noexcept {
  // xoshiro256** LONG_JUMP polynomial: advances the copied state by 2^192
  // steps, giving the child a disjoint subsequence.
  static constexpr std::uint64_t kLongJump[] = {
      0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL, 0x77710069854ee241ULL,
      0x39109bb02acbe635ULL};
  Rng child = *this;
  std::uint64_t j0 = 0, j1 = 0, j2 = 0, j3 = 0;
  for (std::uint64_t jump : kLongJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (std::uint64_t{1} << b)) {
        j0 ^= child.s_[0];
        j1 ^= child.s_[1];
        j2 ^= child.s_[2];
        j3 ^= child.s_[3];
      }
      (void)child();
    }
  }
  child.s_[0] = j0;
  child.s_[1] = j1;
  child.s_[2] = j2;
  child.s_[3] = j3;
  // Decorrelate the parent as well so successive fork() calls yield
  // distinct children.
  (void)(*this)();
  return child;
}

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  // Lemire's method: multiply-shift with rejection of the biased low range.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniformInt(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span =
      static_cast<std::uint64_t>(hi - lo) + 1;  // hi==lo -> span 1
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform01() noexcept {
  // 53 high bits -> double in [0, 1) with full mantissa resolution.
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniformReal(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double Rng::exponential(double rate) noexcept {
  // Inverse CDF; 1 - uniform01() is in (0, 1], so log() is finite.
  return -std::log(1.0 - uniform01()) / rate;
}

std::size_t Rng::index(std::size_t size) noexcept {
  return static_cast<std::size_t>(below(size));
}

}  // namespace avmon
