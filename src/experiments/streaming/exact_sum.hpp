// Order- and partition-independent exact summation of doubles.
//
// The streaming pipeline's core determinism problem: per-shard banks
// see DIFFERENT sub-multisets of the same samples depending on the shard
// count (round-robin partitioning interleaves them), so any accumulator
// whose result depends on addition order — a plain `double sum`, Kahan,
// Welford — would make the merged mean differ between S = 1 and S = 8 in
// the last bits. ExactSum removes order from the algebra instead of
// constraining it: every finite double is added EXACTLY into a wide
// fixed-point accumulator (a superaccumulator spanning the full double
// exponent range), so the accumulated value is the true real-number sum
// and any grouping/ordering of adds and merges yields identical bits.
//
//   ExactSum a; a.add(x1); a.add(x2); ...            // any order
//   ExactSum b = shard sums merged in any tree shape  // any partition
//   a.value() == b.value()  (bitwise, by construction)
//
// value() rounds the exact sum to the nearest double (ties to even).
// Cost: ~280 bytes of state and a few limb operations per add — trivial
// next to a protocol probe, and each bank keeps O(1) of them.
#pragma once

#include <array>
#include <cstdint>

namespace avmon::experiments::streaming {

class ExactSum {
 public:
  /// Adds a finite double exactly. Non-finite inputs poison the sum
  /// (value() returns NaN) — metrics never produce them, but a poisoned
  /// sum must not masquerade as a number.
  void add(double x) noexcept;

  /// Merges another accumulator (exact, associative, commutative).
  void merge(const ExactSum& other) noexcept;

  /// The exact sum rounded once to the nearest double (ties to even).
  double value() const noexcept;

  bool nonFinite() const noexcept { return nonFinite_; }

  /// Exact equality of accumulated state (not just of rounded values).
  bool operator==(const ExactSum& other) const noexcept {
    return limbs_ == other.limbs_ && nonFinite_ == other.nonFinite_;
  }

 private:
  // Two's-complement fixed point, little-endian 64-bit limbs. Bit 0 of
  // limb 0 has weight 2^-kOffsetBits; the span covers every finite double
  // (lsb 2^-1074, msb < 2^1024) plus 2^64-fold carry headroom, so no add
  // or merge sequence can overflow the top limb.
  static constexpr int kLimbs = 35;
  static constexpr int kOffsetBits = 1088;  // 17 * 64, below the min subnormal

  void addMagnitude(std::uint64_t mantissa, int exponent) noexcept;
  void subMagnitude(std::uint64_t mantissa, int exponent) noexcept;

  std::array<std::uint64_t, kLimbs> limbs_{};
  bool nonFinite_ = false;
};

}  // namespace avmon::experiments::streaming
