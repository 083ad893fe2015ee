// Mergeable quantile sketch: fixed-bin logarithmic histogram.
//
// Bins are FIXED functions of the value alone (no data-driven compaction,
// no randomness): a positive x falls in the bin indexed by its binary
// exponent times kSubBins plus a linear sub-bin of its mantissa. Bin
// counts are integers, so add/merge are exactly associative and
// commutative — any shard partition of a sample stream merges (in any
// order, though the collector merges in shard-index order) to the
// identical sketch, bit for bit. This is the deterministic alternative to
// KLL: KLL's accuracy is rank-uniform but its compaction is sampling-
// based; the log-histogram gives up rank-uniformity for a guaranteed
// RELATIVE value error and perfect partition invariance.
//
// Error bound (documented, property-tested): quantile(phi) returns a
// value v with |v - q| <= q / kSubBins for the true sample quantile
// q > 0 (same ceil-rank definition as stats::Cdf::percentile), i.e. a
// relative error of at most 1/kSubBins ≈ 3.1% at the default 32 sub-bins
// per octave. Zero and negative samples sit in their own exact/mirrored
// bins; results are clamped to the exact observed [min, max].
//
// Memory: one (bin index, count) entry per distinct occupied bin — in
// practice tens of entries, bounded by kSubBins per octave of dynamic
// range. Storage is a flat sorted vector probed by binary search: at these
// sizes that beats the old std::map (one ~48-byte red-black node plus an
// allocation per bin; every shard bank holds one sketch per metric, so
// node churn multiplied). Iteration stays ascending-by-bin, so results are
// bit-identical to the map layout and avmon_lint-clean.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace avmon::experiments::streaming {

class QuantileSketch {
 public:
  /// Sub-bins per power of two. 32 bounds the relative value error by
  /// 1/32; doubling it halves the error and (at most) doubles the bins.
  static constexpr std::uint32_t kSubBins = 32;

  void add(double x) noexcept;
  void merge(const QuantileSketch& other);

  /// Value at quantile phi with the same rank convention as
  /// stats::Cdf::percentile: rank = ceil(phi * n) clamped to [1, n];
  /// 0 when empty. Accurate to the relative bound above.
  double quantile(double phi) const noexcept;

  std::uint64_t count() const noexcept { return count_; }

  bool operator==(const QuantileSketch& other) const noexcept {
    return count_ == other.count_ && zeroCount_ == other.zeroCount_ &&
           positive_ == other.positive_ && negative_ == other.negative_ &&
           min_ == other.min_ && max_ == other.max_;
  }

  /// Retained bytes (for the bench's metric-state accounting).
  std::size_t stateBytes() const noexcept;

 private:
  /// (bin index, sample count), kept sorted ascending by bin.
  using Bins = std::vector<std::pair<std::int32_t, std::uint64_t>>;

  static std::int32_t binOf(double magnitude) noexcept;
  static double binMid(std::int32_t bin) noexcept;
  /// += n on `bin`'s count, inserting the bin at its sorted position.
  static void bump(Bins& bins, std::int32_t bin, std::uint64_t n);

  // Sorted (bin, count) entries; negative values are binned by magnitude
  // in their own mirrored histogram.
  Bins positive_;
  Bins negative_;
  std::uint64_t zeroCount_ = 0;
  std::uint64_t count_ = 0;
  double min_ = 0.0;  ///< exact observed extrema (valid when count_ > 0)
  double max_ = 0.0;
};

}  // namespace avmon::experiments::streaming
