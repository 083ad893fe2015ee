// Empirical CDF over a sample set: the exact quantiles the streaming
// quantile sketch is tested against.
#pragma once

#include <cstddef>
#include <vector>

namespace avmon::stats {

/// Empirical cumulative distribution over a fixed sample set.
class Cdf {
 public:
  /// Takes ownership of the samples (sorted internally). Empty is allowed;
  /// all queries then return 0.
  explicit Cdf(std::vector<double> samples);

  std::size_t count() const noexcept { return samples_.size(); }

  /// Smallest sample s such that a fraction >= p of the samples is <= s,
  /// for p in (0,1].
  /// p <= 0 returns the minimum sample.
  double percentile(double p) const noexcept;

  double min() const noexcept { return samples_.empty() ? 0.0 : samples_.front(); }
  double max() const noexcept { return samples_.empty() ? 0.0 : samples_.back(); }

  const std::vector<double>& sorted() const noexcept { return samples_; }

 private:
  std::vector<double> samples_;
};

}  // namespace avmon::stats
