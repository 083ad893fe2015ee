#include "stats/cdf.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace avmon::stats {

Cdf::Cdf(std::vector<double> samples) : samples_(std::move(samples)) {
  std::sort(samples_.begin(), samples_.end());
}

double Cdf::percentile(double p) const noexcept {
  if (samples_.empty()) return 0.0;
  // !(p > 0) also catches NaN, which must not reach the float->size_t cast
  // below (undefined behavior); p >= 1 avoids ceil(p*n) rounding past n.
  if (!(p > 0.0)) return samples_.front();
  if (p >= 1.0) return samples_.back();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples_.size())));
  return samples_[std::min(rank == 0 ? 0 : rank - 1, samples_.size() - 1)];
}

}  // namespace avmon::stats
