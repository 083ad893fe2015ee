// Sample statistics and the host clock the bench measures with.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace avmon::bench {

/// Nanoseconds on the host's monotonic clock. steady_clock is
/// CLOCK_MONOTONIC on Linux, shared by every process on the host, so span
/// timestamps from different child processes line up in one trace.
inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double secondsBetween(std::int64_t startNs, std::int64_t endNs) {
  return static_cast<double>(endNs - startNs) * 1e-9;
}

/// Median plus first and third quartiles. The quartiles follow Python's
/// statistics.quantiles(values, n=4) (its default "exclusive" method), so
/// spreads printed here match what an external checker computes.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

inline Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  q.n = values.size();
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  q.median = n % 2 == 1 ? values[n / 2]
                        : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  if (n == 1) {
    q.q1 = q.q3 = q.median;
    return q;
  }
  const long ld = static_cast<long>(n);
  const long m = ld + 1;
  double cut[2];
  for (long i = 1; i <= 3; i += 2) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    cut[i / 2] = (values[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  values[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 4.0;
  }
  q.q1 = cut[0];
  q.q3 = cut[1];
  return q;
}

inline double median(std::vector<double> values) {
  return quartiles(std::move(values)).median;
}

}  // namespace avmon::bench
