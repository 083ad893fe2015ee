#include "common.hpp"

#include "stats/summary.hpp"

namespace avmon::benchx {

WallClock::time_point wallClockNow() { return WallClock::now(); }

double secondsSince(WallClock::time_point start) {
  return std::chrono::duration<double>(wallClockNow() - start).count();
}

std::string meanPlusMinus(const std::vector<double>& v, int precision) {
  stats::Summary s;
  for (double x : v) s.add(x);
  return stats::TablePrinter::num(s.mean(), precision) + " +/- " +
         stats::TablePrinter::num(s.stddev(), precision) +
         " (n=" + std::to_string(s.count()) + ")";
}

}  // namespace avmon::benchx
