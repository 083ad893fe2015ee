#include "common.hpp"

#include <cstdlib>
#include <iostream>

#include "experiments/protocol.hpp"

namespace avmon::benchx {

bool fullScale() {
  // lint:allow(getenv, explicit operator knob selecting the paper's 48 h horizons; read once at startup, never inside a simulation)
  const char* scale = std::getenv("AVMON_BENCH_SCALE");
  return scale != nullptr && std::string(scale) == "full";
}

WallClock::time_point wallClockNow() { return WallClock::now(); }

double secondsSince(WallClock::time_point start) {
  return std::chrono::duration<double>(wallClockNow() - start).count();
}

experiments::Scenario figureScenario(churn::Model model, std::size_t n,
                                     int measureMinutes, std::uint64_t seed) {
  experiments::Scenario s;
  s.model = model;
  s.stableSize = n;
  if (fullScale()) {
    s.warmup = 1 * kHour;
    s.horizon = s.warmup + 48 * kHour;
  } else {
    s.warmup = 30 * kMinute;
    s.horizon = s.warmup + measureMinutes * kMinute;
  }
  s.controlFraction = 0.1;
  s.seed = seed;
  s.hashName = "splitmix64";  // counts are hash-agnostic; see bench_abl_hash
  return s;
}

std::vector<double> measuredMemoryEntries(
    const experiments::ScenarioRunner& runner) {
  std::vector<double> out;
  for (const NodeId& id : runner.measuredIds()) {
    const std::size_t entries = runner.protocol().memoryEntries(id);
    if (entries != 0) out.push_back(static_cast<double>(entries));
  }
  return out;
}

double meanOf(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

stats::Summary summarize(const std::vector<double>& v) {
  stats::Summary s;
  for (double x : v) s.add(x);
  return s;
}

void printCdfs(
    const std::string& title,
    const std::vector<std::pair<std::string, std::vector<double>>>& curves,
    std::size_t points) {
  stats::TablePrinter table(title);
  table.setHeader({"series", "x", "fraction <= x"});
  for (const auto& [label, samples] : curves) {
    const stats::Cdf cdf(samples);
    for (const auto& [x, f] : cdf.curve(points)) {
      table.addRow({label, stats::TablePrinter::num(x, 2),
                    stats::TablePrinter::num(f, 3)});
    }
  }
  table.print(std::cout);
}

std::string meanPlusMinus(const std::vector<double>& v, int precision) {
  const stats::Summary s = summarize(v);
  return stats::TablePrinter::num(s.mean(), precision) + " +/- " +
         stats::TablePrinter::num(s.stddev(), precision) +
         " (n=" + std::to_string(s.count()) + ")";
}

}  // namespace avmon::benchx
