// Figure 11: average discovery time (with stddev) vs. coarse view size,
// STAT model, N in {500, 1000, 2000}, cvs in {4,6,8,10}·⁴√N.
//
// Paper result: discovery time falls as cvs grows, with a knee at
// cvs = 8·⁴√N beyond which further increases buy little.
#include <cmath>
#include <iostream>

#include "common.hpp"

int main() {
  using namespace avmon;

  stats::TablePrinter table(
      "Figure 11: average discovery time (seconds) vs cvs, STAT model");
  table.setHeader({"N", "cvs multiplier", "cvs", "avg seconds", "stddev"});

  for (std::size_t n : {500u, 1000u, 2000u}) {
    for (int multiplier : {4, 6, 8, 10}) {
      auto scenario = benchx::figureScenario(churn::Model::kStat, n, 30);
      AvmonConfig cfg = AvmonConfig::paperDefaults(n);
      cfg.cvs = static_cast<std::size_t>(std::llround(
          multiplier * std::pow(static_cast<double>(n), 0.25)));
      scenario.configOverride = cfg;

      experiments::ScenarioRunner runner(scenario);
      runner.run();

      const auto rows = experiments::collectSamples(runner);
      const auto summary = benchx::summarize(rows.discoverySeconds);
      table.addRow({std::to_string(n), std::to_string(multiplier) + "*N^0.25",
                    std::to_string(cfg.cvs),
                    stats::TablePrinter::num(summary.mean(), 2),
                    stats::TablePrinter::num(summary.stddev(), 2)});
    }
  }
  table.print(std::cout);
  std::cout << "Paper shape: decreasing in cvs with a knee near 8*N^0.25.\n";
  return 0;
}
