// Figure 12: per-node memory entries and computations per second vs.
// coarse view size, STAT model, N in {500, 2000}.
//
// Paper result: for fixed cvs, N has no influence on either metric;
// memory grows linearly in cvs and computation quadratically.
#include <cmath>
#include <iostream>

#include "common.hpp"

int main() {
  using namespace avmon;

  stats::TablePrinter table(
      "Figure 12: memory entries and computations/s vs cvs, STAT model");
  table.setHeader({"N", "cvs", "avg memory entries", "avg comps/s",
                   "analytic 2cvs^2/60"});

  for (std::size_t n : {500u, 2000u}) {
    for (int multiplier : {4, 6, 8, 10}) {
      auto scenario = benchx::figureScenario(churn::Model::kStat, n, 45);
      AvmonConfig cfg = AvmonConfig::paperDefaults(n);
      cfg.cvs = static_cast<std::size_t>(std::llround(
          multiplier * std::pow(static_cast<double>(n), 0.25)));
      scenario.configOverride = cfg;

      experiments::ScenarioRunner runner(scenario);
      runner.run();

      const double cvs = static_cast<double>(cfg.cvs);
      table.addRow(
          {std::to_string(n), std::to_string(cfg.cvs),
           stats::TablePrinter::num(
               benchx::meanOf(benchx::measuredMemoryEntries(runner)), 1),
           stats::TablePrinter::num(
               benchx::meanOf(
                   experiments::collectSamples(runner).computationsPerSecond),
               2),
           stats::TablePrinter::num(2.0 * cvs * cvs / 60.0, 2)});
    }
  }
  table.print(std::cout);
  std::cout << "Paper shape: for equal cvs the two N curves coincide; "
               "memory linear and computation quadratic in cvs.\n";
  return 0;
}
