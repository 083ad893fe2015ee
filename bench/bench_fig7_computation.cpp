// Figure 7: average consistency-condition computations per second per
// node vs. N, for STAT / SYNTH / SYNTH-BD.
//
// Paper result: sublinear growth in N (cvs = 4·⁴√N), per-minute overhead
// close to 2·cvs², and little influence from churn.
#include <iostream>

#include "common.hpp"

int main() {
  using namespace avmon;

  stats::TablePrinter table(
      "Figure 7: average computations per second per node");
  table.setHeader({"model", "N", "cvs", "avg comps/s", "stddev",
                   "analytic 2cvs^2/60"});

  for (churn::Model model : {churn::Model::kStat, churn::Model::kSynth,
                             churn::Model::kSynthBD}) {
    for (std::size_t n : {100u, 500u, 1000u, 2000u}) {
      experiments::ScenarioRunner runner(
          benchx::figureScenario(model, n, 45));
      runner.run();

      const auto rows = experiments::collectSamples(runner);
      const auto summary = benchx::summarize(rows.computationsPerSecond);
      const double cvs = static_cast<double>(runner.config().cvs);
      table.addRow({churn::modelName(model), std::to_string(n),
                    std::to_string(runner.config().cvs),
                    stats::TablePrinter::num(summary.mean(), 2),
                    stats::TablePrinter::num(summary.stddev(), 2),
                    stats::TablePrinter::num(2.0 * cvs * cvs / 60.0, 2)});
    }
  }
  table.print(std::cout);
  std::cout << "Paper shape: sublinear in N; close to 2*cvs^2 checks per "
               "minute; churn-insensitive.\n";
  return 0;
}
