// Figure 18: average useless monitoring pings per minute (pings to nodes
// currently absent) vs N, with and without forgetful pinging, SYNTH model.
//
// Paper result: forgetful pinging reduces useless pings by an order of
// magnitude.
#include <iostream>

#include "common.hpp"

int main() {
  using namespace avmon;

  stats::TablePrinter table(
      "Figure 18: average useless pings per minute per node, SYNTH model");
  table.setHeader({"N", "Forgetful", "Forgetful-EWMA", "NON-Forgetful",
                   "reduction x"});

  for (std::size_t n : {200u, 1000u, 2000u}) {
    double means[3] = {0, 0, 0};
    int i = 0;
    // Variants: forgetful (paper default), forgetful with the paper's
    // "exponentially averaged" ts(u) alternative, and no optimization.
    for (auto [forgetful, ewma] :
         {std::pair{true, false}, {true, true}, {false, false}}) {
      auto scenario = benchx::figureScenario(churn::Model::kSynth, n, 90);
      scenario.forgetful = forgetful;
      scenario.forgetfulEwma = ewma;
      experiments::ScenarioRunner runner(scenario);
      runner.run();
      const auto rows = experiments::collectSamples(runner);
      means[i++] = benchx::meanOf(rows.uselessPingsPerMinute);
    }
    table.addRow(
        {std::to_string(n), stats::TablePrinter::num(means[0], 3),
         stats::TablePrinter::num(means[1], 3),
         stats::TablePrinter::num(means[2], 3),
         stats::TablePrinter::num(means[0] > 0 ? means[2] / means[0] : 0, 1)});
  }
  table.print(std::cout);
  std::cout << "Paper shape: forgetful pinging cuts useless pings by about "
               "an order of magnitude at every N.\n";
  return 0;
}
