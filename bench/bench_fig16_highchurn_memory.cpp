// Figure 16: average memory entries vs N, SYNTH-BD vs SYNTH-BD2.
//
// Paper result: the extra garbage from doubled birth/death churn costs
// less than 10% additional memory entries.
#include <iostream>

#include "common.hpp"

int main() {
  using namespace avmon;

  stats::TablePrinter table(
      "Figure 16: average memory entries, SYNTH-BD vs SYNTH-BD2");
  table.setHeader({"N", "SYNTH-BD avg", "SYNTH-BD2 avg", "increase %"});

  for (std::size_t n : {100u, 500u, 1000u, 2000u}) {
    double means[2] = {0, 0};
    int i = 0;
    for (churn::Model model :
         {churn::Model::kSynthBD, churn::Model::kSynthBD2}) {
      experiments::ScenarioRunner runner(
          benchx::figureScenario(model, n, 120));
      runner.run();
      means[i++] =
          benchx::meanOf(experiments::collectSamples(runner).memoryEntries);
    }
    const double pct =
        means[0] > 0 ? 100.0 * (means[1] - means[0]) / means[0] : 0.0;
    table.addRow({std::to_string(n), stats::TablePrinter::num(means[0], 1),
                  stats::TablePrinter::num(means[1], 1),
                  stats::TablePrinter::num(pct, 1)});
  }
  table.print(std::cout);
  std::cout << "Paper shape: SYNTH-BD2 within ~10% of SYNTH-BD memory.\n";
  return 0;
}
