// Figure 14: CDF of per-node memory entries under the PL and OV traces.
//
// Paper result: memory uniformly distributed; OV sits above its expected
// 19 + 2·9 = 37 entries because births/deaths leave PS/TS garbage, but no
// node exceeded 81 entries; PL peaked at 44.
#include <iostream>

#include "common.hpp"

int main() {
  using namespace avmon;

  std::vector<std::pair<std::string, std::vector<double>>> curves;
  for (churn::Model model : {churn::Model::kPlanetLab, churn::Model::kOvernet}) {
    experiments::ScenarioRunner runner(
        benchx::figureScenario(model, 0, 180));
    runner.run();

    const auto entries = experiments::collectSamples(runner).memoryEntries;
    curves.emplace_back(churn::modelName(model), entries);

    const auto summary = benchx::summarize(entries);
    const auto& cfg = runner.config();
    std::cout << churn::modelName(model) << ": expected cvs+2K = "
              << cfg.cvs + 2 * cfg.k
              << ", mean = " << stats::TablePrinter::num(summary.mean(), 1)
              << ", max = " << stats::TablePrinter::num(summary.max(), 0)
              << "\n";
  }
  benchx::printCdfs("Figure 14: CDF of memory entries per node (PL, OV)",
                    curves);
  std::cout << "Paper shape: OV above its expected 37 entries due to "
               "birth/death garbage but bounded; PL tight around 32.\n";
  return 0;
}
