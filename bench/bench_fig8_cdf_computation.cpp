// Figure 8: CDF across nodes of per-second consistency-condition
// computations, for N in {100, 2000} and all three synthetic models.
//
// Paper result: tight distributions (load balance), worst case ~1% CPU.
#include <iostream>

#include "common.hpp"

int main() {
  using namespace avmon;

  std::vector<std::pair<std::string, std::vector<double>>> curves;
  for (churn::Model model : {churn::Model::kStat, churn::Model::kSynth,
                             churn::Model::kSynthBD}) {
    for (std::size_t n : {100u, 2000u}) {
      experiments::ScenarioRunner runner(
          benchx::figureScenario(model, n, 45));
      runner.run();
      curves.emplace_back(
          churn::modelName(model) + ", N=" + std::to_string(n),
          experiments::collectSamples(runner).computationsPerSecond);
    }
  }
  benchx::printCdfs(
      "Figure 8: CDF of average computations per second across nodes",
      curves);
  std::cout << "Paper shape: narrow spread around 2*cvs^2/60 per node "
               "(load-balanced computation).\n";
  return 0;
}
