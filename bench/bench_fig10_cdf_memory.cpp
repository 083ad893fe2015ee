// Figure 10: CDF across nodes of memory entries (|PS|+|TS|+|CV|), for
// N in {100, 2000} and all three synthetic models.
//
// Paper result: memory usage is uniformly distributed across nodes and
// minimally influenced by churn.
#include <iostream>

#include "common.hpp"

int main() {
  using namespace avmon;

  std::vector<std::pair<std::string, std::vector<double>>> curves;
  for (churn::Model model : {churn::Model::kStat, churn::Model::kSynth,
                             churn::Model::kSynthBD}) {
    for (std::size_t n : {100u, 2000u}) {
      experiments::ScenarioRunner runner(
          benchx::figureScenario(model, n, 90));
      runner.run();
      curves.emplace_back(
          churn::modelName(model) + ", N=" + std::to_string(n),
          experiments::collectSamples(runner).memoryEntries);
    }
  }
  benchx::printCdfs(
      "Figure 10: CDF of memory entries per node (|PS|+|TS|+|CV|)", curves);
  std::cout << "Paper shape: tight CDFs around cvs+2K; churn shifts the "
               "curves only slightly right.\n";
  return 0;
}
