// Figure 6: average time to discover the first L monitors (L = 1, 2, 3)
// for each control node, N = 2000, all three synthetic models.
//
// Paper result: pinging-set nodes are discovered at roughly uniform time
// intervals; all three models behave similarly.
#include <iostream>

#include "common.hpp"
#include "experiments/protocol.hpp"

int main() {
  using namespace avmon;

  stats::TablePrinter table(
      "Figure 6: average time to discovery of first L monitors (minutes), "
      "N=2000");
  table.setHeader({"model", "L", "avg minutes", "stddev", "nodes"});

  for (churn::Model model : {churn::Model::kStat, churn::Model::kSynth,
                             churn::Model::kSynthBD}) {
    experiments::ScenarioRunner runner(
        benchx::figureScenario(model, 2000, 45));
    runner.run();

    for (std::size_t l = 1; l <= 3; ++l) {
      std::vector<double> minutes;
      for (const NodeId& id : runner.measuredIds()) {
        if (const auto d = runner.protocol().discoveryDelay(id, l)) {
          minutes.push_back(toSeconds(*d) / 60.0);
        }
      }
      const auto summary = benchx::summarize(minutes);
      table.addRow({churn::modelName(model), std::to_string(l),
                    stats::TablePrinter::num(summary.mean(), 2),
                    stats::TablePrinter::num(summary.stddev(), 2),
                    std::to_string(summary.count())});
    }
  }
  table.print(std::cout);
  std::cout << "Paper shape: roughly uniform spacing between successive "
               "monitor discoveries (L=1..3 within a few minutes).\n";
  return 0;
}
