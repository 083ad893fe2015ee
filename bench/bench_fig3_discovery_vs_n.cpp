// Figure 3: average discovery time of the first monitor for control-group
// nodes, vs. system size N, for STAT / SYNTH / SYNTH-BD.
//
// Paper result: stays below 1 minute for all N in 100..2000; insensitive
// to join/leave churn, slightly higher with births/deaths.
#include <algorithm>
#include <iostream>

#include "common.hpp"

int main() {
  using namespace avmon;

  stats::TablePrinter table(
      "Figure 3: average discovery time of first monitor (minutes)");
  table.setHeader({"model", "N", "avg minutes", "stddev", "nodes measured"});

  for (churn::Model model : {churn::Model::kStat, churn::Model::kSynth,
                             churn::Model::kSynthBD}) {
    for (std::size_t n : {100u, 500u, 1000u, 2000u}) {
      // Birth/death models need a longer measured window to accumulate
      // born-after-warm-up nodes (births arrive at only 0.2N/day).
      const int window = model == churn::Model::kSynthBD ? 120 : 30;
      experiments::ScenarioRunner runner(
          benchx::figureScenario(model, n, window));
      runner.run();

      std::vector<double> minutes;
      for (double s : experiments::collectSamples(runner).discoverySeconds)
        minutes.push_back(s / 60.0);
      // The paper drops the single largest outlier per setting (footnote 8).
      if (minutes.size() > 1) {
        minutes.erase(std::max_element(minutes.begin(), minutes.end()));
      }

      const auto summary = benchx::summarize(minutes);
      table.addRow({churn::modelName(model), std::to_string(n),
                    stats::TablePrinter::num(summary.mean(), 3),
                    stats::TablePrinter::num(summary.stddev(), 3),
                    std::to_string(summary.count())});
    }
  }
  table.print(std::cout);
  std::cout << "Paper shape: all averages below ~1 minute; STAT ~= SYNTH; "
               "SYNTH-BD slightly higher.\n";
  return 0;
}
