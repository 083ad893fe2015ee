// Figure 9: average per-node memory entries (|PS| + |TS| + |CV|) vs. N,
// for STAT / SYNTH / SYNTH-BD.
//
// Paper result: close to the expected cvs + 2K entries (e.g. 49 at
// N=2000); churned models slightly above due to PS/TS garbage.
#include <iostream>

#include "common.hpp"

int main() {
  using namespace avmon;

  stats::TablePrinter table(
      "Figure 9: average memory entries per node (|PS|+|TS|+|CV|)");
  table.setHeader(
      {"model", "N", "avg entries", "stddev", "expected cvs+2K"});

  for (churn::Model model : {churn::Model::kStat, churn::Model::kSynth,
                             churn::Model::kSynthBD}) {
    for (std::size_t n : {100u, 500u, 1000u, 2000u}) {
      // Longer window so the churned models accumulate garbage entries.
      experiments::ScenarioRunner runner(
          benchx::figureScenario(model, n, 60));
      runner.run();

      const auto summary =
          benchx::summarize(benchx::measuredMemoryEntries(runner));
      const auto& cfg = runner.config();
      table.addRow(
          {churn::modelName(model), std::to_string(n),
           stats::TablePrinter::num(summary.mean(), 1),
           stats::TablePrinter::num(summary.stddev(), 1),
           std::to_string(cfg.cvs + 2 * cfg.k)});
    }
  }
  table.print(std::cout);
  std::cout << "Paper shape: STAT at or below cvs+2K; SYNTH/SYNTH-BD "
               "slightly above (dead-node garbage in PS/TS).\n";
  return 0;
}
