// Ablation A2: the optimal cvs variants head-to-head. Measures the M/D/C
// tradeoff of Section 4.2 empirically: cvs = log N vs ∛(2N) (Optimal-MD)
// vs ⁴√N (Optimal-MDC) vs the evaluation's 4·⁴√N.
#include <iostream>

#include "analysis/formulas.hpp"
#include "common.hpp"

int main() {
  using namespace avmon;

  constexpr std::size_t kN = 2000;
  stats::TablePrinter table(
      "Ablation A2: measured M/D/C per cvs variant (STAT, N=2000)");
  table.setHeader({"variant", "cvs", "avg memory", "avg discovery s",
                   "discovered frac", "avg comps/s", "analytic E[D] rounds"});

  for (CvsVariant variant :
       {CvsVariant::kLogN, CvsVariant::kOptimalMD, CvsVariant::kOptimalMDC,
        CvsVariant::kPaperEval}) {
    auto scenario = benchx::figureScenario(churn::Model::kStat, kN, 60);
    scenario.configOverride = AvmonConfig::forVariant(variant, kN);
    experiments::ScenarioRunner runner(scenario);
    runner.run();

    const std::size_t cvs = runner.config().cvs;
    const experiments::MetricSet rows = experiments::collectSamples(runner);
    table.addRow(
        {variantName(variant), std::to_string(cvs),
         stats::TablePrinter::num(
             benchx::meanOf(benchx::measuredMemoryEntries(runner)), 1),
         stats::TablePrinter::num(benchx::meanOf(rows.discoverySeconds), 1),
         stats::TablePrinter::num(rows.discoveredFraction, 3),
         stats::TablePrinter::num(
             benchx::meanOf(rows.computationsPerSecond), 2),
         stats::TablePrinter::num(
             analysis::expectedDiscoveryRounds(cvs, kN), 1)});
  }
  table.print(std::cout);
  std::cout << "Expected: larger cvs buys faster discovery at the cost of "
               "memory and computation — the Section 4.2 tradeoff.\n";
  return 0;
}
