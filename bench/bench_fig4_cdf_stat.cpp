// Figure 4: CDF of first-monitor discovery time in the STAT model, for
// N = 100 and N = 2000.
//
// Paper result: at least 96% of control nodes discover a monitor within
// 30 seconds for all N in 100..2000.
#include <iostream>

#include "common.hpp"

int main() {
  using namespace avmon;

  std::vector<std::pair<std::string, std::vector<double>>> curves;
  for (std::size_t n : {100u, 2000u}) {
    experiments::ScenarioRunner runner(
        benchx::figureScenario(churn::Model::kStat, n, 30));
    runner.run();
    const auto delays = experiments::collectSamples(runner).discoverySeconds;
    curves.emplace_back("STAT, N=" + std::to_string(n), delays);

    const stats::Cdf cdf(delays);
    std::cout << "STAT N=" << n << ": fraction discovered <=30s = "
              << stats::TablePrinter::num(cdf.fractionAtOrBelow(30.0), 3)
              << ", <=60s = "
              << stats::TablePrinter::num(cdf.fractionAtOrBelow(60.0), 3)
              << "\n";
  }
  benchx::printCdfs(
      "Figure 4: CDF of discovery time (seconds), STAT model", curves);
  std::cout << "Paper shape: >=96% of nodes discovered within 30 seconds.\n";
  return 0;
}
