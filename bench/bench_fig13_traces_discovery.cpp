// Figure 13: CDF of first-monitor discovery time under the PlanetLab-like
// (PL) and Overnet-like (OV) traces.
//
// Paper result: PL (N=239, K=8, cvs=16) discovers >98% of first monitors
// within about a minute of birth; OV (N=550, K=9, cvs=19) reaches 97.27%
// within 63 seconds.
#include <iostream>

#include "common.hpp"

int main() {
  using namespace avmon;

  std::vector<std::pair<std::string, std::vector<double>>> curves;
  for (churn::Model model : {churn::Model::kPlanetLab, churn::Model::kOvernet}) {
    experiments::ScenarioRunner runner(
        benchx::figureScenario(model, 0, 180));
    runner.run();

    const experiments::MetricSet rows = experiments::collectSamples(runner);
    std::vector<double> minutes;
    for (double s : rows.discoverySeconds) minutes.push_back(s / 60.0);
    curves.emplace_back(churn::modelName(model), minutes);

    const stats::Cdf cdf(rows.discoverySeconds);
    std::cout << churn::modelName(model)
              << ": N=" << runner.effectiveN()
              << " K=" << runner.config().k << " cvs=" << runner.config().cvs
              << "; measured nodes=" << runner.measuredIds().size()
              << "; discovered <=63s = "
              << stats::TablePrinter::num(cdf.fractionAtOrBelow(63.0), 4)
              << " of discoveries; overall discovered fraction = "
              << stats::TablePrinter::num(rows.discoveredFraction, 3)
              << "\n";
  }
  benchx::printCdfs(
      "Figure 13: CDF of discovery time of first monitors (minutes)", curves);
  std::cout << "Paper shape: ~97-98% of first monitors found within about "
               "one minute of birth for both traces.\n";
  return 0;
}
