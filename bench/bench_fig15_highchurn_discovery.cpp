// Figure 15: CDF of first-monitor discovery time, SYNTH-BD vs SYNTH-BD2
// (doubled birth/death rate), N = 2000.
//
// Paper result: no noticeable difference between the two models —
// AVMON discovery is churn-resistant.
#include <iostream>

#include "common.hpp"

int main() {
  using namespace avmon;

  std::vector<std::pair<std::string, std::vector<double>>> curves;
  for (churn::Model model : {churn::Model::kSynthBD, churn::Model::kSynthBD2}) {
    experiments::ScenarioRunner runner(
        benchx::figureScenario(model, 2000, 120));
    runner.run();

    const experiments::MetricSet rows = experiments::collectSamples(runner);
    std::vector<double> minutes;
    for (double s : rows.discoverySeconds) minutes.push_back(s / 60.0);
    curves.emplace_back(churn::modelName(model) +
                            ", N_longterm=" +
                            std::to_string(runner.schedule().nodes().size()),
                        minutes);

    const stats::Cdf cdf(rows.discoverySeconds);
    std::cout << churn::modelName(model) << ": discovered <=60s = "
              << stats::TablePrinter::num(cdf.fractionAtOrBelow(60.0), 3)
              << ", <=120s = "
              << stats::TablePrinter::num(cdf.fractionAtOrBelow(120.0), 3)
              << "\n";
  }
  benchx::printCdfs(
      "Figure 15: CDF of discovery time (minutes), SYNTH-BD vs SYNTH-BD2",
      curves);
  std::cout << "Paper shape: the two CDFs overlap — doubling birth/death "
               "churn does not slow discovery.\n";
  return 0;
}
