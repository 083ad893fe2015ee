// Figure 19: CDF of per-node outgoing bandwidth (bytes/second) for STAT,
// STAT with the PR2 optimization, and the Overnet-like trace.
//
// Paper result: STAT keeps 88% of nodes below 10 Bps with a heavy tail
// that PR2 flattens (all below ~9 Bps); OV is more uniform, with 99.85%
// of nodes below 11 Bps.
#include <algorithm>
#include <iostream>

#include "common.hpp"

int main() {
  using namespace avmon;

  std::vector<std::pair<std::string, std::vector<double>>> curves;

  const auto report = [](const std::string& label,
                         const std::vector<double>& bps) {
    const stats::Cdf cdf(bps);
    std::cout << label << ": fraction below 10 Bps = "
              << stats::TablePrinter::num(cdf.fractionAtOrBelow(10.0), 4)
              << ", p99 = " << stats::TablePrinter::num(cdf.percentile(0.99), 2)
              << " Bps, max = " << stats::TablePrinter::num(cdf.max(), 2)
              << " Bps\n";
  };

  for (bool pr2 : {false, true}) {
    auto scenario = benchx::figureScenario(churn::Model::kStat, 2000, 90);
    scenario.pr2 = pr2;
    experiments::ScenarioRunner runner(scenario);
    runner.run();
    const experiments::MetricSet rows = experiments::collectSamples(runner);
    const std::string label = pr2 ? "STAT-PR2, N=2000" : "STAT, N=2000";
    curves.emplace_back(label, rows.outgoingBytesPerSecond);
    report(label, rows.outgoingBytesPerSecond);

    // Tail diagnosis: what the heaviest sender is actually sending.
    const auto top = std::max_element(
        rows.perNode.begin(), rows.perNode.end(),
        [](const auto& a, const auto& b) { return a.bytesSent < b.bytesSent; });
    const auto& node = runner.node(top->id);
    std::cout << "  heaviest sender " << top->id.toString()
              << ": notifies=" << node.metrics().notifiesSent
              << " cvFetches=" << node.metrics().cvFetches
              << " monitorPings=" << node.metrics().monitoringPingsSent
              << " |TS|=" << node.targetSet().size()
              << " |PS|=" << node.pingingSet().size() << "\n";
  }

  {
    experiments::ScenarioRunner runner(
        benchx::figureScenario(churn::Model::kOvernet, 0, 180));
    runner.run();
    const auto bps = experiments::collectSamples(runner).outgoingBytesPerSecond;
    curves.emplace_back("OV", bps);
    report("OV", bps);
  }

  benchx::printCdfs(
      "Figure 19: CDF of per-node outgoing bandwidth (bytes per second)",
      curves);
  std::cout << "Paper shape: most nodes below ~10 Bps; PR2 trims the STAT "
               "tail; OV uniform.\n";
  return 0;
}
