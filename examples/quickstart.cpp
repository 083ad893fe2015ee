// Quickstart: spin up a 200-node AVMON deployment in the simulator, let
// the availability monitoring overlay discover itself, then inspect one
// node's pinging set (who monitors it), target set (whom it monitors),
// and verify a reported monitor the way any third party would.
//
// Build & run:   ./examples/quickstart   (no arguments)
#include <iostream>

#include "experiments/metrics.hpp"
#include "experiments/scenario.hpp"
#include "stats/table_printer.hpp"

int main() {
  using namespace avmon;

  // 1. Describe the deployment: 200 nodes, no churn, paper-default
  //    protocol settings (cvs = 4*N^0.25, K = log2 N, 1-minute periods).
  experiments::Scenario scenario;
  scenario.model = churn::Model::kStat;
  scenario.stableSize = 200;
  scenario.warmup = 15 * kMinute;
  scenario.horizon = 45 * kMinute;
  scenario.hashName = "md5";  // the paper's hash
  scenario.seed = 7;

  // 2. Run it.
  experiments::ScenarioRunner runner(scenario);
  runner.run();

  std::cout << "AVMON quickstart: N=" << runner.effectiveN()
            << ", K=" << runner.config().k << ", cvs=" << runner.config().cvs
            << " (" << runner.config().cvs << " coarse-view entries/node)\n\n";

  // 3. Discovery worked: control nodes found monitors within ~a minute.
  const experiments::MetricSet metrics = experiments::collectMetrics(runner);
  std::cout << "Control nodes that discovered a monitor: "
            << stats::TablePrinter::num(100 * metrics.discoveredFraction, 1)
            << "%\n";
  const auto& delays = metrics.summary().discoverySeconds.stats;
  if (delays.count() > 0) {
    std::cout << "Average time to first monitor: "
              << stats::TablePrinter::num(delays.mean(), 1) << " s\n\n";
  }

  // 4. Inspect one node.
  const NodeId someone = runner.measuredIds().front();
  const AvmonNode& node = runner.node(someone);
  std::cout << "Node " << someone.toString() << ":\n"
            << "  monitored by " << node.pingingSet().size()
            << " nodes (PS), monitors " << node.targetSet().size()
            << " nodes (TS), coarse view " << node.coarseView().size()
            << " entries\n";

  // 5. Verifiability: ask the node to report monitors under an
  //    "l out of K" policy, then check each against the public scheme —
  //    no trust in the node required.
  hash::Md5HashFunction md5;
  HashMonitorSelector verifier(md5, runner.config().k, runner.effectiveN());
  std::cout << "  reported monitors (l=3 policy):\n";
  for (const NodeId& m : node.reportMonitors(3)) {
    std::cout << "    " << m.toString() << " -> verifies: "
              << (verifier.isMonitor(m, someone) ? "yes" : "NO (forged!)")
              << "\n";
  }

  // 6. Availability queries go to the monitors, not the node itself.
  for (const NodeId& m : node.reportMonitors(1)) {
    if (const auto est = runner.node(m).availabilityEstimateOf(someone)) {
      std::cout << "  monitor " << m.toString() << " estimates availability "
                << stats::TablePrinter::num(*est, 3) << "\n";
    }
  }
  return 0;
}
