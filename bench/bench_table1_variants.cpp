// Table 1: memory/bandwidth (M), expected discovery time (D), and
// computation (C) of Broadcast vs. the AVMON variants — the paper's
// analytic rows plus a measured spot-check of the AVMON generic row.
#include <iostream>

#include "analysis/formulas.hpp"
#include "analysis/table1.hpp"
#include "avmon/config.hpp"
#include "common.hpp"
#include "experiments/metrics.hpp"
#include "experiments/scenario.hpp"

namespace {

using namespace avmon;

void printAnalytic(std::size_t n) {
  const std::size_t genericCvs = cvsForVariant(CvsVariant::kPaperEval, n);
  stats::TablePrinter table("Table 1 (analytic) at N=" + std::to_string(n) +
                            ", generic cvs=" + std::to_string(genericCvs));
  table.setHeader({"approach", "M (asym)", "D (asym)", "C (asym)",
                   "M entries", "E[D] rounds", "C per round"});
  for (const auto& row : analysis::table1(n, genericCvs)) {
    table.addRow({row.approach, row.memoryAsymptotic, row.discoveryAsymptotic,
                  row.computeAsymptotic,
                  stats::TablePrinter::num(row.memoryEntries, 0),
                  stats::TablePrinter::num(row.discoveryRounds, 1),
                  stats::TablePrinter::num(row.computationsPerRound, 0)});
  }
  table.print(std::cout);
}

void measuredBroadcast(std::size_t n) {
  // Measured Broadcast baseline under the same STAT workload: near-zero
  // discovery time, O(N) memory, O(N) bytes per join. Rides the shared
  // ScenarioRunner via the protocol registry; warmup = 0 keeps the t = 0
  // join broadcasts inside the traffic accounting.
  experiments::Scenario scenario;
  scenario.protocol = "broadcast";
  scenario.model = churn::Model::kStat;
  scenario.stableSize = n;
  scenario.warmup = 0;
  scenario.horizon = 45 * kMinute;
  scenario.seed = 20070601;
  scenario.hashName = "md5";
  experiments::ScenarioRunner runner(scenario);
  runner.run();

  std::vector<double> bytesPerJoin;
  for (const auto& nt : runner.schedule().nodes()) {
    if (nt.sessions.empty()) continue;
    bytesPerJoin.push_back(
        static_cast<double>(runner.trafficOf(nt.id).bytesSent) /
        static_cast<double>(nt.sessions.size()));
  }

  const experiments::MetricSet rows = experiments::collectSamples(runner);
  stats::TablePrinter table("Table 1 (measured), Broadcast baseline, N=" +
                            std::to_string(n) + " (STAT)");
  table.setHeader({"metric", "analytic", "measured"});
  table.addRow({"memory entries", "O(N) ~ " + std::to_string(n),
                benchx::meanPlusMinus(rows.memoryEntries, 0)});
  table.addRow({"first-monitor discovery (s)", "~ broadcast latency",
                benchx::meanPlusMinus(rows.discoverySeconds, 3)});
  table.addRow({"bytes per join", "O(N) ~ " + std::to_string(10 * n),
                benchx::meanPlusMinus(bytesPerJoin, 0)});
  table.print(std::cout);
}

void measuredSpotCheck(std::size_t n) {
  // Measured AVMON at the evaluation's settings (30 min warm-up, 45
  // measured minutes): discovery time in rounds, memory entries, and
  // checks per round, next to the analytic row.
  experiments::Scenario scenario;
  scenario.model = churn::Model::kStat;
  scenario.stableSize = n;
  scenario.warmup = 30 * kMinute;
  scenario.horizon = scenario.warmup + 45 * kMinute;
  scenario.seed = 20070601;
  experiments::ScenarioRunner runner(scenario);
  runner.run();

  const auto& cfg = runner.config();
  const double periodSec = toSeconds(cfg.protocolPeriod);
  const experiments::MetricSet rows = experiments::collectSamples(runner);
  std::vector<double> discoveryRounds;
  for (double s : rows.discoverySeconds)
    discoveryRounds.push_back(s / periodSec);

  std::vector<double> checksPerRound;
  for (double cps : rows.computationsPerSecond)
    checksPerRound.push_back(cps * periodSec);

  stats::TablePrinter table("Table 1 (measured spot-check), AVMON cvs=" +
                            std::to_string(cfg.cvs) + ", N=" +
                            std::to_string(n) + " (STAT)");
  table.setHeader({"metric", "analytic", "measured"});
  table.addRow({"memory entries (cvs+2K)",
                stats::TablePrinter::num(
                    static_cast<double>(cfg.cvs + 2 * cfg.k), 0),
                benchx::meanPlusMinus(rows.memoryEntries, 1)});
  table.addRow({"first-monitor discovery (rounds)",
                "<= " + stats::TablePrinter::num(
                            analysis::expectedDiscoveryRounds(cfg.cvs, n), 2),
                benchx::meanPlusMinus(discoveryRounds, 2)});
  table.addRow({"consistency checks per round",
                "~2(cvs+2)^2 = " +
                    stats::TablePrinter::num(
                        2.0 * static_cast<double>((cfg.cvs + 2) * (cfg.cvs + 2)), 0),
                benchx::meanPlusMinus(checksPerRound, 0)});
  table.print(std::cout);
}

}  // namespace

int main() {
  for (std::size_t n : {2000u, 1000000u}) printAnalytic(n);
  measuredSpotCheck(1000);
  measuredBroadcast(1000);
  return 0;
}
