// Attack audit: what selfishness and collusion can and cannot do.
//
// The whole audit is driven through the declarative experiment path: ONE
// spec arms the same collusion coalition against the self-report baseline
// and AVMON, and the shared adversary layer (experiments/adversary.hpp)
// measures what the coalition actually controls in each scheme.
//
//  1. Under self-reporting a coalition member inflates its own record for
//     free — nothing to verify against. Under AVMON the same coalition
//     moves neither its own records nor its victims': monitors are chosen
//     by hash, and a victim is eclipsed only if EVERY hash-selected
//     monitor happens to be a colluder.
//  2. AVMON "l out of K" reporting: a node must name its monitors and any
//     third party verifies each against the public consistency condition;
//     forged monitor lists are rejected outright.
//  3. The Section 4.3 closed forms make the eclipse event probabilistically
//     negligible as the system grows.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/formulas.hpp"
#include "experiments/adversary.hpp"
#include "experiments/metrics.hpp"
#include "experiments/spec.hpp"
#include "stats/table_printer.hpp"

namespace {

/// Mean |estimated - actual| over the cohort's OWN availability records —
/// how far the cohort moved what the system believes about the cohort.
std::optional<double> cohortRecordError(
    const avmon::experiments::ScenarioRunner& runner,
    const std::vector<avmon::NodeId>& cohort) {
  using namespace avmon;
  double sum = 0.0;
  std::size_t count = 0;
  for (const trace::NodeTrace& nt : runner.schedule().nodes()) {
    if (std::find(cohort.begin(), cohort.end(), nt.id) == cohort.end())
      continue;
    if (const auto acc =
            experiments::alignedAccuracyOf(runner.protocol(), nt)) {
      sum += std::fabs(acc->estimated - acc->actual);
      ++count;
    }
  }
  if (count == 0) return std::nullopt;
  return sum / static_cast<double>(count);
}

}  // namespace

int main() {
  using namespace avmon;
  using namespace avmon::experiments;

  // --- 1. The same adversary budget against both schemes ---------------
  // Same world, same seed, same resolved coalition — the protocol axis is
  // the only thing that varies.
  const std::string specText =
      "protocol = self_report, avmon\n"
      "model = SYNTH\n"
      "n = 250\n"
      "horizon_min = 150\n"
      "warmup_min = 30\n"
      "seed = 1337\n"
      "hash = md5\n"
      "attack.collusion = 4\n"
      "attack.victims = 5\n";
  std::cout << "[1] One spec, two schemes, one coalition:\n\n"
            << specText << "\n";
  const SweepSpec sweep = SweepSpec::parse(specText);

  stats::TablePrinter audit("What the coalition actually controls");
  audit.setHeader({"scheme", "own records |err|", "victims eclipsed",
                   "victim records |err|"});

  std::vector<std::unique_ptr<ScenarioRunner>> runners;
  std::vector<MetricSet> runs;
  for (const Scenario& scenario : sweep.expand()) {
    runners.push_back(std::make_unique<ScenarioRunner>(scenario));
    ScenarioRunner& runner = *runners.back();
    runner.run();
    runs.push_back(collectMetrics(runner));

    const ResolvedAdversary& adversary = runner.adversary();
    const auto outcomes =
        victimOutcomes(runner.protocol(), adversary, runner.schedule());
    std::size_t eclipsed = 0;
    double victimErr = 0.0;
    std::size_t victimReporters = 0;
    for (const VictimOutcome& v : outcomes) {
      eclipsed += v.eclipsed ? 1 : 0;
      if (v.estimateAbsError) {
        victimErr += *v.estimateAbsError;
        ++victimReporters;
      }
    }
    const auto ownErr = cohortRecordError(runner, adversary.colluders);
    audit.addRow(
        {scenario.protocol,
         ownErr ? stats::TablePrinter::num(*ownErr, 3) : "n/a",
         std::to_string(eclipsed) + "/" + std::to_string(outcomes.size()),
         victimReporters != 0
             ? stats::TablePrinter::num(victimErr / victimReporters, 3)
             : "n/a"});
  }
  printSummaryTables(runs, std::cout);
  audit.print(std::cout);
  std::cout << "Self-reporting hands the coalition its own records for free "
               "(reported 100%, actual far below); AVMON's hash-selected "
               "monitors leave the same coalition nothing to move.\n\n";

  // --- 2. AVMON verification rejects forged monitor lists --------------
  std::cout << "[2] AVMON l-out-of-K verification\n";
  const auto avmonIt =
      std::find_if(runners.begin(), runners.end(), [](const auto& r) {
        return r->scenario().protocol == "avmon";
      });
  const ScenarioRunner& avmonRun = **avmonIt;

  hash::Md5HashFunction md5;
  HashMonitorSelector verifier(md5, avmonRun.config().k,
                               avmonRun.effectiveN());

  const NodeId victim = avmonRun.measuredIds().front();
  const auto honest = avmonRun.node(victim).reportMonitors(3);
  std::size_t acceptedHonest = 0;
  for (const NodeId& m : honest)
    acceptedHonest += verifier.isMonitor(m, victim) ? 1 : 0;
  std::cout << "    honest report: " << acceptedHonest << "/" << honest.size()
            << " monitors verified\n";

  // A selfish node instead names three random "friends" as its monitors.
  std::size_t acceptedForged = 0;
  for (std::uint32_t f = 0; f < 3; ++f) {
    const NodeId friendId = NodeId::fromIndex(900 + f);
    acceptedForged += verifier.isMonitor(friendId, victim) ? 1 : 0;
  }
  std::cout << "    forged report (3 arbitrary friends): " << acceptedForged
            << "/3 pass verification -> report rejected\n\n";

  // --- 3. Colluders who do pass the condition barely matter ------------
  std::cout << "[3] Collusion analysis (Section 4.3)\n";
  stats::TablePrinter table(
      "P(no colluder lands in a node's pinging set), K = log2 N");
  table.setHeader({"N", "K", "colluders C", "P(PS clean)"});
  for (std::size_t n : {1000u, 100000u, 1000000u}) {
    const unsigned k = defaultK(n);
    for (std::size_t c : {3u, 10u}) {
      table.addRow({std::to_string(n), std::to_string(k), std::to_string(c),
                    stats::TablePrinter::num(
                        analysis::probNoColluderInPS(n, k, c), 5)});
    }
  }
  table.print(std::cout);
  std::cout << "A constant-size collusion ring cannot pollute pinging sets "
               "as the system grows: monitors are chosen by hash, not by "
               "the monitored node.\n";
  return 0;
}
