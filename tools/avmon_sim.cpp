// avmon_sim — command-line scenario driver.
//
// Runs the scenario — or the declarative sweep — a spec file describes,
// for any registered protocol, and reports through the metrics writers
// (experiments/metrics.hpp): a summary table (plus a cross-run comparison
// table for sweeps) on stdout, optional CSV files, optional JSON. The
// paper's figures are spec files (examples/specs/paper/): when a spec
// carries expect.* lines, a verdict table follows the tables and the exit
// status is 1 if any expectation failed.
//
// Usage:
//   avmon_sim --spec FILE [--csv PREFIX] [--json FILE]
#include <iostream>
#include <string>

#include "experiments/metrics.hpp"
#include "experiments/parallel_runner.hpp"
#include "experiments/scenario.hpp"
#include "experiments/spec.hpp"

namespace {

using namespace avmon;

[[noreturn]] void usageAndExit(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " --spec FILE [--csv PREFIX] [--json FILE]\n"
      << "  --spec FILE      run the scenario(s) a declarative spec file\n"
      << "                   describes (see examples/specs/ and the key list\n"
      << "                   in src/experiments/spec.hpp); list-valued keys\n"
      << "                   sweep and print a comparison table; expect.*\n"
      << "                   lines print verdicts and set the exit status\n"
      << "  --csv PREFIX     write PREFIX[.<run>].{discovery,memory,\n"
      << "                   bandwidth,pernode}.csv (+ .windows.csv when\n"
      << "                   metrics.reducers selects a windowed group)\n"
      << "  --json FILE      write summary statistics for every run as JSON\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string specPath, csvPrefix, jsonPath;

  try {
    experiments::ArgParser args(argc, argv);
    while (args.next()) {
      const std::string& arg = args.flag();
      if (arg == "--spec") specPath = args.value();
      else if (arg == "--csv") csvPrefix = args.value();
      else if (arg == "--json") jsonPath = args.value();
      else args.failUnknown();
    }
    if (specPath.empty()) {
      throw experiments::UsageError("--spec FILE is required");
    }

    const experiments::SweepSpec sweep =
        experiments::SweepSpec::parseFile(specPath);
    const std::vector<experiments::Scenario> scenarios = sweep.expand();

    // Fail on a bad scenario before any world is built (validate is also
    // run by every ScenarioRunner; doing it here makes spec typos cheap).
    for (const experiments::Scenario& s : scenarios) s.validate();

    std::cout << (scenarios.size() == 1
                      ? "running 1 scenario\n"
                      : "running " + std::to_string(scenarios.size()) +
                            " scenarios\n");

    // Independent scenarios fan out across the worker pool; results come
    // back in input order regardless of thread count. map() tears each
    // world down as soon as its snapshot is harvested, so the per-sample
    // rows the CSV files need are collected here or never.
    const bool wantSamples = !csvPrefix.empty();
    const auto metricSets =
        experiments::ParallelScenarioRunner().map<experiments::MetricSet>(
            scenarios, [wantSamples](experiments::ScenarioRunner& runner) {
              return wantSamples ? experiments::collectSamples(runner)
                                 : experiments::collectMetrics(runner);
            });

    // Files are written before stdout: a reader that stops consuming
    // stdout (| head) must not prevent the artifacts from being written.
    if (!csvPrefix.empty()) experiments::writeCsvFiles(csvPrefix, metricSets);
    if (!jsonPath.empty()) experiments::writeJson(jsonPath, metricSets);
    experiments::printSummaryTables(metricSets, std::cout);
    if (!csvPrefix.empty()) {
      std::cout << "wrote CSV files under prefix " << csvPrefix << "\n";
    }
    if (!jsonPath.empty()) {
      std::cout << "wrote " << jsonPath << "\n";
    }
    if (!sweep.expectations.empty() &&
        experiments::printVerdicts(sweep.expectations, metricSets,
                                   std::cout) > 0) {
      return 1;
    }
  } catch (const experiments::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n\n";
    usageAndExit(argv[0]);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
