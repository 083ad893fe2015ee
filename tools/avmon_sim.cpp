// avmon_sim — command-line scenario driver.
//
// Runs one scenario — or a declarative sweep — for any registered
// protocol and reports through the unified metrics sinks: a summary table
// (plus a cross-run comparison table for sweeps) on stdout, optional CSV
// files, optional JSON. All figure benches are fixed-recipe wrappers over
// the same runner; this tool is the free-form entry point.
//
// Usage:
//   avmon_sim --spec FILE [--csv PREFIX] [--json FILE]
//   avmon_sim [--protocol P] [--model M] [--n 1000] [--minutes 90]
//             [--warmup-min 30] [--seed 1] [--hash md5] [--cvs 0] [--k 0]
//             [--pr2] [--no-forgetful] [--overreport 0.0] [--drop 0.0]
//             [--shards 1] [--stream-metrics]
//             [--metrics-window S] [--csv PREFIX] [--json FILE]
#include <cmath>
#include <iostream>
#include <string>

#include "experiments/metrics.hpp"
#include "experiments/parallel_runner.hpp"
#include "experiments/protocol_registry.hpp"
#include "experiments/scenario.hpp"
#include "experiments/spec.hpp"

namespace {

using namespace avmon;

[[noreturn]] void usageAndExit(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --spec FILE      run the scenario(s) a declarative spec file\n"
      << "                   describes (see examples/specs/); list-valued\n"
      << "                   keys sweep and print a comparison table.\n"
      << "                   Mutually exclusive with the scenario flags.\n"
      << "  --protocol P     " << experiments::ProtocolRegistry::instance()
                                     .namesJoined()
      << " (default avmon)\n"
      << "  --model M        STAT|SYNTH|SYNTH-BD|SYNTH-BD2|PL|OV (default STAT)\n"
      << "  --n N            stable system size (default 1000; PL/OV fixed)\n"
      << "  --minutes M      measured minutes after warm-up (default 90)\n"
      << "  --warmup-min M   warm-up minutes (default 30)\n"
      << "  --seed S         RNG seed (default 1)\n"
      << "  --hash H         md5|sha1|splitmix64 (default md5)\n"
      << "  --cvs C          coarse view size (default: paper 4*N^0.25)\n"
      << "  --k K            pinging set size (default: log2 N)\n"
      << "  --pr2            enable the PR2 re-advertisement optimization\n"
      << "  --no-forgetful   disable forgetful pinging\n"
      << "  --overreport F   fraction of misreporting nodes (default 0)\n"
      << "  --drop P         one-way message drop probability (default 0)\n"
      << "  --shards S       sub-worlds run in parallel (default 1; 0 = one\n"
      << "                   per hardware thread; results are identical for\n"
      << "                   every shard count)\n"
      << "  --stream-metrics collect metrics through the streaming reducer\n"
      << "                   pipeline (60 s windows unless --metrics-window;\n"
      << "                   summaries reproduce the scan lane exactly)\n"
      << "  --metrics-window S\n"
      << "                   streaming metric-window length in seconds\n"
      << "                   (implies --stream-metrics)\n"
      << "  --csv PREFIX     write PREFIX[.<run>].{discovery,memory,\n"
      << "                   bandwidth,pernode}.csv (+ .windows.csv when\n"
      << "                   streaming with windowed reducers)\n"
      << "  --json FILE      write summary statistics for every run as JSON\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  experiments::Scenario scenario;
  scenario.hashName = "md5";
  long minutes = 90, warmupMin = 30;
  std::size_t cvsOverride = 0;
  unsigned kOverride = 0;
  std::string specPath, csvPrefix, jsonPath;
  bool scenarioFlagSeen = false;
  bool streamMetrics = false;

  try {
    experiments::ArgParser args(argc, argv);
    while (args.next()) {
      const std::string& arg = args.flag();
      const bool scenarioFlag = arg != "--spec" && arg != "--csv" &&
                                arg != "--json";
      if (arg == "--spec") specPath = args.value();
      else if (arg == "--protocol") scenario.protocol = args.value();
      else if (arg == "--model") scenario.model = churn::modelFromName(args.value());
      else if (arg == "--n") scenario.stableSize = args.valueSize();
      else if (arg == "--minutes") minutes = args.valueLong();
      else if (arg == "--warmup-min") warmupMin = args.valueLong();
      else if (arg == "--seed") scenario.seed = args.valueU64();
      else if (arg == "--hash") scenario.hashName = args.value();
      else if (arg == "--cvs") cvsOverride = args.valueSize();
      else if (arg == "--k") kOverride = args.valueUnsigned();
      else if (arg == "--pr2") scenario.pr2 = true;
      else if (arg == "--no-forgetful") scenario.forgetful = false;
      else if (arg == "--overreport") scenario.overreportFraction = args.valueDouble();
      else if (arg == "--drop") scenario.messageDropProbability = args.valueDouble();
      else if (arg == "--shards") scenario.shards = args.valueUnsigned();
      else if (arg == "--stream-metrics") streamMetrics = true;
      else if (arg == "--metrics-window") { streamMetrics = true; scenario.metrics.window = static_cast<SimDuration>(std::llround(args.valueDouble() * kSecond)); }
      else if (arg == "--csv") csvPrefix = args.value();
      else if (arg == "--json") jsonPath = args.value();
      else args.failUnknown();
      scenarioFlagSeen = scenarioFlagSeen || scenarioFlag;
    }

    std::vector<experiments::Scenario> scenarios;
    if (!specPath.empty()) {
      if (scenarioFlagSeen) {
        throw std::invalid_argument(
            "--spec describes the whole scenario; scenario flags cannot be "
            "combined with it (put the knob in the spec file)");
      }
      const auto sweep = experiments::SweepSpec::parseFile(specPath);
      scenarios = sweep.expand();
    } else {
      scenario.warmup = warmupMin * kMinute;
      scenario.horizon = scenario.warmup + minutes * kMinute;
      scenario.configOverride = experiments::cvsKOverride(
          scenario.model, scenario.stableSize, cvsOverride, kOverride);
      if (streamMetrics && scenario.metrics.window == 0) {
        scenario.metrics.window = 60 * kSecond;
      }
      scenarios.push_back(scenario);
    }

    // Fail on a bad scenario before any world is built (validate is also
    // run by every ScenarioRunner; doing it here makes spec typos cheap).
    for (const experiments::Scenario& s : scenarios) s.validate();

    std::cout << (scenarios.size() == 1
                      ? "running 1 scenario\n"
                      : "running " + std::to_string(scenarios.size()) +
                            " scenarios\n");

    // Independent scenarios fan out across the worker pool; results come
    // back in input order regardless of thread count. map() tears each
    // world down as soon as its snapshot is harvested.
    const auto metricSets =
        experiments::ParallelScenarioRunner().map<experiments::MetricSet>(
            scenarios, [](experiments::ScenarioRunner& runner) {
              return experiments::collectMetrics(runner);
            });

    // File-backed sinks close before the stdout one: a reader that stops
    // consuming stdout (| head) must not prevent the artifacts from
    // being written.
    std::vector<std::unique_ptr<experiments::MetricsSink>> sinks;
    if (!csvPrefix.empty()) {
      sinks.push_back(std::make_unique<experiments::CsvSink>(csvPrefix));
    }
    if (!jsonPath.empty()) {
      sinks.push_back(std::make_unique<experiments::JsonSink>(jsonPath));
    }
    sinks.push_back(
        std::make_unique<experiments::SummaryTableSink>(std::cout));
    for (const auto& set : metricSets) {
      for (const auto& sink : sinks) sink->add(set);
    }
    for (const auto& sink : sinks) sink->close();
    if (!csvPrefix.empty()) {
      std::cout << "wrote CSV files under prefix " << csvPrefix << "\n";
    }
    if (!jsonPath.empty()) {
      std::cout << "wrote " << jsonPath << "\n";
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
