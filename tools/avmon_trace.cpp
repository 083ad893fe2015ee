// avmon_trace — availability-trace utility.
//
// Subcommands:
//   gen   --model M --n N --hours H --seed S --out FILE
//         Generates a synthetic availability trace and saves it as CSV
//         (the format loadCsvFile() reads back, so real converted traces
//         can be swapped in anywhere a model is accepted).
//   stats --in FILE
//         Prints population, stable size, availability, and churn stats.
#include <iostream>
#include <limits>
#include <string>

#include "churn/churn_model.hpp"
#include "experiments/spec.hpp"
#include "stats/table_printer.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace avmon;

[[noreturn]] void usageAndExit(const char* argv0) {
  std::cerr << "usage:\n"
            << "  " << argv0
            << " gen --model STAT|SYNTH|SYNTH-BD|SYNTH-BD2|PL|OV"
               " [--n 1000] [--hours 48] [--seed 1] --out FILE\n"
            << "  " << argv0 << " stats --in FILE\n";
  std::exit(2);
}

int runGen(int argc, char** argv) {
  churn::Model model = churn::Model::kSynth;
  churn::WorkloadParams params;
  params.controlFraction = 0.0;
  long hours = 48;
  std::string out;

  experiments::ArgParser args(argc, argv, /*begin=*/2);
  while (args.next()) {
    const std::string& arg = args.flag();
    if (arg == "--model") model = churn::modelFromName(args.value());
    else if (arg == "--n") params.stableSize = args.valueSize();
    else if (arg == "--hours") hours = args.valueLong();
    else if (arg == "--seed") params.seed = args.valueU64();
    else if (arg == "--out") out = args.value();
    else args.failUnknown();
  }
  if (out.empty()) usageAndExit(argv[0]);
  if (hours <= 0 || hours > std::numeric_limits<SimDuration>::max() / kHour) {
    throw experiments::UsageError(
        "bad value for --hours: expected a whole number of hours in [1, " +
        std::to_string(std::numeric_limits<SimDuration>::max() / kHour) +
        "], got " + std::to_string(hours));
  }
  params.horizon = hours * kHour;

  const auto trace = churn::generate(model, params);
  trace::saveCsvFile(trace, out);
  std::cout << "wrote " << out << ": " << trace.nodes().size() << " nodes, "
            << hours << " h horizon (" << churn::modelName(model) << ")\n";
  return 0;
}

int runStats(int argc, char** argv) {
  std::string in;
  experiments::ArgParser args(argc, argv, /*begin=*/2);
  while (args.next()) {
    if (args.flag() == "--in") in = args.value();
    else args.failUnknown();
  }
  if (in.empty()) usageAndExit(argv[0]);

  const auto trace = trace::loadCsvFile(in);
  const SimDuration h = trace.horizon();

  std::size_t deaths = 0, totalSessions = 0;
  SimDuration totalUp = 0;
  for (const auto& n : trace.nodes()) {
    deaths += n.death ? 1 : 0;
    totalSessions += n.sessions.size();
    totalUp += n.totalUpTime();
  }

  stats::TablePrinter table("trace stats: " + in);
  table.setHeader({"metric", "value"});
  table.addRow({"horizon (hours)", stats::TablePrinter::num(
                                       toSeconds(h) / 3600.0, 1)});
  table.addRow({"nodes ever born", std::to_string(trace.nodes().size())});
  table.addRow({"deaths", std::to_string(deaths)});
  table.addRow({"sessions", std::to_string(totalSessions)});
  table.addRow({"mean alive count",
                stats::TablePrinter::num(
                    trace.meanAliveCount(0, h, std::max<SimDuration>(
                                                   h / 100, kMinute)),
                    1)});
  table.addRow({"mean availability",
                stats::TablePrinter::num(trace.meanAvailability(0, h), 3)});
  table.addRow(
      {"mean session (hours)",
       stats::TablePrinter::num(
           totalSessions == 0
               ? 0.0
               : toSeconds(totalUp) / 3600.0 / static_cast<double>(totalSessions),
           2)});
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usageAndExit(argv[0]);
  try {
    const std::string cmd = argv[1];
    if (cmd == "gen") return runGen(argc, argv);
    if (cmd == "stats") return runStats(argc, argv);
    usageAndExit(argv[0]);
  } catch (const experiments::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n\n";
    usageAndExit(argv[0]);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
