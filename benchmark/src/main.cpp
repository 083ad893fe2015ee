// avmon_bench: the end-to-end benchmark of the AVMON simulator.
//
//   avmon_bench [--out R.json] [--trace T.json] [--seed S] [--reps N]
//               [--preset default|smoke]
//       The suite: every workload N times (default 3), interleaved, each
//       pass in a fresh child process, then one traced pass per workload.
//       Prints every metric with unit, median, quartiles and sample count.
//
//   avmon_bench --workload W [--seed S] [--seconds T] [--trace T.json]
//               [--preset default|smoke] [--spec FILE]
//       One workload for T seconds (default 15). The last line of stdout is
//       {"correct", "attempted", "failed", "metrics"}: the end-to-end
//       metrics, or with --trace the per-layer metrics of a traced run.
//       --spec runs FILE in place of the workload's own spec.
//
//   avmon_bench compare BASE.json HEAD.json
//       Applies each end-to-end metric's bound to two suite results; exits
//       non-zero on a regression or a higher fail ratio.
//
//   avmon_bench --child W [--traced] [--serial] [--shards N] [--preset P]
//       Internal: one measured pass over the spec text on stdin.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "child.hpp"
#include "harness.hpp"
#include "experiments/spec.hpp"

namespace {

using namespace avmon::bench;

constexpr const char* kUsage =
    "usage: avmon_bench [--out R.json] [--trace T.json] [--seed S] [--reps N]\n"
    "                   [--preset default|smoke]\n"
    "       avmon_bench --workload W [--seed S] [--seconds T]\n"
    "                   [--trace T.json]"
    " [--preset default|smoke] [--spec FILE]\n"
    "       avmon_bench compare BASE.json HEAD.json\n";

Preset presetNamed(const std::string& name) {
  if (name == "default") return Preset::kDefault;
  if (name == "smoke") return Preset::kSmoke;
  throw avmon::experiments::UsageError("unknown preset '" + name + "'");
}

int childMain(const ChildOptions& options) {
  std::string spec;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, stdin)) > 0) spec.append(buf, n);
  Json doc;
  int code = 0;
  try {
    doc = runChild(spec, options);
  } catch (const std::exception& e) {
    doc = Json::object();
    doc.set("error", e.what());
    code = 1;
  }
  std::printf("%s\n", doc.dump().c_str());
  std::fflush(stdout);
  // Skip tearing down the process's remaining state: the parent has what
  // it needs, and the next pass starts in a fresh process anyway.
  std::_Exit(code);
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  try {
    if (argc == 4 && std::string(argv[1]) == "compare") {
      return compareResults(argv[2], argv[3]);
    }
    avmon::experiments::ArgParser args(argc, argv);
    RunOptions run;
    ChildOptions child;
    std::string workload;
    bool isChild = false;
    while (args.next()) {
      const std::string& flag = args.flag();
      if (flag == "--workload") {
        workload = args.value();
      } else if (flag == "--child") {
        workload = args.value();
        isChild = true;
      } else if (flag == "--seed") {
        run.seed = args.valueU64();
      } else if (flag == "--seconds") {
        run.seconds = args.valueDouble();
      } else if (flag == "--reps") {
        run.reps = static_cast<int>(args.valueUnsigned());
      } else if (flag == "--out") {
        run.outPath = args.value();
      } else if (flag == "--trace") {
        run.tracePath = args.value();
      } else if (flag == "--preset") {
        run.preset = presetNamed(args.value());
      } else if (flag == "--spec") {
        run.specPath = args.value();
      } else if (flag == "--traced") {
        child.traced = true;
      } else if (flag == "--serial") {
        child.serial = true;
      } else if (flag == "--shards") {
        child.shards = args.valueUnsigned();
      } else {
        args.failUnknown();
      }
    }
    if (isChild) {
      if (run.preset == Preset::kSmoke) child.probeScale = 0.05;
      return childMain(child);
    }
    if (run.reps < 1 || run.seconds <= 0) {
      throw avmon::experiments::UsageError(
          "--reps and --seconds must be positive");
    }
    if (!workload.empty()) return runWorkloadMode(workload, run);
    if (!run.specPath.empty()) {
      throw avmon::experiments::UsageError("--spec needs --workload");
    }
    return runSuite(run);
  } catch (const avmon::experiments::UsageError& e) {
    std::fprintf(stderr, "avmon_bench: %s\n%s", e.what(), kUsage);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "avmon_bench: %s\n", e.what());
    return 1;
  }
}
