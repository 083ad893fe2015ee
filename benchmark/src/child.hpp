// One measured pass over a workload's spec text, run inside a fresh child
// process so every repetition starts from a clean heap and its peak RSS
// is its own.
//
// A single-scenario workload is timed phase by phase:
//   spec.parse → scenario.construct → scenario.run → metrics.collect
// (setup_s = parse + construct; wall_s = all four). A sweep (a spec that
// expands to several scenarios) is timed as a researcher runs it: a serial
// construct-only pass gives setup_s, then ParallelScenarioRunner::map
// builds, runs and collects every point on min(4, nproc) workers (run_s);
// wall_s = parse + map. With `serial` set, the sweep's points run one by
// one through the single-scenario phases instead, which is how the traced
// pass attributes time per protocol.
//
// Every pass fingerprints its outputs (see fingerprint in child.cpp) and
// reads the layers' public counters after the run.
#pragma once

#include <string>

#include "json.hpp"

namespace avmon::bench {

struct ChildOptions {
  bool traced = false;  ///< record spans and run the layer probes
  bool serial = false;  ///< sweeps: run points one by one (traced implies it)
  unsigned shards = 0;  ///< nonzero overrides every scenario's shard count
  double probeScale = 1.0;  ///< < 1 shortens the probes (smoke preset)
};

/// Runs the pass and returns its result document. Throws on any failure.
Json runChild(const std::string& specText, const ChildOptions& options);

}  // namespace avmon::bench
