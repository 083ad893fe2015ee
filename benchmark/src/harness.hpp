// The parent side of avmon_bench: spawns one child process per measured
// pass (the binary re-executes itself, one child at a time), checks every
// pass's fingerprint, and reports.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "workload.hpp"

namespace avmon::bench {

struct RunOptions {
  Preset preset = Preset::kDefault;
  std::optional<std::uint64_t> seed;  ///< unset: each workload's own seed
  double seconds = 15.0;   ///< workload mode: measuring time per invocation
  int reps = 3;            ///< suite mode: passes per workload
  std::string outPath;     ///< suite mode: result file
  std::string tracePath;   ///< Chrome trace file; workload mode: traced run
  /// Workload mode: this spec file instead of the workload's own, checked
  /// for agreement across passes only (no pinned fingerprint).
  std::string specPath;
};

/// One workload for `seconds`, ending stdout with the one-line result
/// document: {"correct", "attempted", "failed", "metrics"}. Untraced runs
/// report BENCHMARK.json's end-to-end metrics; traced runs (tracePath set)
/// its per-layer metrics. When every pass fails, the document still ends
/// stdout, with "correct": false and no metrics. Returns the exit code:
/// 0 when every pass was correct.
int runWorkloadMode(const std::string& workload, const RunOptions& options);

/// Every workload `reps` times, interleaved, then one traced pass each;
/// prints every metric and writes outPath and tracePath. Returns the exit
/// code (non-zero when any output check failed).
int runSuite(const RunOptions& options);

/// Applies each end-to-end metric's bound to BASE vs HEAD suite results.
/// Returns non-zero on a regression or a higher fail ratio.
int compareResults(const std::string& basePath, const std::string& headPath);

}  // namespace avmon::bench
