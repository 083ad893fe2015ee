// Workloads, their spec text, and the benchmark manifest.
//
// Each workload is a spec file under benchmark/workloads/. The bench turns
// it into the text the program parses: `seed` lines are rewritten from the
// bench's --seed (a sweep's k seeds become S, S+1, ..., S+k-1), and the
// smoke preset shrinks n and the horizon. The program sees only that
// generated text.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "json.hpp"

namespace avmon::bench {

enum class Preset { kDefault, kSmoke };

struct Workload {
  std::string name;
  /// Key overrides the smoke preset applies (each run ~1 s).
  std::vector<std::pair<std::string, std::string>> smoke;
};

/// Every workload, in the order the suite interleaves them.
const std::vector<Workload>& workloads();

/// Throws std::invalid_argument listing the known names.
const Workload& workloadNamed(const std::string& name);

/// benchmark/workloads/<name>.spec.
std::string specFileOf(const Workload& workload);

/// The seed a spec file names (a workload's default seed).
std::uint64_t defaultSeed(const std::string& specFile);

/// Spec text for one run: `specFile` with `seed` rewritten to `seed` (and
/// its successors for a multi-seed sweep) and, for the smoke preset, the
/// workload's smoke overrides applied.
std::string specText(const Workload& workload, const std::string& specFile,
                     std::uint64_t seed, Preset preset);

/// The fingerprint pinned for (workload, seed) at the default preset in
/// benchmark/workloads/fingerprints.txt, if any.
std::optional<std::string> pinnedFingerprint(const std::string& workload,
                                             std::uint64_t seed);

/// One metric as BENCHMARK.json declares it.
struct MetricDecl {
  std::string name;
  std::string unit;
  bool lowerIsBetter = true;
  double bound = 0.0;  ///< end-to-end only: allowed worsening, share of base
};

/// BENCHMARK.json at the repository root: the single list of end-to-end
/// metrics (with bounds) and per-layer metrics the bench reports.
struct Manifest {
  std::vector<MetricDecl> endToEnd;
  std::vector<MetricDecl> perLayer;
};

/// Reads BENCHMARK.json; throws std::runtime_error.
Manifest loadManifest();

/// Whole file as text; throws std::runtime_error when unreadable.
std::string readFile(const std::string& path);

}  // namespace avmon::bench
