// Declarative scenario specs: scenarios are data, not C++.
//
// Grammar — one `key = value` pair per line, `#` starts a comment:
//
//     # AVMON vs. the baselines under SYNTH churn, 3 seeds
//     protocol = avmon, broadcast, central     # a comma list sweeps
//     model    = SYNTH
//     n        = 150
//     seed     = 1, 2, 3
//     horizon_min = 80
//     warmup_min  = 30
//     expect.discovery_s.p96 <= 30             # checked on every point
//
// Keys: protocol, model, n, seed, drop, overreport, horizon_min or
// horizon_ms, warmup_min or warmup_ms, control_fraction, hash, cvs, k
// (0 = paper default), pr2, forgetful, forgetful_ewma, rpc_fail,
// measured (auto|control|born_after_warmup|all), shards,
// shuffle (union-sample|swap), notify_dedup_max,
// history (raw|recent|aged|compact) with history_param (style-specific
// knob; compact: max run-length runs per target), transport (sim|udp),
// udp.port_base, udp.retry_max, udp.backoff_ms, udp.backoff_cap_ms,
// udp.time_scale, metrics.window (seconds; 0 = one window closing at the
// horizon), metrics.reducers (metric groups, each at most once: summary,
// traffic, discovery, resilience; see streaming::kMetricGroups) and
// metrics.quantiles (each in (0,1)).
//
// Fault-injection and adversary keys (sim/fault_plan.hpp and
// experiments/adversary.hpp; times in seconds, latencies in ms,
// `;`-separated entries, `:`-separated fields):
//     faults.partition = t0:t1:groups [; ...]
//     faults.burst     = t:duration:fraction [; ...]
//     faults.latency   = t0:t1:min_ms:max_ms [; ...]
//     faults.geo       = regions:intra_min:intra_max:inter_min:inter_max
//     attack.collusion = C          # coalition size
//     attack.victims   = V          # targets (default 1 when C > 0)
//     attack.forgetful = fraction   # storage-wiping cohort
//
// Sweeps: a comma list on any key except metrics.reducers and
// metrics.quantiles (which take a list as one value) sweeps that key, and
// the points are the cross product. protocol > model > n > seed > drop >
// overreport nest outermost in that order; every other swept key nests
// inside them in the order of the key list above. A spec whose lists are
// all singletons is exactly one Scenario — Scenario::fromSpec / toSpec
// round-trip through this grammar, and `avmon_sim --spec file` runs the
// file.
//
// Expectations: a line `expect.<metric>.<stat> <op> <bound>` is checked on
// every point after it runs (avmon_sim prints one verdict row per point
// and expectation, and exits 1 if any fails).
//     <metric>  discovery_s, discovery2_s, discovery3_s (first, second and
//               third monitor), memory_entries, outgoing_bps,
//               useless_pings_per_min, computations_per_s,
//               accuracy_abs_error, discovered_fraction (mean|count only)
//     <stat>    mean, stddev, min, max, count, or p<percent> (p96, p99.85)
//               read from the metric's quantile sketch
//     <op>      <, <=, >, >=, or ~ with a `± x` or `± x%` tolerance
//     <bound>   a number, or closed:<name> — a Section 4 closed form
//               (analysis/formulas.hpp) at the point's effective N and
//               resolved cvs, K and protocol period
// One comparison per line: no arithmetic, no predicates across points.
//
// This header also hosts the small argv reader both command-line tools
// share, so flag parsing lives in one place.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/formulas.hpp"
#include "common/format_double.hpp"
#include "experiments/scenario.hpp"
#include "experiments/streaming/reducer.hpp"

namespace avmon::experiments {

/// One parsed `expect.<metric>.<stat> <op> <bound>` line. Parsing resolves
/// the metric, the statistic and the closed form, so a spec that parses
/// can be checked on any run.
struct Expectation {
  enum class Stat { kMean, kStddev, kMin, kMax, kCount, kQuantile };
  enum class Op { kLess, kLessEqual, kGreater, kGreaterEqual, kNear };

  std::string text;  ///< the line as written, without its comment
  std::size_t line = 0;
  /// The summary metric read; nullptr for discovered_fraction.
  const streaming::StreamedMetric streaming::StreamedSummary::*metric =
      nullptr;
  Stat stat = Stat::kMean;
  double phi = 0.0;  ///< quantile in (0, 1) for Stat::kQuantile
  Op op = Op::kLess;
  double bound = 0.0;                            ///< when closed is null
  const analysis::ClosedForm* closed = nullptr;  ///< closed:<name>
  /// `~` only: the `± x` slack, in the metric's unit or, when
  /// relativeTolerance (`± x%`), in percent of the bound.
  double tolerance = 0.0;
  bool relativeTolerance = false;

  /// The statistic on a run's summary; nullopt when the metric has no
  /// sample (every statistic but count).
  std::optional<double> measuredOn(
      const streaming::StreamedSummary& summary) const;
  /// The bound at `point` (the number itself unless closed:<name>).
  double boundAt(const analysis::ClosedFormPoint& point) const;
  /// Whether `measured` satisfies the comparison against `bound`.
  bool holds(double measured, double bound) const;
};

/// A parsed sweep: every key's values plus the expectations to check.
struct SweepSpec {
  /// One key's line and its values (one per swept point).
  struct Axis {
    std::size_t rule = 0;  ///< index into the key table (spec.cpp)
    std::size_t line = 0;
    std::vector<std::string> values;
  };
  std::vector<Axis> axes;  ///< nesting order, outermost first
  std::vector<Expectation> expectations;

  /// Parses spec text; throws std::invalid_argument naming the offending
  /// line on unknown keys, duplicates, malformed or out-of-range values,
  /// and malformed expect lines.
  static SweepSpec parse(const std::string& text);

  /// Reads and parses a spec file; throws std::runtime_error if the file
  /// cannot be read.
  static SweepSpec parseFile(const std::string& path);

  /// Number of scenarios expand() will produce.
  std::size_t pointCount() const;

  /// The cross product, in deterministic nested order (see the header
  /// comment). Same spec, same expansion — sweeps are reproducible by
  /// construction.
  std::vector<Scenario> expand() const;
};

/// Shortest round-tripping decimal formatter (what toSpec() emits, so
/// specs stay human-readable AND parse -> serialize -> parse is a fixed
/// point). The one implementation lives in common/format_double.hpp and is
/// shared with the JSON and windowed-metrics writers; re-exported here for
/// the spec grammar's historical callers.
using avmon::formatDouble;

/// The ONE implementation of the cvs/k override semantics, shared by the
/// spec grammar's `cvs`/`k` keys and scenarios built in code: nonzero
/// pins the knob, everything else keeps paper defaults for the model's
/// effective size at `n`; nullopt when both knobs are 0 (auto).
std::optional<AvmonConfig> cvsKOverride(churn::Model model, std::size_t n,
                                        std::size_t cvs, unsigned k);

/// Malformed command line (unknown flag, missing value): tools catch this
/// separately to print usage and exit 2, while semantic errors (bad model
/// name, unreadable spec) stay std::invalid_argument/runtime_error and
/// exit 1 with a plain message.
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// Tiny shared argv cursor behind every tool's flag loop: `--key value`
/// and bare `--flag` styles, typed value accessors, uniform errors
/// (UsageError, which tools turn into usage text).
class ArgParser {
 public:
  ArgParser(int argc, char** argv, int begin = 1)
      : argc_(argc), argv_(argv), next_(begin) {}

  /// Advances to the next flag; false when arguments are exhausted.
  bool next();

  /// The current flag, including its leading dashes.
  const std::string& flag() const noexcept { return flag_; }

  /// Consumes and returns the current flag's value; throws if absent.
  std::string value();

  /// Typed values, each spanning the whole argument: an unsigned value is
  /// digits only (no sign) and at most `max` (or its type's maximum), a
  /// long is an optional '-' then digits, in range, and a double is
  /// finite. Anything else throws UsageError naming the flag.
  std::uint64_t valueU64(
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
  std::size_t valueSize();
  unsigned valueUnsigned();
  long valueLong();
  double valueDouble();

  /// Throws "unknown option: <flag>" — the tools' catch-all else branch.
  [[noreturn]] void failUnknown() const;

 private:
  int argc_;
  char** argv_;
  int next_;
  std::string flag_;
};

}  // namespace avmon::experiments
