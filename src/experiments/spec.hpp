// Declarative scenario specs: scenarios are data, not C++.
//
// Grammar — one `key = value` pair per line, `#` starts a comment:
//
//     # AVMON vs. the baselines under SYNTH churn, 3 seeds
//     protocol = avmon, broadcast, central     # list keys sweep
//     model    = SYNTH
//     n        = 150
//     seed     = 1, 2, 3
//     horizon_min = 80
//     warmup_min  = 30
//
// Scalar keys (applied to every expanded scenario): horizon_min or
// horizon_ms, warmup_min or warmup_ms, control_fraction, hash, cvs, k
// (0 = paper default), pr2, forgetful, forgetful_ewma, overreport,
// rpc_fail, measured (auto|control|born_after_warmup|all), shards,
// shuffle (union-sample|swap), notify_dedup_max,
// history (raw|recent|aged|compact) with history_param (style-specific
// knob; compact: max run-length runs per target),
// metrics.window (seconds; 0 = one window closing at the horizon),
// metrics.reducers (comma list of ReducerRegistry names; applies as one
// value, not a sweep axis), metrics.quantiles (comma list in (0,1)).
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
// List keys (comma-separated, cross-producted in
// protocol > model > n > seed > drop > attack.overreport order):
// protocol, model, n, seed, drop, attack.overreport (sweepable alias of
// the scalar `overreport`; naming both is an error).  A spec whose lists
// are all singletons is exactly one Scenario — Scenario::fromSpec /
// toSpec round-trip through this grammar, and `avmon_sim --spec file`
// runs the file.
//
// This header also hosts the small argv reader both command-line tools
// share, so flag parsing lives in one place.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/format_double.hpp"
#include "experiments/scenario.hpp"

namespace avmon::experiments {

/// A parsed sweep: one base scenario plus the axes to cross-product.
struct SweepSpec {
  Scenario base;  ///< scalar keys applied to every point

  // Sweep axes; parse() fills absent axes with the base's single value,
  // so expand() is always the full cross product of six lists.
  std::vector<std::string> protocols;
  std::vector<churn::Model> models;
  std::vector<std::size_t> sizes;
  std::vector<std::uint64_t> seeds;
  std::vector<double> drops;        ///< messageDropProbability axis
  std::vector<double> overreports;  ///< attack.overreport axis

  /// Parses spec text; throws std::invalid_argument naming the offending
  /// line on unknown keys, duplicates, or malformed values.
  static SweepSpec parse(const std::string& text);

  /// Reads and parses a spec file; throws std::runtime_error if the file
  /// cannot be read.
  static SweepSpec parseFile(const std::string& path);

  /// Number of scenarios expand() will produce.
  std::size_t pointCount() const;

  /// The cross product, in deterministic nested order: protocol
  /// (outermost), model, n, seed, drop, attack.overreport (innermost).
  /// Same spec, same expansion — sweeps are reproducible by construction.
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

  std::uint64_t valueU64();
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
