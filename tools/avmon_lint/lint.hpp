// avmon_lint: a self-contained determinism checker for this repository.
//
// The reproduction's headline guarantee — metrics bit-identical across
// shard counts, RPC lanes, and thread counts — depends on source-level
// conventions (no hash-order iteration into metrics, no wall-clock reads,
// no host entropy). This tool turns those conventions into machine-checked
// rules with its own miniature C++ lexer; it needs no libclang and no
// compile database, so it runs as an ordinary tier-1 CTest suite.
//
// Rules (see ruleCatalog() for the authoritative list):
//   unordered-iter    range-for / begin() iteration over
//                     std::unordered_{map,set,multimap,multiset}
//   random-device     std::random_device (host entropy)
//   c-rand            C PRNG family: rand, srand, rand_r, drand48, ...
//   wall-clock        time(), chrono system/steady/high_resolution clocks,
//                     gettimeofday, clock_gettime, localtime, ...
//   getenv            environment access: getenv, setenv, putenv, ...
//   ptr-key-order     std::map/std::set keyed by a pointer type, or
//                     std::hash over a pointer type (ASLR-dependent order)
//   unseeded-mt19937  default-constructed std <random> engines
//   per-node-alloc    (advisory) function-local associative container
//                     keyed by NodeId — the O(N) probe-scratch pattern the
//                     million-node memory diet removed; prefer vectors
//                     indexed by global world slot, or visitors such as
//                     Protocol::visitMonitorsOf
//
// Escape hatch: a line (or the line directly above) may carry a comment
// annotation of the form `lint:allow` + `(<rule>, <reason>)` which
// suppresses that rule on that line and the next. The annotation is
// itself checked: an unknown rule or empty reason reports `bad-allow`, and
// an annotation that suppresses nothing reports `stale-allow`, so the
// justifications cannot rot silently.
//
// Scope policy: wall-clock suppressions are additionally restricted by
// directory. Only the live-wire lane (src/net/, tools/avmon_node,
// tools/avmon_live) and the self-timing bench harness (bench/) may carry a
// reasoned wall-clock allow; a used wall-clock allow anywhere else reports
// `scoped-allow`, so the simulated lane stays wall-clock-free even with a
// justification attached.
#pragma once

#include <string>
#include <vector>

namespace avmon::lint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct RuleInfo {
  const char* name;
  const char* summary;
  /// Advisory rules print in reports and honor lint:allow, but do not
  /// fail the CLI's exit status (exit 0 when only advisories remain).
  bool advisory = false;
};

/// The rule set, in stable catalog order (includes the two meta rules
/// `bad-allow` and `stale-allow`).
const std::vector<RuleInfo>& ruleCatalog();

bool isKnownRule(const std::string& name);
bool isAdvisoryRule(const std::string& name);

/// `file:line: [rule] message`
std::string formatFinding(const Finding& f);

/// Whole-program linter: register sources (or whole trees), then run().
/// Analysis is two-phase — a cross-file symbol pass first collects
/// unordered-container aliases, variables, and accessor functions, so a
/// range-for over `node.pingingSet()` is caught even when the unordered
/// type is spelled only in the header.
class Linter {
 public:
  /// Registers one in-memory source (fixture tests use this directly).
  void addSource(std::string name, std::string content);

  /// Recursively adds every C++ source/header under `root`, in sorted
  /// path order so reports are deterministic. Returns false (and sets
  /// *error) if the root cannot be read.
  bool addTree(const std::string& root, std::string* error = nullptr);

  /// Runs the analysis; findings are sorted by (file, line, rule).
  std::vector<Finding> run();

 private:
  struct Source {
    std::string name;
    std::string content;
  };
  std::vector<Source> sources_;
};

}  // namespace avmon::lint
