// Metrics snapshots and their writers: one snapshot type (MetricSet) for
// everything a completed scenario reports, and three functions that write
// a run list — summary/comparison tables, per-node CSVs, JSON.
//
// Every run is measured by its streaming collector: collectMetrics copies
// the streamed summary and windows, which is all the tables and the JSON
// read. The per-sample rows (CDF figures, the CSV files) are O(N) and
// filled only on request by collectSamples, from the same per-node probe
// the streamed summary reads, so the two always hold the same samples.
//
// Every protocol the registry knows produces the same MetricSet through
// the same ScenarioRunner code path, so cross-protocol comparison tables
// (the paper's Sections 5–6 head-to-heads) fall out of passing several
// snapshots to one writer; no per-scheme reporting code exists anywhere.
//
// A writer THROWS std::runtime_error, naming the path, if its stream
// failed — a full disk truncating a CSV is an error, never a silently
// shorter file.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "experiments/scenario.hpp"
#include "experiments/streaming/reducer.hpp"

namespace avmon::experiments {

struct Expectation;  // experiments/spec.hpp

/// Snapshot of everything one completed scenario run reports.
struct MetricSet {
  // ---- provenance (which run produced this) ----
  std::string protocol;
  std::string model;
  std::string hashName;
  std::size_t effectiveN = 0;
  /// Resolved AVMON knobs: what closed-form expectation bounds are
  /// evaluated at, with effectiveN.
  std::size_t cvs = 0;
  unsigned k = 0;
  double protocolPeriodSeconds = 0.0;
  std::uint64_t seed = 0;
  unsigned shards = 1;
  double horizonSeconds = 0.0;
  double warmupSeconds = 0.0;
  /// Fault-injection axes — part of the run's identity (a drop sweep must
  /// not collapse onto one label).
  double dropProbability = 0.0;
  double rpcFailProbability = 0.0;
  /// Adversary axes (all zero when the run armed no attack).
  std::uint32_t collusion = 0;       ///< coalition size C
  double overreportFraction = 0.0;   ///< over-reporting cohort fraction
  double forgetfulFraction = 0.0;    ///< storage-wiping cohort fraction

  /// Fraction of the measured nodes that joined which discovered >= 1
  /// monitor (from the streamed summary).
  double discoveredFraction = 0.0;

  // ---- graceful-degradation results (collusion attacks only) ----
  /// Resolved victim count, victims whose every monitor is a coalition
  /// member, and the mean |estimated - actual| over reporting victims —
  /// the simulated counterpart of Section 4.3's eclipse probability.
  std::size_t victimCount = 0;
  std::size_t eclipsedCount = 0;
  std::optional<double> victimMeanAbsError;

  // ---- streamed summary (every run) ----
  /// Final summary from the streaming collector. collectMetrics always
  /// engages it; every writer reads its statistics from here.
  std::optional<streaming::StreamedSummary> streamed;
  /// Windowed time-series rows (empty unless a windowed group ran).
  std::vector<streaming::WindowRow> windows;
  /// Quantiles the scenario asked the streamed summary to report.
  std::vector<double> streamedQuantiles;
  /// Retained metric-state bytes of the streaming collector.
  std::size_t metricStateBytes = 0;

  // ---- per-sample rows (empty unless collectSamples ran) ----
  /// One sample per qualifying node. Discovery, computations and accuracy
  /// cover the measured set in trace order; memory, bandwidth and useless
  /// pings cover every participant in Protocol::forEachNode order.
  std::vector<double> discoverySeconds;  ///< first-monitor delay
  std::vector<double> memoryEntries;     ///< per node with any state
  std::vector<double> outgoingBytesPerSecond;
  std::vector<double> uselessPingsPerMinute;
  std::vector<double> computationsPerSecond;
  std::vector<AvailabilityAccuracy> accuracy;

  /// One row per trace node, in schedule order (plotting / debugging).
  struct PerNodeRow {
    NodeId id;
    std::uint64_t bytesSent = 0;
    std::uint64_t messagesSent = 0;
    std::size_t memoryEntries = 0;
    std::uint64_t hashChecks = 0;
    std::uint64_t uselessPings = 0;
    double discoverySeconds = -1.0;  ///< -1 = never discovered a monitor
  };
  std::vector<PerNodeRow> perNode;

  /// The streamed summary; throws std::bad_optional_access on a MetricSet
  /// that collectMetrics did not build.
  const streaming::StreamedSummary& summary() const { return streamed.value(); }

  /// "protocol model N=.. seed=.." — how the writers caption this run.
  std::string label() const;
  /// label() restricted to filesystem-safe characters, for file suffixes.
  std::string fileLabel() const;
  /// Mean |estimated - actual| over the measured nodes with a reporting
  /// monitor; nullopt when none reported (the writers render "n/a").
  std::optional<double> accuracyMeanAbsError() const;
  /// Nodes contributing to the accuracy metric.
  std::size_t accuracyNodeCount() const;
};

/// Snapshots a completed (run()) ScenarioRunner: provenance, the streamed
/// summary and windows, and the victim outcomes. The per-sample rows stay
/// empty.
MetricSet collectMetrics(const ScenarioRunner& runner);

/// collectMetrics plus the per-sample rows (discoverySeconds through
/// computationsPerSecond, accuracy, perNode), read through the probeNode
/// the streamed summary reads. O(N): only callers that need the samples
/// call it.
MetricSet collectSamples(const ScenarioRunner& runner);

/// Checks every expectation on every run (the sweep's points, in order)
/// and prints one verdict row per (run, expectation): run, expectation,
/// measured value, bound, PASS/FAIL. A metric without samples fails.
/// Returns the number of failed rows.
std::size_t printVerdicts(const std::vector<Expectation>& expectations,
                          const std::vector<MetricSet>& runs,
                          std::ostream& out);

/// Human-readable tables on `out`: one summary table per run, plus — for
/// two or more runs — a side-by-side comparison table (runs as columns,
/// metrics as rows).
void printSummaryTables(const std::vector<MetricSet>& runs, std::ostream& out);

/// Per-metric CSV files PREFIX[.<run>].{discovery,memory,bandwidth,
/// pernode}.csv, plus PREFIX[.<run>].windows.csv for a run with window
/// rows; the run infix appears only for several runs. Written from the
/// per-sample rows: throws std::invalid_argument, naming the run, before
/// writing any file if a run was not built by collectSamples. Returns the
/// paths written, in order.
std::vector<std::string> writeCsvFiles(const std::string& prefix,
                                       const std::vector<MetricSet>& runs);

/// One JSON document holding every run (summary statistics and window
/// rows, not the raw sample vectors) — the machine-readable artifact CI
/// uploads.
void writeJson(const std::string& path, const std::vector<MetricSet>& runs);

}  // namespace avmon::experiments
