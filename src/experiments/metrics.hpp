// Unified metrics sink: one snapshot type (MetricSet) for everything a
// completed scenario reports, and pluggable backends (MetricsSink) that
// consume snapshots — a summary/comparison table, per-node CSVs, JSON.
//
// Every run is measured by its streaming collector: collectMetrics copies
// the streamed summary and windows, which is all the table and JSON sinks
// read. The per-sample rows (CDF figures, CsvSink) are O(N) and filled only
// on request by collectSamples, from the same per-node probe the streamed
// summary reads, so the two always hold the same samples.
//
// Every protocol the registry knows produces the same MetricSet through
// the same ScenarioRunner code path, so cross-protocol comparison tables
// (the paper's Sections 5–6 head-to-heads) fall out of feeding several
// snapshots to one sink; no per-scheme reporting code exists anywhere.
//
// Sink contract: add() each completed run's snapshot, then close() once.
// close() performs (or finishes) the writes and THROWS std::runtime_error
// if any backing stream failed — a full disk truncating a CSV is an error,
// never a silently shorter file.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
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
  /// engages it; every sink reads its statistics from here.
  std::optional<streaming::StreamedSummary> streamed;
  /// Windowed time-series rows (empty unless a windowed reducer ran).
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

  /// "protocol model N=.. seed=.." — how sinks caption this run.
  std::string label() const;
  /// label() restricted to filesystem-safe characters, for file suffixes.
  std::string fileLabel() const;
  /// Mean |estimated - actual| over the measured nodes with a reporting
  /// monitor; nullopt when none reported (sinks render "n/a").
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

/// Backend interface; see the contract above.
class MetricsSink {
 public:
  virtual ~MetricsSink() = default;
  virtual void add(const MetricSet& metrics) = 0;
  virtual void close() = 0;
};

/// Human-readable tables on an ostream: one summary table per run, plus —
/// when two or more runs were added — a side-by-side comparison table
/// (runs as columns, metrics as rows).
class SummaryTableSink final : public MetricsSink {
 public:
  /// `out` must outlive the sink.
  explicit SummaryTableSink(std::ostream& out) : out_(&out) {}

  void add(const MetricSet& metrics) override;
  void close() override;

 private:
  std::ostream* out_;
  std::vector<MetricSet> sets_;
};

/// Per-metric CSV files: PREFIX[.<run>].{discovery,memory,bandwidth,
/// pernode}.csv — the run infix appears only when several runs are added.
/// Written from the per-sample rows: close() throws std::invalid_argument,
/// naming the run, for a MetricSet that collectSamples did not build.
class CsvSink final : public MetricsSink {
 public:
  explicit CsvSink(std::string prefix) : prefix_(std::move(prefix)) {}

  void add(const MetricSet& metrics) override;
  void close() override;

  /// Paths written by close() (for logs and tests).
  const std::vector<std::string>& writtenFiles() const noexcept {
    return written_;
  }

 private:
  std::string prefix_;
  std::vector<MetricSet> sets_;
  std::vector<std::string> written_;
};

/// One JSON document holding every added run (summary statistics, not the
/// raw sample vectors) — the machine-readable artifact CI uploads.
class JsonSink final : public MetricsSink {
 public:
  explicit JsonSink(std::string path) : path_(std::move(path)) {}

  void add(const MetricSet& metrics) override;
  void close() override;

 private:
  std::string path_;
  std::vector<MetricSet> sets_;
};

}  // namespace avmon::experiments
