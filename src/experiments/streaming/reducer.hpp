// The data the metrics pipeline carries: what one node contributes
// (NodeProbe), one time-series row (WindowRow), and the end-of-run summary
// (StreamedSummary) the collector folds from its per-shard banks
// (collector.hpp).
//
// Summary state is mergeable with an ASSOCIATIVE, PARTITION-INDEPENDENT
// merge: it is built from the sketch library (ExactSum/OnlineStats/
// QuantileSketch) and integer counters, never from a bare floating
// accumulator, so the streamed output reproduces S = 1 bit-for-bit at
// every shard count (the same discipline the sharded simulator pins for
// the protocols).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/node_id.hpp"
#include "common/time.hpp"
#include "experiments/scenario.hpp"
#include "experiments/streaming/online_stats.hpp"
#include "experiments/streaming/quantile_sketch.hpp"

namespace avmon::experiments::streaming {

/// One participant's end-of-run samples. Each optional is engaged exactly
/// when the node contributes a sample to that metric (probeNode holds the
/// rules), so the streamed summary and collectSamples' rows hold the same
/// samples.
struct NodeProbe {
  NodeId id;
  bool measured = false;
  bool joined = false;  ///< measured node that joined (discovery denominator)
  std::optional<double> discoverySeconds;
  /// Second and third monitor's discovery delay (Figure 6).
  std::optional<double> discovery2Seconds;
  std::optional<double> discovery3Seconds;
  std::optional<double> memoryEntries;
  std::optional<double> outgoingBytesPerSecond;
  std::optional<double> uselessPingsPerMinute;
  std::optional<double> computationsPerSecond;
  /// Monitor-averaged estimate vs. aligned truth, measured set only.
  std::optional<AvailabilityAccuracy> accuracy;
};

/// One metric window's time-series row: the window plus named columns,
/// one group of columns per selected windowed group in the scenario's
/// metrics.reducers order (fixed, so CSV/JSON column order is
/// deterministic).
struct WindowRow {
  SimTime windowStart = 0;
  SimTime windowEnd = 0;
  std::vector<std::pair<std::string, double>> columns;
};

/// One summary metric: full order-free moments plus a quantile sketch.
struct StreamedMetric {
  OnlineStats stats;
  QuantileSketch sketch;

  void add(double x) {
    stats.add(x);
    sketch.add(x);
  }
  void merge(const StreamedMetric& other) {
    stats.merge(other.stats);
    sketch.merge(other.sketch);
  }
  bool operator==(const StreamedMetric& other) const noexcept {
    return stats == other.stats && sketch == other.sketch;
  }
  std::size_t stateBytes() const noexcept {
    return sizeof(OnlineStats) + sketch.stateBytes();
  }
};

/// The MetricSet-compatible end-of-run summary the "summary" group fills:
/// one StreamedMetric per paper metric plus the discovery and accuracy
/// aggregates. O(sketch bins), never O(N). Attack victims are not
/// summarized here: MetricSet takes their rows from victimOutcomes
/// (experiments/adversary.hpp) against the final protocol state.
struct StreamedSummary {
  StreamedMetric discoverySeconds;
  /// Second and third monitor's discovery delay: read by expect.* lines,
  /// not by the tables and the JSON.
  StreamedMetric discovery2Seconds;
  StreamedMetric discovery3Seconds;
  StreamedMetric memoryEntries;
  StreamedMetric outgoingBytesPerSecond;
  StreamedMetric uselessPingsPerMinute;
  StreamedMetric computationsPerSecond;
  /// Mean |estimated - actual| feeds accuracyMeanAbsError; count is the
  /// reporting-node count the tables print.
  StreamedMetric accuracyAbsError;
  std::uint64_t joined = 0;  ///< measured nodes that ever joined
  std::uint64_t found = 0;   ///< of those, discovered >= 1 monitor

  /// Folds in one participant's samples.
  void add(const NodeProbe& probe) {
    if (probe.discoverySeconds) discoverySeconds.add(*probe.discoverySeconds);
    if (probe.discovery2Seconds) {
      discovery2Seconds.add(*probe.discovery2Seconds);
    }
    if (probe.discovery3Seconds) {
      discovery3Seconds.add(*probe.discovery3Seconds);
    }
    if (probe.memoryEntries) memoryEntries.add(*probe.memoryEntries);
    if (probe.outgoingBytesPerSecond) {
      outgoingBytesPerSecond.add(*probe.outgoingBytesPerSecond);
    }
    if (probe.uselessPingsPerMinute) {
      uselessPingsPerMinute.add(*probe.uselessPingsPerMinute);
    }
    if (probe.computationsPerSecond) {
      computationsPerSecond.add(*probe.computationsPerSecond);
    }
    if (probe.accuracy) {
      accuracyAbsError.add(
          std::fabs(probe.accuracy->estimated - probe.accuracy->actual));
    }
    if (probe.joined) {
      ++joined;
      if (probe.discoverySeconds) ++found;
    }
  }

  /// Folds in another (shard's) summary: exact, so any partition of the
  /// same probes merges to identical bits.
  void merge(const StreamedSummary& other) {
    discoverySeconds.merge(other.discoverySeconds);
    discovery2Seconds.merge(other.discovery2Seconds);
    discovery3Seconds.merge(other.discovery3Seconds);
    memoryEntries.merge(other.memoryEntries);
    outgoingBytesPerSecond.merge(other.outgoingBytesPerSecond);
    uselessPingsPerMinute.merge(other.uselessPingsPerMinute);
    computationsPerSecond.merge(other.computationsPerSecond);
    accuracyAbsError.merge(other.accuracyAbsError);
    joined += other.joined;
    found += other.found;
  }

  /// Retained bytes (for MetricSet::metricStateBytes).
  std::size_t stateBytes() const noexcept {
    return discoverySeconds.stateBytes() + discovery2Seconds.stateBytes() +
           discovery3Seconds.stateBytes() + memoryEntries.stateBytes() +
           outgoingBytesPerSecond.stateBytes() +
           uselessPingsPerMinute.stateBytes() +
           computationsPerSecond.stateBytes() + accuracyAbsError.stateBytes() +
           2 * sizeof(std::uint64_t);
  }

  double discoveredFraction() const noexcept {
    return joined == 0
               ? 0.0
               : static_cast<double>(found) / static_cast<double>(joined);
  }
};

}  // namespace avmon::experiments::streaming
