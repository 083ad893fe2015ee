// Reducer: the pluggable unit of the metrics pipeline.
//
// Reducers SUBSCRIBE to a run instead of scanning it: one Reducer instance
// lives inside every ShardedSimulator shard, fed two probe streams by the
// StreamingCollector:
//
//   onWindow(WindowProbe)  at every metric-window barrier, with the owning
//                          shard's aggregate deltas for the closed window
//                          (bytes, messages, first-monitor discoveries)
//                          and its victim eclipse gauges;
//   onNode(NodeProbe)      once per participant at the final barrier, with
//                          the node's per-metric samples (probeNode in
//                          collector.hpp holds the qualification rules).
//
// Aggregation is hierarchical: after each window the collector merges the
// shard instances into a root copy IN SHARD-INDEX ORDER and asks it for
// that window's time-series columns; at the horizon the same merge
// produces the final StreamedSummary. Reducer state must therefore be
// mergeable with an ASSOCIATIVE, PARTITION-INDEPENDENT merge — build it
// from the sketch library (ExactSum/OnlineStats/QuantileSketch) and
// integer counters, never from a bare floating accumulator, and the
// streamed output reproduces S = 1 bit-for-bit at every shard count (the
// same discipline the sharded simulator pins for the protocols).
//
// Determinism rules for new reducers (enforced by review + avmon_lint):
//   * no unordered-container iteration without a fixed order or a
//     reasoned `lint:allow` — use std::map/vectors like the built-ins;
//   * no wall clock, no private RNG seeds;
//   * onWindow/onNode run on shard worker threads: touch only this
//     instance's state (the collector hands each shard its own instance).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
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

/// One shard's aggregate deltas for one closed metric window. Every field
/// is a sum of per-node integer counters, so totals across shards are
/// independent of the partition.
struct WindowProbe {
  std::size_t shard = 0;
  SimTime windowStart = 0;  ///< exclusive
  SimTime windowEnd = 0;    ///< inclusive
  std::uint64_t bytesSentDelta = 0;
  std::uint64_t messagesSentDelta = 0;
  /// Measured nodes whose FIRST monitor discovery instant fell inside
  /// (windowStart, windowEnd].
  std::uint64_t discoveries = 0;
  /// Collusion-attack victims homed in this shard with >= 1 discovered
  /// monitor at the barrier, and those whose monitors are ALL coalition
  /// members. Gauges, not deltas — each victim lives in exactly one shard,
  /// so the cross-shard sum is the system-wide count. Always 0 when the
  /// scenario arms no attack.
  std::uint64_t victimsMonitored = 0;
  std::uint64_t victimsEclipsed = 0;
};

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

/// One merged time-series row: the window plus named columns contributed
/// by each windowed reducer in registration order (fixed, so CSV/JSON
/// column order is deterministic).
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

/// The MetricSet-compatible end-of-run summary the "summary" reducer
/// fills: one StreamedMetric per paper metric plus the discovery and
/// accuracy aggregates. O(reducers), never O(N). Attack victims are not
/// summarized here: MetricSet takes their rows from victimOutcomes
/// (experiments/adversary.hpp) against the final protocol state.
struct StreamedSummary {
  StreamedMetric discoverySeconds;
  /// Second and third monitor's discovery delay: read by expect.* lines,
  /// not by the table and JSON sinks.
  StreamedMetric discovery2Seconds;
  StreamedMetric discovery3Seconds;
  StreamedMetric memoryEntries;
  StreamedMetric outgoingBytesPerSecond;
  StreamedMetric uselessPingsPerMinute;
  StreamedMetric computationsPerSecond;
  /// Mean |estimated - actual| feeds accuracyMeanAbsError; count is the
  /// reporting-node count the sinks print.
  StreamedMetric accuracyAbsError;
  std::uint64_t joined = 0;  ///< measured nodes that ever joined
  std::uint64_t found = 0;   ///< of those, discovered >= 1 monitor

  double discoveredFraction() const noexcept {
    return joined == 0
               ? 0.0
               : static_cast<double>(found) / static_cast<double>(joined);
  }
};

/// One pluggable online reduction. Lifetime: the registry's make() builds
/// the root prototype; fork() clones an EMPTY instance per shard; the
/// collector feeds shard instances, merges them into root copies, and
/// calls the emit hooks on the merged result only.
class Reducer {
 public:
  virtual ~Reducer() = default;

  /// Registry key ("summary", "traffic", "discovery", ...).
  virtual std::string name() const = 0;

  /// A fresh, empty instance of the same concrete type.
  virtual std::unique_ptr<Reducer> fork() const = 0;

  // ---- per-shard ingest (shard worker thread, own instance only) ----
  virtual void onWindow(const WindowProbe& probe) { (void)probe; }
  virtual void onNode(const NodeProbe& probe) { (void)probe; }

  /// Merges `other` (same concrete type) into this instance. The
  /// collector merges shard instances in shard-index order; the merge
  /// must be associative and partition-independent (see header comment).
  virtual void mergeFrom(const Reducer& other) = 0;

  // ---- root-side emission (coordinator thread, merged copies) ----

  /// Appends this reducer's columns for the window just closed. Called on
  /// a root merge of the shard instances; windowed reducers override.
  virtual void emitWindowColumns(WindowRow& row) const { (void)row; }

  /// Clears window-scoped state on the shard instances after the root
  /// consumed it (run-scoped state — cumulative counters, summary
  /// sketches — stays).
  virtual void resetWindow() {}

  /// Contributes to the final summary. Called once, on the root merge at
  /// the horizon.
  virtual void finish(StreamedSummary& out) const { (void)out; }

  /// Retained bytes of reducer state (MetricSet::metricStateBytes).
  virtual std::size_t stateBytes() const = 0;
};

/// Built-in reducer factories (reducer.cpp); pre-registered by
/// ReducerRegistry, exposed for direct use in tests.
std::unique_ptr<Reducer> makeSummaryReducer();
std::unique_ptr<Reducer> makeTrafficReducer();
std::unique_ptr<Reducer> makeDiscoveryReducer();
std::unique_ptr<Reducer> makeResilienceReducer();

}  // namespace avmon::experiments::streaming
