// StreamingCollector: measures a running scenario through one fixed bank
// of metric state per ShardedSimulator shard. Every ScenarioRunner builds
// one; it is the only way a run is measured.
//
// The collector fills the banks through ShardedSimulator::visitShards, so
// each bank is only ever touched by the worker thread that owns its shard:
//
//   onWindowBarrier(b)  at every metric-window boundary the runner aligned
//                       to the sharding-window grid: each shard differences
//                       its network's aggregate counters and discovery
//                       count against the previous barrier and takes its
//                       victims' eclipse gauges; the coordinator then sums
//                       the banks (shard-index order) into one WindowRow.
//   finish(horizon)     once: closes the last window, each shard probes
//                       the participants it owns through probeNode into its
//                       bank's StreamedSummary, then the coordinator folds
//                       the bank summaries in shard-index order.
//
// Bank state is integer counters and sketch-library types only, so the
// sums and folds are exact and partition-independent: every window row and
// summary bit is the same at every shard count. Banks follow the repo's
// avmon_lint rules: no unordered-container iteration without a fixed order,
// no wall clock, no private RNG seeds.
//
// Peak metric state is O(shards x sketch size) + the windowed rows — never
// O(N): no sample vector or per-node table is materialized anywhere on this
// path (streaming_test pins it). Per-sample rows, when a caller wants them,
// come from collectSamples (experiments/metrics.hpp), which reads the same
// probeNode.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/node_id.hpp"
#include "common/time.hpp"
#include "experiments/streaming/reducer.hpp"
#include "sim/network.hpp"

namespace avmon::sim {
class ShardedSimulator;
}

namespace avmon::experiments {
class ScenarioRunner;
}

namespace avmon::experiments::streaming {

/// The metric groups spec key metrics.reducers selects from ("reducer" is
/// the spec's word for a group), in the order an empty list runs them.
/// "summary" fills the end-of-run StreamedSummary; each of the others adds
/// columns to every WindowRow:
///   traffic     traffic_bytes, traffic_messages, traffic_bytes_per_sec
///   discovery   discoveries, discovered_total (measured set)
///   resilience  victims_monitored, victims_eclipsed (collusion victims;
///               all zero when no attack is armed)
inline constexpr std::array<std::string_view, 4> kMetricGroups = {
    "summary", "traffic", "discovery", "resilience"};

/// One participant's end-of-run samples under the paper's Section 5.1
/// qualification rules — the one place those rules live. Shared by the
/// collector's per-shard finish scan and collectSamples' rows. `runner`
/// must have finished run(); every probe it reads is const and race-free.
NodeProbe probeNode(const ScenarioRunner& runner, const NodeId& id);

class StreamingCollector {
 public:
  /// Selects `groups` (kMetricGroups names, validated by Scenario::validate;
  /// empty = all four) and builds one bank per shard of `runner`'s world.
  /// The runner must outlive the collector; its protocol must already be
  /// built.
  StreamingCollector(const ScenarioRunner& runner,
                     const std::vector<std::string>& groups);

  StreamingCollector(const StreamingCollector&) = delete;
  StreamingCollector& operator=(const StreamingCollector&) = delete;

  /// True if any selected group produces window columns — when false the
  /// runner skips intermediate barriers entirely (summary-only runs stream
  /// at zero window cost).
  bool anyWindowed() const noexcept { return anyWindowed_; }

  /// Closes the metric window (lastBoundary, boundary]. `world` must be
  /// quiescent with every shard clock at `boundary` — the runner guarantees
  /// this by aligning boundaries to full sharding windows.
  void onWindowBarrier(sim::ShardedSimulator& world, SimTime boundary);

  /// Closes the final partial window (if any group is windowed), runs the
  /// per-shard node scan (if "summary" is selected), and folds the banks
  /// into the final summary.
  void finish(sim::ShardedSimulator& world, SimTime horizon);

  const std::vector<WindowRow>& windows() const noexcept { return windows_; }

  /// Valid after finish(); throws std::logic_error before.
  const StreamedSummary& summary() const;

  /// Retained metric-state bytes across every bank and window row
  /// (MetricSet::metricStateBytes).
  std::size_t stateBytes() const;

 private:
  /// kMetricGroups, by index.
  enum Group : std::size_t { kSummary, kTraffic, kDiscovery, kResilience };
  static_assert(kMetricGroups[kSummary] == "summary" &&
                kMetricGroups[kTraffic] == "traffic" &&
                kMetricGroups[kDiscovery] == "discovery" &&
                kMetricGroups[kResilience] == "resilience");

  /// One shard's metric state; written only on the shard's home worker.
  struct ShardBank {
    StreamedSummary summary;          ///< the shard's participants' probes
    sim::TrafficCounters lastTotals;  ///< network totals at the last barrier
    sim::TrafficCounters windowTraffic;  ///< sent in the window just closed
    std::size_t discoveredSoFar = 0;     ///< measured nodes discovered by now
    std::size_t windowDiscoveries = 0;   ///< ... of which in the last window
    /// Victims with >= 1 discovered monitor at the barrier, and those whose
    /// monitors are ALL coalition members. Gauges, not deltas: each victim
    /// lives in one shard, so the cross-shard sum is the system-wide count.
    std::size_t victimsMonitored = 0;
    std::size_t victimsEclipsed = 0;
    std::vector<NodeId> participants;  ///< forEachNode order, home-shard cut
    std::vector<NodeId> measuredHome;  ///< measured nodes homed here
    std::vector<NodeId> victimsHome;   ///< collusion victims homed here
  };

  const ScenarioRunner* runner_;
  std::vector<Group> groups_;  ///< selected groups, in the spec's order
  bool summarize_ = false;     ///< "summary" selected
  bool anyWindowed_ = false;
  std::vector<ShardBank> banks_;
  SimTime lastBoundary_ = 0;
  std::vector<WindowRow> windows_;
  StreamedSummary summary_;
  bool finished_ = false;
};

}  // namespace avmon::experiments::streaming
