// StreamingCollector: drives the reducer banks against a running scenario.
// Every ScenarioRunner builds one; it is the only way a run is measured.
//
// One bank of reducer instances lives in every ShardedSimulator shard (the
// hierarchical half of the pipeline). The collector feeds them through
// ShardedSimulator::visitShards, so each bank is only ever touched by the
// worker thread that owns its shard:
//
//   onWindowBarrier(b)  at every metric-window boundary the runner aligned
//                       to the sharding-window grid: each shard differences
//                       its network's aggregate counters and discovery
//                       count against the previous barrier and feeds its
//                       bank a WindowProbe; the coordinator then merges the
//                       banks (shard-index order) into a root copy, emits
//                       one WindowRow, and resets window-scoped state.
//   finish(horizon)     once: closes the last window, each shard probes
//                       the participants it owns through probeNode, then
//                       the root merge fills the final StreamedSummary.
//
// Peak metric state is O(shards x reducers x sketch size) + the windowed
// rows — never O(N): no sample vector or per-node table is materialized
// anywhere on this path (streaming_test pins it). Per-sample rows, when a
// caller wants them, come from collectSamples (experiments/metrics.hpp),
// which reads the same probeNode.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
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

/// One participant's end-of-run samples under the paper's Section 5.1
/// qualification rules — the one place those rules live. Shared by the
/// collector's per-shard finish scan and collectSamples' rows. `runner`
/// must have finished run(); every probe it reads is const and race-free.
NodeProbe probeNode(const ScenarioRunner& runner, const NodeId& id);

class StreamingCollector {
 public:
  /// Resolves `reducerNames` (empty = every registered reducer) against the
  /// ReducerRegistry and forks one bank per shard of `runner`'s world.
  /// Throws std::invalid_argument for unknown names. The runner must
  /// outlive the collector; its protocol must already be built.
  StreamingCollector(const ScenarioRunner& runner,
                     const std::vector<std::string>& reducerNames);

  StreamingCollector(const StreamingCollector&) = delete;
  StreamingCollector& operator=(const StreamingCollector&) = delete;

  /// True if any resolved reducer produces windowed columns — when false
  /// the runner skips intermediate barriers entirely (summary-only runs
  /// stream at zero window cost).
  bool anyWindowed() const noexcept { return anyWindowed_; }

  /// Reducer names in emission order (fixed at construction).
  const std::vector<std::string>& reducerNames() const noexcept {
    return names_;
  }

  /// Closes the metric window (lastBoundary, boundary]. `world` must be
  /// quiescent with every shard clock at `boundary` — the runner guarantees
  /// this by aligning boundaries to full sharding windows.
  void onWindowBarrier(sim::ShardedSimulator& world, SimTime boundary);

  /// Closes the final partial window (if any reducer is windowed), runs the
  /// per-shard node scan, and merges the banks into the final summary.
  void finish(sim::ShardedSimulator& world, SimTime horizon);

  const std::vector<WindowRow>& windows() const noexcept { return windows_; }

  /// Valid after finish(); throws std::logic_error before.
  const StreamedSummary& summary() const;

  /// Retained metric-state bytes across every bank, prototype, and window
  /// row (MetricSet::metricStateBytes).
  std::size_t stateBytes() const;

 private:
  struct ShardBank {
    std::vector<std::unique_ptr<Reducer>> reducers;  ///< parallel to names_
    sim::TrafficCounters lastTotals;  ///< network totals at the last barrier
    std::vector<NodeId> participants;  ///< forEachNode order, home-shard cut
    std::vector<NodeId> measuredHome;  ///< measured nodes homed here
    std::vector<NodeId> victimsHome;   ///< collusion victims homed here
    std::size_t discoveredSoFar = 0;   ///< measured nodes discovered by now
  };

  /// Fresh root = fold of every shard's instance i, in shard-index order.
  std::unique_ptr<Reducer> mergedRoot(std::size_t i) const;

  const ScenarioRunner* runner_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<Reducer>> prototypes_;
  std::vector<bool> windowed_;
  bool anyWindowed_ = false;
  std::vector<ShardBank> banks_;
  SimTime lastBoundary_ = 0;
  std::vector<WindowRow> windows_;
  StreamedSummary summary_;
  bool finished_ = false;
};

}  // namespace avmon::experiments::streaming
