// Availability traces: the ground-truth up/down schedule of every node.
//
// A trace fully determines a scenario's churn: when each node is born, the
// sessions during which it is up, and (optionally) when it dies for good.
// Synthetic models (STAT/SYNTH/SYNTH-BD/SYNTH-BD2) and the PlanetLab-like /
// Overnet-like workloads are all generated into this one representation and
// replayed identically, so every experiment shares one code path.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/node_id.hpp"
#include "common/time.hpp"

namespace avmon::trace {

/// Half-open span of simulated time [start, end).
struct Interval {
  SimTime start = 0;
  SimTime end = 0;

  SimDuration length() const noexcept { return end - start; }
  bool contains(SimTime t) const noexcept { return t >= start && t < end; }
  friend bool operator==(const Interval& a, const Interval& b) noexcept {
    return a.start == b.start && a.end == b.end;
  }
  friend bool operator!=(const Interval& a, const Interval& b) noexcept {
    return !(a == b);
  }
};

/// The lifetime of one node: birth, optional death, and its up-sessions.
///
/// Invariants (checked by validate()): sessions are sorted, non-overlapping,
/// non-empty intervals; the first starts at or after `birth`; all end at or
/// before `death` (when present).
struct NodeTrace {
  NodeId id;
  SimTime birth = 0;
  std::optional<SimTime> death;  ///< silent permanent departure
  std::vector<Interval> sessions;
  bool isControl = false;  ///< member of the paper's measurement control group

  /// True if the node is up at instant `t`.
  bool upAt(SimTime t) const noexcept;

  /// Fraction of [from, to) during which the node is up. Returns 0 for an
  /// empty window.
  double availability(SimTime from, SimTime to) const noexcept;

  /// Time of the node's first session start, or nullopt if it never comes up.
  std::optional<SimTime> firstJoin() const noexcept;

  /// Total up-time over the whole trace.
  SimDuration totalUpTime() const noexcept;

  /// Checks the invariants above; returns false and leaves a description
  /// in `why` (if non-null) on the first violation.
  bool validate(std::string* why = nullptr) const;
};

/// A complete scenario schedule for a set of nodes.
class AvailabilityTrace {
 public:
  AvailabilityTrace() = default;
  AvailabilityTrace(SimDuration horizon, std::vector<NodeTrace> nodes)
      : horizon_(horizon), nodes_(std::move(nodes)) {}

  SimDuration horizon() const noexcept { return horizon_; }
  const std::vector<NodeTrace>& nodes() const noexcept { return nodes_; }
  std::vector<NodeTrace>& nodes() noexcept { return nodes_; }

  void setHorizon(SimDuration h) noexcept { horizon_ = h; }
  void add(NodeTrace n) { nodes_.push_back(std::move(n)); }

  /// Number of nodes up at instant `t`.
  std::size_t aliveCount(SimTime t) const noexcept;

  /// Time-averaged number of alive nodes over [from, to), sampled every
  /// `step`. Used to report the long-term average system size of a trace.
  double meanAliveCount(SimTime from, SimTime to, SimDuration step) const;

  /// Total nodes ever born by time `t` (the paper's N_longterm).
  std::size_t bornBy(SimTime t) const noexcept;

  /// Mean availability across nodes over [from, to) (nodes born inside the
  /// window are measured from their birth).
  double meanAvailability(SimTime from, SimTime to) const;

  /// Rounds every session boundary to a multiple of `grain` (end rounded
  /// up, start rounded down), merging any sessions that become adjacent or
  /// overlapping. Models coarse measurement granularity, e.g. the Overnet
  /// traces' 20-minute sampling.
  void quantize(SimDuration grain);

  /// NodeTrace::validate over every node, stopping at the first violation.
  bool validate(std::string* why = nullptr) const;

 private:
  SimDuration horizon_ = 0;
  std::vector<NodeTrace> nodes_;
};

}  // namespace avmon::trace
