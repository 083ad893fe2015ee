// Adversary layer: deterministic resolution of a scenario's attack spec
// into concrete hostile cohorts, plus the post-run resilience probes the
// harness, the streaming `resilience` metric group, tests, and benches
// share.
//
// Threat model (paper Section 4.3, Figure 20):
//  * Collusion coalition — `attack.collusion` nodes that answer
//    availability probes falsely (100%) for a set of `attack.victims`
//    targeted nodes. AVMON's defense is structural: a colluder can only
//    influence a victim's record if it *legitimately* satisfies the
//    consistency condition (forged NOTIFYs are re-verified by receivers,
//    avmon/node.cpp handleNotify), so a victim is "eclipsed" exactly when
//    every monitor the selection hash assigned to it happens to be a
//    colluder — the event the closed-form probSystemCollusionFree
//    (analysis/formulas.hpp) bounds.
//  * Forgetful cohort — `attack.forgetful` fraction of nodes that wipe
//    their persistent storage (CV/PS/TS) on every leave, violating the
//    Section 3.3 persistence assumption.
//  * Over-reporting cohort — the existing Scenario::overreportFraction,
//    the `overreport` spec key (a comma list sweeps it).
//
// Determinism: cohorts are drawn from private streams derived from
// (scenario seed XOR role salt) — never from the runner's root stream — so
// arming an attack does not shift a single draw of the underlying world,
// and the same spec resolves to the same cohorts at every shard count.
#pragma once

#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/node_id.hpp"
#include "experiments/scenario.hpp"
#include "trace/availability_trace.hpp"

namespace avmon::experiments {

class Protocol;  // experiments/protocol.hpp

/// The scenario's attack spec resolved against a concrete trace: who
/// colludes, who is targeted, who forgets. Owned by the ScenarioRunner;
/// protocols receive a pointer through the ProtocolContext and tag their
/// participants accordingly.
struct ResolvedAdversary {
  std::vector<NodeId> colluders;  ///< coalition, in selection order
  std::vector<NodeId> victims;    ///< targeted nodes, in selection order
  std::vector<NodeId> amnesiacs;  ///< forgetful cohort, in trace order

  std::unordered_set<NodeId> colluderSet;
  std::unordered_set<NodeId> amnesiacSet;
  /// Shared with every colluding AvmonNode (AvmonNode::setCollusion):
  /// the targets they lie about.
  std::shared_ptr<const std::unordered_set<NodeId>> victimSet;

  bool enabled() const noexcept {
    return !colluders.empty() || !amnesiacs.empty();
  }
  bool isColluder(const NodeId& id) const {
    return colluderSet.count(id) != 0;
  }
  bool isVictim(const NodeId& id) const {
    return victimSet != nullptr && victimSet->count(id) != 0;
  }
  bool isAmnesiac(const NodeId& id) const {
    return amnesiacSet.count(id) != 0;
  }
};

/// Resolves the scenario's attack keys against the trace. Coalition and
/// victims are disjoint uniform picks; the forgetful cohort is a per-node
/// Bernoulli pass in trace order. All randomness comes from streams keyed
/// (seed XOR role salt) — the root stream is untouched.
ResolvedAdversary resolveAdversary(const Scenario& scenario,
                                   const trace::AvailabilityTrace& trace);

/// Applies the plan's correlated failure bursts to the trace in place:
/// for each burst a contiguous cluster covering `fraction` of the nodes
/// (offset drawn from a seed-derived stream) has every session clipped
/// out of [at, at + duration) — members die at the burst and rejoin with
/// their next surviving session, so ground truth, bootstrap picks, and
/// accuracy all see the same event. Idempotent for an empty burst list.
void applyBursts(trace::AvailabilityTrace& trace,
                 const std::vector<sim::BurstSpec>& bursts,
                 std::uint64_t seed);

/// Monitor-averaged estimate vs. window-aligned ground truth for one
/// trace node — the one definition of "availability accuracy", shared by
/// the collector's probeNode, the resilience probes, and callers that
/// need every node's accuracy. nullopt when no monitor reports an
/// estimate.
std::optional<AvailabilityAccuracy> alignedAccuracyOf(
    const Protocol& protocol, const trace::NodeTrace& nt);

/// Post-run outcome for one targeted victim.
struct VictimOutcome {
  NodeId id;
  std::size_t monitors = 0;           ///< discovered monitors
  std::size_t colludingMonitors = 0;  ///< of which coalition members
  /// Every discovered monitor is a colluder (and there is at least one):
  /// the victim's availability record is fully adversary-controlled.
  bool eclipsed = false;
  /// |monitor-averaged estimate - aligned ground truth|, when any monitor
  /// reports.
  std::optional<double> estimateAbsError;
};

/// Evaluates every victim against the protocol's post-run state, in the
/// adversary's victim order.
std::vector<VictimOutcome> victimOutcomes(
    const Protocol& protocol, const ResolvedAdversary& adversary,
    const trace::AvailabilityTrace& trace);

}  // namespace avmon::experiments
