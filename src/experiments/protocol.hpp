// Protocol plug-in API: the seam between the experiment harness and the
// monitoring scheme it measures.
//
// ScenarioRunner owns everything protocol-independent — the availability
// schedule, the sharded world, the trace player, the measured set, and the
// metric *definitions* (what a discovery delay or a bandwidth sample is).
// A Protocol owns everything scheme-specific: how participants are built,
// what a lifecycle transition means, and how each metric probe is answered
// (AVMON answers from AvmonNode state; the central baseline answers from
// its server's member table; the DHT baseline answers from the ring).
//
// Registering a scheme in the ProtocolRegistry (protocol_registry.hpp) is
// all it takes to run it under every workload, sweep, and metrics sink the
// harness supports — the paper's head-to-head comparisons (AVMON vs. the
// four Section-1 baselines) all ride this one interface.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "experiments/scenario.hpp"

namespace avmon::experiments {

struct ResolvedAdversary;  // experiments/adversary.hpp

/// Everything the harness hands a protocol to build its participants.
/// References stay valid for the protocol's lifetime (the runner owns both
/// sides). AVMON draws node RNGs from rootRng; protocols that need
/// randomness must draw from it too, never from a private seed, so a
/// scenario's seed controls the whole experiment.
struct ProtocolContext {
  const Scenario& scenario;
  std::size_t effectiveN;
  /// Shared experiment knobs (periods, K, message byte sizes) resolved for
  /// effectiveN — paper defaults unless the scenario overrides them.
  const AvmonConfig& config;
  sim::ShardedSimulator& world;
  const trace::AvailabilityTrace& trace;
  const hash::HashFunction& hashFn;
  /// The consistency condition, one entry per shard. Whether a verdict
  /// memo sits behind an entry is the runner's choice, and a memo is
  /// thread-private, so a participant checks pairs only through its home
  /// shard's entry.
  const std::vector<const MonitorSelector*>& shardSelectors;
  Rng& rootRng;
  /// Resolved hostile cohorts, or nullptr when the scenario arms no attack
  /// (experiments/adversary.hpp). Every scheme faces the same adversary:
  /// protocols tag their participants from it during build(); schemes
  /// whose trust model the cohorts cannot corrupt may ignore it.
  const ResolvedAdversary* adversary = nullptr;
};

/// A monitor's availability estimate of one target, together with the
/// observation window it was measured over. The harness compares
/// `estimated` against the trace's ground-truth availability over exactly
/// [windowStart, windowEnd] — aligning the windows is what keeps the
/// accuracy metric unbiased on short runs (see ScenarioRunner docs).
struct EstimateSample {
  double estimated = 0.0;
  SimTime windowStart = 0;
  SimTime windowEnd = 0;
};

/// One pluggable monitoring scheme. Lifetime: built by a ProtocolFactory,
/// populated once via build(), driven by lifecycle callbacks during the
/// run, then queried through the metric probes after the horizon.
class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Registry key ("avmon", "broadcast", "central", ...).
  virtual std::string name() const = 0;

  /// Builds one participant per trace node into the world (endpoints
  /// attached to their home shard's network, timers into its simulator).
  /// Called exactly once, by the ScenarioRunner constructor, after every
  /// trace node is registered with the sharded world.
  virtual void build(const ProtocolContext& ctx) = 0;

  // ---- lifecycle (the churn player, via the runner) ----

  virtual void onJoin(const NodeId& id, bool firstJoin) = 0;
  virtual void onLeave(const NodeId& id) = 0;
  /// Deaths are silent in the paper's system model; most schemes ignore
  /// them (the node simply never rejoins).
  virtual void onDeath(const NodeId& id) { (void)id; }

  // ---- metric probes (valid after the run) ----

  /// Visits every participant in a deterministic, protocol-chosen storage
  /// order. Unordered aggregate metrics (memory, bandwidth, useless
  /// pings) are reported in this order, so it must be reproducible across
  /// identically seeded runs. May include participants that are not trace
  /// nodes (e.g. the central baseline's server).
  virtual void forEachNode(
      const std::function<void(const NodeId&)>& fn) const = 0;

  /// Delay from `id`'s first join to the discovery of its k-th monitor
  /// (k counted from 1); nullopt if fewer than k were ever discovered.
  virtual std::optional<SimDuration> discoveryDelay(const NodeId& id,
                                                    std::size_t k) const = 0;

  /// Entries of monitoring state held by `id` (the paper's per-node
  /// memory metric; what counts as an entry is the scheme's own honest
  /// accounting — |CV|+|PS|+|TS| for AVMON, full membership for
  /// broadcast, the member table for the central server).
  virtual std::size_t memoryEntries(const NodeId& id) const = 0;

  /// Consistency-condition evaluations performed by `id` (0 for schemes
  /// without a selection hash).
  virtual std::uint64_t hashChecks(const NodeId& id) const {
    (void)id;
    return 0;
  }

  /// Monitoring pings `id` sent to absent targets.
  virtual std::uint64_t uselessPings(const NodeId& id) const {
    (void)id;
    return 0;
  }

  /// True if `id` monitors at least one target — the denominator filter
  /// of the useless-pings metric.
  virtual bool isMonitoring(const NodeId& id) const {
    (void)id;
    return false;
  }

  /// Visits `id`'s current monitors (its pinging set) in protocol storage
  /// order, visiting nothing when `id` has none. The order must be
  /// reproducible across identically seeded runs: the accuracy probe
  /// averages estimates in it.
  virtual void visitMonitorsOf(
      const NodeId& id,
      const std::function<void(const NodeId&)>& fn) const = 0;

  /// `monitor`'s availability estimate of `target`, or nullopt when the
  /// monitor holds no statistically meaningful estimate (not a monitor,
  /// no samples, too few samples — the scheme's own threshold).
  virtual std::optional<EstimateSample> estimate(const NodeId& monitor,
                                                 const NodeId& target) const {
    (void)monitor;
    (void)target;
    return std::nullopt;
  }

  // ---- AVMON escape hatch ----

  /// Direct AvmonNode access backing ScenarioRunner::node() — the probe
  /// surface tests, benches, and ablations use for AVMON-specific state.
  /// Every other protocol returns nullptr (the runner turns that into an
  /// actionable error).
  virtual const AvmonNode* avmonNode(const NodeId& id) const {
    (void)id;
    return nullptr;
  }
  virtual AvmonNode* mutableAvmonNode(const NodeId& id) {
    (void)id;
    return nullptr;
  }
};

}  // namespace avmon::experiments
