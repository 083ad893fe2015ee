// AvmonNode: one protocol participant.
//
// Implements the three AVMON sub-protocols of paper Section 3:
//   * the (re)joining sub-protocol (Figure 1) — weighted JOIN spreading
//     over a random spanning graph so an expected cvs coarse views point
//     at the joiner;
//   * coarse-view maintenance and monitor discovery (Figure 2) — per
//     protocol period: ping one random CV entry (drop if unresponsive),
//     fetch a random alive CV member's view, check the consistency
//     condition over all cross pairs, NOTIFY matches, reshuffle;
//   * availability monitoring (Section 3.3) — per monitoring period, ping
//     every TS member, record the outcome in a per-target availability
//     history, with the forgetful-pinging decay for long-dead targets and
//     the optional PR2 re-advertisement optimization.
//
// The node is deliberately ignorant of the simulation: it talks to a
// sim::Transport (the simulated Network or the live UDP lane), a Simulator
// clock, a MonitorSelector, and a bootstrap oracle (the "pick a random
// node" of Figure 1, which in a deployment is a rendezvous/bootstrap
// service and in our harness is the scenario runner).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "avmon/config.hpp"
#include "avmon/messages.hpp"
#include "avmon/monitor_selector.hpp"
#include "avmon/notify_dedup.hpp"
#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "history/availability_history.hpp"
#include "sim/simulator.hpp"
#include "sim/transport.hpp"

namespace avmon {

/// Returns a random *alive* contact other than the argument, or nil if the
/// caller is alone. Models the bootstrap service every P2P join needs.
using BootstrapFn = std::function<NodeId(const NodeId& self)>;

/// Per-node protocol counters, all cumulative since construction.
struct NodeMetrics {
  std::uint64_t hashChecks = 0;       ///< consistency-condition evaluations
  std::uint64_t notifiesSent = 0;
  std::uint64_t joinsForwarded = 0;
  std::uint64_t joinsReceived = 0;    ///< JOIN messages with positive weight
  std::uint64_t joinAdds = 0;         ///< JOINs that added a new CV entry
  std::uint64_t cvFetches = 0;
  std::uint64_t monitoringPingsSent = 0;
  std::uint64_t uselessPings = 0;     ///< monitoring pings that got no answer
  std::uint64_t forgetfulSuppressed = 0;  ///< pings skipped by forgetful decay
};

/// Everything a monitor keeps about one target in TS (persistent storage).
struct TargetRecord {
  std::unique_ptr<history::AvailabilityHistory> history;
  SimTime downSince = -1;          ///< -1 while target responsive
  SimTime sessionStart = -1;       ///< start of current observed up-session
  SimDuration lastSessionLength = 0;  ///< ts(u) for forgetful pinging
  double ewmaSessionLength = 0.0;  ///< smoothed ts(u), if configured
};

class AvmonNode final : public sim::Endpoint {
 public:
  /// Shared-config constructor: every node of a scenario points at ONE
  /// immutable AvmonConfig (the million-node memory diet — a per-node copy
  /// costs ~150 B each). The config must already be validate()d.
  AvmonNode(NodeId id, std::shared_ptr<const AvmonConfig> config,
            const MonitorSelector& selector, sim::Simulator& sim,
            sim::Transport& net, BootstrapFn bootstrap, Rng rng);

  /// Convenience for tests and one-off nodes: wraps the value in a private
  /// shared config.
  AvmonNode(NodeId id, AvmonConfig config, const MonitorSelector& selector,
            sim::Simulator& sim, sim::Transport& net, BootstrapFn bootstrap,
            Rng rng);

  AvmonNode(const AvmonNode&) = delete;
  AvmonNode& operator=(const AvmonNode&) = delete;

  // ---- lifecycle (driven by the churn player / application) ----

  /// Brings the node up and runs the joining sub-protocol. `firstJoin`
  /// selects the full JOIN weight (birth) vs. the downtime-pro-rated weight
  /// (rejoin). Also starts the periodic protocol and monitoring timers.
  void join(bool firstJoin);

  /// Takes the node down (leave or crash — indistinguishable). Coarse view
  /// is retained in persistent storage but timers stop; PS/TS persist.
  void leave();

  bool isAlive() const noexcept { return alive_; }

  // ---- observable state ----

  const NodeId& id() const noexcept { return id_; }
  const AvmonConfig& config() const noexcept { return *config_; }

  const std::vector<NodeId>& coarseView() const noexcept { return cv_; }
  const std::unordered_set<NodeId>& pingingSet() const noexcept { return ps_; }
  const std::unordered_map<NodeId, TargetRecord>& targetSet() const noexcept {
    return ts_;
  }
  const NodeMetrics& metrics() const noexcept { return metrics_; }

  /// Entries currently held by the NOTIFY dedup cache (both generations).
  /// Bounded by AvmonConfig::notifyDedupMax and cleared on leave().
  std::size_t notifyDedupCacheSize() const noexcept {
    return notifiedPairs_.size();
  }

  /// |CV| + |PS| + |TS|: the paper's per-node memory metric.
  std::size_t memoryEntries() const noexcept {
    return cv_.size() + ps_.size() + ts_.size();
  }

  /// Time of the k-th monitor discovery (k counted from 1) measured from
  /// this node's first join, or nullopt if fewer than k monitors have been
  /// discovered. Feeds the paper's discovery-time figures.
  std::optional<SimDuration> discoveryDelay(std::size_t k) const;

  /// The "l out of K" reporting policy (Section 3.3): this node's choice
  /// of up to `l` of its own monitors. A consumer verifies each against
  /// the selection scheme before trusting it.
  std::vector<NodeId> reportMonitors(std::size_t l) const;

  /// This monitor's availability estimate for `target`, or nullopt if the
  /// target is not in TS. Honest nodes report the history estimate;
  /// overreporters (see setOverreporting) claim 100%.
  std::optional<double> availabilityEstimateOf(const NodeId& target) const;

  /// Makes this node misreport 100% availability for everything it
  /// monitors — the attack of the paper's Figure 20.
  void setOverreporting(bool on) noexcept { overreporting_ = on; }

  /// Enlists this node in a collusion coalition (paper Section 4.3): it
  /// claims 100% availability for any monitored target in `victims`.
  /// Forged NOTIFYs would be caught by receivers' re-verification, so the
  /// coalition's only leverage is lying about targets the selection hash
  /// legitimately assigned to it. Pass nullptr to leave the coalition.
  void setCollusion(
      std::shared_ptr<const std::unordered_set<NodeId>> victims) noexcept {
    collusionVictims_ = std::move(victims);
  }

  /// Makes this node wipe its persistent storage (CV, PS, TS) on every
  /// leave(), violating the Section 3.3 persistence assumption — the
  /// "forgetful node" failure mode the robustness scenarios measure.
  void setAmnesia(bool on) noexcept { amnesiac_ = on; }

  // ---- Endpoint (transport-facing side of the protocol) ----

  /// One-way delivery: exhaustive dispatch over the closed Message variant
  /// to the JOIN / NOTIFY / force-add handlers.
  void onMessage(const NodeId& from, const sim::Message& message) override;

  /// RPC target side: answers liveness pings, serves coarse-view fetches,
  /// performs the CYCLON-style half-view swap, and records monitoring-ping
  /// arrivals for PR2. Exhaustive over the closed RpcRequest variant.
  sim::RpcResponse onRpc(const NodeId& from,
                         const sim::RpcRequest& request) override;

 private:
  // One protocol-period step of Figure 2.
  void protocolTick();
  // One monitoring-period step of Section 3.3.
  void monitoringTick();

  void handleJoin(const JoinMessage& msg);
  void handleNotify(const NotifyMessage& msg);
  void handleForceAdd(const ForceAddMessage& msg);

  // Adds `id` to the coarse view if absent (evicting a random victim when
  // full). Never adds self. Returns true if added.
  bool addToCoarseView(const NodeId& id);

  // Counts one protocol-level consistency evaluation and returns the
  // verdict "u monitors v".
  bool checkCondition(const NodeId& u, const NodeId& v);

  // Cross-checks all (u,v) pairs of Figure 2 between our view and the
  // fetched view `theirs` (views already extended with {self, w}): each
  // distinct unordered pair once, both orientations, in one selector batch.
  void discoverPairs(const std::vector<NodeId>& mine,
                     const std::vector<NodeId>& theirs);

  // Reshuffle step: new CV = cvs random distinct entries of old ∪ fetched ∪ {w}.
  void reshuffleCoarseView(const std::vector<NodeId>& fetched, const NodeId& w);

  // CYCLON-style alternative: trade half our entries for half of w's via a
  // SwapRequest exchange.
  void reshuffleBySwap(const NodeId& w);

  // RPC target side of the swap: absorbs `offered`, hands back an
  // equal-sized random slice of its own view. Pointer-conserving up to
  // duplicate collapses.
  std::vector<NodeId> acceptExchange(const NodeId& from,
                                     const std::vector<NodeId>& offered);

  // Records a monitoring-ping arrival (PR2 baseline).
  void acceptMonitoringPing();

  // Removes and returns up to `count` random entries from the coarse view.
  std::vector<NodeId> takeRandomEntries(std::size_t count);

  // Sends one monitoring ping and records the outcome.
  void pingTarget(const NodeId& target, TargetRecord& rec);

  NodeId id_;
  std::shared_ptr<const AvmonConfig> config_;
  const MonitorSelector& selector_;
  sim::Simulator& sim_;
  sim::Transport& net_;
  BootstrapFn bootstrap_;
  Rng rng_;

  bool alive_ = false;
  std::uint64_t epoch_ = 0;  ///< invalidates timers from previous sessions
  SimTime lastLeaveTime_ = -1;
  SimTime firstJoinTime_ = -1;
  SimTime sessionStartTime_ = -1;

  // The coarse view is a plain vector: membership checks scan it linearly
  // (|CV| <= cvs, a handful to ~130 entries), which beats the hash-set
  // mirror it used to carry — that mirror cost ~50 heap bytes per entry
  // per node, the single biggest per-node line item at million-node scale.
  std::vector<NodeId> cv_;
  std::unordered_set<NodeId> ps_;
  std::unordered_map<NodeId, TargetRecord> ts_;

  std::vector<SimTime> psDiscoveryTimes_;  // absolute time of k-th PS entry
  SimTime lastMonitoringPingReceived_ = -1;
  NotifyDedupCache notifiedPairs_;  // generational NOTIFY dedup cache

  bool overreporting_ = false;
  // Non-null while colluding: the shared victim set this node lies about.
  std::shared_ptr<const std::unordered_set<NodeId>> collusionVictims_;
  bool amnesiac_ = false;
  NodeMetrics metrics_;
};

}  // namespace avmon
