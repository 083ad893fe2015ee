// The DHT replica-set baseline as a pluggable Protocol (paper Section 1,
// existing approach (3), "akin to Total Recall"): PS(x) = the K alive
// nodes whose hashed ids follow hash(x) clockwise on a consistent-hash
// ring. The selection layer is modeled omnisciently (DhtRing carries no
// message protocol), so bandwidth is honestly zero; what the
// comparison table exposes is the scheme's *churn behaviour* — monitor
// sets that mutate under unrelated joins (the paper's Consistency
// violation), measured here as k-th-monitor discovery times tracked
// across every ring transition.
//
// Single-shard: one globally shared ring.
#pragma once

#include <unordered_map>
#include <vector>

#include "experiments/protocol.hpp"
#include "experiments/protocols/dht_ring.hpp"

namespace avmon::experiments {

class DhtRingProtocol final : public Protocol {
 public:
  std::string name() const override { return "dht_ring"; }

  void build(const ProtocolContext& ctx) override;

  void onJoin(const NodeId& id, bool firstJoin) override;
  void onLeave(const NodeId& id) override;

  void forEachNode(
      const std::function<void(const NodeId&)>& fn) const override;
  std::optional<SimDuration> discoveryDelay(const NodeId& id,
                                            std::size_t k) const override;
  std::size_t memoryEntries(const NodeId& id) const override;
  void visitMonitorsOf(
      const NodeId& id,
      const std::function<void(const NodeId&)>& fn) const override;

 private:
  // Re-evaluates alive nodes' pinging-set sizes after a ring transition
  // and records first-reach times per discovery level.
  void recordDiscoveries();

  struct NodeState {
    bool alive = false;
    SimTime firstJoin = -1;
    std::vector<SimTime> psDiscoveryTimes;  // absolute time of k-th entry
  };

  unsigned k_ = 0;
  SimTime horizon_ = 0;
  sim::Simulator* sim_ = nullptr;

  std::unique_ptr<DhtRing> ring_;
  std::vector<NodeId> order_;  // trace order
  std::unordered_map<NodeId, NodeState> states_;

  // Nodes still below k_ recorded discovery levels: lets the per-join
  // rescan stop the moment the whole population is fully discovered
  // (immediately, in low-churn runs).
  std::size_t undiscovered_ = 0;

  // Post-run memory probe support: how many alive nodes' pinging sets
  // each node sits in, built lazily in ONE pass over the final ring
  // (memoryEntries is queried ~2N times; recomputing the reverse relation
  // per query would be O(N^2 K log N)).
  mutable std::unordered_map<NodeId, std::size_t> targetCounts_;
  mutable bool targetCountsValid_ = false;
};

}  // namespace avmon::experiments
