#include "experiments/protocols/dht_ring_protocol.hpp"

namespace avmon::experiments {

void DhtRingProtocol::build(const ProtocolContext& ctx) {
  k_ = ctx.config.k;
  horizon_ = ctx.scenario.horizon;
  sim_ = &ctx.world.simOf(0);
  ring_ = std::make_unique<DhtRing>(ctx.hashFn, k_);

  for (const trace::NodeTrace& nt : ctx.trace.nodes()) {
    order_.push_back(nt.id);
    states_.emplace(nt.id, NodeState{});
  }
  undiscovered_ = order_.size();
}

void DhtRingProtocol::onJoin(const NodeId& id, bool /*firstJoin*/) {
  NodeState& state = states_.at(id);
  state.alive = true;
  if (state.firstJoin < 0) state.firstJoin = sim_->now();
  ring_->join(id);
  // A join can grow any alive node's pinging set (the newcomer lands
  // somewhere on the ring); a leave can only shrink or rotate sets, so
  // discovery levels are re-evaluated on joins alone.
  recordDiscoveries();
}

void DhtRingProtocol::onLeave(const NodeId& id) {
  // The trace closes every open session exactly at the horizon, and a
  // session's node counts as up AT its end instant (ground-truth
  // availability includes it). Processing those teardown leaves would
  // empty the ring at the very moment the memory metrics are read, so —
  // unlike mid-run churn — they are ignored: the final ring is the alive
  // set just before the horizon. (AVMON needs no such guard; its PS/TS
  // persist leaves by design.)
  if (sim_->now() >= horizon_) return;
  states_.at(id).alive = false;
  ring_->leave(id);
  targetCountsValid_ = false;
}

void DhtRingProtocol::recordDiscoveries() {
  targetCountsValid_ = false;
  if (undiscovered_ == 0) return;  // steady state: nothing left to record
  const SimTime now = sim_->now();
  for (const NodeId& id : order_) {
    NodeState& state = states_.at(id);
    if (!state.alive || state.psDiscoveryTimes.size() >= k_) continue;
    const std::size_t size = ring_->replicaSet(id).size();
    while (state.psDiscoveryTimes.size() < size &&
           state.psDiscoveryTimes.size() < k_) {
      state.psDiscoveryTimes.push_back(now);
    }
    if (state.psDiscoveryTimes.size() >= k_) --undiscovered_;
  }
}

void DhtRingProtocol::forEachNode(
    const std::function<void(const NodeId&)>& fn) const {
  for (const NodeId& id : order_) fn(id);
}

std::optional<SimDuration> DhtRingProtocol::discoveryDelay(
    const NodeId& id, std::size_t k) const {
  const NodeState& state = states_.at(id);
  if (k == 0 || state.psDiscoveryTimes.size() < k || state.firstJoin < 0)
    return std::nullopt;
  return state.psDiscoveryTimes[k - 1] - state.firstJoin;
}

std::size_t DhtRingProtocol::memoryEntries(const NodeId& id) const {
  const NodeState& state = states_.at(id);
  if (state.firstJoin < 0) return 0;
  // The scheme's per-node state at the horizon: its replica set (the K
  // successors it would ping) plus one entry per node it currently sits
  // in the replica set of. The reverse relation is built once per ring
  // version for the whole population (the metric snapshot probes every
  // node; one O(N K log N) pass instead of one per query).
  if (!targetCountsValid_) {
    targetCounts_.clear();
    for (const NodeId& other : order_) {
      if (!states_.at(other).alive) continue;
      for (const NodeId& m : ring_->replicaSet(other)) ++targetCounts_[m];
    }
    targetCountsValid_ = true;
  }
  const auto it = targetCounts_.find(id);
  const std::size_t targets = it == targetCounts_.end() ? 0 : it->second;
  return ring_->replicaSet(id).size() + targets;
}

void DhtRingProtocol::visitMonitorsOf(
    const NodeId& id, const std::function<void(const NodeId&)>& fn) const {
  for (const NodeId& m : ring_->replicaSet(id)) fn(m);
}

}  // namespace avmon::experiments
