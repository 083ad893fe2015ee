#include "experiments/protocols/broadcast_protocol.hpp"

namespace avmon::experiments {

void BroadcastProtocol::build(const ProtocolContext& ctx) {
  selector_ = ctx.shardSelectors[0];
  sim_ = &ctx.world.simOf(0);
  net_ = &ctx.world.netOf(0);
  for (const trace::NodeTrace& nt : ctx.trace.nodes()) {
    nodes_.push_back(std::make_unique<Node>(
        *this, nt.id, static_cast<std::uint32_t>(nodes_.size())));
    byId_.emplace(nt.id, nodes_.back().get());
    net_->attach(nt.id, *nodes_.back());
  }
}

void BroadcastProtocol::onJoin(const NodeId& id, bool /*firstJoin*/) {
  Node& node = *byId_.at(id);
  if (node.alive) return;
  node.alive = true;
  net_->setUp(id, true);
  if (node.firstJoin < 0) node.firstJoin = sim_->now();

  // O(N) join cost: announce to every alive member, and learn them all.
  for (const auto& peer : nodes_) {
    if (!peer->alive || peer.get() == &node) continue;
    net_->send(id, peer->id, sim::PresenceMessage{id});
    considerPeer(node, *peer);
  }
}

void BroadcastProtocol::onLeave(const NodeId& id) {
  Node& node = *byId_.at(id);
  if (!node.alive) return;
  node.alive = false;
  net_->setUp(id, false);
}

void BroadcastProtocol::considerPeer(Node& node, const Node& peer) {
  node.members.insert(peer.pos, nodes_.size());
  ++node.hashChecks;
  if (selector_->isMonitor(peer.id, node.id) &&
      node.ps.insert(peer.id).second) {
    node.psDiscoveryTimes.push_back(sim_->now());
  }
  ++node.hashChecks;
  if (selector_->isMonitor(node.id, peer.id)) {
    node.ts.insert(peer.pos, nodes_.size());
  }
}

void BroadcastProtocol::Node::onMessage(const NodeId& /*from*/,
                                        const sim::Message& message) {
  if (!alive) return;
  // This scheme only speaks presence announcements; other alternatives of
  // the closed wire format are not its protocol and fall to the catch-all.
  std::visit(sim::Overloaded{
                 [this](const sim::PresenceMessage& presence) {
                   if (presence.origin == id) return;
                   owner.considerPeer(*this,
                                      *owner.byId_.at(presence.origin));
                 },
                 [](const auto&) {},
             },
             message);
}

void BroadcastProtocol::forEachNode(
    const std::function<void(const NodeId&)>& fn) const {
  for (const auto& node : nodes_) fn(node->id);
}

std::optional<SimDuration> BroadcastProtocol::discoveryDelay(
    const NodeId& id, std::size_t k) const {
  const Node& node = *byId_.at(id);
  if (k == 0 || node.psDiscoveryTimes.size() < k || node.firstJoin < 0)
    return std::nullopt;
  return node.psDiscoveryTimes[k - 1] - node.firstJoin;
}

std::size_t BroadcastProtocol::memoryEntries(const NodeId& id) const {
  // |membership| + |PS| + |TS|: comparable to AVMON's |CV| + |PS| + |TS|.
  const Node& node = *byId_.at(id);
  return node.members.count + node.ps.size() + node.ts.count;
}

std::uint64_t BroadcastProtocol::hashChecks(const NodeId& id) const {
  return byId_.at(id)->hashChecks;
}

void BroadcastProtocol::visitMonitorsOf(
    const NodeId& id, const std::function<void(const NodeId&)>& fn) const {
  // lint:allow(unordered-iter, the accuracy sampler's monitor visit order is part of the pinned metric stream; hash order is deterministic for a fixed insertion history)
  for (const NodeId& m : byId_.at(id)->ps) fn(m);
}

}  // namespace avmon::experiments
