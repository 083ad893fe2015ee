// The AVCast-style Broadcast baseline as a pluggable Protocol (paper
// Table 1, the discovery scheme of AVCast [11]): every (re)joining node
// broadcasts its presence to every node in the system. Each receiver
// checks the consistency condition against the joiner in both directions
// and installs any monitoring relation immediately. Discovery is
// near-instant (one broadcast latency) but the join costs O(N) messages
// and every node needs a full membership list — exactly the M = O(N) row
// of Table 1.
//
// Single-shard: the joiner's directory is the shared alive list (exactly
// the complete membership graph AVCast maintains anyway).
#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "experiments/protocol.hpp"

namespace avmon::experiments {

class BroadcastProtocol final : public Protocol {
 public:
  std::string name() const override { return "broadcast"; }

  void build(const ProtocolContext& ctx) override;

  void onJoin(const NodeId& id, bool firstJoin) override;
  void onLeave(const NodeId& id) override;

  void forEachNode(
      const std::function<void(const NodeId&)>& fn) const override;
  std::optional<SimDuration> discoveryDelay(const NodeId& id,
                                            std::size_t k) const override;
  std::size_t memoryEntries(const NodeId& id) const override;
  std::uint64_t hashChecks(const NodeId& id) const override;
  void visitMonitorsOf(
      const NodeId& id,
      const std::function<void(const NodeId&)>& fn) const override;

 private:
  // A set of nodes by trace position: one bit per node of the trace,
  // allocated at the first insert, and a running count. Every node learns
  // of nearly every other, so bits cost a fraction of hash-set nodes.
  struct PositionSet {
    std::vector<bool> bits;
    std::size_t count = 0;

    void insert(std::uint32_t pos, std::size_t population) {
      if (bits.empty()) bits.resize(population);
      if (bits[pos]) return;
      bits[pos] = true;
      ++count;
    }
  };

  // One participant: its network endpoint (the network holds its address)
  // and the scheme's per-node state.
  struct Node final : sim::Endpoint {
    Node(BroadcastProtocol& owner, NodeId id, std::uint32_t pos)
        : owner(owner), id(id), pos(pos) {}
    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;
    void onMessage(const NodeId& from, const sim::Message& message) override;

    BroadcastProtocol& owner;
    NodeId id;
    std::uint32_t pos;  ///< position in the trace (and in nodes_)
    bool alive = false;
    SimTime firstJoin = -1;
    std::vector<SimTime> psDiscoveryTimes;  // absolute time of k-th PS entry
    PositionSet members;
    // A hash set, not bits: visitMonitorsOf walks it, and its order is
    // part of the pinned metric stream.
    std::unordered_set<NodeId> ps;
    PositionSet ts;
    std::uint64_t hashChecks = 0;
  };

  // Learns of `peer` and checks both orientations of the consistency
  // condition against it.
  void considerPeer(Node& node, const Node& peer);

  const MonitorSelector* selector_ = nullptr;
  sim::Simulator* sim_ = nullptr;  // shard 0 (single-shard scheme)
  sim::Network* net_ = nullptr;

  // Trace order: the join fan-out walks it, so send order never depends on
  // hash layout.
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unordered_map<NodeId, Node*> byId_;
};

}  // namespace avmon::experiments
