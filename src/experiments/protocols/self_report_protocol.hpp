// The self-reporting baseline as a pluggable Protocol (paper Section 1,
// existing approach (1)): PS(x) = {x}. Each node tracks its own up-time
// and reports whatever it likes — Scenario::overreportFraction selects
// the selfish liars. Next to AVMON's Figure-20 row in the comparison
// table this quantifies how completely self-reporting fails against the
// selfish-node threat model: discovery is free, memory is one entry, and
// the accuracy column is exactly as wrong as the liars want it to be.
//
// No messages, no network traffic — the scheme's costs really are zero;
// its broken trust model is what the accuracy metric exposes.
#pragma once

#include <unordered_map>
#include <vector>

#include "experiments/protocol.hpp"

namespace avmon::experiments {

class SelfReportProtocol final : public Protocol {
 public:
  std::string name() const override { return "self_report"; }

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
  std::optional<EstimateSample> estimate(const NodeId& monitor,
                                         const NodeId& target) const override;

 private:
  // A node's own up-time bookkeeping, and whether it lies about it.
  struct NodeState {
    bool selfish = false;
    bool up = false;
    SimTime firstJoin = -1;  // -1: never joined
    SimTime sessionStart = -1;
    SimDuration accumulatedUp = 0;
  };

  SimTime horizon_ = 0;
  sim::Simulator* sim_ = nullptr;

  std::vector<NodeId> order_;  // trace order
  std::unordered_map<NodeId, NodeState> nodes_;
};

}  // namespace avmon::experiments
