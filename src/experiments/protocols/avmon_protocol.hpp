// AVMON as a pluggable Protocol: one AvmonNode per trace node, built into
// the sharded world with trace-precomputed bootstrap picks (the property
// that keeps every shard count bit-identical — see ScenarioRunner docs).
//
// This is a mechanical extraction of the protocol-specific half of the
// pre-plug-in ScenarioRunner. The RNG draw order (network seed, bootstrap
// stream, per-node streams, overreporter selection) and every container
// iteration order are preserved exactly, which is what keeps the pinned
// golden metric fingerprints valid across the API redesign.
//
// Memory layout (million-node diet): all nodes share ONE immutable
// AvmonConfig, and bootstrap picks live in one flat arena instead of a
// vector per node. Each AvmonNode is the only copy of its protocol state:
// the metric probes read the node directly.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "experiments/protocol.hpp"

namespace avmon::experiments {

class AvmonProtocol final : public Protocol {
 public:
  std::string name() const override { return "avmon"; }

  void build(const ProtocolContext& ctx) override;

  void onJoin(const NodeId& id, bool firstJoin) override;
  void onLeave(const NodeId& id) override;

  void forEachNode(
      const std::function<void(const NodeId&)>& fn) const override;
  std::optional<SimDuration> discoveryDelay(const NodeId& id,
                                            std::size_t k) const override;
  std::size_t memoryEntries(const NodeId& id) const override;
  std::uint64_t hashChecks(const NodeId& id) const override;
  std::uint64_t uselessPings(const NodeId& id) const override;
  bool isMonitoring(const NodeId& id) const override;
  void visitMonitorsOf(
      const NodeId& id,
      const std::function<void(const NodeId&)>& fn) const override;
  std::optional<EstimateSample> estimate(const NodeId& monitor,
                                         const NodeId& target) const override;

  const AvmonNode* avmonNode(const NodeId& id) const override;
  AvmonNode* mutableAvmonNode(const NodeId& id) override;

 private:
  void precomputeBootstrapPicks(const ProtocolContext& ctx);
  NodeId nextBootstrapPick(std::uint32_t nodeIndex);

  // Harness facts the probes need after build() returned.
  SimDuration monitoringPeriod_ = 0;
  SimTime horizon_ = 0;

  std::unordered_map<NodeId, std::unique_ptr<AvmonNode>> nodes_;

  // Bootstrap picks, precomputed from the trace (the alive set at any
  // instant is trace-determined, not protocol-determined). Node i's j-th
  // join consumes the j-th pick of its [pickOffsets_[i], pickOffsets_[i+1])
  // arena slice; the cursor is only ever touched by i's home shard, so
  // joins on different shards need no shared alive list. One flat arena +
  // offsets replaces the old vector-per-node layout (24 B + an allocation
  // per node).
  std::vector<NodeId> bootstrapPicks_;
  std::vector<std::uint32_t> pickOffsets_;
  std::vector<std::uint32_t> bootstrapCursor_;
};

}  // namespace avmon::experiments
