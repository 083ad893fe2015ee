#include "experiments/protocols/self_report_protocol.hpp"

#include "experiments/adversary.hpp"

namespace avmon::experiments {

void SelfReportProtocol::build(const ProtocolContext& ctx) {
  horizon_ = ctx.scenario.horizon;
  sim_ = &ctx.world.simOf(0);

  for (const trace::NodeTrace& nt : ctx.trace.nodes()) {
    order_.push_back(nt.id);
    nodes_.emplace(nt.id, NodeState{});
  }

  // The scenario's overreport fraction maps onto the scheme's own threat
  // model: a selfish node simply reports 100%.
  if (ctx.scenario.overreportFraction > 0) {
    for (const NodeId& id : order_) {
      if (ctx.rootRng.chance(ctx.scenario.overreportFraction))
        nodes_.at(id).selfish = true;
    }
  }

  // Under self-reporting every node vouches for itself, so a coalition's
  // lie degenerates to plain selfishness — the same adversary budget hits
  // this baseline as selfish colluders (victims are irrelevant here).
  if (ctx.adversary != nullptr) {
    for (const NodeId& id : order_) {
      if (ctx.adversary->isColluder(id)) nodes_.at(id).selfish = true;
    }
  }
}

void SelfReportProtocol::onJoin(const NodeId& id, bool /*firstJoin*/) {
  NodeState& node = nodes_.at(id);
  if (node.up) return;
  node.up = true;
  node.sessionStart = sim_->now();
  if (node.firstJoin < 0) node.firstJoin = sim_->now();
}

void SelfReportProtocol::onLeave(const NodeId& id) {
  NodeState& node = nodes_.at(id);
  if (!node.up) return;
  node.up = false;
  node.accumulatedUp += sim_->now() - node.sessionStart;
}

void SelfReportProtocol::forEachNode(
    const std::function<void(const NodeId&)>& fn) const {
  for (const NodeId& id : order_) fn(id);
}

std::optional<SimDuration> SelfReportProtocol::discoveryDelay(
    const NodeId& id, std::size_t k) const {
  // A node is its own (only) monitor the instant it first joins.
  if (k != 1 || nodes_.at(id).firstJoin < 0) return std::nullopt;
  return SimDuration{0};
}

std::size_t SelfReportProtocol::memoryEntries(const NodeId& id) const {
  // One entry: the node's own up-time accumulator.
  return nodes_.at(id).firstJoin >= 0 ? 1 : 0;
}

void SelfReportProtocol::visitMonitorsOf(
    const NodeId& id, const std::function<void(const NodeId&)>& fn) const {
  if (nodes_.at(id).firstJoin >= 0) fn(id);
}

std::optional<EstimateSample> SelfReportProtocol::estimate(
    const NodeId& monitor, const NodeId& target) const {
  if (monitor != target) return std::nullopt;
  const auto it = nodes_.find(monitor);
  if (it == nodes_.end() || it->second.firstJoin < 0) return std::nullopt;
  const NodeState& node = it->second;
  EstimateSample sample;
  // Honest nodes report their true up fraction since first join — which
  // matches the trace's ground truth over the same window exactly;
  // selfish nodes report 1.0 and the accuracy table shows the gap.
  if (node.selfish) {
    sample.estimated = 1.0;
  } else if (horizon_ > node.firstJoin) {
    SimDuration up = node.accumulatedUp;
    if (node.up) up += horizon_ - node.sessionStart;
    sample.estimated = static_cast<double>(up) /
                       static_cast<double>(horizon_ - node.firstJoin);
  }
  sample.windowStart = node.firstJoin;
  sample.windowEnd = horizon_;
  return sample;
}

}  // namespace avmon::experiments
