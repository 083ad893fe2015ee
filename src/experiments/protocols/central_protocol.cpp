#include "experiments/protocols/central_protocol.hpp"

#include <algorithm>

namespace avmon::experiments {

// 192.0.2.1:9 — TEST-NET, far outside the simulation's 10.x.y.z block.
const NodeId CentralProtocol::kServerId = NodeId(0xC0000201u, 9);

void CentralProtocol::build(const ProtocolContext& ctx) {
  monitoringPeriod_ = ctx.config.monitoringPeriod;
  pingBytes_ = ctx.config.pingBytes;
  horizon_ = ctx.scenario.horizon;
  sim_ = &ctx.world.simOf(0);
  net_ = &ctx.world.netOf(0);

  // The server is a real network participant (its O(N) ping load is the
  // point of the comparison), so it registers with the world like any
  // trace node — just after them, and outside the churn schedule.
  ctx.world.registerNode(kServerId);
  net_->attach(kServerId, server_);
  net_->setUp(kServerId, true);
  sim_->every(sim_->now() + monitoringPeriod_, monitoringPeriod_, [this] {
    tick();
    return true;
  });

  for (const trace::NodeTrace& nt : ctx.trace.nodes()) {
    order_.push_back(nt.id);
    net_->attach(nt.id, member_);
  }
  order_.push_back(kServerId);
}

void CentralProtocol::tick() {
  // Ping in registration order, not container hash order: the ping
  // sequence is observable behavior (traffic counters, history sample
  // timestamps), so it must be a function of what the members did.
  for (const NodeId& member : registrationOrder_) {
    const bool up =
        net_->exchange(kServerId, member, sim::PingRequest{pingBytes_})
            .has_value();
    if (!up) ++uselessPings_;
    registrations_.at(member).history.record(sim_->now(), up);
  }
}

void CentralProtocol::Server::onMessage(const NodeId& /*from*/,
                                        const sim::Message& message) {
  std::visit(sim::Overloaded{
                 [this](const sim::RegisterMessage& reg) {
                   const auto [it, inserted] =
                       owner.registrations_.try_emplace(reg.origin);
                   if (!inserted) return;
                   it->second.registeredAt = owner.sim_->now();
                   owner.registrationOrder_.push_back(reg.origin);
                 },
                 [](const auto&) {},  // not this scheme's traffic
             },
             message);
}

void CentralProtocol::onJoin(const NodeId& id, bool /*firstJoin*/) {
  firstJoinAt_.try_emplace(id, sim_->now());
  if (net_->isUp(id)) return;
  net_->setUp(id, true);
  net_->send(id, kServerId, sim::RegisterMessage{id});
}

void CentralProtocol::onLeave(const NodeId& id) {
  // Horizon-instant leaves are the trace's session teardown, not churn:
  // the trace counts the node as up AT the horizon, and the server's
  // minute-aligned ping loop would otherwise race those leaves at the
  // final tick and record one spurious down sample per member. Mid-run
  // leaves are real and processed normally.
  if (sim_->now() >= horizon_) return;
  net_->setUp(id, false);
}

void CentralProtocol::forEachNode(
    const std::function<void(const NodeId&)>& fn) const {
  for (const NodeId& id : order_) fn(id);
}

std::optional<SimDuration> CentralProtocol::discoveryDelay(
    const NodeId& id, std::size_t k) const {
  // PS(x) = {server}: there is exactly one monitor to discover, and it
  // knows the member once the registration message lands.
  if (k != 1 || id == kServerId) return std::nullopt;
  const auto registered = registrations_.find(id);
  const auto joined = firstJoinAt_.find(id);
  if (registered == registrations_.end() || joined == firstJoinAt_.end())
    return std::nullopt;
  return registered->second.registeredAt - joined->second;
}

std::size_t CentralProtocol::memoryEntries(const NodeId& id) const {
  // The server's member table is the scheme's O(N) memory; each member
  // that ever joined holds one entry (the server's address).
  if (id == kServerId) return registrations_.size();
  return firstJoinAt_.count(id) ? 1 : 0;
}

std::uint64_t CentralProtocol::uselessPings(const NodeId& id) const {
  // The server keeps pinging every registrant forever, so down or departed
  // members cost it bandwidth the way AVMON's non-forgetful pinging does.
  return id == kServerId ? uselessPings_ : 0;
}

bool CentralProtocol::isMonitoring(const NodeId& id) const {
  return id == kServerId && !registrations_.empty();
}

void CentralProtocol::visitMonitorsOf(
    const NodeId& id, const std::function<void(const NodeId&)>& fn) const {
  if (id != kServerId && registrations_.count(id) != 0) fn(kServerId);
}

std::optional<EstimateSample> CentralProtocol::estimate(
    const NodeId& monitor, const NodeId& target) const {
  if (monitor != kServerId) return std::nullopt;
  const auto it = registrations_.find(target);
  if (it == registrations_.end()) return std::nullopt;
  const history::RawHistory& hist = it->second.history;
  const auto span = hist.sampleSpan();
  // Same statistical-weight threshold as the AVMON probe.
  if (!span || hist.sampleCount() < 10) return std::nullopt;
  EstimateSample sample;
  sample.estimated = hist.estimate();
  sample.windowStart = span->first;
  sample.windowEnd = std::min(span->last + monitoringPeriod_, horizon_);
  return sample;
}

}  // namespace avmon::experiments
