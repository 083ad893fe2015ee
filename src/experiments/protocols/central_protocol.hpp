// The central-monitor baseline as a pluggable Protocol (paper Section 1,
// existing approach (2)): PS(x) = {server} for every x. One designated
// always-up host (outside the churn trace) pings every registered member
// each monitoring period and keeps a RawHistory per member. Running it
// through ScenarioRunner quantifies the load-imbalance failure the paper
// motivates: the server's memory and bandwidth rows of the comparison
// table grow as O(N) while every member pays O(1).
//
// Single-shard: the server is one globally shared endpoint.
#pragma once

#include <unordered_map>
#include <vector>

#include "experiments/protocol.hpp"
#include "history/availability_history.hpp"

namespace avmon::experiments {

class CentralProtocol final : public Protocol {
 public:
  /// The server's synthetic address: outside NodeId::fromIndex's 10.x.y.z
  /// range, so it can never collide with a trace node.
  static const NodeId kServerId;

  std::string name() const override { return "central"; }

  void build(const ProtocolContext& ctx) override;

  void onJoin(const NodeId& id, bool firstJoin) override;
  void onLeave(const NodeId& id) override;

  void forEachNode(
      const std::function<void(const NodeId&)>& fn) const override;
  std::optional<SimDuration> discoveryDelay(const NodeId& id,
                                            std::size_t k) const override;
  std::size_t memoryEntries(const NodeId& id) const override;
  std::uint64_t uselessPings(const NodeId& id) const override;
  bool isMonitoring(const NodeId& id) const override;
  void visitMonitorsOf(
      const NodeId& id,
      const std::function<void(const NodeId&)>& fn) const override;
  std::optional<EstimateSample> estimate(const NodeId& monitor,
                                         const NodeId& target) const override;

 private:
  // The server's endpoint (the network holds its address): members'
  // registrations arrive here.
  struct Server final : sim::Endpoint {
    explicit Server(CentralProtocol& owner) : owner(owner) {}
    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;
    void onMessage(const NodeId& from, const sim::Message& message) override;
    CentralProtocol& owner;
  };
  // Members receive no one-way traffic and only ever answer the server's
  // pings through Endpoint's default onRpc liveness ack, so one shared
  // endpoint serves them all.
  struct Member final : sim::Endpoint {
    void onMessage(const NodeId&, const sim::Message&) override {}
  };

  // The server's entry for one registered member.
  struct Registration {
    SimTime registeredAt = 0;  // when the member's first registration landed
    history::RawHistory history;
  };

  // One monitoring period of the server: ping every registrant.
  void tick();

  SimDuration monitoringPeriod_ = 0;
  std::size_t pingBytes_ = 0;
  SimTime horizon_ = 0;
  sim::Simulator* sim_ = nullptr;  // shard 0's clock (single-shard scheme)
  sim::Network* net_ = nullptr;

  Server server_{*this};
  Member member_;
  std::vector<NodeId> order_;  // trace order, server last
  std::unordered_map<NodeId, SimTime> firstJoinAt_;

  std::unordered_map<NodeId, Registration> registrations_;
  // Registration order; tick() pings in this order so the scheme's traffic
  // is independent of container hashing.
  std::vector<NodeId> registrationOrder_;
  std::uint64_t uselessPings_ = 0;
};

}  // namespace avmon::experiments
