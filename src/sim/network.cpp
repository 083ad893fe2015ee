#include "sim/network.hpp"

#include <memory>
#include <type_traits>
#include <utility>

namespace avmon::sim {

namespace {

// Schedules one of the network's events: a delivery, an RPC serve or
// completion, or a deadline backstop. They are the simulator's hot path,
// so each closure must fit InlineAction's buffer.
template <class Event>
void schedule(Simulator& sim, SimTime when, Event&& event) {
  static_assert(InlineAction::storedInline<Event>(),
                "a network event closure must not allocate");
  sim.at(when, std::forward<Event>(event));
}

}  // namespace

RpcResponse Endpoint::onRpc(const NodeId& /*from*/, const RpcRequest& request) {
  // Generic liveness acknowledgement: the network only dispatches to
  // attached, up endpoints, so merely answering proves aliveness. Each
  // request gets an empty response of its matching type, keeping the
  // RpcTraits contract (exchange() relies on it) for endpoints that don't
  // speak the protocol behind the request.
  return std::visit(
      [](const auto& req) -> RpcResponse {
        using Request = std::decay_t<decltype(req)>;
        return typename RpcTraits<Request>::Response{};
      },
      request);
}

std::uint32_t Network::slotFor(const NodeId& id) {
  const auto [slot, inserted] = slotOf_.insert(id);
  if (inserted) {
    slots_.emplace_back();
    NodeState& state = slots_.back();
    // The per-sender stream is keyed by (network seed, node id) — not by
    // slot number or attach order — so the same node gets the same stream
    // in every partitioning of the population.
    state.stream =
        Rng(splitmix64Mix(streamBase_ ^ splitmix64Mix(id.packed())));
    // The stream is shard-owned state like the network itself.
    AVMON_DET_BIND_LIKE(state.stream.detTag, detTag);
    state.globalIndex =
        router_ != nullptr ? router_->globalIndexOf(id) : slot;
  }
  return slot;
}

void Network::attach(const NodeId& id, Endpoint& endpoint) {
  AVMON_DET_CHECK(detTag, "Network::attach");
  slots_[slotFor(id)].endpoint = &endpoint;
}

void Network::detach(const NodeId& id) {
  AVMON_DET_CHECK(detTag, "Network::detach");
  if (const std::uint32_t slot = slotOf_.find(id);
      slot != IdIndex::kAbsent) {
    slots_[slot].endpoint = nullptr;
    slots_[slot].up = false;
  }
}

void Network::setUp(const NodeId& id, bool up) {
  AVMON_DET_CHECK(detTag, "Network::setUp");
  slots_[slotFor(id)].up = up;
}

bool Network::isUp(const NodeId& id) const {
  const std::uint32_t slot = slotOf_.find(id);
  return slot != IdIndex::kAbsent && slots_[slot].up &&
         slots_[slot].endpoint != nullptr;
}

std::uint32_t Network::globalIndexOf(const NodeId& id) {
  // Sharded mode answers from the router's global map without touching
  // local slots; single-shard mode's slot index *is* the global index.
  return router_ != nullptr ? router_->globalIndexOf(id) : slotFor(id);
}

SimDuration Network::sampleLatency(NodeState& sender, std::uint32_t toIndex) {
  SimDuration lo = config_.minLatency;
  SimDuration hi = config_.maxLatency;
  if (plan_ != nullptr) {
    plan_->latencyBand(sim_.now(), sender.globalIndex, toIndex, lo, hi);
  }
  return lo + static_cast<SimDuration>(sender.stream.below(
                  static_cast<std::uint64_t>(hi - lo + 1)));
}

void Network::send(const NodeId& from, const NodeId& to, Message message) {
  AVMON_DET_CHECK(detTag, "Network::send");
  // Only a fault plan needs the target's index at send time (band
  // selection); resolve it before binding the sender reference.
  const std::uint32_t toIndex = plan_ != nullptr ? globalIndexOf(to) : 0;
  NodeState& sender = slots_[slotFor(from)];
  charge(sender, wireBytes(message));
  if (config_.messageDropProbability > 0 &&
      sender.stream.chance(config_.messageDropProbability)) {
    ++lost_;
    return;
  }
  const SimDuration latency = sampleLatency(sender, toIndex);
  if (router_ != nullptr) {
    // Sharded mode: every inter-node delivery — even one whose target
    // lives on this shard — crosses the hand-off layer, so insertion
    // order at the destination depends only on (due, sender, sender seq),
    // never on which shard the target happens to share with the sender.
    router_->handoffMessage(sim_.now() + latency, nextKey(sender), from, to,
                            std::move(message));
    return;
  }
  // The target's slot is resolved now; delivery addresses it directly.
  const std::uint32_t toSlot = slotFor(to);
  schedule(sim_, sim_.now() + latency,
           [this, from, toSlot, message = std::move(message)]() {
             deliver(from, toSlot, message);
           });
}

void Network::deliver(const NodeId& from, std::uint32_t toSlot,
                      const Message& message) {
  if (plan_ != nullptr) {
    // Partition cut is judged at the delivery instant — a message launched
    // before the window opens but arriving inside it is lost, exactly like
    // a target that died mid-flight.
    const std::uint32_t fromIndex = globalIndexOf(from);
    if (!plan_->reachable(sim_.now(), fromIndex,
                          slots_[toSlot].globalIndex)) {
      ++lost_;
      return;
    }
  }
  NodeState& target = slots_[toSlot];
  if (!target.up || target.endpoint == nullptr) {
    ++lost_;
    return;
  }
  ++delivered_;
  target.endpoint->onMessage(from, message);
}

void Network::serveRpc(const NodeId& from, std::uint32_t toSlot,
                       const RpcRequest& request, RpcTicket ticket) {
  // The caller's index is needed for both the partition check and the
  // response leg's latency band; resolve before binding any slot ref.
  const std::uint32_t callerIndex =
      plan_ != nullptr ? globalIndexOf(from) : 0;
  NodeState& target = slots_[toSlot];
  if (!target.up || target.endpoint == nullptr) {
    return;  // unreachable target: the caller's backstop reports it
  }
  if (plan_ != nullptr &&
      !plan_->reachable(sim_.now(), callerIndex, target.globalIndex)) {
    // Partitioned at request arrival: the request never lands, so the
    // target spends nothing and the caller's rpcTimeout backstop fires —
    // indistinguishable from the target dying mid-flight.
    return;
  }
  // The target serves the request and spends its response bytes even if
  // the caller's deadline has already passed — a late response is still
  // sent, just never seen.
  charge(target, responseWireBytes(request));
  Endpoint* endpoint = target.endpoint;
  RpcResponse response = endpoint->onRpc(from, request);
  NodeState& responder = slots_[toSlot];  // re-fetch: onRpc may grow slots_
  const SimDuration latency = sampleLatency(responder, callerIndex);
  if (router_ != nullptr) {
    router_->handoffRpcResponse(sim_.now() + latency, nextKey(responder), from,
                                std::move(response), std::move(ticket));
    return;
  }
  schedule(sim_, sim_.now() + latency,
           [response = std::move(response),
            ticket = std::move(ticket)]() mutable {
             completeRpc(std::move(response), ticket);
           });
}

void Network::completeRpc(RpcResponse response, const RpcTicket& ticket) {
  if (ticket->settled) return;  // beaten by the deadline
  ticket->settled = true;
  ticket->handler(std::optional<RpcResponse>(std::move(response)));
}

void Network::scheduleHandoffDelivery(SimTime due, const NodeId& from,
                                      const NodeId& to, Message message) {
  AVMON_DET_CHECK(detTag, "Network::scheduleHandoffDelivery");
  const std::uint32_t toSlot = slotFor(to);
  schedule(sim_, due, [this, from, toSlot, message = std::move(message)]() {
    deliver(from, toSlot, message);
  });
}

void Network::scheduleHandoffServe(SimTime due, const NodeId& from,
                                   const NodeId& to, RpcRequest request,
                                   RpcTicket ticket) {
  AVMON_DET_CHECK(detTag, "Network::scheduleHandoffServe");
  const std::uint32_t toSlot = slotFor(to);
  schedule(sim_, due, [this, from, toSlot, request = std::move(request),
                       ticket = std::move(ticket)]() mutable {
    serveRpc(from, toSlot, request, std::move(ticket));
  });
}

void Network::scheduleHandoffComplete(SimTime due, RpcResponse response,
                                      RpcTicket ticket) {
  AVMON_DET_CHECK(detTag, "Network::scheduleHandoffComplete");
  schedule(sim_, due, [response = std::move(response),
                       ticket = std::move(ticket)]() mutable {
    completeRpc(std::move(response), ticket);
  });
}

std::optional<RpcResponse> Network::call(const NodeId& from, const NodeId& to,
                                         const RpcRequest& request) {
  AVMON_DET_CHECK(detTag, "Network::call");
  NodeState& sender = slots_[slotFor(from)];
  charge(sender, requestWireBytes(request));
  if (config_.rpcFailProbability > 0 &&
      sender.stream.chance(config_.rpcFailProbability)) {
    return std::nullopt;  // injected timeout; request bytes already spent
  }
  const std::uint32_t fromIndex = sender.globalIndex;
  NodeState& target = slots_[slotFor(to)];
  if (!target.up || target.endpoint == nullptr) {
    return std::nullopt;
  }
  if (plan_ != nullptr &&
      !plan_->reachable(sim_.now(), fromIndex, target.globalIndex)) {
    // Partition judged at call time, like liveness — a timeout with only
    // the request bytes spent.
    return std::nullopt;
  }
  charge(target, responseWireBytes(request));
  // Copy the endpoint pointer first: serving the RPC may attach new nodes,
  // which can reallocate slots_ and dangle `target`.
  Endpoint* endpoint = target.endpoint;
  return endpoint->onRpc(from, request);
}

void Network::callAsyncErased(const NodeId& from, const NodeId& to,
                              RpcRequest request, RpcHandler handler) {
  AVMON_DET_CHECK(detTag, "Network::callAsyncErased");
  // The request leg travels, the target serves the request at arrival
  // time (so its liveness is judged then, like one-way delivery), and the
  // response leg travels back. The caller's deadline is
  // a single backstop event scheduled now, at exactly rpcTimeout: it fires
  // with nullopt unless a response landed first, so every failure mode —
  // injected fault, dead target, or a round trip slower than the deadline
  // — surfaces at the same instant and is indistinguishable by timing.
  const std::uint32_t toIndex = plan_ != nullptr ? globalIndexOf(to) : 0;
  NodeState& sender = slots_[slotFor(from)];
  charge(sender, requestWireBytes(request));
  RpcTicket ticket = std::make_shared<RpcCall>();
  ticket->handler = std::move(handler);
  schedule(sim_, sim_.now() + config_.rpcTimeout, [call = ticket] {
    if (call->settled) return;
    call->settled = true;
    call->handler(std::nullopt);
  });
  if (config_.rpcFailProbability > 0 &&
      sender.stream.chance(config_.rpcFailProbability)) {
    return;  // the request is lost; the backstop reports the timeout
  }
  const SimDuration requestLatency = sampleLatency(sender, toIndex);
  if (router_ != nullptr) {
    // Sharded mode: the request leg crosses the hand-off layer to the
    // target's home shard; the response leg crosses back. The backstop
    // above stays caller-local, so every failure mode still surfaces at
    // exactly rpcTimeout.
    router_->handoffRpcRequest(sim_.now() + requestLatency, nextKey(sender),
                               from, to, std::move(request),
                               std::move(ticket));
    return;
  }
  const std::uint32_t toSlot = slotFor(to);
  schedule(sim_, sim_.now() + requestLatency,
           [this, from, toSlot, request = std::move(request),
            ticket = std::move(ticket)]() mutable {
             serveRpc(from, toSlot, request, std::move(ticket));
           });
}

TrafficCounters Network::traffic(const NodeId& id) const {
  const std::uint32_t slot = slotOf_.find(id);
  return slot == IdIndex::kAbsent ? TrafficCounters{} : slots_[slot].traffic;
}

void Network::resetTraffic() {
  AVMON_DET_CHECK(detTag, "Network::resetTraffic");
  for (NodeState& state : slots_) state.traffic = TrafficCounters{};
  totalTraffic_ = TrafficCounters{};
}

}  // namespace avmon::sim
