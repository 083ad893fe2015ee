// Simulated network: reliable, timely delivery between alive nodes.
//
// The paper's system model assumes "communication between pairs of nodes is
// reliable and timely if both nodes are currently alive". We model that
// directly:
//
//  * One-way messages (JOIN, NOTIFY, ...) are typed `Message` alternatives
//    (sim/message.hpp), delivered after a small random latency; if the
//    target is down at delivery time the message is lost silently (the
//    sender learns nothing — deaths are silent).
//  * Exchanges (coarse-view ping, CV fetch, swap, monitoring ping) are
//    typed `RpcRequest`/`RpcResponse` pairs (sim/rpc.hpp). Protocol code
//    issues every exchange through `Transport::exchangeAsync`: the request
//    leg travels one sampled latency, the target serves it iff it is up at
//    arrival, the response leg travels back, and the completion handler
//    fires as a simulator event — with nullopt at `rpcTimeout` if the
//    exchange failed (request bytes spent, response bytes not). `call` is
//    the synchronous form for a caller that needs the answer inside one
//    event (the central baseline's ping sweep).
//
// Node bookkeeping is slot-based: a NodeId is resolved to a dense slot
// index once per operation (one IdIndex probe, which allocates nothing),
// and everything that happens later — latency-delayed delivery in
// particular — addresses the slot directly instead of probing again. Slots
// are never recycled, so a captured slot index stays valid across
// detach/attach cycles.
//
// The network also owns per-node bandwidth accounting (outgoing bytes and
// messages), which feeds the paper's bandwidth figures (Section 5.1, 5.4).
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/det_checks.hpp"
#include "common/id_index.hpp"
#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/fault_plan.hpp"
#include "sim/message.hpp"
#include "sim/rpc.hpp"
#include "sim/simulator.hpp"
#include "sim/transport.hpp"

namespace avmon::sim {

/// Latency and fault model.
struct NetworkConfig {
  SimDuration minLatency = 10 * kMillisecond;
  SimDuration maxLatency = 80 * kMillisecond;

  /// Failure injection (default off, matching the paper's reliable-network
  /// model): probability that a one-way message is silently dropped, and
  /// that an RPC times out despite the target being up. Used by resilience
  /// tests — the protocol must still converge, just more slowly, because
  /// JOIN/NOTIFY losses are repaired by later rounds.
  double messageDropProbability = 0.0;
  double rpcFailProbability = 0.0;

  /// How long an asynchronous caller waits before declaring a timeout (the
  /// handler fires with nullopt after this much simulated time).
  SimDuration rpcTimeout = 200 * kMillisecond;
};

/// Per-node traffic counters (outgoing direction, as in the paper's
/// "Outgoing Bytes per Second" figure).
struct TrafficCounters {
  std::uint64_t bytesSent = 0;
  std::uint64_t messagesSent = 0;
};

/// Shard-count-invariant ordering key carried by every cross-shard
/// hand-off: the sender's global node index plus a per-sender sequence
/// number. Events due at the same instant are inserted into their
/// destination shard in (due, src, seq) order, which depends only on what
/// each node did — never on how the population was partitioned — so any
/// shard count replays the same global execution order.
struct HandoffKey {
  std::uint32_t src = 0;
  std::uint64_t seq = 0;
};

/// Caller-side completion state of one in-flight deferred RPC, in one heap
/// record shared by the caller's rpcTimeout backstop and the exchange's
/// legs: whichever runs first settles it and fires the handler, and the
/// last to finish frees it (and the handler's captures with it).
struct RpcCall {
  bool settled = false;
  RpcHandler handler;
};

/// The reference an RPC leg carries. It travels with the request to the
/// target shard and back; the record is only ever dereferenced in the
/// caller's shard (the serve side just carries the pointer), so no
/// locking is needed beyond the barrier hand-off.
using RpcTicket = std::shared_ptr<RpcCall>;

/// Hook a sharded driver installs on each shard's Network. When present,
/// every inter-node hand-off (one-way delivery, deferred-RPC request leg,
/// deferred-RPC response leg) is routed through it instead of being
/// scheduled directly, so the driver can carry it across the shard
/// boundary and insert it at a window barrier in deterministic key order.
class CrossShardRouter {
 public:
  virtual ~CrossShardRouter() = default;

  /// Global (partition-independent) index of a registered node.
  virtual std::uint32_t globalIndexOf(const NodeId& id) const = 0;

  /// One-way message, already charged/rolled/latency-stamped by the
  /// sending shard; due for delivery at `due` on `to`'s home shard.
  virtual void handoffMessage(SimTime due, HandoffKey key, const NodeId& from,
                              const NodeId& to, Message message) = 0;

  /// Deferred-RPC request leg, arriving at `to`'s home shard at `due`.
  virtual void handoffRpcRequest(SimTime due, HandoffKey key,
                                 const NodeId& from, const NodeId& to,
                                 RpcRequest request, RpcTicket ticket) = 0;

  /// Deferred-RPC response leg, completing on the *caller*'s home shard
  /// (`caller`) at `due`.
  virtual void handoffRpcResponse(SimTime due, HandoffKey key,
                                  const NodeId& caller, RpcResponse response,
                                  RpcTicket ticket) = 0;
};

/// Simulated network switchboard. Endpoints attach under their NodeId; an
/// external lifecycle manager toggles per-node aliveness as churn dictates.
/// One of the two Transport backends (the other being net::LiveTransport,
/// which carries the same closed variants over real UDP sockets).
class Network final : public Transport {
 public:
  /// `rng` seeds the network's randomness. Internally every attached node
  /// gets its own latency/fault stream derived from (rng's first output,
  /// node id), so the draws a sender consumes depend only on that sender's
  /// own operation order — the property that lets a sharded run reproduce
  /// a single-shard run bit-for-bit. Two Networks built from equal-seeded
  /// Rngs give every node identical streams.
  Network(Simulator& sim, NetworkConfig config, Rng rng)
      : sim_(sim), config_(config), rng_(std::move(rng)),
        streamBase_(rng_()) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers (or replaces) the endpoint for `id`. The endpoint must
  /// outlive the network or be detached first. Nodes start down. Traffic
  /// counters survive a detach/attach cycle (they belong to the node id,
  /// not the endpoint object).
  void attach(const NodeId& id, Endpoint& endpoint) override;

  /// Shard-ownership tag for the determinism sentinel (see
  /// common/det_checks.hpp); expands to nothing unless AVMON_DET_CHECKS.
  /// Per-sender streams created in slotFor() inherit this binding.
  AVMON_DET_TAG(detTag);

  /// Removes the endpoint; pending messages to it are dropped on delivery.
  void detach(const NodeId& id) override;

  /// Marks the node up/down. Down nodes neither receive messages nor answer
  /// RPCs. (Called by the churn lifecycle, not by protocol code.)
  void setUp(const NodeId& id, bool up) override;

  /// True if the node is attached and currently up.
  bool isUp(const NodeId& id) const;

  /// Sends a one-way message; charges its wire size to `from` immediately.
  /// Delivered after a uniform random latency iff the target is up then.
  void send(const NodeId& from, const NodeId& to, Message message) override;

  /// Synchronous typed exchange with the round trip collapsed to the
  /// current instant. Charges the request leg to `from` unconditionally;
  /// if the target is up (and the injected-failure roll passes), charges
  /// the response leg to `to`, dispatches the request to the target's
  /// onRpc, and returns its response. Otherwise returns nullopt — a
  /// timeout with only the request bytes spent. Single-shard only: the
  /// target must live in this shard's network.
  std::optional<RpcResponse> call(const NodeId& from, const NodeId& to,
                                  const RpcRequest& request);

  /// Typed exchange returning the concrete response type for `Request`
  /// (e.g. exchange(x, w, CvFetchRequest{...}) -> optional<CvFetchResponse>).
  /// No variant handling, no downcasts at the call site. An
  /// onRpc override answering with the wrong response alternative is a
  /// contract violation at the *responder* — asserted here by name, and
  /// degraded to a timeout when assertions are compiled out.
  template <class Request>
  std::optional<typename RpcTraits<Request>::Response> exchange(
      const NodeId& from, const NodeId& to, Request request) {
    auto response = call(from, to, RpcRequest(std::move(request)));
    if (!response) return std::nullopt;
    using Response = typename RpcTraits<Request>::Response;
    auto* typed = std::get_if<Response>(&*response);
    assert(typed != nullptr &&
           "Endpoint::onRpc returned a response alternative that does not "
           "match RpcTraits for the request it was sent");
    if (typed == nullptr) return std::nullopt;
    return std::move(*typed);
  }

  /// Asynchronous exchange, reached through Transport::exchangeAsync. The
  /// request travels one sampled latency, the target serves it then
  /// (liveness is checked at arrival time), the response travels another
  /// latency, and `handler` fires as a simulator event — or with nullopt
  /// after `rpcTimeout` if the exchange failed.
  void callAsyncErased(const NodeId& from, const NodeId& to,
                       RpcRequest request, RpcHandler handler) override;

  // ---- sharded execution (driven by sim::ShardedSimulator) ----

  /// Installs (or clears) the cross-shard router. While set, inter-node
  /// hand-offs are pushed to the router instead of being scheduled into
  /// the local simulator; the router re-inserts them via the
  /// scheduleHandoff* methods at window barriers. Must be set before any
  /// endpoint attaches (slots cache their global index at attach time).
  void setRouter(CrossShardRouter* router) { router_ = router; }

  /// Attaches (or clears) a scheduled fault plan, shared read-only across
  /// every shard's Network. While set, partition windows make cross-group
  /// traffic vanish in flight (one-way deliveries count in lost(); RPCs
  /// surface as the caller's rpcTimeout, exactly like a mid-flight death)
  /// and latency windows / geo bands override the flat [min, max] band.
  /// Reachability and bands are pure functions of (now, sender index,
  /// target index) and the latency draw still consumes exactly one value
  /// from the sender's stream, so any shard count stays bit-identical and
  /// a null/empty plan reproduces the unfaulted run bit-for-bit. Must be
  /// installed before the run starts and outlive the network.
  void setFaultPlan(const FaultPlan* plan) { plan_ = plan; }

  /// Destination-side re-insertion of a routed one-way message: schedules
  /// local delivery at `due` (target liveness judged then, as usual).
  void scheduleHandoffDelivery(SimTime due, const NodeId& from,
                               const NodeId& to, Message message);

  /// Destination-side re-insertion of a routed RPC request leg: at `due`
  /// the target (if up) is charged the response leg and serves the
  /// request; the response travels back through the router. A down target
  /// answers nothing — the caller's rpcTimeout backstop reports it.
  void scheduleHandoffServe(SimTime due, const NodeId& from, const NodeId& to,
                            RpcRequest request, RpcTicket ticket);

  /// Caller-side re-insertion of a routed RPC response leg: at `due` the
  /// handler fires with the response unless the backstop won the race.
  void scheduleHandoffComplete(SimTime due, RpcResponse response,
                               RpcTicket ticket);

  /// Outgoing-traffic counters for a node (zeroes if unknown).
  TrafficCounters traffic(const NodeId& id) const;

  /// Aggregate outgoing counters over every node attached to this shard's
  /// network, maintained incrementally on the charge path — the streaming
  /// metrics pipeline differences these at window barriers, so a windowed
  /// bandwidth probe is O(1), never a slot scan.
  TrafficCounters totalTraffic() const noexcept { return totalTraffic_; }

  /// Resets every traffic counter, including the aggregate (used to scope
  /// measurement windows).
  void resetTraffic();

  /// Total messages delivered (for tests).
  std::uint64_t delivered() const noexcept { return delivered_; }

  /// Total messages lost because the target was down/detached (for tests).
  std::uint64_t lost() const noexcept { return lost_; }

 private:
  struct NodeState {
    Endpoint* endpoint = nullptr;
    bool up = false;
    TrafficCounters traffic;
    /// Per-sender latency/fault stream: draws depend only on this node's
    /// own operation order, never on global interleaving.
    Rng stream;
    /// Partition-independent index (from the router when sharded, the
    /// dense slot otherwise) + sequence counter forming hand-off keys.
    std::uint32_t globalIndex = 0;
    std::uint64_t handoffSeq = 0;
  };

  // Resolves `id` to its dense slot, creating one on first sight. The one
  // index probe per (id, operation); everything downstream uses the slot.
  std::uint32_t slotFor(const NodeId& id);

  void charge(NodeState& state, std::size_t bytes) noexcept {
    state.traffic.bytesSent += bytes;
    state.traffic.messagesSent += 1;
    totalTraffic_.bytesSent += bytes;
    totalTraffic_.messagesSent += 1;
  }

  // One latency draw from the sender's stream, over the band the fault
  // plan (if any) prescribes for (now, sender, toIndex). Exactly one draw
  // in every configuration — band selection is draw-free — so per-sender
  // stream alignment is structural, not coincidental. Callers resolve
  // `toIndex` (via globalIndexOf) *before* binding the sender reference:
  // single-shard index resolution can grow slots_.
  SimDuration sampleLatency(NodeState& sender, std::uint32_t toIndex);

  // Partition-independent index of `id`: the router's global index when
  // sharded, the dense slot (== global index) otherwise. May grow slots_
  // in single-shard mode — never call while holding a NodeState&.
  std::uint32_t globalIndexOf(const NodeId& id);

  HandoffKey nextKey(NodeState& sender) noexcept {
    return HandoffKey{sender.globalIndex, sender.handoffSeq++};
  }

  // The one place each transport rule lives, shared by the local and
  // routed lanes (so the S = 1 and S > 1 paths cannot drift apart):
  // delivery of a one-way message at its due instant...
  void deliver(const NodeId& from, std::uint32_t toSlot,
               const Message& message);
  // ...the target side of an async RPC (liveness at arrival, response
  // charge, onRpc, response leg — via the router when sharded)...
  void serveRpc(const NodeId& from, std::uint32_t toSlot,
                const RpcRequest& request, RpcTicket ticket);
  // ...and the caller-side completion racing the rpcTimeout backstop.
  static void completeRpc(RpcResponse response, const RpcTicket& ticket);

  Simulator& sim_;
  NetworkConfig config_;
  Rng rng_;
  std::uint64_t streamBase_;
  CrossShardRouter* router_ = nullptr;
  const FaultPlan* plan_ = nullptr;
  // Slot of each id seen, in first-sight order: slotOf_.find(id) indexes
  // slots_.
  IdIndex slotOf_;
  std::vector<NodeState> slots_;
  std::uint64_t delivered_ = 0;
  std::uint64_t lost_ = 0;
  TrafficCounters totalTraffic_;
};

}  // namespace avmon::sim
