// The transport seam: the abstract send/exchange surface AVMON's protocol
// code talks to.
//
// PR 2 made the transport typed (closed `Message` sum type, typed
// request/response RPC); this header makes it *pluggable*. Protocol code
// holds a `Transport&` and sees exactly two primitives — fire-and-forget
// `send` and asynchronous `exchangeAsync` — plus the attach/up lifecycle.
// Two backends implement it:
//
//  * sim::Network (sim/network.hpp): the deterministic simulated lane, with
//    modeled latency, injected faults, and sharded execution.
//  * net::LiveTransport (net/live_transport.hpp): the same closed variants
//    serialized onto real UDP sockets, with per-request timeout/retry in
//    place of the simulator's modeled timeout.
//
// Both map failure to the same observable: the handler fires exactly once,
// with nullopt on timeout. Protocol logic cannot tell which lane it is on —
// that property is what the live/sim cross-validation test asserts.
#pragma once

#include <cassert>
#include <functional>
#include <optional>
#include <utility>
#include <variant>

#include "common/node_id.hpp"
#include "sim/message.hpp"
#include "sim/rpc.hpp"

namespace avmon::sim {

/// Interface implemented by every protocol node attached to a transport.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Delivery of a one-way message. Receivers dispatch on the closed
  /// `Message` sum type (exhaustively, or with a catch-all for traffic
  /// they don't speak).
  virtual void onMessage(const NodeId& from, const Message& message) = 0;

  /// Serves a typed RPC. Called by the transport only while the endpoint is
  /// attached and up. The default answers every request like a liveness
  /// probe — enough for endpoints (central-baseline members, test probes)
  /// whose only RPC role is "answer if alive".
  virtual RpcResponse onRpc(const NodeId& from, const RpcRequest& request);
};

/// Completion callback for an asynchronous exchange: the response, or
/// nullopt on timeout.
using RpcHandler = std::function<void(std::optional<RpcResponse>)>;

/// Abstract transport. Backends guarantee that every callAsyncErased
/// eventually fires its handler exactly once (as a simulator event, or
/// from a live event loop), and that a down/unreachable target
/// surfaces as nullopt — never as an exception or a hang.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Registers (or replaces) the endpoint for `id`. The endpoint must
  /// outlive the transport or be detached first. Nodes start down.
  virtual void attach(const NodeId& id, Endpoint& endpoint) = 0;

  /// Removes the endpoint; traffic to it is dropped from then on.
  virtual void detach(const NodeId& id) = 0;

  /// Marks the node up/down. Down nodes neither receive messages nor
  /// answer RPCs. (Called by the churn lifecycle, not by protocol code.)
  virtual void setUp(const NodeId& id, bool up) = 0;

  /// Sends a one-way message; charges its wire size to `from`. Delivery is
  /// best-effort: if the target is down at delivery time the message is
  /// lost silently (the sender learns nothing — deaths are silent).
  virtual void send(const NodeId& from, const NodeId& to, Message message) = 0;

  /// Type-erased asynchronous exchange. Protocol code goes through the
  /// typed `exchangeAsync` below; backends implement the erased form so
  /// the variant dispatch lives in exactly one place per backend.
  virtual void callAsyncErased(const NodeId& from, const NodeId& to,
                               RpcRequest request, RpcHandler handler) = 0;

  /// Typed asynchronous exchange: callAsyncErased with the RpcTraits
  /// mapping applied, so the handler receives optional<ConcreteResponse>.
  /// This is the form every periodic protocol exchange goes through. An
  /// onRpc override answering with the wrong response alternative is a
  /// contract violation at the *responder* — asserted here by name, and
  /// degraded to a timeout when assertions are compiled out.
  template <class Request, class F>
  void exchangeAsync(const NodeId& from, const NodeId& to, Request request,
                     F&& handler) {
    using Response = typename RpcTraits<Request>::Response;
    callAsyncErased(
        from, to, RpcRequest(std::move(request)),
        RpcHandler([h = std::forward<F>(handler)](
                       std::optional<RpcResponse> response) mutable {
          if (!response) {
            h(std::optional<Response>());
            return;
          }
          auto* typed = std::get_if<Response>(&*response);
          assert(typed != nullptr &&
                 "Endpoint::onRpc returned a response alternative that "
                 "does not match RpcTraits for the request it was sent");
          if (typed == nullptr) {
            h(std::optional<Response>());
            return;
          }
          h(std::optional<Response>(std::move(*typed)));
        }));
  }
};

}  // namespace avmon::sim
