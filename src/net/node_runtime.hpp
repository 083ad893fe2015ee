// NodeRuntime: hosts one real AvmonNode behind a LiveTransport, driven by
// wall-clock timers in place of simulator events.
//
// The protocol code still schedules its periodic work on a sim::Simulator
// — the runtime *wall-slaves* that simulator: simulated time advances as
// (elapsed wall time) × timeScale, so a 1-minute protocol period fires
// every wholeSecond at the default 60× compression and the same sim-time
// horizons the spec grammar names run in minutes of wall time. Incoming
// frames dispatch between timer firings from the same single-threaded
// event loop, so protocol code remains free of locks.
//
// Lifecycle is driven by the avmon_live driver over the out-of-band
// control plane: ControlStart anchors the clock, ControlJoin/ControlLeave
// replay the churn schedule, SIGTERM (a flag the owner passes in) ends the
// run and the owner emits writeMetricsJson()'s per-node report.
#pragma once

#include <csignal>
#include <cstdint>
#include <iosfwd>
#include <memory>

#include "avmon/config.hpp"
#include "avmon/monitor_selector.hpp"
#include "avmon/node.hpp"
#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "hash/hash_function.hpp"
#include "net/live_transport.hpp"
#include "sim/simulator.hpp"

namespace avmon::net {

struct NodeRuntimeOptions {
  NodeId self;
  std::uint32_t index = 0;  ///< position in the cluster (seeding, reports)
  AvmonConfig config;       ///< already validate()d
  std::string hashName = "splitmix64";
  double timeScale = 60.0;  ///< simulated ms per wall ms
  SimDuration horizon = 0;  ///< stop after this much sim time; 0 = SIGTERM
  LiveConfig live;
  std::uint64_t seed = 1;
};

class NodeRuntime {
 public:
  explicit NodeRuntime(NodeRuntimeOptions options);

  /// Binds the socket under options.self. False on bind failure.
  bool open();

  /// Runs the event loop until the horizon elapses (in scaled sim time,
  /// counted from the ControlStart anchor) or `*stop` becomes nonzero.
  /// Returns 0 on a clean horizon/SIGTERM exit.
  int run(const volatile std::sig_atomic_t* stop);

  /// The per-node final report: protocol counters, wire counters,
  /// discovery delay, and per-target availability estimates, as one JSON
  /// object. The driver (avmon_live) aggregates these into its metrics
  /// JSON.
  void writeMetricsJson(std::ostream& out) const;

  const AvmonNode& node() const noexcept { return *node_; }
  LiveTransport& transport() noexcept { return transport_; }

 private:
  void handleControl(const NodeId& from, const ControlCommand& command);

  NodeRuntimeOptions options_;
  sim::Simulator sim_;
  LiveTransport transport_;
  std::unique_ptr<hash::HashFunction> hashFn_;
  std::unique_ptr<HashMonitorSelector> selector_;
  std::unique_ptr<AvmonNode> node_;

  bool started_ = false;
  std::int64_t anchorWallMs_ = 0;
  NodeId pendingBootstrap_;
};

}  // namespace avmon::net
