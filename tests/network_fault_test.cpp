// Fault-model tests for the simulated network: injected message drops and
// RPC timeouts behave statistically as configured and account bytes the
// way the bandwidth figures expect — all through the typed message/RPC
// transport API. The second half injects the same faults across shard
// boundaries of a ShardedSimulator: drops, latency spikes, and node churn
// landing exactly on a window barrier mid-flight.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/network.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim/simulator.hpp"

namespace avmon::sim {
namespace {

class CountingEndpoint final : public Endpoint {
 public:
  void onMessage(const NodeId&, const Message&) override { ++received; }
  int received = 0;
};

TEST(NetworkFaultTest, DropProbabilityIsHonored) {
  Simulator sim;
  NetworkConfig cfg;
  cfg.messageDropProbability = 0.5;
  Network net(sim, cfg, Rng(1));

  CountingEndpoint a, b;
  const NodeId idA = NodeId::fromIndex(1), idB = NodeId::fromIndex(2);
  net.attach(idA, a);
  net.attach(idB, b);
  net.setUp(idA, true);
  net.setUp(idB, true);

  constexpr int kSends = 2000;
  for (int i = 0; i < kSends; ++i) {
    net.send(idA, idB, TextMessage{"m", 1});
  }
  sim.runUntil(kSecond);
  EXPECT_NEAR(static_cast<double>(b.received) / kSends, 0.5, 0.05);
  // Dropped messages still count as lost for diagnostics.
  EXPECT_EQ(net.lost() + static_cast<std::uint64_t>(b.received), kSends);
}

TEST(NetworkFaultTest, DroppedSendsStillChargeSender) {
  Simulator sim;
  NetworkConfig cfg;
  cfg.messageDropProbability = 1.0;
  Network net(sim, cfg, Rng(2));

  CountingEndpoint a;
  const NodeId idA = NodeId::fromIndex(1), idB = NodeId::fromIndex(2);
  net.attach(idA, a);
  net.setUp(idA, true);
  net.send(idA, idB, TextMessage{"m", 42});
  EXPECT_EQ(net.traffic(idA).bytesSent, 42u);
}

TEST(NetworkFaultTest, DropProbabilityAppliesToEveryMessageType) {
  // The drop roll happens at the transport, before dispatch — a protocol
  // JOIN is as droppable as a harness payload.
  Simulator sim;
  NetworkConfig cfg;
  cfg.messageDropProbability = 1.0;
  Network net(sim, cfg, Rng(7));

  CountingEndpoint a, b;
  const NodeId idA = NodeId::fromIndex(1), idB = NodeId::fromIndex(2);
  net.attach(idA, a);
  net.attach(idB, b);
  net.setUp(idA, true);
  net.setUp(idB, true);
  net.send(idA, idB, JoinMessage{idA, 3});
  net.send(idA, idB, NotifyMessage{idA, idB});
  net.send(idA, idB, ForceAddMessage{idA});
  sim.runUntil(kSecond);
  EXPECT_EQ(b.received, 0);
  EXPECT_EQ(net.lost(), 3u);
  EXPECT_EQ(net.traffic(idA).bytesSent,
            JoinMessage::kBytes + NotifyMessage::kBytes +
                ForceAddMessage::kBytes);
}

TEST(NetworkFaultTest, RpcFailProbabilityIsHonored) {
  Simulator sim;
  NetworkConfig cfg;
  cfg.rpcFailProbability = 0.3;
  Network net(sim, cfg, Rng(3));

  CountingEndpoint a, b;
  const NodeId idA = NodeId::fromIndex(1), idB = NodeId::fromIndex(2);
  net.attach(idA, a);
  net.attach(idB, b);
  net.setUp(idA, true);
  net.setUp(idB, true);

  constexpr int kCalls = 2000;
  int ok = 0;
  for (int i = 0; i < kCalls; ++i) {
    ok += net.exchange(idA, idB, PingRequest{8}).has_value() ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(ok) / kCalls, 0.7, 0.05);
}

TEST(NetworkFaultTest, FailedRpcChargesOnlyRequest) {
  Simulator sim;
  NetworkConfig cfg;
  cfg.rpcFailProbability = 1.0;
  Network net(sim, cfg, Rng(4));

  CountingEndpoint a, b;
  const NodeId idA = NodeId::fromIndex(1), idB = NodeId::fromIndex(2);
  net.attach(idA, a);
  net.attach(idB, b);
  net.setUp(idA, true);
  net.setUp(idB, true);

  EXPECT_FALSE(net.call(idA, idB, CvFetchRequest{8, 100}).has_value());
  EXPECT_EQ(net.traffic(idA).bytesSent, 8u);
  EXPECT_EQ(net.traffic(idB).bytesSent, 0u);  // no response produced
}

TEST(NetworkFaultTest, TimeoutChargingIsPerRequestType) {
  // Every request type charges its own declared request leg on timeout —
  // the accounting lives with the type, verified across the closed set.
  Simulator sim;
  NetworkConfig cfg;
  cfg.rpcFailProbability = 1.0;
  Network net(sim, cfg, Rng(8));

  CountingEndpoint a, b;
  const NodeId idA = NodeId::fromIndex(1), idB = NodeId::fromIndex(2);
  net.attach(idA, a);
  net.attach(idB, b);
  net.setUp(idA, true);
  net.setUp(idB, true);

  EXPECT_FALSE(net.call(idA, idB, PingRequest{8}).has_value());
  EXPECT_FALSE(net.call(idA, idB, CvFetchRequest{8, 200}).has_value());
  EXPECT_FALSE(net.call(idA, idB, SwapRequest{{idA}, 8, 4}).has_value());
  EXPECT_FALSE(net.call(idA, idB, MonitorPingRequest{8}).has_value());
  // 8 (ping) + 8 (fetch ask) + 32 (4 swap entries) + 8 (monitor ping).
  EXPECT_EQ(net.traffic(idA).bytesSent, 56u);
  EXPECT_EQ(net.traffic(idA).messagesSent, 4u);
  EXPECT_EQ(net.traffic(idB).bytesSent, 0u);
}

TEST(NetworkFaultTest, RpcFailProbabilityAppliesToAsyncExchanges) {
  Simulator sim;
  NetworkConfig cfg;
  cfg.rpcFailProbability = 1.0;
  Network net(sim, cfg, Rng(9));

  CountingEndpoint a, b;
  const NodeId idA = NodeId::fromIndex(1), idB = NodeId::fromIndex(2);
  net.attach(idA, a);
  net.attach(idB, b);
  net.setUp(idA, true);
  net.setUp(idB, true);

  bool fired = false, gotResponse = true;
  net.exchangeAsync(idA, idB, PingRequest{8}, [&](auto r) {
    fired = true;
    gotResponse = r.has_value();
  });
  EXPECT_FALSE(fired);  // the failure surfaces only after the timeout
  sim.runUntil(kMinute);
  EXPECT_TRUE(fired);
  EXPECT_FALSE(gotResponse);
  EXPECT_EQ(net.traffic(idA).bytesSent, 8u);
  EXPECT_EQ(net.traffic(idB).bytesSent, 0u);
}

TEST(NetworkFaultTest, ZeroProbabilityIsFaultless) {
  Simulator sim;
  Network net(sim, NetworkConfig{}, Rng(5));
  CountingEndpoint a, b;
  const NodeId idA = NodeId::fromIndex(1), idB = NodeId::fromIndex(2);
  net.attach(idA, a);
  net.attach(idB, b);
  net.setUp(idA, true);
  net.setUp(idB, true);
  for (int i = 0; i < 500; ++i) {
    net.send(idA, idB, TextMessage{"m", 1});
    EXPECT_TRUE(net.exchange(idA, idB, PingRequest{1}).has_value());
  }
  sim.runUntil(kSecond);
  EXPECT_EQ(b.received, 500);
}

// ---------------------------------------------------------------------------
// Cross-shard fault injection: the same fault model must hold when the
// endpoints live in different sub-worlds and the traffic rides the
// window-barrier hand-off layer.
// ---------------------------------------------------------------------------

// Two-shard world with one endpoint per shard; a registered as index 0
// (shard 0), b as index 1 (shard 1).
struct TwoShardWorld {
  explicit TwoShardWorld(NetworkConfig net, std::uint64_t seed = 11) {
    ShardedSimulator::Config cfg;
    cfg.shards = 2;
    cfg.net = net;
    cfg.netSeed = seed;
    world = std::make_unique<ShardedSimulator>(cfg);
    world->registerNode(idA);
    world->registerNode(idB);
    world->netOf(0).attach(idA, a);
    world->netOf(1).attach(idB, b);
    world->netOf(0).setUp(idA, true);
    world->netOf(1).setUp(idB, true);
  }

  const NodeId idA = NodeId::fromIndex(1), idB = NodeId::fromIndex(2);
  CountingEndpoint a, b;
  std::unique_ptr<ShardedSimulator> world;
};

TEST(NetworkFaultTest, CrossShardDropProbabilityIsHonored) {
  NetworkConfig cfg;
  cfg.messageDropProbability = 0.5;
  TwoShardWorld w(cfg);

  constexpr int kSends = 2000;
  w.world->simOf(0).at(0, [&] {
    for (int i = 0; i < kSends; ++i) {
      w.world->netOf(0).send(w.idA, w.idB, TextMessage{"m", 1});
    }
  });
  w.world->runUntil(kSecond);
  EXPECT_NEAR(static_cast<double>(w.b.received) / kSends, 0.5, 0.05);
  // Drops happen at the sender, before the hand-off: the aggregate lost
  // count plus deliveries covers every send, and every send was charged.
  EXPECT_EQ(w.world->lost() + static_cast<std::uint64_t>(w.b.received),
            static_cast<std::uint64_t>(kSends));
  EXPECT_EQ(w.world->netOf(0).traffic(w.idA).bytesSent,
            static_cast<std::uint64_t>(kSends));
}

TEST(NetworkFaultTest, CrossShardLatencySpikeStillDeliversInWindowOrder) {
  // A pathological latency band (10 ms floor, 2 s ceiling) stresses the
  // barrier math: deliveries land many windows after their send, yet each
  // arrives inside [min, max] and none can arrive inside its send window.
  NetworkConfig cfg;
  cfg.minLatency = 10;
  cfg.maxLatency = 2000;

  ShardedSimulator::Config worldCfg;
  worldCfg.shards = 2;
  worldCfg.net = cfg;
  worldCfg.netSeed = 23;
  ShardedSimulator world(worldCfg);
  const NodeId idA = NodeId::fromIndex(1), idB = NodeId::fromIndex(2);
  world.registerNode(idA);
  world.registerNode(idB);

  CountingEndpoint a;
  struct StampingEndpoint final : Endpoint {
    explicit StampingEndpoint(Simulator& sim) : sim(sim) {}
    void onMessage(const NodeId&, const Message&) override {
      arrivals.push_back(sim.now());
    }
    Simulator& sim;
    std::vector<SimTime> arrivals;
  } b(world.simOf(1));
  world.netOf(0).attach(idA, a);
  world.netOf(1).attach(idB, b);
  world.netOf(0).setUp(idA, true);
  world.netOf(1).setUp(idB, true);

  constexpr int kSends = 300;
  const SimTime sentAt = 5;
  world.simOf(0).at(sentAt, [&] {
    for (int i = 0; i < kSends; ++i) {
      world.netOf(0).send(idA, idB, TextMessage{"m", 1});
    }
  });
  world.runUntil(5 * kSecond);

  ASSERT_EQ(b.arrivals.size(), static_cast<std::size_t>(kSends));
  SimTime minSeen = b.arrivals.front(), maxSeen = b.arrivals.front();
  for (const SimTime t : b.arrivals) {
    EXPECT_GE(t, sentAt + cfg.minLatency);
    EXPECT_LE(t, sentAt + cfg.maxLatency);
    // Arrivals are handed to the destination in sorted (due, key) order,
    // so the observed stream is time-monotonic.
    minSeen = std::min(minSeen, t);
    maxSeen = std::max(maxSeen, t);
  }
  EXPECT_TRUE(std::is_sorted(b.arrivals.begin(), b.arrivals.end()));
  // The spike actually spread the batch across many windows.
  EXPECT_GT(maxSeen - minSeen, world.windowLength());
}

TEST(NetworkFaultTest, ChurnExactlyOnWindowBoundaryDropsInFlightMessage) {
  // The target leaves at exactly a window barrier (t = 10 = one window
  // length) while a message due at that same instant is in flight. The
  // lifecycle event is inserted at setup, the delivery at the barrier —
  // so the leave runs first and the message must count as lost.
  NetworkConfig cfg;
  cfg.minLatency = 10;
  cfg.maxLatency = 10;
  TwoShardWorld w(cfg);
  const SimTime boundary = w.world->windowLength();  // 10 ms

  w.world->simOf(1).at(boundary, [&] { w.world->netOf(1).setUp(w.idB, false); });
  w.world->simOf(0).at(0, [&] {
    w.world->netOf(0).send(w.idA, w.idB, TextMessage{"m", 1});  // due at 10
  });
  // Stop just past the boundary so the second phase below can still be
  // scheduled AT its boundary (running to the far future first would clamp
  // those events to "now" and dodge the case under test).
  w.world->runUntil(boundary + 2);

  EXPECT_EQ(w.b.received, 0);
  EXPECT_EQ(w.world->lost(), 1u);

  // The node coming back up at the NEXT boundary receives traffic again.
  w.world->simOf(1).at(2 * boundary, [&] { w.world->netOf(1).setUp(w.idB, true); });
  w.world->simOf(0).at(2 * boundary, [&] {
    w.world->netOf(0).send(w.idA, w.idB, TextMessage{"m", 1});  // due at 30
  });
  w.world->runUntil(kSecond);
  EXPECT_EQ(w.b.received, 1);
}

TEST(NetworkFaultTest, ChurnAtBoundaryMidRpcSurfacesAsExactTimeout) {
  // The callee churns out at the barrier its request-leg would arrive on:
  // the serve finds it down, nothing travels back, and the caller learns
  // about it at exactly rpcTimeout — indistinguishable from a drop.
  NetworkConfig cfg;
  cfg.minLatency = 10;
  cfg.maxLatency = 10;
  TwoShardWorld w(cfg);

  std::optional<SimTime> completedAt;
  bool gotResponse = true;
  w.world->simOf(1).at(10, [&] { w.world->netOf(1).setUp(w.idB, false); });
  w.world->simOf(0).at(0, [&] {
    w.world->netOf(0).exchangeAsync(w.idA, w.idB, PingRequest{8},
                                    [&](auto r) {
                                      completedAt = w.world->simOf(0).now();
                                      gotResponse = r.has_value();
                                    });
  });
  w.world->runUntil(kSecond);

  ASSERT_TRUE(completedAt.has_value());
  EXPECT_FALSE(gotResponse);
  EXPECT_EQ(*completedAt, cfg.rpcTimeout);
  EXPECT_EQ(w.world->netOf(0).traffic(w.idA).bytesSent, 8u);  // request leg
  EXPECT_EQ(w.world->netOf(1).traffic(w.idB).bytesSent, 0u);  // never served
}

TEST(NetworkFaultTest, CrossShardRpcFailProbabilityIsHonored) {
  NetworkConfig cfg;
  cfg.rpcFailProbability = 0.3;
  TwoShardWorld w(cfg);

  constexpr int kCalls = 600;
  int ok = 0, done = 0;
  // Space the calls out so each completes well before the next deadline.
  for (int i = 0; i < kCalls; ++i) {
    w.world->simOf(0).at(i * kSecond, [&] {
      w.world->netOf(0).exchangeAsync(w.idA, w.idB, PingRequest{8},
                                      [&](auto r) {
                                        ++done;
                                        if (r) ++ok;
                                      });
    });
  }
  w.world->runUntil(kCalls * kSecond + kSecond);
  EXPECT_EQ(done, kCalls);
  EXPECT_NEAR(static_cast<double>(ok) / kCalls, 0.7, 0.06);
}

}  // namespace
}  // namespace avmon::sim

// ---------------------------------------------------------------------------
// Scheduled fault plans (sim/fault_plan.hpp) at scenario level: timed
// partitions, correlated bursts, and latency-regime windows + geo bands
// must be DETERMINISTIC — bit-identical metrics at every shard count and
// a pinned fingerprint, exactly like the unfaulted goldens
// in scenario_metrics_test.
// ---------------------------------------------------------------------------

#include "golden_hash.hpp"

namespace avmon::experiments {
namespace {

Scenario faultBase() {
  Scenario s;
  s.model = churn::Model::kSynth;
  s.stableSize = 120;
  s.horizon = 90 * kMinute;
  s.warmup = 30 * kMinute;
  s.controlFraction = 0.1;
  s.seed = 314;
  s.hashName = "splitmix64";
  return s;
}

struct FaultGolden {
  const char* name;
  Scenario scenario;
  std::uint64_t summary;
  std::uint64_t perNode;
};

std::vector<FaultGolden> faultGoldens() {
  Scenario partition = faultBase();
  partition.faults.partitions.push_back({40 * kMinute, 50 * kMinute, 2});

  Scenario burst = faultBase();
  burst.faults.bursts.push_back({45 * kMinute, 5 * kMinute, 0.25});

  Scenario latency = faultBase();
  latency.faults.latencyWindows.push_back(
      {30 * kMinute, 40 * kMinute, 30, 300});
  latency.faults.geo.regions = 4;
  latency.faults.geo.intraMin = 5;
  latency.faults.geo.intraMax = 20;
  latency.faults.geo.interMin = 50;
  latency.faults.geo.interMax = 150;

  return {
      {"partition", partition, 0xd2cbe7810a2822cbULL, 0x2008125dcc567c76ULL},
      {"burst", burst, 0xa192b1754ee756adULL, 0xe9f8df8cd145201dULL},
      {"latency", latency, 0xed7fa1fb97aca39cULL, 0x1f226a5d5a9dbeb5ULL},
  };
}

TEST(FaultPlanGoldenTest, DeferredLaneIsPinnedAndShardInvariant) {
  for (const FaultGolden& g : faultGoldens()) {
    for (const unsigned shards : {1u, 2u, 3u, 8u}) {
      Scenario s = g.scenario;
      s.shards = shards;
      ScenarioRunner runner(s);
      runner.run();
      EXPECT_EQ(summaryHash(runner), g.summary) << g.name << " S=" << shards;
      EXPECT_EQ(perNodeHash(runner), g.perNode) << g.name << " S=" << shards;
    }
  }
}

TEST(FaultPlanGoldenTest, FaultPlansActuallyPerturbTheRun) {
  // The pins above would be vacuous if an armed plan collapsed into the
  // unfaulted run: each faulted fingerprint must differ from the
  // fault-free baseline of the same seed.
  ScenarioRunner baseline(faultBase());
  baseline.run();
  const std::uint64_t cleanSummary = summaryHash(baseline);
  for (const FaultGolden& g : faultGoldens()) {
    EXPECT_NE(g.summary, cleanSummary) << g.name;
  }
}

TEST(FaultPlanGoldenTest, PartitionWindowSeversCrossGroupTraffic) {
  // Behavioral sanity behind the partition pin: messages across the two
  // partition groups are lost during the window, so the faulted run must
  // lose strictly more than its unfaulted twin.
  ScenarioRunner clean(faultBase());
  clean.run();
  Scenario s = faultBase();
  s.faults.partitions.push_back({40 * kMinute, 50 * kMinute, 2});
  ScenarioRunner cut(s);
  cut.run();
  EXPECT_GT(cut.world().lost(), clean.world().lost());
}

}  // namespace
}  // namespace avmon::experiments
