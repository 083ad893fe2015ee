// Sharded-execution proof layer: window-barrier ordering (hand-off bursts
// included), cross-shard deferred RPC, and the headline property — for a
// fixed seed and scenario, EVERY shard count reproduces the single-shard
// metrics bit-for-bit (summaries, accuracy table, and per-node CSV rows).
#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "experiments/scenario.hpp"
#include "golden_hash.hpp"
#include "sim/sharded_simulator.hpp"

namespace avmon::sim {
namespace {

// ------------------------------------------------------------ sub-worlds

class RecordingEndpoint final : public Endpoint {
 public:
  explicit RecordingEndpoint(Simulator& sim) : sim_(sim) {}

  void onMessage(const NodeId& from, const Message& message) override {
    std::string text;
    if (const auto* t = std::get_if<TextMessage>(&message)) text = t->text;
    received.push_back({sim_.now(), from, text});
  }

  struct Record {
    SimTime at;
    NodeId from;
    std::string text;
  };
  std::vector<Record> received;

 private:
  Simulator& sim_;
};

ShardedSimulator::Config fixedLatencyConfig(std::size_t shards,
                                            SimDuration latency) {
  ShardedSimulator::Config cfg;
  cfg.shards = shards;
  cfg.net.minLatency = latency;
  cfg.net.maxLatency = latency;  // deterministic due times for assertions
  cfg.netSeed = 7;
  return cfg;
}

TEST(ShardedSimulatorTest, RegistersRoundRobinAndResolvesHomes) {
  ShardedSimulator world(fixedLatencyConfig(3, 10));
  const NodeId a = NodeId::fromIndex(1), b = NodeId::fromIndex(2),
               c = NodeId::fromIndex(3), d = NodeId::fromIndex(4);
  EXPECT_EQ(world.registerNode(a), 0u);
  EXPECT_EQ(world.registerNode(b), 1u);
  EXPECT_EQ(world.registerNode(c), 2u);
  EXPECT_EQ(world.registerNode(d), 3u);
  EXPECT_EQ(world.shardOf(a), 0u);
  EXPECT_EQ(world.shardOf(b), 1u);
  EXPECT_EQ(world.shardOf(c), 2u);
  EXPECT_EQ(world.shardOf(d), 0u);  // wraps
  EXPECT_EQ(&world.simFor(a), &world.simOf(0));
  EXPECT_EQ(&world.netFor(c), &world.netOf(2));
  EXPECT_EQ(world.windowLength(), 10);
  // A repeated id keeps its first index and takes none; ScenarioRunner
  // compares the answer with the trace position to reject such a trace.
  EXPECT_EQ(world.registerNode(b), 1u);
  EXPECT_EQ(world.registerNode(NodeId::fromIndex(5)), 4u);
  EXPECT_EQ(world.globalIndexOf(b), 1u);
}

TEST(ShardedSimulatorTest, CrossShardMessageLandsAfterItsSendWindow) {
  ShardedSimulator world(fixedLatencyConfig(2, 10));
  const NodeId a = NodeId::fromIndex(1), b = NodeId::fromIndex(2);
  world.registerNode(a);  // shard 0
  world.registerNode(b);  // shard 1
  RecordingEndpoint ea(world.simOf(0)), eb(world.simOf(1));
  world.netOf(0).attach(a, ea);
  world.netOf(1).attach(b, eb);
  world.netOf(0).setUp(a, true);
  world.netOf(1).setUp(b, true);

  // Send at t = 3 (mid-window 0): due at exactly 13 — inside window 1,
  // inserted at the barrier between the windows, never mid-window.
  world.simOf(0).at(3, [&] { world.netOf(0).send(a, b, TextMessage{"x", 1}); });
  world.runUntil(100);

  ASSERT_EQ(eb.received.size(), 1u);
  EXPECT_EQ(eb.received[0].at, 13);
  EXPECT_EQ(eb.received[0].from, a);
  EXPECT_GE(world.handoffsCarried(), 1u);
  EXPECT_EQ(world.delivered(), 1u);
  EXPECT_EQ(world.now(), 100);
}

TEST(ShardedSimulatorTest, SameInstantDeliveriesRunInSenderKeyOrder) {
  // Three senders on three shards all hit the same target at the same
  // instant; execution order must follow the global sender index — the
  // shard-count-invariant key — not thread timing or queue arrival.
  ShardedSimulator world(fixedLatencyConfig(4, 10));
  const NodeId t = NodeId::fromIndex(10);
  const NodeId s1 = NodeId::fromIndex(11), s2 = NodeId::fromIndex(12),
               s3 = NodeId::fromIndex(13);
  world.registerNode(t);   // index 0, shard 0
  world.registerNode(s1);  // index 1, shard 1
  world.registerNode(s2);  // index 2, shard 2
  world.registerNode(s3);  // index 3, shard 3
  RecordingEndpoint et(world.simOf(0));
  RecordingEndpoint e1(world.simOf(1)), e2(world.simOf(2)), e3(world.simOf(3));
  world.netOf(0).attach(t, et);
  world.netOf(1).attach(s1, e1);
  world.netOf(2).attach(s2, e2);
  world.netOf(3).attach(s3, e3);
  world.netOf(0).setUp(t, true);
  world.netOf(1).setUp(s1, true);
  world.netOf(2).setUp(s2, true);
  world.netOf(3).setUp(s3, true);

  // Highest-index sender schedules first; all sends happen at t = 5, all
  // deliveries land at t = 15.
  world.simOf(3).at(5, [&] { world.netOf(3).send(s3, t, TextMessage{"c", 1}); });
  world.simOf(2).at(5, [&] { world.netOf(2).send(s2, t, TextMessage{"b", 1}); });
  world.simOf(1).at(5, [&] { world.netOf(1).send(s1, t, TextMessage{"a", 1}); });
  world.runUntil(50);

  ASSERT_EQ(et.received.size(), 3u);
  EXPECT_EQ(et.received[0].text, "a");  // sender index 1
  EXPECT_EQ(et.received[1].text, "b");  // sender index 2
  EXPECT_EQ(et.received[2].text, "c");  // sender index 3
  for (const auto& r : et.received) EXPECT_EQ(r.at, 15);
}

TEST(ShardedSimulatorTest, SameShardTrafficAlsoRidesTheHandoffLayer) {
  // A message between two nodes of the SAME shard still crosses the
  // barrier layer — insertion order at a destination can never depend on
  // which shard the sender happens to share with it.
  ShardedSimulator world(fixedLatencyConfig(2, 10));
  const NodeId a = NodeId::fromIndex(1), b = NodeId::fromIndex(2);
  world.registerNode(a);                 // shard 0
  world.registerNode(NodeId::fromIndex(9));  // pad index 1 → shard 1
  world.registerNode(b);                 // index 2 → shard 0 (same as a)
  RecordingEndpoint ea(world.simOf(0)), eb(world.simOf(0));
  world.netOf(0).attach(a, ea);
  world.netOf(0).attach(b, eb);
  world.netOf(0).setUp(a, true);
  world.netOf(0).setUp(b, true);

  world.simOf(0).at(0, [&] { world.netOf(0).send(a, b, TextMessage{"m", 1}); });
  world.runUntil(40);

  ASSERT_EQ(eb.received.size(), 1u);
  EXPECT_EQ(eb.received[0].at, 10);
  EXPECT_GE(world.handoffsCarried(), 1u);
}

TEST(ShardedSimulatorTest, DeferredRpcCrossesShardsAndBack) {
  ShardedSimulator world(fixedLatencyConfig(2, 10));
  const NodeId a = NodeId::fromIndex(1), b = NodeId::fromIndex(2);
  world.registerNode(a);
  world.registerNode(b);
  RecordingEndpoint ea(world.simOf(0)), eb(world.simOf(1));
  world.netOf(0).attach(a, ea);
  world.netOf(1).attach(b, eb);
  world.netOf(0).setUp(a, true);
  world.netOf(1).setUp(b, true);

  std::optional<SimTime> completedAt;
  bool gotResponse = false;
  world.simOf(0).at(0, [&] {
    world.netOf(0).exchangeAsync(a, b, PingRequest{8}, [&](auto r) {
      completedAt = world.simOf(0).now();
      gotResponse = r.has_value();
    });
  });
  world.runUntil(kSecond);

  ASSERT_TRUE(completedAt.has_value());
  EXPECT_TRUE(gotResponse);
  EXPECT_EQ(*completedAt, 20);  // request leg 10 ms + response leg 10 ms
  // Request charged to the caller, response to the responder.
  EXPECT_EQ(world.netOf(0).traffic(a).bytesSent, 8u);
  EXPECT_GT(world.netOf(1).traffic(b).bytesSent, 0u);
}

TEST(ShardedSimulatorTest, DeferredRpcToDownNodeTimesOutAtExactDeadline) {
  ShardedSimulator world(fixedLatencyConfig(2, 10));
  const NodeId a = NodeId::fromIndex(1), b = NodeId::fromIndex(2);
  world.registerNode(a);
  world.registerNode(b);
  RecordingEndpoint ea(world.simOf(0)), eb(world.simOf(1));
  world.netOf(0).attach(a, ea);
  world.netOf(1).attach(b, eb);
  world.netOf(0).setUp(a, true);  // b stays down

  std::optional<SimTime> completedAt;
  bool gotResponse = true;
  world.simOf(0).at(0, [&] {
    world.netOf(0).exchangeAsync(a, b, PingRequest{8}, [&](auto r) {
      completedAt = world.simOf(0).now();
      gotResponse = r.has_value();
    });
  });
  world.runUntil(kSecond);

  ASSERT_TRUE(completedAt.has_value());
  EXPECT_FALSE(gotResponse);
  EXPECT_EQ(*completedAt, NetworkConfig{}.rpcTimeout);
  EXPECT_EQ(world.netOf(1).traffic(b).bytesSent, 0u);  // never served
}

// Eight nodes on `shards` shards (four by default), each recording what
// it receives, over a [10, maxLatency] ms band: the default 10–40 spreads
// traffic across windows, and maxLatency = 10 makes every message of a
// burst due at one instant. Each message carries its sender's running
// send count. Config::threads forces the worker pool even on a
// single-core host (threads = 0 would collapse to one worker there).
class BombardedWorld {
 public:
  explicit BombardedWorld(unsigned threads, std::size_t shards = 4,
                          SimDuration maxLatency = 40)
      : world_(config(threads, shards, maxLatency)), sent_(kNodes, 0) {
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      const NodeId id = NodeId::fromIndex(100 + i);
      world_.registerNode(id);
      const std::size_t shard = world_.shardOf(id);
      endpoints_.push_back(
          std::make_unique<RecordingEndpoint>(world_.simOf(shard)));
      world_.netOf(shard).attach(id, *endpoints_.back());
      world_.netOf(shard).setUp(id, true);
      ids_.push_back(id);
    }
  }

  ShardedSimulator& world() { return world_; }

  // At `at`, every node sends `rounds` messages to every other node,
  // cycling over the receivers. The highest index schedules first, so
  // only the drain's key order puts same-instant senders in index order.
  void bombard(SimTime at, int rounds = 20) {
    for (std::uint32_t i = kNodes; i-- > 0;) {
      const std::size_t shard = world_.shardOf(ids_[i]);
      world_.simOf(shard).at(at, [this, i, shard, rounds] {
        for (int round = 0; round < rounds; ++round) {
          for (std::uint32_t j = 0; j < kNodes; ++j) {
            if (j == i) continue;
            world_.netOf(shard).send(
                ids_[i], ids_[j], TextMessage{std::to_string(sent_[i]++), 1});
          }
        }
      });
    }
  }

  // One message per window from node 0 to node 1, over [from, to).
  void trickle(SimTime from, SimTime to) {
    const std::size_t shard = world_.shardOf(ids_[0]);
    for (SimTime t = from; t < to; t += world_.windowLength()) {
      world_.simOf(shard).at(t, [this, shard] {
        world_.netOf(shard).send(ids_[0], ids_[1],
                                 TextMessage{std::to_string(sent_[0]++), 1});
      });
    }
  }

  std::uint64_t sends() const {
    std::uint64_t total = 0;
    for (const std::uint64_t n : sent_) total += n;
    return total;
  }

  // Every receiver's stream is strictly increasing in (due, sender index,
  // sender's send order).
  void expectKeyOrder() const {
    const auto key = [this](const RecordingEndpoint::Record& rec) {
      return std::make_tuple(rec.at, world_.globalIndexOf(rec.from),
                             std::stoull(rec.text));
    };
    for (std::size_t r = 0; r < endpoints_.size(); ++r) {
      const auto& received = endpoints_[r]->received;
      for (std::size_t n = 1; n < received.size(); ++n) {
        ASSERT_LT(key(received[n - 1]), key(received[n]))
            << "receiver " << r << ", arrival " << n;
      }
    }
  }

  // The observable outcome: per-endpoint arrival streams.
  std::uint64_t fingerprint() const {
    std::uint64_t fp = 1469598103934665603ULL;
    const auto mix = [&fp](std::uint64_t x) {
      for (int b = 0; b < 8; ++b) {
        fp ^= (x >> (8 * b)) & 0xFF;
        fp *= 1099511628211ULL;
      }
    };
    for (const auto& ep : endpoints_) {
      mix(ep->received.size());
      for (const auto& r : ep->received) {
        mix(static_cast<std::uint64_t>(r.at));
        mix(r.from.packed());
        mix(std::stoull(r.text));
      }
    }
    return fp;
  }

 private:
  static constexpr std::uint32_t kNodes = 8;

  static ShardedSimulator::Config config(unsigned threads, std::size_t shards,
                                         SimDuration maxLatency) {
    ShardedSimulator::Config cfg = fixedLatencyConfig(shards, 10);
    cfg.net.maxLatency = maxLatency;
    cfg.threads = threads;
    return cfg;
  }

  ShardedSimulator world_;
  std::vector<NodeId> ids_;
  std::vector<std::uint64_t> sent_;  ///< per sender; its own shard writes it
  std::vector<std::unique_ptr<RecordingEndpoint>> endpoints_;
};

TEST(ShardedSimulatorTest, ForcedThreadPoolMatchesSerialExecution) {
  // threads = 4 gives the world a worker pool, so the windows heavy enough
  // to split run their barrier/drain phases on real threads in every
  // environment (under TSan this validates their happens-before edges),
  // and the rest run on the coordinator. The run must reproduce the
  // serial one exactly.
  BombardedWorld serial(1);
  serial.bombard(0);
  serial.world().runUntil(0);
  serial.world().runUntil(kSecond);
  EXPECT_EQ(serial.world().workerThreads(), 1u);
  EXPECT_EQ(serial.world().poolWindows(), 0u);

  BombardedWorld pooled(4);
  pooled.bombard(0);
  pooled.world().runUntil(0);
  EXPECT_EQ(pooled.world().poolWindows(), 1u);  // a world's first window
  pooled.world().runUntil(kSecond);
  EXPECT_EQ(pooled.world().workerThreads(), 4u);  // the pool really spun up
  // The t = 0 bombardment uses the pool; its tail steps aside.
  EXPECT_GT(pooled.world().poolWindows(), 1u);
  EXPECT_LT(pooled.world().poolWindows(), pooled.world().windowsRun());
  EXPECT_EQ(serial.world().windowsRun(), pooled.world().windowsRun());
  EXPECT_EQ(pooled.fingerprint(), serial.fingerprint());
}

TEST(ShardedSimulatorTest, PoolParksThroughQuietStretchesAndWakes) {
  // Burst, a quiet stretch of one message per window, a second burst,
  // visits, then destruction: the workers park through the quiet stretch
  // and after each phase, and each release must wake them (a lost
  // wake-up hangs here). The world must still match the serial run.
  constexpr SimTime kQuietEnd = 60 * kSecond;  // 5 900 quiet windows
  const auto drive = [](BombardedWorld& w) {
    w.bombard(0);
    w.trickle(kSecond, kQuietEnd);
    w.bombard(kQuietEnd);
    w.world().runUntil(kQuietEnd - 1);
  };
  // Polls until every worker is blocked at the barrier: they park once
  // their bounded spin runs out, so this ends.
  const auto awaitParked = [](ShardedSimulator& world) {
    while (world.parkedWorkers() < world.workerThreads() - 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  BombardedWorld serial(1);
  drive(serial);
  serial.world().runUntil(2 * kQuietEnd);

  std::vector<std::thread::id> home;
  std::uint64_t fingerprint = 0;
  {
    BombardedWorld pooled(4);
    ShardedSimulator& world = pooled.world();
    drive(pooled);
    const std::uint64_t poolAfterQuiet = world.poolWindows();
    EXPECT_GT(poolAfterQuiet, 0u);  // the first burst ran on the pool
    awaitParked(world);

    world.runUntil(2 * kQuietEnd);  // the second burst wakes the pool
    EXPECT_GT(world.poolWindows(), poolAfterQuiet);
    EXPECT_LT(world.poolWindows(), world.windowsRun());
    EXPECT_EQ(world.windowsRun(), serial.world().windowsRun());
    fingerprint = pooled.fingerprint();

    // Each visit runs shard s on its home worker, parked or not.
    for (int visit = 0; visit < 3; ++visit) {
      if (visit > 0) awaitParked(world);
      std::vector<std::thread::id> seen(world.shardCount());
      world.visitShards(
          [&seen](std::size_t s) { seen[s] = std::this_thread::get_id(); });
      if (home.empty()) home = seen;
      EXPECT_EQ(seen, home) << "visit " << visit;
    }
    awaitParked(world);
  }  // destroyed with every worker parked

  ASSERT_EQ(home.size(), 4u);
  EXPECT_EQ(home[0], std::this_thread::get_id());  // shard 0: coordinator
  for (std::size_t s = 1; s < home.size(); ++s) {
    for (std::size_t t = 0; t < s; ++t) EXPECT_NE(home[s], home[t]);
  }
  EXPECT_EQ(fingerprint, serial.fingerprint());
}

TEST(ShardedSimulatorTest, HandoffBurstsKeepKeyOrderAtEveryShardCount) {
  // 20 160 hand-offs leave in window 0, all due at t = 10 (a fixed 10 ms
  // band); five quiet windows later a 2 800-message burst reuses the
  // drained buffers. The last layout gives the world a worker pool, which
  // runs the first window's drain (a world's first window always uses the
  // pool).
  struct Layout {
    std::size_t shards;
    unsigned threads;
  };
  std::optional<std::uint64_t> reference;
  for (const Layout layout :
       {Layout{1, 1}, Layout{2, 1}, Layout{3, 1}, Layout{4, 4}}) {
    SCOPED_TRACE("shards=" + std::to_string(layout.shards) +
                 " threads=" + std::to_string(layout.threads));
    BombardedWorld w(layout.threads, layout.shards, /*maxLatency=*/10);
    w.bombard(0, 360);
    w.bombard(60, 50);
    w.world().runUntil(kSecond);

    EXPECT_EQ(w.sends(), 22'960u);
    EXPECT_EQ(w.world().handoffsCarried(), w.sends());
    EXPECT_EQ(w.world().delivered(), w.sends());
    w.expectKeyOrder();
    if (layout.threads > 1) {
      EXPECT_EQ(w.world().workerThreads(), layout.threads);
      EXPECT_GT(w.world().poolWindows(), 0u);
    }
    if (!reference) {
      reference = w.fingerprint();
    } else {
      EXPECT_EQ(w.fingerprint(), *reference);
    }
  }
}

TEST(ShardedSimulatorTest, IdleStretchesAreSkippedInOneHop) {
  ShardedSimulator world(fixedLatencyConfig(2, 10));
  const NodeId a = NodeId::fromIndex(1);
  world.registerNode(a);
  // One far-future event; the driver must not grind through the ~6000
  // empty windows in between.
  bool fired = false;
  world.simOf(0).at(kMinute, [&] { fired = true; });
  world.runUntil(kMinute + 5);
  EXPECT_TRUE(fired);
  EXPECT_LT(world.windowsRun(), 50u);
}

}  // namespace
}  // namespace avmon::sim

// --------------------------------------------------------------- property

namespace avmon::experiments {
namespace {

// The tentpole guarantee: for a fixed seed and scenario, metrics are
// bit-identical for EVERY shard count — the partition changes wall-clock
// time, never results. Verified over the same three seeded workloads the
// golden-hash regression pins (STAT, SYNTH-BD, SYNTH with injected
// drops + RPC timeouts), across S ∈ {1, 2, 3, 8}.
TEST(ShardedScenarioTest, ShardCountNeverChangesMetrics) {
  for (const Scenario& base : goldenScenarios()) {
    std::optional<std::uint64_t> refSummary, refPerNode;
    for (const unsigned shards : {1u, 2u, 3u, 8u}) {
      Scenario s = base;
      s.shards = shards;
      ScenarioRunner runner(s);
      runner.run();
      const std::uint64_t summary = summaryHash(runner);
      const std::uint64_t perNode = perNodeHash(runner);
      if (!refSummary) {
        refSummary = summary;
        refPerNode = perNode;
      } else {
        EXPECT_EQ(summary, *refSummary)
            << "summary metrics drifted at shards=" << shards;
        EXPECT_EQ(perNode, *refPerNode)
            << "per-node metrics drifted at shards=" << shards;
      }
    }
  }
}

}  // namespace
}  // namespace avmon::experiments
