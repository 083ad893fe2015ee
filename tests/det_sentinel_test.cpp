// Proof layer for the debug-mode shard-race sentinel (det_checks.hpp):
// cross-shard Rng draws and off-shard schedule() calls must abort with a
// "determinism sentinel" diagnostic while a window phase is in flight, and
// every legitimate pattern — setup, owner-scoped work, sanctioned barrier
// activity, whole sharded runs — must pass untouched. The whole suite
// skips when the sentinel is compiled out (default builds); CI runs it
// under -DAVMON_DET_CHECKS=ON.
#include <gtest/gtest.h>

#include <string>

#include "common/det_checks.hpp"
#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "sim/network.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim/simulator.hpp"

#ifndef AVMON_DET_CHECKS

TEST(DetSentinelTest, SentinelCompiledOut) {
  GTEST_SKIP() << "built without AVMON_DET_CHECKS; sentinel is compiled out";
}

#else  // AVMON_DET_CHECKS

namespace avmon::sim {
namespace {

constexpr char kDiagnostic[] = "determinism sentinel";

// Death tests fork; keep them safe next to any thread the fixture spawned.
class DetSentinelDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GTEST_FLAG_SET(death_test_style, "threadsafe");
  }
};

// Counts deliveries so the clean-run test can assert traffic flowed.
class CountingEndpoint final : public Endpoint {
 public:
  void onMessage(const NodeId&, const Message&) override { ++received; }
  int received = 0;
};

ShardedSimulator::Config twoShardConfig() {
  ShardedSimulator::Config cfg;
  cfg.shards = 2;
  cfg.net.minLatency = 10;
  cfg.net.maxLatency = 10;
  cfg.netSeed = 7;
  cfg.threads = 1;  // all phases on this thread: death tests stay simple
  return cfg;
}

// ------------------------------------------------------ primitive checks

TEST(DetSentinelTest, UnboundRngDrawsFreely) {
  Rng rng(1);
  det::Domain other;
  det::PhaseScope phase{other};  // someone else's world is busy
  (void)rng();                   // untagged object: always legal
  SUCCEED();
}

TEST(DetSentinelTest, BoundRngPassesOutsidePhaseAndUnderOwnerScope) {
  det::Domain domain;
  Rng rng(1);
  rng.detTag.bind(&domain, 0);
  (void)rng();  // no phase in flight: setup/probe access is legal
  det::PhaseScope phase{domain};
  {
    det::ShardScope scope(&domain, 0);
    (void)rng();  // owning shard scope: legal mid-phase
  }
  {
    det::SanctionScope sanction;
    (void)rng();  // sanctioned barrier work: legal anywhere
  }
  SUCCEED();
}

TEST_F(DetSentinelDeathTest, UnscopedDrawDuringPhaseAborts) {
  det::Domain domain;
  Rng rng(1);
  rng.detTag.bind(&domain, 0);
  det::PhaseScope phase{domain};
  EXPECT_DEATH((void)rng(), kDiagnostic);
}

TEST_F(DetSentinelDeathTest, WrongShardScopeAborts) {
  det::Domain domain;
  Rng rng(1);
  rng.detTag.bind(&domain, 0);
  det::ShardScope scope(&domain, 1);  // holding the NEIGHBOUR's shard
  EXPECT_DEATH((void)rng(), kDiagnostic);
}

TEST(DetSentinelTest, ForkInheritsBindingCopyDrawsUnderOwnerScope) {
  det::Domain domain;
  Rng rng(1);
  rng.detTag.bind(&domain, 3);
  Rng child = rng.fork();
  det::PhaseScope phase{domain};
  det::ShardScope scope(&domain, 3);
  (void)child();  // fork copies the tag: still shard 3's stream
  SUCCEED();
}

// --------------------------------------------------- integration: world

TEST_F(DetSentinelDeathTest, CrossShardRngDrawInsideEventAborts) {
  ShardedSimulator world(twoShardConfig());
  const NodeId a = NodeId::fromIndex(1);  // index 0 -> shard 0
  const NodeId b = NodeId::fromIndex(2);  // index 1 -> shard 1
  world.registerNode(a);
  world.registerNode(b);
  Rng foreign(1);
  // Model a node on shard 1: its rng is bound like shard 1's simulator.
  AVMON_DET_BIND_LIKE(foreign.detTag, world.simOf(1).detTag);
  // ...but an event running on shard 0 reaches over and draws from it.
  world.simOf(0).at(3, [&] { (void)foreign(); });
  EXPECT_DEATH(world.runUntil(100), kDiagnostic);
}

TEST_F(DetSentinelDeathTest, OffShardScheduleInsideEventAborts) {
  ShardedSimulator world(twoShardConfig());
  const NodeId a = NodeId::fromIndex(1);
  const NodeId b = NodeId::fromIndex(2);
  world.registerNode(a);
  world.registerNode(b);
  // An event on shard 0 schedules directly into shard 1's calendar —
  // exactly the race the hand-off buffers exist to prevent.
  world.simOf(0).at(3, [&] { world.simOf(1).at(50, [] {}); });
  EXPECT_DEATH(world.runUntil(100), kDiagnostic);
}

TEST(DetSentinelTest, ShardedTrafficRunsCleanWithChecksOn) {
  ShardedSimulator world(twoShardConfig());
  const NodeId a = NodeId::fromIndex(1);
  const NodeId b = NodeId::fromIndex(2);
  world.registerNode(a);
  world.registerNode(b);
  CountingEndpoint ea, eb;
  world.netOf(0).attach(a, ea);
  world.netOf(1).attach(b, eb);
  world.netOf(0).setUp(a, true);
  world.netOf(1).setUp(b, true);
  for (SimTime t = 1; t <= 41; t += 10) {
    world.simOf(0).at(t, [&] {
      world.netOf(0).send(a, b, TextMessage{"ping", 1});
    });
    world.simOf(1).at(t, [&] {
      world.netOf(1).send(b, a, TextMessage{"pong", 1});
    });
  }
  world.runUntil(200);  // owner-scoped phases: every check passes
  EXPECT_EQ(ea.received, 5);
  EXPECT_EQ(eb.received, 5);
  EXPECT_GT(world.windowsRun(), 0u);
}

TEST(DetSentinelTest, SetupAndPostRunProbesPassFromMainThread) {
  ShardedSimulator world(twoShardConfig());
  const NodeId a = NodeId::fromIndex(1);
  const NodeId b = NodeId::fromIndex(2);
  world.registerNode(a);
  world.registerNode(b);
  CountingEndpoint ea, eb;
  world.netOf(0).attach(a, ea);
  world.netOf(1).attach(b, eb);
  world.netOf(0).setUp(a, true);
  world.netOf(1).setUp(b, true);
  world.simOf(0).at(3, [&] {
    world.netOf(0).send(a, b, TextMessage{"x", 1});
  });
  world.runUntil(100);
  // Between runs no phase is in flight: unscoped main-thread access to
  // bound shard state (schedule, send, counters) is legal.
  world.simOf(1).at(150, [] {});
  world.netOf(0).send(a, b, TextMessage{"y", 1});
  world.runUntil(300);
  EXPECT_EQ(eb.received, 2);
}

}  // namespace
}  // namespace avmon::sim

#endif  // AVMON_DET_CHECKS
