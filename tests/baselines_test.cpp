// Baseline scheme tests: Broadcast, Central and Self-report properties
// checked through the shared runner, the DHT ring's selection layer on its
// own — and the property violations the paper attributes to them.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <vector>

#include "experiments/adversary.hpp"
#include "experiments/protocol.hpp"
#include "experiments/protocols/central_protocol.hpp"
#include "experiments/protocols/dht_ring.hpp"
#include "experiments/scenario.hpp"
#include "hash/hash_function.hpp"

namespace avmon::experiments {
namespace {

Scenario baselineScenario(const std::string& protocol, churn::Model model) {
  Scenario s;
  s.protocol = protocol;
  s.model = model;
  s.stableSize = 40;
  s.horizon = 40 * kMinute;
  s.warmup = 15 * kMinute;
  s.seed = 5;
  s.hashName = "md5";
  return s;
}

// ---- Broadcast ----

TEST(BroadcastTest, MonitorsMatchSelectorExactly) {
  // Every STAT node ends up knowing every other, so PS(x) is exactly the
  // selector relation over the whole population.
  ScenarioRunner runner(baselineScenario("broadcast", churn::Model::kStat));
  runner.run();
  const auto hashFn = hash::makeHashFunction(runner.scenario().hashName);
  const HashMonitorSelector selector(*hashFn, runner.config().k,
                                     runner.effectiveN());
  std::size_t psTotal = 0;
  for (const auto& x : runner.schedule().nodes()) {
    std::vector<NodeId> ps;
    runner.protocol().visitMonitorsOf(
        x.id, [&](const NodeId& m) { ps.push_back(m); });
    const std::unordered_set<NodeId> monitors(ps.begin(), ps.end());
    EXPECT_EQ(monitors.size(), ps.size()) << x.id.toString();
    for (const auto& y : runner.schedule().nodes()) {
      if (x.id == y.id) continue;
      EXPECT_EQ(monitors.count(y.id) == 1, selector.isMonitor(y.id, x.id))
          << y.id.toString() << " -> " << x.id.toString();
    }
    psTotal += ps.size();
  }
  EXPECT_GT(psTotal, 0u);
}

// ---- Central ----

TEST(CentralTest, EstimateTracksDowntime) {
  // Under churn the server holds estimates strictly between 0 and 1, each
  // for a member that really was down for part of its monitored window.
  ScenarioRunner runner(baselineScenario("central", churn::Model::kSynth));
  runner.run();
  std::size_t partial = 0;
  for (const auto& nt : runner.schedule().nodes()) {
    const auto a = alignedAccuracyOf(runner.protocol(), nt);
    if (!a || a->estimated <= 0.0 || a->estimated >= 1.0) continue;
    ++partial;
    EXPECT_GT(a->actual, 0.0) << a->id.toString();
    EXPECT_LT(a->actual, 1.0) << a->id.toString();
  }
  EXPECT_GT(partial, 0u);
}

TEST(CentralTest, ServerLoadIsOrderNPerPeriod) {
  // The server pings every registered member once per monitoring period:
  // the load-balance failure in one number.
  Scenario s = baselineScenario("central", churn::Model::kStat);
  s.warmup = 0;  // keep every ping inside the traffic window
  ScenarioRunner runner(s);
  runner.run();
  const auto periods =
      static_cast<std::uint64_t>(s.horizon / runner.config().monitoringPeriod);
  EXPECT_GE(runner.trafficOf(CentralProtocol::kServerId).messagesSent,
            s.stableSize * (periods - 1));
}

// ---- Self-report ----

TEST(SelfReportTest, NeverJoinedIsZero) {
  // Overnet-like traces hold nodes whose first session starts after a
  // short horizon; such a node never vouched for itself.
  Scenario s = baselineScenario("self_report", churn::Model::kOvernet);
  s.horizon = 2 * kHour;
  ScenarioRunner runner(s);
  runner.run();
  std::size_t neverJoined = 0;
  for (const auto& nt : runner.schedule().nodes()) {
    if (!nt.sessions.empty() && nt.sessions.front().start <= s.horizon)
      continue;
    ++neverJoined;
    EXPECT_FALSE(runner.protocol().estimate(nt.id, nt.id).has_value());
    EXPECT_FALSE(runner.protocol().discoveryDelay(nt.id, 1).has_value());
    EXPECT_EQ(runner.protocol().memoryEntries(nt.id), 0u);
  }
  EXPECT_GT(neverJoined, 0u);
}

// ---- DHT ring ----

class DhtFixture : public ::testing::Test {
 protected:
  DhtFixture() : ring_(md5_, 5) {
    for (std::uint32_t i = 0; i < 100; ++i) {
      ids_.push_back(NodeId::fromIndex(i));
      ring_.join(ids_.back());
    }
  }
  hash::Md5HashFunction md5_;
  DhtRing ring_;
  std::vector<NodeId> ids_;
};

TEST_F(DhtFixture, PingingSetHasKMembers) {
  for (const NodeId& id : ids_) {
    const auto ps = ring_.replicaSet(id);
    EXPECT_EQ(ps.size(), 5u);
    EXPECT_EQ(std::count(ps.begin(), ps.end(), id), 0);
  }
}

TEST_F(DhtFixture, JoinNearTargetChangesMonitorSet) {
  // The consistency violation: a churn event (new node joining) displaces
  // an existing monitor of an unrelated node.
  const NodeId victim = ids_[0];
  const auto before = ring_.replicaSet(victim);

  std::size_t changes = 0;
  for (std::uint32_t i = 100; i < 400; ++i) {
    const NodeId fresh = NodeId::fromIndex(i);
    ring_.join(fresh);
    const auto after = ring_.replicaSet(victim);
    if (after != before) ++changes;
    ring_.leave(fresh);
  }
  EXPECT_GT(changes, 0u);  // some joins landed inside the replica window
}

TEST_F(DhtFixture, AvmonSelectionIsChurnImmuneWhereDhtIsNot) {
  // Contrast property: under the same churn, AVMON's hash-based relation
  // between two fixed nodes never changes (it ignores membership).
  HashMonitorSelector avmon(md5_, 5, 100);
  const NodeId a = ids_[1], b = ids_[2];
  const bool verdict = avmon.isMonitor(a, b);
  for (std::uint32_t i = 100; i < 200; ++i) {
    ring_.join(NodeId::fromIndex(i));  // churn that would perturb the DHT
    EXPECT_EQ(avmon.isMonitor(a, b), verdict);
  }
}

TEST_F(DhtFixture, MonitorsAreCorrelatedAcrossTargets) {
  // Randomness violation 3(b): monitors of x are ring-adjacent, so pairs
  // of them co-occur in other pinging sets far more often than random.
  std::size_t cooccur = 0, trials = 0;
  for (std::size_t i = 0; i + 1 < ids_.size(); ++i) {
    const auto ps = ring_.replicaSet(ids_[i]);
    if (ps.size() < 2) continue;
    // Check whether the first two monitors of ids_[i] appear together in
    // any other node's pinging set.
    for (std::size_t j = 0; j < ids_.size(); ++j) {
      if (j == i) continue;
      const auto other = ring_.replicaSet(ids_[j]);
      const bool hasA = std::find(other.begin(), other.end(), ps[0]) != other.end();
      const bool hasB = std::find(other.begin(), other.end(), ps[1]) != other.end();
      ++trials;
      if (hasA && hasB) ++cooccur;
    }
  }
  ASSERT_GT(trials, 0u);
  const double rate = static_cast<double>(cooccur) / static_cast<double>(trials);
  // Under uncorrelated selection the co-occurrence rate would be ~(K/N)²
  // = 0.25%; ring adjacency makes it over an order of magnitude higher.
  EXPECT_GT(rate, 0.025);
}

TEST_F(DhtFixture, LeaveRemovesFromRing) {
  const NodeId gone = ids_[10];
  ring_.leave(gone);
  EXPECT_EQ(ring_.size(), 99u);
  for (const NodeId& id : ids_) {
    if (id == gone) continue;
    const auto ps = ring_.replicaSet(id);
    EXPECT_EQ(std::count(ps.begin(), ps.end(), gone), 0);
  }
}

TEST_F(DhtFixture, SmallRingReturnsFewerMonitors) {
  DhtRing tiny(md5_, 5);
  tiny.join(ids_[0]);
  tiny.join(ids_[1]);
  EXPECT_EQ(tiny.replicaSet(ids_[0]).size(), 1u);
}

}  // namespace
}  // namespace avmon::experiments
