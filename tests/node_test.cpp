// AvmonNode protocol tests: join spreading, coarse-view maintenance,
// monitor discovery, NOTIFY verification, monitoring pings, forgetful
// pinging, PR2, and reporting.
#include <gtest/gtest.h>

#include <algorithm>

#include <memory>
#include <set>
#include <utility>
#include <variant>
#include <vector>

#include "avmon/node.hpp"
#include "common/rng.hpp"
#include "hash/hash_function.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace avmon {
namespace {

/// A tiny in-memory cluster of AvmonNodes with a shared bootstrap oracle.
class Cluster {
 public:
  Cluster(std::size_t count, AvmonConfig config,
          const std::string& hashName = "md5", std::uint64_t seed = 1)
      : hash_(hash::makeHashFunction(hashName)),
        selector_(*hash_, config.k, config.systemSize),
        net_(sim_, sim::NetworkConfig{}, Rng(seed)),
        rootRng_(seed) {
    const auto bootstrap = [this](const NodeId& self) {
      for (int i = 0; i < 4; ++i) {
        if (alive_.empty()) return NodeId{};
        const NodeId pick = alive_[rootRng_.index(alive_.size())];
        if (pick != self) return pick;
      }
      return NodeId{};
    };
    for (std::size_t i = 0; i < count; ++i) {
      const NodeId id = NodeId::fromIndex(static_cast<std::uint32_t>(i));
      nodes_.push_back(std::make_unique<AvmonNode>(
          id, config, selector_, sim_, net_, bootstrap, rootRng_.fork()));
    }
  }

  void joinAll() {
    for (auto& n : nodes_) join(*n, true);
  }

  void join(AvmonNode& n, bool first) {
    n.join(first);
    alive_.push_back(n.id());
  }

  void leave(AvmonNode& n) {
    n.leave();
    alive_.erase(std::remove(alive_.begin(), alive_.end(), n.id()), alive_.end());
  }

  AvmonNode& node(std::size_t i) { return *nodes_[i]; }
  std::size_t size() const { return nodes_.size(); }
  sim::Simulator& sim() { return sim_; }
  sim::Network& net() { return net_; }
  const MonitorSelector& selector() const { return selector_; }

 private:
  sim::Simulator sim_;
  std::unique_ptr<hash::HashFunction> hash_;
  HashMonitorSelector selector_;
  sim::Network net_;
  Rng rootRng_;
  std::vector<NodeId> alive_;
  std::vector<std::unique_ptr<AvmonNode>> nodes_;
};

AvmonConfig smallConfig(std::size_t n) {
  AvmonConfig cfg = AvmonConfig::paperDefaults(n);
  cfg.protocolPeriod = 10 * kSecond;   // faster rounds keep tests quick
  cfg.monitoringPeriod = 10 * kSecond;
  cfg.forgetful.tau = 30 * kSecond;
  return cfg;
}

TEST(NodeTest, JoinPopulatesCoarseViews) {
  const AvmonConfig cfg = smallConfig(60);
  Cluster c(60, cfg);
  c.joinAll();
  c.sim().runUntil(5 * kMinute);

  // An expected cvs other nodes should know each node; check that coarse
  // views are non-trivially populated and within the size bound.
  std::size_t total = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const auto& cv = c.node(i).coarseView();
    EXPECT_LE(cv.size(), cfg.cvs);
    total += cv.size();
  }
  EXPECT_GT(total, c.size());  // well more than one entry each on average
}

TEST(NodeTest, CoarseViewNeverContainsSelf) {
  Cluster c(40, smallConfig(40));
  c.joinAll();
  c.sim().runUntil(10 * kMinute);
  for (std::size_t i = 0; i < c.size(); ++i) {
    for (const NodeId& n : c.node(i).coarseView()) {
      EXPECT_NE(n, c.node(i).id());
    }
  }
}

TEST(NodeTest, CoarseViewHasNoDuplicates) {
  Cluster c(40, smallConfig(40));
  c.joinAll();
  c.sim().runUntil(10 * kMinute);
  for (std::size_t i = 0; i < c.size(); ++i) {
    const auto& cv = c.node(i).coarseView();
    std::unordered_set<NodeId> unique(cv.begin(), cv.end());
    EXPECT_EQ(unique.size(), cv.size());
  }
}

TEST(NodeTest, DiscoversMonitorsMatchingSelector) {
  const AvmonConfig cfg = smallConfig(50);
  Cluster c(50, cfg);
  c.joinAll();
  c.sim().runUntil(30 * kMinute);

  // Every PS/TS entry must satisfy the consistency condition — NOTIFYs are
  // re-verified, so no non-monitor can ever be installed.
  std::size_t psTotal = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const AvmonNode& node = c.node(i);
    for (const NodeId& m : node.pingingSet()) {
      EXPECT_TRUE(c.selector().isMonitor(m, node.id()));
      ++psTotal;
    }
    for (const auto& [t, rec] : node.targetSet()) {
      EXPECT_TRUE(c.selector().isMonitor(node.id(), t));
    }
  }
  EXPECT_GT(psTotal, 0u);  // discovery actually happened
}

TEST(NodeTest, PsAndTsAreInverseRelations) {
  Cluster c(50, smallConfig(50));
  c.joinAll();
  c.sim().runUntil(30 * kMinute);

  // If u ∈ PS(v) was installed at v, then v ∈ TS(u) should (eventually)
  // be installed at u, since NOTIFY goes to both ends. Allow slack for
  // messages in flight at the horizon.
  std::size_t matched = 0, checked = 0;
  for (std::size_t vi = 0; vi < c.size(); ++vi) {
    const AvmonNode& v = c.node(vi);
    for (const NodeId& u : v.pingingSet()) {
      ++checked;
      for (std::size_t ui = 0; ui < c.size(); ++ui) {
        if (c.node(ui).id() == u &&
            c.node(ui).targetSet().count(v.id())) {
          ++matched;
          break;
        }
      }
    }
  }
  ASSERT_GT(checked, 0u);
  EXPECT_GE(static_cast<double>(matched) / static_cast<double>(checked), 0.9);
}

TEST(NodeTest, DiscoveryDelayIsRecordedInOrder) {
  Cluster c(60, smallConfig(60));
  c.joinAll();
  c.sim().runUntil(30 * kMinute);
  for (std::size_t i = 0; i < c.size(); ++i) {
    const AvmonNode& node = c.node(i);
    const auto d1 = node.discoveryDelay(1);
    const auto d2 = node.discoveryDelay(2);
    if (d1 && d2) {
      EXPECT_LE(*d1, *d2);
    }
    if (!d1) {
      EXPECT_FALSE(d2.has_value());
    }
    EXPECT_FALSE(node.discoveryDelay(0).has_value());
    EXPECT_FALSE(node.discoveryDelay(1000).has_value());
  }
}

TEST(NodeTest, DeadNodeEventuallyLeavesCoarseViews) {
  const AvmonConfig cfg = smallConfig(40);
  Cluster c(40, cfg);
  c.joinAll();
  c.sim().runUntil(10 * kMinute);

  const NodeId victim = c.node(0).id();
  c.leave(c.node(0));
  // Theorem 2: after O(cvs·log N) periods the dead entry is gone w.h.p.
  c.sim().runUntil(10 * kMinute + 60 * cfg.protocolPeriod);

  std::size_t holders = 0;
  for (std::size_t i = 1; i < c.size(); ++i) {
    for (const NodeId& n : c.node(i).coarseView()) {
      if (n == victim) ++holders;
    }
  }
  EXPECT_LE(holders, 2u);  // essentially purged
}

TEST(NodeTest, LeaveStopsActivity) {
  Cluster c(30, smallConfig(30));
  c.joinAll();
  c.sim().runUntil(5 * kMinute);
  AvmonNode& n = c.node(0);
  c.leave(n);
  const auto checksAtLeave = n.metrics().hashChecks;
  c.sim().runUntil(15 * kMinute);
  EXPECT_EQ(n.metrics().hashChecks, checksAtLeave);
  EXPECT_FALSE(n.isAlive());
}

TEST(NodeTest, RejoinResumesActivityWithoutDuplicateTimers) {
  const AvmonConfig cfg = smallConfig(30);
  Cluster c(30, cfg);
  c.joinAll();
  c.sim().runUntil(5 * kMinute);

  AvmonNode& n = c.node(0);
  c.leave(n);
  c.sim().runUntil(6 * kMinute);
  c.join(n, false);
  c.sim().runUntil(20 * kMinute);
  EXPECT_TRUE(n.isAlive());

  // With a 10 s protocol period over 14 minutes alive, the node performs
  // ~84 protocol ticks. Duplicate timers would double the CV fetch count.
  EXPECT_LE(n.metrics().cvFetches, 5 * kMinute / cfg.protocolPeriod +
                                       14 * kMinute / cfg.protocolPeriod + 5);
}

TEST(NodeTest, PersistentStateSurvivesLeave) {
  Cluster c(50, smallConfig(50));
  c.joinAll();
  c.sim().runUntil(20 * kMinute);
  AvmonNode& n = c.node(0);
  const auto psBefore = n.pingingSet().size();
  const auto tsBefore = n.targetSet().size();
  c.leave(n);
  c.sim().runUntil(25 * kMinute);
  EXPECT_EQ(n.pingingSet().size(), psBefore);
  EXPECT_EQ(n.targetSet().size(), tsBefore);
}

TEST(NodeTest, MonitoringPingsRecordAvailability) {
  Cluster c(50, smallConfig(50));
  c.joinAll();
  c.sim().runUntil(30 * kMinute);

  // Someone must have monitored someone by now; all targets stayed up, so
  // estimates must be 1.0.
  std::size_t estimates = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    for (const auto& [target, rec] : c.node(i).targetSet()) {
      if (rec.history->sampleCount() == 0) continue;
      EXPECT_DOUBLE_EQ(rec.history->estimate(), 1.0);
      ++estimates;
    }
  }
  EXPECT_GT(estimates, 0u);
}

TEST(NodeTest, AvailabilityEstimateReflectsDowntime) {
  const AvmonConfig cfg = smallConfig(50);
  Cluster c(50, cfg);
  c.joinAll();
  c.sim().runUntil(20 * kMinute);

  // Find a monitored node, take it down for a stretch, and confirm its
  // monitors' estimates drop below 1.
  AvmonNode* target = nullptr;
  AvmonNode* monitor = nullptr;
  for (std::size_t i = 0; i < c.size() && monitor == nullptr; ++i) {
    for (std::size_t j = 0; j < c.size(); ++j) {
      if (c.node(j).targetSet().count(c.node(i).id())) {
        target = &c.node(i);
        monitor = &c.node(j);
        break;
      }
    }
  }
  ASSERT_NE(monitor, nullptr);

  c.leave(*target);
  c.sim().runUntil(25 * kMinute);
  c.join(*target, false);
  c.sim().runUntil(30 * kMinute);

  const auto est = monitor->availabilityEstimateOf(target->id());
  ASSERT_TRUE(est.has_value());
  EXPECT_LT(*est, 1.0);
  EXPECT_GT(*est, 0.3);
}

TEST(NodeTest, OverreporterClaimsFullAvailability) {
  Cluster c(50, smallConfig(50));
  c.joinAll();
  c.sim().runUntil(20 * kMinute);

  for (std::size_t j = 0; j < c.size(); ++j) {
    AvmonNode& monitor = c.node(j);
    if (monitor.targetSet().empty()) continue;
    const NodeId target = monitor.targetSet().begin()->first;
    monitor.setOverreporting(true);
    EXPECT_DOUBLE_EQ(*monitor.availabilityEstimateOf(target), 1.0);
    monitor.setOverreporting(false);
    return;
  }
  FAIL() << "no monitoring relation formed";
}

TEST(NodeTest, ReportMonitorsHonorsPolicyBound) {
  Cluster c(60, smallConfig(60));
  c.joinAll();
  c.sim().runUntil(30 * kMinute);
  for (std::size_t i = 0; i < c.size(); ++i) {
    const AvmonNode& n = c.node(i);
    const auto reported = n.reportMonitors(2);
    EXPECT_LE(reported.size(), 2u);
    // Verifiability: every reported monitor must check out.
    for (const NodeId& m : reported) {
      EXPECT_TRUE(c.selector().isMonitor(m, n.id()));
    }
  }
}

TEST(NodeTest, ForgetfulPingingSuppressesPingsToDeadTargets) {
  AvmonConfig cfg = smallConfig(40);
  cfg.forgetful.enabled = true;
  Cluster c(40, cfg);
  c.joinAll();
  c.sim().runUntil(20 * kMinute);

  // Kill a monitored node for good; monitors should start suppressing.
  AvmonNode* target = nullptr;
  for (std::size_t i = 0; i < c.size() && target == nullptr; ++i) {
    for (std::size_t j = 0; j < c.size(); ++j) {
      if (c.node(j).targetSet().count(c.node(i).id())) {
        target = &c.node(i);
        break;
      }
    }
  }
  ASSERT_NE(target, nullptr);
  c.leave(*target);
  c.sim().runUntil(90 * kMinute);

  std::uint64_t suppressed = 0;
  for (std::size_t j = 0; j < c.size(); ++j) {
    suppressed += c.node(j).metrics().forgetfulSuppressed;
  }
  EXPECT_GT(suppressed, 0u);
}

TEST(NodeTest, AmnesiacRejoinIgnoresPingsFromTheEndedSession) {
  // An amnesiac monitor leaves and rejoins in the instant its monitoring
  // pings went out, and gets its old targets back at once. leave() freed
  // the records the in-flight handlers refer to; the epoch check must turn
  // each handler away before it touches one (ASan flags any touch), so
  // the re-added records count only pings sent after the rejoin.
  const AvmonConfig cfg = smallConfig(50);
  Cluster c(50, cfg);
  c.joinAll();
  c.sim().runUntil(20 * kMinute);
  AvmonNode* m = &c.node(0);
  for (std::size_t i = 1; i < c.size(); ++i) {
    if (c.node(i).targetSet().size() > m->targetSet().size()) m = &c.node(i);
  }
  ASSERT_GE(m->targetSet().size(), 2u);
  m->setAmnesia(true);

  // Step to the event in which m's monitoring tick sends its pings.
  const std::uint64_t before = m->metrics().monitoringPingsSent;
  while (m->metrics().monitoringPingsSent == before) {
    ASSERT_TRUE(c.sim().step());
  }
  std::vector<NodeId> targets;
  for (const auto& [target, rec] : m->targetSet()) targets.push_back(target);
  c.leave(*m);
  EXPECT_TRUE(m->targetSet().empty());
  c.join(*m, false);
  for (const NodeId& target : targets) {
    m->onMessage(target, NotifyMessage{m->id(), target});
  }
  ASSERT_EQ(m->targetSet().size(), targets.size());
  const std::uint64_t sentAtRejoin = m->metrics().monitoringPingsSent;

  // Run a few monitoring periods, then on to a moment with none of m's
  // pings in flight: each settles at most rpcTimeout after it was sent.
  c.sim().runUntil(c.sim().now() + 3 * cfg.monitoringPeriod);
  const SimDuration settle = sim::NetworkConfig{}.rpcTimeout;
  SimTime lastSend = c.sim().now();
  std::uint64_t sent = m->metrics().monitoringPingsSent;
  while (c.sim().now() <= lastSend + settle) {
    ASSERT_TRUE(c.sim().step());
    if (m->metrics().monitoringPingsSent != sent) {
      sent = m->metrics().monitoringPingsSent;
      lastSend = c.sim().now();
    }
  }

  std::uint64_t samples = 0;
  for (const auto& [target, rec] : m->targetSet()) {
    samples += rec.history->sampleCount();
  }
  EXPECT_GT(samples, 0u);
  EXPECT_EQ(samples, m->metrics().monitoringPingsSent - sentAtRejoin);
}

TEST(NodeTest, NonForgetfulKeepsPinging) {
  AvmonConfig cfg = smallConfig(40);
  cfg.forgetful.enabled = false;
  Cluster c(40, cfg);
  c.joinAll();
  c.sim().runUntil(20 * kMinute);
  for (std::size_t j = 0; j < c.size(); ++j) {
    EXPECT_EQ(c.node(j).metrics().forgetfulSuppressed, 0u);
  }
}

TEST(NodeTest, MemoryEntriesIsSumOfSets) {
  Cluster c(40, smallConfig(40));
  c.joinAll();
  c.sim().runUntil(20 * kMinute);
  for (std::size_t i = 0; i < c.size(); ++i) {
    const AvmonNode& n = c.node(i);
    EXPECT_EQ(n.memoryEntries(),
              n.coarseView().size() + n.pingingSet().size() +
                  n.targetSet().size());
  }
}

TEST(NodeTest, HashCheckRateMatchesAnalyticalOrder) {
  // Computation C = O(cvs²) per protocol period: the per-tick check count
  // should be within a small constant of 2·(cvs+2)².
  const AvmonConfig cfg = smallConfig(80);
  Cluster c(80, cfg);
  c.joinAll();
  c.sim().runUntil(30 * kMinute);

  const double ticks = toSeconds(25 * kMinute) /
                       toSeconds(cfg.protocolPeriod);  // conservative floor
  const double bound = 2.0 * static_cast<double>((cfg.cvs + 2) * (cfg.cvs + 2));
  for (std::size_t i = 0; i < c.size(); ++i) {
    const double perTick =
        static_cast<double>(c.node(i).metrics().hashChecks) / ticks;
    EXPECT_LT(perTick, bound * 1.6) << "node " << i;
  }
}

// Answers "no" to every check and records each question in order.
class RecordingSelector final : public MonitorSelector {
 public:
  bool isMonitor(const NodeId& observer, const NodeId& target) const override {
    asked.emplace_back(observer, target);
    return false;
  }
  mutable std::vector<std::pair<NodeId, NodeId>> asked;
};

// A peer that answers pings and serves one fixed coarse view.
class FixedViewPeer final : public sim::Endpoint {
 public:
  explicit FixedViewPeer(std::vector<NodeId> view) : view_(std::move(view)) {}
  void onMessage(const NodeId&, const sim::Message&) override {}
  sim::RpcResponse onRpc(const NodeId&,
                         const sim::RpcRequest& request) override {
    if (std::holds_alternative<sim::CvFetchRequest>(request)) {
      ++fetchesServed;
      return sim::CvFetchResponse{view_};
    }
    return sim::PingResponse{};
  }
  int fetchesServed = 0;

 private:
  std::vector<NodeId> view_;
};

TEST(NodeTest, FetchChecksEachDistinctPairOnce) {
  // x's view is four peers; every peer serves a view that shares two of
  // them with x's, holds x (so x repeats among the columns) and one peer
  // that may be the fetched w itself. The selector must be asked about
  // each unordered cross pair once per orientation, in row-major order
  // of first occurrence, never about a self-pair.
  const AvmonConfig cfg = smallConfig(100);
  sim::Simulator sim;
  sim::Network net(sim, sim::NetworkConfig{}, Rng(3));
  RecordingSelector selector;
  const NodeId x = NodeId::fromIndex(0);
  std::vector<NodeId> peerIds;
  for (std::uint32_t i = 1; i <= 4; ++i) peerIds.push_back(NodeId::fromIndex(i));
  const std::vector<NodeId> served = {peerIds[1], x, NodeId::fromIndex(50),
                                      peerIds[2], NodeId::fromIndex(51),
                                      peerIds[0]};
  std::vector<std::unique_ptr<FixedViewPeer>> peers;
  for (const NodeId& id : peerIds) {
    peers.push_back(std::make_unique<FixedViewPeer>(served));
    net.attach(id, *peers.back());
    net.setUp(id, true);
  }
  AvmonNode node(x, cfg, selector, sim, net,
                 [](const NodeId&) { return NodeId{}; }, Rng(5));
  node.join(true);
  for (const NodeId& id : peerIds) net.send(id, x, JoinMessage{id, 1});

  // Step to the first fetch's completion; the view it checked against is
  // the one held just before (the reshuffle follows the checks).
  std::vector<NodeId> cvAtFetch;
  while (node.metrics().cvFetches == 0) {
    cvAtFetch = node.coarseView();
    ASSERT_LT(sim.now(), 10 * cfg.protocolPeriod);
    ASSERT_TRUE(sim.step());
  }
  ASSERT_EQ(cvAtFetch.size(), peerIds.size());
  NodeId w;
  for (std::size_t i = 0; i < peers.size(); ++i) {
    if (peers[i]->fetchesServed == 1) w = peerIds[i];
  }
  ASSERT_FALSE(w.isNil());

  // (CV(x) ∪ {x,w}) × (CV(w) ∪ {x,w}) as the node lists them; w is
  // already in CV(x).
  std::vector<NodeId> rows = cvAtFetch;
  rows.push_back(x);
  std::vector<NodeId> cols = served;
  cols.push_back(x);
  cols.push_back(w);
  std::vector<std::pair<NodeId, NodeId>> expected;
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const NodeId& u : rows) {
    for (const NodeId& v : cols) {
      if (u == v || !seen.insert(std::minmax(u, v)).second) continue;
      expected.emplace_back(u, v);
      expected.emplace_back(v, u);
    }
  }
  EXPECT_EQ(selector.asked, expected);
  for (const auto& [u, v] : selector.asked) EXPECT_NE(u, v);
  EXPECT_EQ(node.metrics().hashChecks, expected.size());
  // The views overlap, so deduplication had work to do.
  EXPECT_LT(expected.size(), 2 * rows.size() * cols.size() - 2 * 4);
}

TEST(NodeTest, Pr2ReadvertisesUnpingedNodes) {
  AvmonConfig cfg = smallConfig(30);
  cfg.pr2 = true;
  Cluster c(30, cfg);
  c.joinAll();
  c.sim().runUntil(40 * kMinute);
  // PR2 is a liveness optimization: the run must simply work, and nodes
  // with monitors must have received pings (so PR2 force-adds fired or
  // weren't needed). Sanity: system made discoveries.
  std::size_t ps = 0;
  for (std::size_t i = 0; i < c.size(); ++i) ps += c.node(i).pingingSet().size();
  EXPECT_GT(ps, 0u);
}

TEST(NodeTest, IsolatedNodeSurvivesEmptyWorld) {
  // A single node with nobody to bootstrap from must not crash or loop.
  const AvmonConfig cfg = smallConfig(10);
  Cluster c(1, cfg);
  c.join(c.node(0), true);
  c.sim().runUntil(10 * kMinute);
  EXPECT_TRUE(c.node(0).isAlive());
  EXPECT_TRUE(c.node(0).coarseView().empty());
  EXPECT_TRUE(c.node(0).pingingSet().empty());
}

}  // namespace
}  // namespace avmon
