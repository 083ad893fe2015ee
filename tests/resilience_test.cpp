// Failure-injection tests: the paper assumes reliable channels, but a
// robust implementation must degrade gracefully when JOIN/NOTIFY messages
// drop or RPCs time out spuriously — discovery still completes (losses
// are repaired by later gossip rounds), and no invariant breaks.
#include <gtest/gtest.h>

#include "experiments/metrics.hpp"
#include "experiments/scenario.hpp"

namespace avmon::experiments {
namespace {

Scenario lossyScenario(double drop, double rpcFail) {
  Scenario s;
  s.model = churn::Model::kStat;
  s.stableSize = 150;
  s.horizon = 2 * kHour;
  s.warmup = 30 * kMinute;
  s.controlFraction = 0.1;
  s.seed = 77;
  s.hashName = "splitmix64";
  s.messageDropProbability = drop;
  s.rpcFailProbability = rpcFail;
  return s;
}

class LossSweep : public ::testing::TestWithParam<double> {};

TEST_P(LossSweep, DiscoveryStillCompletesUnderMessageLoss) {
  ScenarioRunner runner(lossyScenario(GetParam(), 0.0));
  runner.run();
  // Losses delay NOTIFYs but later rounds re-discover: most control
  // nodes still find a monitor within the run.
  EXPECT_GT(collectMetrics(runner).discoveredFraction, 0.7)
      << "drop=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(DropRates, LossSweep,
                         ::testing::Values(0.05, 0.15, 0.30));

TEST(ResilienceTest, RpcTimeoutsSlowButDontBreakDiscovery) {
  ScenarioRunner runner(lossyScenario(0.0, 0.2));
  runner.run();
  EXPECT_GT(collectMetrics(runner).discoveredFraction, 0.7);
}

TEST(ResilienceTest, InvariantsHoldUnderCombinedFaults) {
  Scenario s = lossyScenario(0.2, 0.2);
  s.model = churn::Model::kSynthBD;  // faults plus churn
  ScenarioRunner runner(s);
  runner.run();

  hash::SplitMix64HashFunction hashFn;
  HashMonitorSelector selector(hashFn, runner.config().k, runner.effectiveN());
  for (const auto& nt : runner.schedule().nodes()) {
    const AvmonNode& node = runner.node(nt.id);
    // Soundness: even under faults, nothing unverified is installed.
    for (const NodeId& m : node.pingingSet()) {
      ASSERT_TRUE(selector.isMonitor(m, node.id()));
    }
    EXPECT_LE(node.coarseView().size(), runner.config().cvs);
  }
}

TEST(ResilienceTest, RpcFaultsDontCorruptCoarseViewBound) {
  // Spurious ping timeouts cause healthy entries to be dropped — views
  // shrink but must recover via shuffling, never exceed cvs, and never
  // contain the node itself.
  Scenario s = lossyScenario(0.0, 0.3);
  ScenarioRunner runner(s);
  runner.run();
  std::size_t nonEmpty = 0;
  for (const auto& nt : runner.schedule().nodes()) {
    const AvmonNode& node = runner.node(nt.id);
    EXPECT_LE(node.coarseView().size(), runner.config().cvs);
    for (const NodeId& n : node.coarseView()) EXPECT_NE(n, node.id());
    nonEmpty += node.coarseView().empty() ? 0 : 1;
  }
  // The overlay survives: the vast majority of nodes keep a live view.
  EXPECT_GT(nonEmpty, runner.schedule().nodes().size() * 8 / 10);
}

TEST(ResilienceTest, LossDegradesGracefullyNotCliff) {
  // Heavier loss should not collapse discovery to zero — check the trend
  // is gradual between 0% and 30% loss.
  double clean = 0, lossy = 0;
  {
    ScenarioRunner runner(lossyScenario(0.0, 0.0));
    runner.run();
    clean = collectMetrics(runner).discoveredFraction;
  }
  {
    ScenarioRunner runner(lossyScenario(0.3, 0.0));
    runner.run();
    lossy = collectMetrics(runner).discoveredFraction;
  }
  EXPECT_GT(clean, 0.9);
  EXPECT_GT(lossy, clean * 0.75);
}

}  // namespace
}  // namespace avmon::experiments
