// Million-node memory-diet proof layer: the diet changed the memory
// layout, not the metrics. The golden summary and per-node fingerprints
// are bit-identical at S ∈ {1, 2, 8}, and the CI-scale twin of
// examples/specs/million_node.spec is golden-pinned.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "experiments/scenario.hpp"
#include "experiments/spec.hpp"
#include "golden_hash.hpp"

namespace avmon::experiments {
namespace {

// The memory diet is metric-invisible: summary and per-node fingerprints
// are bit-identical for S ∈ {1, 2, 8} on the pinned STAT workload.
TEST(MillionNodeTest, GoldenFingerprintsIdenticalAcrossShardCounts) {
  const Scenario base = goldenScenarios().front();
  std::optional<std::uint64_t> refSummary, refPerNode;
  for (const unsigned shards : {1u, 2u, 8u}) {
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
      EXPECT_EQ(summary, *refSummary) << "shards=" << shards;
      EXPECT_EQ(perNode, *refPerNode) << "shards=" << shards;
    }
  }
}

// The million-node scenario family, golden-pinned at CI scale. This is
// examples/specs/million_node_smoke.spec built in code — STAT, compact
// histories, cvs/k override, sharded, streaming-only metrics — which
// differs from the full million_node.spec ONLY in n. The full-scale
// fingerprint (0xe68f9db28835e840 at N = 10^6) is reported by
// `bench_sim_core --million` and recorded in BENCH_simcore.json; this
// pin catches any drift in the machinery both specs share.
TEST(MillionNodeTest, MillionNodeSmokeFingerprintPinned) {
  Scenario s;
  s.model = churn::Model::kStat;
  s.stableSize = 20000;
  s.horizon = 3 * kMinute;
  s.warmup = 1 * kMinute;
  s.seed = 1000003;
  s.hashName = "splitmix64";
  s.configOverride = cvsKOverride(s.model, s.stableSize, /*cvs=*/4, /*k=*/1);
  s.shards = 4;
  s.history = "compact";
  s.metrics.window = kMinute;
  s.metrics.reducers = {"summary"};
  ScenarioRunner runner(s);
  runner.run();
  EXPECT_EQ(summaryHash(runner), 0xae92f15b08ba8fbaULL);
  EXPECT_EQ(perNodeHash(runner), 0x524362948a712bd5ULL);
  // The pins cover both window paths: this world's heavy windows run on
  // the worker pool and its light ones on the coordinator alone.
  if (runner.world().workerThreads() > 1) {
    EXPECT_GT(runner.world().poolWindows(), 0u);
    EXPECT_LT(runner.world().poolWindows(), runner.world().windowsRun());
  }
}

}  // namespace
}  // namespace avmon::experiments
