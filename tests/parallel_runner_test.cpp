// ParallelScenarioRunner: deterministic fan-out of scenario runs across a
// worker pool — results must merge in input order and be bit-identical
// regardless of thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <vector>

#include "experiments/parallel_runner.hpp"
#include "experiments/scenario.hpp"
#include "golden_hash.hpp"

namespace avmon::experiments {
namespace {

Scenario tiny(churn::Model model, std::uint64_t seed, std::size_t n = 80) {
  Scenario s;
  s.model = model;
  s.stableSize = n;
  s.horizon = 45 * kMinute;
  s.warmup = 15 * kMinute;
  s.controlFraction = 0.1;
  s.seed = seed;
  s.hashName = "splitmix64";
  return s;
}

TEST(ParallelForIndexTest, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 100;
  std::vector<std::atomic<int>> hits(kCount);
  for (auto& h : hits) h.store(0);
  parallelForIndex(kCount, 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForIndexTest, ZeroCountIsANoop) {
  bool touched = false;
  parallelForIndex(0, 4, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelForIndexTest, PropagatesTheFirstException) {
  EXPECT_THROW(
      parallelForIndex(8, 4,
                       [](std::size_t i) {
                         if (i % 2 == 1) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
}

TEST(ParallelForIndexTest, SerialPathPropagatesToo) {
  EXPECT_THROW(parallelForIndex(3, 1,
                                [](std::size_t i) {
                                  if (i == 2) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
}

TEST(ParallelScenarioRunnerTest, RunAllPreservesInputOrder) {
  // Three different system sizes: each completed runner must sit at the
  // index of the scenario that produced it.
  const std::vector<Scenario> scenarios = {
      tiny(churn::Model::kStat, 1, 60), tiny(churn::Model::kStat, 2, 90),
      tiny(churn::Model::kStat, 3, 120)};
  const auto runners = ParallelScenarioRunner(3).runAll(scenarios);
  ASSERT_EQ(runners.size(), 3u);
  EXPECT_EQ(runners[0]->effectiveN(), 60u);
  EXPECT_EQ(runners[1]->effectiveN(), 90u);
  EXPECT_EQ(runners[2]->effectiveN(), 120u);
  for (const auto& r : runners) {
    EXPECT_GT(collectMetrics(*r).discoveredFraction, 0.0);
  }
}

TEST(ParallelScenarioRunnerTest, ResultsIndependentOfThreadCount) {
  // The determinism contract of the pool: worker count and scheduling must
  // not leak into results. Fingerprints cover every metric the harness
  // reports, per node.
  const std::vector<Scenario> scenarios = {
      tiny(churn::Model::kStat, 5), tiny(churn::Model::kSynth, 6),
      tiny(churn::Model::kSynthBD, 7), tiny(churn::Model::kSynth, 8)};
  const auto fingerprint = [](ScenarioRunner& r) {
    return std::pair<std::uint64_t, std::uint64_t>(summaryHash(r),
                                                   perNodeHash(r));
  };
  using Prints = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  const Prints serial =
      ParallelScenarioRunner(1).map<std::pair<std::uint64_t, std::uint64_t>>(
          scenarios, fingerprint);
  const Prints pooled =
      ParallelScenarioRunner(4).map<std::pair<std::uint64_t, std::uint64_t>>(
          scenarios, fingerprint);
  EXPECT_EQ(serial, pooled);
}

TEST(ParallelScenarioRunnerTest, MapCollectsInInputOrder) {
  const std::vector<Scenario> scenarios = {tiny(churn::Model::kStat, 1, 50),
                                           tiny(churn::Model::kStat, 1, 100)};
  const auto sizes = ParallelScenarioRunner().map<std::size_t>(
      scenarios,
      [](ScenarioRunner& r) { return r.schedule().nodes().size(); });
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_LT(sizes[0], sizes[1]);
}

TEST(ParallelScenarioRunnerTest, ConstructionFailurePropagates) {
  // An invalid protocol configuration throws inside the worker; the pool
  // must surface it to the caller.
  Scenario bad = tiny(churn::Model::kStat, 1);
  AvmonConfig cfg = AvmonConfig::paperDefaults(80);
  cfg.k = 0;  // invalid: K must be positive
  bad.configOverride = cfg;
  ParallelScenarioRunner pool(2);
  EXPECT_THROW(pool.runAll({tiny(churn::Model::kStat, 2), bad}),
               std::invalid_argument);
}

}  // namespace
}  // namespace avmon::experiments
