// Integration tests: full scenarios through the experiment harness,
// checking the headline behaviours the paper's evaluation reports.
//
// Every world these tests assert on is built once in SetUpTestSuite via
// the ParallelScenarioRunner (one Simulator + Network + RNG per worker;
// results land in input order), so the suite's wall time on a multi-core
// machine is the slowest single scenario instead of the sum of all.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "experiments/adversary.hpp"
#include "experiments/metrics.hpp"
#include "experiments/parallel_runner.hpp"
#include "experiments/scenario.hpp"

namespace avmon::experiments {
namespace {

Scenario baseScenario(churn::Model model, std::size_t n) {
  Scenario s;
  s.model = model;
  s.stableSize = n;
  s.horizon = 90 * kMinute;
  s.warmup = 30 * kMinute;
  s.controlFraction = 0.1;
  s.seed = 42;
  s.hashName = "splitmix64";  // fast; selection shape is hash-agnostic
  return s;
}

// Index of each prebuilt, completed run in the suite's shared batch.
enum RunTag : std::size_t {
  kStat150,
  kSynth150,
  kStat200,
  kSynth120,
  kForgetfulOn,
  kForgetfulOff,
  kSynth150Long,
  kOverreport,
  kStat60,
  kSynth100A,
  kSynth100B,  // identical twin of kSynth100A for the determinism check
  kPlanetLab,
  kOvernet,
  kStat100Pr2,
  kRunCount,
};

std::vector<Scenario> allScenarios() {
  std::vector<Scenario> s(kRunCount);
  s[kStat150] = baseScenario(churn::Model::kStat, 150);
  s[kSynth150] = baseScenario(churn::Model::kSynth, 150);
  s[kStat200] = baseScenario(churn::Model::kStat, 200);
  s[kSynth120] = baseScenario(churn::Model::kSynth, 120);

  s[kForgetfulOn] = baseScenario(churn::Model::kSynthBD, 150);
  s[kForgetfulOn].horizon = 3 * kHour;
  s[kForgetfulOn].forgetful = true;
  s[kForgetfulOff] = s[kForgetfulOn];
  s[kForgetfulOff].forgetful = false;

  s[kSynth150Long] = baseScenario(churn::Model::kSynth, 150);
  s[kSynth150Long].horizon = 4 * kHour;
  s[kSynth150Long].forgetful = false;

  s[kOverreport] = baseScenario(churn::Model::kSynth, 200);
  s[kOverreport].horizon = 3 * kHour;
  s[kOverreport].overreportFraction = 0.1;
  s[kOverreport].forgetful = false;

  s[kStat60] = baseScenario(churn::Model::kStat, 60);
  s[kSynth100A] = baseScenario(churn::Model::kSynth, 100);
  s[kSynth100B] = s[kSynth100A];

  s[kPlanetLab] = baseScenario(churn::Model::kPlanetLab, 0);
  s[kPlanetLab].horizon = 2 * kHour;
  s[kOvernet] = baseScenario(churn::Model::kOvernet, 0);
  s[kOvernet].horizon = 2 * kHour;

  s[kStat100Pr2] = baseScenario(churn::Model::kStat, 100);
  s[kStat100Pr2].pr2 = true;
  return s;
}

class ScenarioTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Pool capped at 4 to match the suite's PROCESSORS declaration in
    // tests/CMakeLists.txt, so `ctest -j` can pack the schedule honestly.
    runners_ = new std::vector<std::unique_ptr<ScenarioRunner>>(
        ParallelScenarioRunner(4).runAll(allScenarios()));
    samples_ = new std::vector<MetricSet>();
    for (const auto& r : *runners_) samples_->push_back(collectSamples(*r));
  }

  static void TearDownTestSuite() {
    delete runners_;
    runners_ = nullptr;
    delete samples_;
    samples_ = nullptr;
  }

  static ScenarioRunner& runner(RunTag which) { return *(*runners_)[which]; }

  /// The run's MetricSet with its per-sample rows.
  static const MetricSet& samples(RunTag which) { return (*samples_)[which]; }

 private:
  static std::vector<std::unique_ptr<ScenarioRunner>>* runners_;
  static std::vector<MetricSet>* samples_;
};

std::vector<std::unique_ptr<ScenarioRunner>>* ScenarioTest::runners_ = nullptr;
std::vector<MetricSet>* ScenarioTest::samples_ = nullptr;

TEST_F(ScenarioTest, StatDiscoveryIsFast) {
  // Paper Figure 3: average discovery of the first monitor stays below one
  // protocol period (1 minute).
  const auto& delays = samples(kStat150).discoverySeconds;
  ASSERT_FALSE(delays.empty());
  double sum = 0;
  for (double d : delays) sum += d;
  EXPECT_LT(sum / static_cast<double>(delays.size()), 150.0);
  EXPECT_GT(samples(kStat150).discoveredFraction, 0.85);
}

TEST_F(ScenarioTest, ControlGroupIsTenPercent) {
  // Construction-only probe (the measured set exists before run()).
  ScenarioRunner fresh(baseScenario(churn::Model::kStat, 150));
  EXPECT_EQ(fresh.measuredIds().size(), 15u);
}

TEST_F(ScenarioTest, SynthDiscoveryUnaffectedByChurn) {
  EXPECT_GT(samples(kSynth150).discoveredFraction, 0.8);
}

TEST_F(ScenarioTest, SynthBDMeasuresNodesBornAfterWarmup) {
  Scenario s = baseScenario(churn::Model::kSynthBD, 200);
  s.horizon = 3 * kHour;
  ScenarioRunner fresh(s);
  for (const NodeId& id : fresh.measuredIds()) {
    bool found = false;
    for (const auto& nt : fresh.schedule().nodes()) {
      if (nt.id == id) {
        EXPECT_GE(nt.birth, s.warmup);
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST_F(ScenarioTest, MemoryStaysNearExpectedValue) {
  // Paper Figure 9: |CV|+|PS|+|TS| ≈ cvs + 2K.
  const auto& cfg = runner(kStat200).config();
  const double expected =
      static_cast<double>(cfg.cvs) + 2.0 * static_cast<double>(cfg.k);
  const auto& entries = samples(kStat200).memoryEntries;
  ASSERT_FALSE(entries.empty());
  double sum = 0;
  for (double e : entries) sum += e;
  const double mean = sum / static_cast<double>(entries.size());
  EXPECT_GT(mean, expected * 0.5);
  EXPECT_LT(mean, expected * 1.5);
}

TEST_F(ScenarioTest, ComputationRateMatchesAnalyticalOrder) {
  // Paper Figure 7: per-minute checks close to 2·cvs²; per second that is
  // 2·cvs²/60.
  const auto& cfg = runner(kStat200).config();
  const double perSecond =
      2.0 * static_cast<double>(cfg.cvs * cfg.cvs) / 60.0;
  for (double c : samples(kStat200).computationsPerSecond) {
    EXPECT_LT(c, perSecond * 2.5);
  }
}

TEST_F(ScenarioTest, EveryInstalledMonitorSatisfiesTheCondition) {
  // System-wide soundness: the runner's nodes never install an unverified
  // monitor, under churn included.
  const ScenarioRunner& r = runner(kSynth120);
  hash::SplitMix64HashFunction hashFn;
  HashMonitorSelector selector(hashFn, r.config().k, r.effectiveN());
  for (const auto& nt : r.schedule().nodes()) {
    const AvmonNode& node = r.node(nt.id);
    for (const NodeId& m : node.pingingSet()) {
      EXPECT_TRUE(selector.isMonitor(m, node.id()));
    }
  }
}

TEST_F(ScenarioTest, ForgetfulReducesUselessPings) {
  const auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  // Paper Figure 18: forgetful pinging reduces useless pings sharply.
  EXPECT_LT(mean(samples(kForgetfulOn).uselessPingsPerMinute),
            mean(samples(kForgetfulOff).uselessPingsPerMinute));
}

TEST_F(ScenarioTest, AvailabilityEstimatesTrackTruthWithoutForgetting) {
  // Paper Figure 17: non-forgetful estimation is accurate.
  const auto& acc = samples(kSynth150Long).accuracy;
  ASSERT_FALSE(acc.empty());
  double err = 0;
  for (const auto& a : acc) err += std::abs(a.estimated - a.actual);
  EXPECT_LT(err / static_cast<double>(acc.size()), 0.15);
}

TEST_F(ScenarioTest, OverreportersSkewOnlyFewNodes) {
  // Paper Figure 20: the fraction of nodes whose PS-averaged estimate is
  // off by > 0.2 stays small even with 10% attackers.
  const ScenarioRunner& r = runner(kOverreport);
  std::size_t reported = 0, affected = 0;
  for (const auto& nt : r.schedule().nodes()) {
    const auto a = alignedAccuracyOf(r.protocol(), nt);
    if (!a) continue;
    ++reported;
    if (std::abs(a->estimated - a->actual) > 0.2) ++affected;
  }
  ASSERT_GT(reported, 0u);
  EXPECT_LT(static_cast<double>(affected) / static_cast<double>(reported),
            0.25);
}

TEST_F(ScenarioTest, BandwidthIsModest) {
  // Paper Section 5.1: ~(K+cvs)·8B per minute per node, plus NOTIFYs.
  const auto& bps = samples(kStat200).outgoingBytesPerSecond;
  ASSERT_FALSE(bps.empty());
  for (double b : bps) {
    EXPECT_LT(b, 200.0);  // far below even dial-up; sanity ceiling
  }
}

TEST_F(ScenarioTest, RunTwiceThrows) {
  // The batch already ran this world; a second run() must refuse.
  EXPECT_THROW(runner(kStat60).run(), std::logic_error);
}

TEST_F(ScenarioTest, DeterministicAcrossRuns) {
  // The twin runs executed on (potentially) different pool workers; same
  // seed must still mean the same world.
  EXPECT_EQ(samples(kSynth100A).discoverySeconds,
            samples(kSynth100B).discoverySeconds);
  EXPECT_EQ(samples(kSynth100A).memoryEntries,
            samples(kSynth100B).memoryEntries);
}

TEST_F(ScenarioTest, TraceModelsRunEndToEnd) {
  EXPECT_GT(samples(kPlanetLab).discoveredFraction, 0.5)
      << churn::modelName(churn::Model::kPlanetLab);
  EXPECT_GT(samples(kOvernet).discoveredFraction, 0.5)
      << churn::modelName(churn::Model::kOvernet);
}

TEST_F(ScenarioTest, Pr2VariantRuns) {
  EXPECT_GT(samples(kStat100Pr2).discoveredFraction, 0.8);
}

}  // namespace
}  // namespace avmon::experiments
