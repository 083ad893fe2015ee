// System-level property tests: statistical invariants the paper's
// analysis (Sections 4.1, 4.3) promises, checked over full simulated runs
// and parameter sweeps. Multi-run sweeps fan out through the
// ParallelScenarioRunner so that wall time on a multi-core machine is the
// slowest run, not the sum.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "analysis/formulas.hpp"
#include "experiments/metrics.hpp"
#include "experiments/parallel_runner.hpp"
#include "experiments/protocol.hpp"
#include "experiments/scenario.hpp"

namespace avmon::experiments {
namespace {

Scenario propScenario(std::size_t n, std::uint64_t seed) {
  Scenario s;
  s.model = churn::Model::kStat;
  s.stableSize = n;
  s.horizon = 2 * kHour;
  s.warmup = 30 * kMinute;
  s.controlFraction = 0.1;
  s.seed = seed;
  s.hashName = "splitmix64";
  return s;
}

double meanOf(const std::vector<double>& v) {
  double sum = 0;
  for (double d : v) sum += d;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// -- pinging-set size distribution (Section 4.3) ---------------------------

const std::vector<std::size_t>& psSweepSizes() {
  static const std::vector<std::size_t> sizes{100, 300, 600};
  return sizes;
}

class PsSizeSweep : public ::testing::TestWithParam<std::size_t> {
 protected:
  static void SetUpTestSuite() {
    std::vector<Scenario> scenarios;
    for (std::size_t n : psSweepSizes()) {
      Scenario s = propScenario(n, 7);
      s.horizon = 3 * kHour;  // long enough to discover most of each PS
      scenarios.push_back(s);
    }
    runners_ = new std::vector<std::unique_ptr<ScenarioRunner>>(
        ParallelScenarioRunner().runAll(scenarios));
  }

  static void TearDownTestSuite() {
    delete runners_;
    runners_ = nullptr;
  }

  static const ScenarioRunner& runnerFor(std::size_t n) {
    for (std::size_t i = 0; i < psSweepSizes().size(); ++i) {
      if (psSweepSizes()[i] == n) return *(*runners_)[i];
    }
    throw std::logic_error("unknown sweep size");
  }

 private:
  static std::vector<std::unique_ptr<ScenarioRunner>>* runners_;
};

std::vector<std::unique_ptr<ScenarioRunner>>* PsSizeSweep::runners_ = nullptr;

TEST_P(PsSizeSweep, DiscoveredPsSizesApproachKAndStayBounded) {
  const std::size_t n = GetParam();
  const ScenarioRunner& runner = runnerFor(n);

  const unsigned k = runner.config().k;
  double total = 0;
  std::size_t counted = 0, maxPs = 0;
  for (const auto& nt : runner.schedule().nodes()) {
    const auto& node = runner.node(nt.id);
    if (node.memoryEntries() == 0) continue;
    total += static_cast<double>(node.pingingSet().size());
    maxPs = std::max(maxPs, node.pingingSet().size());
    ++counted;
  }
  ASSERT_GT(counted, 0u);
  const double meanPs = total / static_cast<double>(counted);

  // E|PS| = K; discovery is incomplete at any finite time, so expect the
  // mean in a generous band around K.
  EXPECT_GT(meanPs, 0.4 * k) << "N=" << n;
  EXPECT_LT(meanPs, 1.6 * k) << "N=" << n;

  // Balls-and-bins: max |PS| is O(log N) w.h.p. — allow 5x slack over K.
  EXPECT_LE(maxPs, 5 * k) << "N=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, PsSizeSweep,
                         ::testing::Values<std::size_t>(100, 300, 600));

// -- discovery time scaling (Section 4.1) ----------------------------------

TEST(DiscoveryScaling, LargerCvsDiscoversFaster) {
  // E[D] ≈ N/cvs²: quadrupling cvs should cut discovery time hard. Both
  // configurations run concurrently; the collected means merge by index.
  constexpr std::size_t kN = 400;
  std::vector<Scenario> scenarios;
  for (std::size_t cvs : {std::size_t{5}, std::size_t{20}}) {
    Scenario s = propScenario(kN, 11);
    AvmonConfig cfg = AvmonConfig::paperDefaults(kN);
    cfg.cvs = cvs;
    s.configOverride = cfg;
    scenarios.push_back(s);
  }
  const std::vector<double> means = ParallelScenarioRunner().map<double>(
      scenarios, [](ScenarioRunner& runner) {
        const MetricSet rows = collectSamples(runner);
        EXPECT_FALSE(rows.discoverySeconds.empty());
        return meanOf(rows.discoverySeconds);
      });
  ASSERT_EQ(means.size(), 2u);
  EXPECT_LT(means[1], means[0]);  // cvs=20 beats cvs=5
}

TEST(DiscoveryScaling, DiscoveredFractionGrowsWithTime) {
  constexpr std::size_t kN = 300;
  Scenario shortRun = propScenario(kN, 13);
  shortRun.horizon = shortRun.warmup + 2 * kMinute;
  Scenario longRun = propScenario(kN, 13);
  longRun.horizon = longRun.warmup + 60 * kMinute;

  const auto runners =
      ParallelScenarioRunner().runAll({shortRun, longRun});
  // Fraction of the measured set with a third monitor, from the probes.
  const auto thirdMonitorFraction = [](const ScenarioRunner& r) {
    std::size_t found = 0;
    for (const NodeId& id : r.measuredIds()) {
      if (r.protocol().discoveryDelay(id, 3)) ++found;
    }
    return static_cast<double>(found) /
           static_cast<double>(r.measuredIds().size());
  };
  EXPECT_GE(thirdMonitorFraction(*runners[1]),
            thirdMonitorFraction(*runners[0]));
  EXPECT_GT(collectMetrics(*runners[1]).discoveredFraction, 0.9);
}

// -- l-out-of-K supportability (Section 4.3) -------------------------------

TEST(LOutOfK, MostNodesCanReportThreeMonitors) {
  // With K = log2(N) ≈ 9 and enough run time, an "l=3 out of K" policy is
  // satisfiable for the overwhelming majority of nodes.
  Scenario s = propScenario(500, 17);
  s.horizon = 4 * kHour;
  ScenarioRunner runner(s);
  runner.run();

  std::size_t satisfied = 0, total = 0;
  for (const auto& nt : runner.schedule().nodes()) {
    const auto& node = runner.node(nt.id);
    if (node.memoryEntries() == 0) continue;
    ++total;
    satisfied += node.reportMonitors(3).size() == 3 ? 1 : 0;
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(satisfied) / static_cast<double>(total), 0.8);
}

// -- rejoin weight semantics (Figure 1) ------------------------------------

TEST(JoinWeights, QuickRejoinSpreadsFewerJoinsThanBirth) {
  // A node that rejoins after a short downtime sends JOIN with weight
  // min(cvs, downtime/periods) — far fewer coarse-view additions than the
  // full-weight birth JOIN.
  Scenario s = propScenario(300, 19);
  s.model = churn::Model::kSynth;  // natural leaves/rejoins
  s.horizon = 4 * kHour;
  ScenarioRunner runner(s);
  runner.run();

  std::uint64_t received = 0, adds = 0;
  for (const auto& nt : runner.schedule().nodes()) {
    received += runner.node(nt.id).metrics().joinsReceived;
    adds += runner.node(nt.id).metrics().joinAdds;
  }
  // Sanity on the weighted-spread mechanism: adds can never exceed
  // receptions, and both are nonzero in a churned system.
  EXPECT_GT(received, 0u);
  EXPECT_GE(received, adds);
}

// -- forgetful pinging variants ---------------------------------------------

TEST(ForgetfulVariants, EwmaVariantAlsoSuppresses) {
  Scenario s = propScenario(200, 23);
  s.model = churn::Model::kSynthBD;
  s.horizon = 4 * kHour;
  s.forgetful = true;
  s.forgetfulEwma = true;
  ScenarioRunner runner(s);
  runner.run();

  std::uint64_t suppressed = 0;
  for (const auto& nt : runner.schedule().nodes()) {
    suppressed += runner.node(nt.id).metrics().forgetfulSuppressed;
  }
  EXPECT_GT(suppressed, 0u);
}

TEST(ForgetfulVariants, EwmaConfigValidation) {
  AvmonConfig cfg = AvmonConfig::paperDefaults(100);
  cfg.forgetful.ewmaAlpha = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.forgetful.ewmaAlpha = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.forgetful.ewmaAlpha = 1.0;
  EXPECT_NO_THROW(cfg.validate());
}

// -- load balance (property 5) ----------------------------------------------

TEST(LoadBalance, ComputationSpreadIsTight) {
  Scenario s = propScenario(400, 29);
  s.horizon = 2 * kHour;
  ScenarioRunner runner(s);
  runner.run();

  const MetricSet rows = collectSamples(runner);
  const auto& comps = rows.computationsPerSecond;
  ASSERT_GT(comps.size(), 10u);
  const double mean = meanOf(comps);
  ASSERT_GT(mean, 0.0);
  // No measured node does more than 3x the average work.
  for (double c : comps) EXPECT_LT(c, 3.0 * mean);
}

TEST(LoadBalance, NoSelfMonitoringEver) {
  Scenario s = propScenario(300, 31);
  s.model = churn::Model::kSynthBD;
  s.horizon = 3 * kHour;
  ScenarioRunner runner(s);
  runner.run();

  for (const auto& nt : runner.schedule().nodes()) {
    const auto& node = runner.node(nt.id);
    EXPECT_FALSE(node.pingingSet().count(node.id()));
    EXPECT_FALSE(node.targetSet().count(node.id()));
    for (const NodeId& cv : node.coarseView()) EXPECT_NE(cv, node.id());
  }
}

}  // namespace
}  // namespace avmon::experiments
