// The four baseline schemes driven through the shared ScenarioRunner via
// the protocol registry — the paper's head-to-head comparisons (Table 1,
// Sections 5-6) measured by the same harness and MetricSet as AVMON.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "experiments/adversary.hpp"
#include "experiments/metrics.hpp"
#include "experiments/parallel_runner.hpp"
#include "experiments/protocols/central_protocol.hpp"
#include "experiments/scenario.hpp"
#include "golden_hash.hpp"

namespace avmon::experiments {
namespace {

Scenario smallScenario(const std::string& protocol, churn::Model model) {
  Scenario s;
  s.protocol = protocol;
  s.model = model;
  s.stableSize = 100;
  s.horizon = 80 * kMinute;
  s.warmup = 30 * kMinute;
  s.controlFraction = 0.1;
  s.seed = 21;
  s.hashName = "splitmix64";
  return s;
}

/// Availability accuracy of every trace node with a reporting monitor.
std::vector<AvailabilityAccuracy> allNodeAccuracy(const ScenarioRunner& r) {
  std::vector<AvailabilityAccuracy> out;
  for (const auto& nt : r.schedule().nodes()) {
    if (const auto a = alignedAccuracyOf(r.protocol(), nt)) out.push_back(*a);
  }
  return out;
}

// ---- broadcast through the shared runner ----

TEST(BaselinesScenarioTest, BroadcastDiscoveryIsNearInstant) {
  ScenarioRunner runner(smallScenario("broadcast", churn::Model::kStat));
  runner.run();
  const MetricSet set = collectSamples(runner);
  ASSERT_FALSE(set.discoverySeconds.empty());
  for (double d : set.discoverySeconds) EXPECT_LT(d, 1.0);  // one latency
  EXPECT_DOUBLE_EQ(set.discoveredFraction, 1.0);
}

TEST(BaselinesScenarioTest, BroadcastMemoryIsOrderN) {
  ScenarioRunner runner(smallScenario("broadcast", churn::Model::kStat));
  runner.run();
  const auto entries = collectSamples(runner).memoryEntries;
  ASSERT_FALSE(entries.empty());
  double sum = 0;
  for (double e : entries) sum += e;
  // Full membership (~N) plus PS/TS.
  EXPECT_GT(sum / static_cast<double>(entries.size()), 90.0);
}

TEST(BaselinesScenarioTest, BroadcastJoinCostIsOrderNBytes) {
  // warmup = 0 keeps the t = 0 join broadcasts inside the traffic window:
  // node i's presence goes to the i-1 earlier joiners (mean ~N/2 x 10 B),
  // and the whole population joins inside one horizon.
  Scenario s = smallScenario("broadcast", churn::Model::kStat);
  s.warmup = 0;
  ScenarioRunner runner(s);
  runner.run();
  std::uint64_t total = 0;
  for (const auto& nt : runner.schedule().nodes()) {
    total += runner.trafficOf(nt.id).bytesSent;
  }
  // >= N * (N-1)/2 * 10 B of presence traffic.
  EXPECT_GT(total, 100u * 99u / 2u * 10u);
}

TEST(BaselinesScenarioTest, BroadcastSurvivesChurn) {
  ScenarioRunner runner(smallScenario("broadcast", churn::Model::kSynth));
  runner.run();
  EXPECT_GT(runner.world().delivered(), 0u);
  EXPECT_FALSE(collectSamples(runner).discoverySeconds.empty());
}

TEST(BaselinesScenarioTest, BroadcastHashChecksFeedComputationMetric) {
  ScenarioRunner runner(smallScenario("broadcast", churn::Model::kStat));
  runner.run();
  const auto cps = collectSamples(runner).computationsPerSecond;
  ASSERT_FALSE(cps.empty());
  for (double c : cps) EXPECT_GT(c, 0.0);
}

// ---- central through the shared runner ----

TEST(BaselinesScenarioTest, CentralServerCarriesTheLoad) {
  ScenarioRunner runner(smallScenario("central", churn::Model::kStat));
  runner.run();
  // The server is the bandwidth hot spot (O(N) pings per period)...
  std::uint64_t serverBytes = 0, maxMemberBytes = 0;
  runner.protocol().forEachNode([&](const NodeId& id) {
    const std::uint64_t bytes = runner.trafficOf(id).bytesSent;
    if (id == CentralProtocol::kServerId) {
      serverBytes = bytes;
    } else {
      maxMemberBytes = std::max(maxMemberBytes, bytes);
    }
  });
  EXPECT_GT(serverBytes, maxMemberBytes);
  // ...and the memory tail: everyone else holds one entry.
  const auto entries = collectSamples(runner).memoryEntries;
  ASSERT_FALSE(entries.empty());
  const double maxEntries = *std::max_element(entries.begin(), entries.end());
  EXPECT_GE(maxEntries, 100.0);  // the member table
  std::size_t ones = 0;
  for (double e : entries) ones += e == 1.0;
  EXPECT_GE(ones, 99u);  // the members
}

TEST(BaselinesScenarioTest, CentralDiscoversEveryMemberQuickly) {
  ScenarioRunner runner(smallScenario("central", churn::Model::kStat));
  runner.run();
  const MetricSet set = collectSamples(runner);
  EXPECT_DOUBLE_EQ(set.discoveredFraction, 1.0);
  for (double d : set.discoverySeconds) {
    EXPECT_LT(d, 1.0);  // one registration message latency
  }
}

TEST(BaselinesScenarioTest, CentralAccuracyIsExactOnStat) {
  ScenarioRunner runner(smallScenario("central", churn::Model::kStat));
  runner.run();
  const auto acc = collectSamples(runner).accuracy;
  ASSERT_FALSE(acc.empty());
  for (const auto& a : acc) {
    EXPECT_DOUBLE_EQ(a.estimated, 1.0) << a.id.toString();
    EXPECT_DOUBLE_EQ(a.actual, 1.0) << a.id.toString();
    EXPECT_EQ(a.reporters, 1u);  // PS(x) = {server}
  }
}

TEST(BaselinesScenarioTest, CentralCountsUselessPingsUnderChurn) {
  ScenarioRunner runner(smallScenario("central", churn::Model::kSynth));
  runner.run();
  // The server keeps pinging down/departed registrants: useless pings
  // land on exactly one node (the server).
  const auto upm = collectSamples(runner).uselessPingsPerMinute;
  ASSERT_EQ(upm.size(), 1u);
  EXPECT_GT(upm[0], 0.0);
}

// ---- self-report through the shared runner ----

TEST(BaselinesScenarioTest, SelfReportDiscoveryIsFreeAndMemoryIsOne) {
  ScenarioRunner runner(smallScenario("self_report", churn::Model::kStat));
  runner.run();
  const MetricSet set = collectSamples(runner);
  EXPECT_DOUBLE_EQ(set.discoveredFraction, 1.0);
  for (double d : set.discoverySeconds) EXPECT_DOUBLE_EQ(d, 0.0);
  for (double e : set.memoryEntries) EXPECT_DOUBLE_EQ(e, 1.0);
  // No protocol messages at all.
  EXPECT_EQ(runner.world().delivered(), 0u);
}

TEST(BaselinesScenarioTest, SelfReportHonestNodesAreExact) {
  ScenarioRunner runner(smallScenario("self_report", churn::Model::kSynth));
  runner.run();
  const auto acc = allNodeAccuracy(runner);
  ASSERT_FALSE(acc.empty());
  for (const auto& a : acc) {
    EXPECT_NEAR(a.estimated, a.actual, 1e-9) << a.id.toString();
  }
}

TEST(BaselinesScenarioTest, SelfReportSelfishNodesLieUndetectably) {
  // The scheme's failure mode: overreporters claim 100% and nothing in
  // the system can contradict them (contrast with AVMON's Figure 20).
  Scenario s = smallScenario("self_report", churn::Model::kSynth);
  s.overreportFraction = 0.5;
  ScenarioRunner runner(s);
  runner.run();
  const auto acc = allNodeAccuracy(runner);
  ASSERT_FALSE(acc.empty());
  std::size_t liars = 0;
  for (const auto& a : acc) {
    if (a.estimated == 1.0 && a.actual < 0.999) ++liars;
  }
  EXPECT_GT(liars, 0u);
}

// ---- DHT ring through the shared runner ----

TEST(BaselinesScenarioTest, DhtRingDiscoversReplicaSets) {
  ScenarioRunner runner(smallScenario("dht_ring", churn::Model::kStat));
  runner.run();
  const MetricSet set = collectSamples(runner);
  EXPECT_DOUBLE_EQ(set.discoveredFraction, 1.0);
  // The selection layer is omniscient: discovery is instantaneous once
  // the ring has members.
  for (double d : set.discoverySeconds) EXPECT_DOUBLE_EQ(d, 0.0);
  // K-th monitor too (K = log2 100 = 7 successors exist at N = 100).
  std::size_t kthFound = 0;
  for (const NodeId& id : runner.measuredIds()) {
    if (runner.protocol().discoveryDelay(id, runner.config().k)) ++kthFound;
  }
  EXPECT_GT(kthFound, 0u);
}

TEST(BaselinesScenarioTest, DhtRingMemoryIsPsPlusTs) {
  ScenarioRunner runner(smallScenario("dht_ring", churn::Model::kStat));
  runner.run();
  const auto entries = collectSamples(runner).memoryEntries;
  ASSERT_FALSE(entries.empty());
  double sum = 0;
  for (double e : entries) sum += e;
  // ~K successors + ~K nodes it serves as replica for.
  const double mean = sum / static_cast<double>(entries.size());
  EXPECT_GT(mean, static_cast<double>(runner.config().k));
  EXPECT_LT(mean, 4.0 * static_cast<double>(runner.config().k));
}

// ---- the head-to-head path itself ----

TEST(BaselinesScenarioTest, AllFiveProtocolsOneComparisonTable) {
  // The acceptance shape of the redesign: every registered protocol runs
  // the same workload through the same runner, snapshots into the same
  // MetricSet, and one writer prints one comparison table.
  std::vector<Scenario> scenarios;
  for (const char* protocol :
       {"avmon", "broadcast", "central", "dht_ring", "self_report"}) {
    Scenario s = smallScenario(protocol, churn::Model::kStat);
    s.stableSize = 60;
    s.horizon = 60 * kMinute;
    s.warmup = 20 * kMinute;
    scenarios.push_back(s);
  }
  const auto metricSets = ParallelScenarioRunner(2).map<MetricSet>(
      scenarios, [](ScenarioRunner& runner) { return collectSamples(runner); });
  ASSERT_EQ(metricSets.size(), 5u);

  for (const MetricSet& set : metricSets) {
    EXPECT_FALSE(set.memoryEntries.empty()) << set.protocol;
    // Same trace everywhere: 60 stable + 6 control nodes, one row each.
    EXPECT_EQ(set.perNode.size(), 66u) << set.protocol;
  }
  std::ostringstream out;
  printSummaryTables(metricSets, out);

  const std::string table = out.str();
  EXPECT_NE(table.find("protocol comparison"), std::string::npos);
  for (const char* protocol :
       {"avmon", "broadcast", "central", "dht_ring", "self_report"}) {
    EXPECT_NE(table.find(protocol), std::string::npos) << protocol;
  }
}

TEST(BaselinesScenarioTest, NodeProbeIsAvmonOnly) {
  ScenarioRunner runner(smallScenario("self_report", churn::Model::kStat));
  runner.run();
  EXPECT_THROW(runner.node(runner.measuredIds().front()), std::logic_error);
}

TEST(BaselinesScenarioTest, BaselinesRejectSharding) {
  Scenario s = smallScenario("central", churn::Model::kStat);
  s.shards = 2;
  EXPECT_THROW(ScenarioRunner{s}, std::invalid_argument);
}

TEST(BaselinesScenarioTest, PoolShardOverrideClampsToProtocolLimit) {
  // One shardsPerScenario override across a mixed sweep: AVMON worlds
  // shard, single-shard baselines are clamped instead of rejected.
  std::vector<Scenario> scenarios;
  for (const char* protocol : {"avmon", "broadcast"}) {
    Scenario s = smallScenario(protocol, churn::Model::kStat);
    s.stableSize = 40;
    s.horizon = 40 * kMinute;
    s.warmup = 15 * kMinute;
    scenarios.push_back(s);
  }
  const auto runners =
      ParallelScenarioRunner(2, /*shardsPerScenario=*/2).runAll(scenarios);
  ASSERT_EQ(runners.size(), 2u);
  EXPECT_EQ(runners[0]->world().shardCount(), 2u);  // avmon sharded
  EXPECT_EQ(runners[1]->world().shardCount(), 1u);  // broadcast clamped
}

// Baseline determinism pins: each scheme on the three golden workloads,
// fingerprinted through the summary metrics and the protocol-generic
// per-node probes (golden_hash.hpp). Values were captured before the
// baseline classes were folded into their protocols and must survive any
// refactor of the schemes bit-for-bit.
struct BaselineGolden {
  const char* protocol;
  std::uint64_t summary[3];
  std::uint64_t perNode[3];
};

const char* const kGoldenWorkloads[] = {"STAT", "SYNTH-BD", "SYNTH+drop"};

const BaselineGolden kBaselineGoldens[] = {
    {"broadcast",
     {0xe8411a283a274776ULL, 0x4e8367143485856dULL, 0x0fed68b36e1f4fffULL},
     {0x6fe8049b023ad1b3ULL, 0x2debca2fc1c16a95ULL, 0x2f71edb698ca534bULL}},
    {"central",
     {0x32cb64792d667060ULL, 0xa16435aa5fe3d888ULL, 0xd3cec04e43fee7cbULL},
     {0xc4b0fd9c1458a3deULL, 0xc5210f87c342ec1eULL, 0x0eb6f66bf98b46beULL}},
    {"dht_ring",
     {0xdb4f82fbefec44f6ULL, 0x133a0a3d8b53d838ULL, 0xe823d0d90c2cf4c9ULL},
     {0x56efae64c702397bULL, 0xa95557910cb10efaULL, 0x359d8ea904198093ULL}},
    {"self_report",
     {0xc02f462cbf0be6aeULL, 0x78fe48c837cd5c82ULL, 0xf1b3297d14d9a315ULL},
     {0xf51b1a84186e6933ULL, 0xb9d7441b88c1aa4cULL, 0x52ee119ae87b56f3ULL}},
};

/// Every baseline on every golden workload (protocol-major order), run
/// once and shared by the tests below.
const std::vector<std::unique_ptr<ScenarioRunner>>& baselineGoldenRuns() {
  static const auto runners = [] {
    std::vector<Scenario> scenarios;
    for (const BaselineGolden& golden : kBaselineGoldens) {
      for (Scenario s : goldenScenarios()) {
        s.protocol = golden.protocol;
        scenarios.push_back(s);
      }
    }
    return ParallelScenarioRunner().runAll(scenarios);
  }();
  return runners;
}

TEST(BaselinesScenarioTest, SeededBaselineRunsMatchGoldenHashes) {
  const auto& runners = baselineGoldenRuns();
  ASSERT_EQ(runners.size(), 12u);
  for (std::size_t p = 0; p < 4; ++p) {
    for (std::size_t w = 0; w < 3; ++w) {
      const ScenarioRunner& runner = *runners[3 * p + w];
      EXPECT_EQ(summaryHash(runner), kBaselineGoldens[p].summary[w])
          << kBaselineGoldens[p].protocol << " " << kGoldenWorkloads[w]
          << " summary metrics drifted";
      EXPECT_EQ(protocolNodeHash(runner), kBaselineGoldens[p].perNode[w])
          << kBaselineGoldens[p].protocol << " " << kGoldenWorkloads[w]
          << " per-node metrics drifted";
    }
  }
}

TEST(BaselinesScenarioTest, BaselinesStreamTheSamplesOfTheirRows) {
  // The streamed summary of every baseline holds exactly the samples of
  // collectSamples' rows: each metric's count, min and max, plus the
  // discovered fraction recounted from the protocol probes.
  const auto expectMatches = [](const streaming::StreamedMetric& m,
                                const std::vector<double>& samples,
                                const std::string& what) {
    ASSERT_EQ(m.stats.count(), samples.size()) << what;
    if (samples.empty()) return;
    const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
    EXPECT_EQ(m.stats.min(), *lo) << what;
    EXPECT_EQ(m.stats.max(), *hi) << what;
  };
  const auto& runners = baselineGoldenRuns();
  ASSERT_EQ(runners.size(), 12u);
  for (std::size_t i = 0; i < runners.size(); ++i) {
    const ScenarioRunner& runner = *runners[i];
    const std::string run = std::string(kBaselineGoldens[i / 3].protocol) +
                            " " + kGoldenWorkloads[i % 3];
    const MetricSet set = collectSamples(runner);
    const streaming::StreamedSummary& s = set.summary();
    expectMatches(s.discoverySeconds, set.discoverySeconds, run + " discovery");
    expectMatches(s.memoryEntries, set.memoryEntries, run + " memory");
    expectMatches(s.outgoingBytesPerSecond, set.outgoingBytesPerSecond,
                  run + " bandwidth");
    expectMatches(s.uselessPingsPerMinute, set.uselessPingsPerMinute,
                  run + " useless pings");
    expectMatches(s.computationsPerSecond, set.computationsPerSecond,
                  run + " computations");
    std::vector<double> absErrors;
    for (const auto& a : set.accuracy) {
      absErrors.push_back(std::fabs(a.estimated - a.actual));
    }
    expectMatches(s.accuracyAbsError, absErrors, run + " accuracy");
    EXPECT_EQ(set.discoveredFraction, discoveredFractionOf(runner)) << run;
  }
}

TEST(BaselinesScenarioTest, BaselinesDiscoverUnderChurn) {
  // Every baseline discovers monitors under churn at one shard — the
  // central scheme's synchronous ping sweep and the broadcast one-way
  // traffic ride the same transport as AVMON's async exchanges.
  for (const char* protocol :
       {"broadcast", "central", "dht_ring", "self_report"}) {
    Scenario s = smallScenario(protocol, churn::Model::kSynth);
    s.stableSize = 40;
    s.horizon = 45 * kMinute;
    s.warmup = 15 * kMinute;
    ScenarioRunner runner(s);
    runner.run();
    EXPECT_GE(collectMetrics(runner).discoveredFraction, 0.5) << protocol;
  }
}

}  // namespace
}  // namespace avmon::experiments
