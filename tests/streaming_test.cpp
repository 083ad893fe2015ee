// Streaming metrics pipeline: sketch-algebra properties (exactness,
// associativity, partition independence), the quantile rank-error bound,
// the summary-vs-rows regression — the streamed summary agrees exactly
// with collectSamples' rows and is bit-identical across every shard count
// on the golden workloads — and the window rows: their columns follow the
// spec's metric-group order, and their traffic adds up to the post-warm-up
// traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "experiments/metrics.hpp"
#include "experiments/parallel_runner.hpp"
#include "experiments/scenario.hpp"
#include "experiments/streaming/collector.hpp"
#include "experiments/streaming/exact_sum.hpp"
#include "experiments/streaming/online_stats.hpp"
#include "experiments/streaming/quantile_sketch.hpp"
#include "golden_hash.hpp"
#include "stats/cdf.hpp"

namespace avmon::experiments::streaming {
namespace {

// ---------------------------------------------------------------- ExactSum

TEST(ExactSumTest, MatchesIntegerScaledReference) {
  // Samples of the form k * 2^-20 sum exactly in 64-bit integer space, so
  // the accumulated value has a closed-form exact answer to compare with.
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::int64_t> coeff(-(std::int64_t{1} << 36),
                                                    std::int64_t{1} << 36);
  ExactSum sum;
  std::int64_t exact = 0;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t k = coeff(rng);
    exact += k;
    sum.add(std::ldexp(static_cast<double>(k), -20));
  }
  EXPECT_EQ(sum.value(), std::ldexp(static_cast<double>(exact), -20));
}

TEST(ExactSumTest, SurvivesCatastrophicCancellation) {
  // A naive (or Kahan) accumulator loses the 1.0 entirely.
  ExactSum sum;
  sum.add(1.0);
  sum.add(1e308);
  sum.add(-1e308);
  EXPECT_EQ(sum.value(), 1.0);

  ExactSum tiny;
  tiny.add(1e16);
  tiny.add(1.0);
  tiny.add(-1e16);
  EXPECT_EQ(tiny.value(), 1.0);
}

TEST(ExactSumTest, RepresentsSubnormalsExactly) {
  const double d = std::numeric_limits<double>::denorm_min();
  ExactSum sum;
  sum.add(d);
  sum.add(d);
  sum.add(d);
  EXPECT_EQ(sum.value(), std::ldexp(3.0, -1074));
}

TEST(ExactSumTest, OrderAndPartitionIndependent) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> mag(-1e6, 1e6);
  std::vector<double> samples(500);
  for (double& s : samples) s = mag(rng) * std::exp2(static_cast<int>(rng() % 40) - 20);

  ExactSum sequential;
  for (double s : samples) sequential.add(s);

  for (int trial = 0; trial < 10; ++trial) {
    std::shuffle(samples.begin(), samples.end(), rng);
    // Random partition into up to 8 sub-accumulators, merged in order.
    std::vector<ExactSum> parts(1 + rng() % 8);
    for (double s : samples) parts[rng() % parts.size()].add(s);
    ExactSum merged;
    for (const ExactSum& p : parts) merged.merge(p);
    EXPECT_TRUE(merged == sequential) << "trial " << trial;
    EXPECT_EQ(merged.value(), sequential.value());
  }
}

TEST(ExactSumTest, NonFiniteInputPoisons) {
  ExactSum sum;
  sum.add(1.0);
  sum.add(std::numeric_limits<double>::infinity());
  EXPECT_TRUE(sum.nonFinite());
  EXPECT_TRUE(std::isnan(sum.value()));

  // Poison propagates through merge.
  ExactSum clean;
  clean.add(2.0);
  clean.merge(sum);
  EXPECT_TRUE(clean.nonFinite());
}

// ------------------------------------------------------------- OnlineStats

TEST(OnlineStatsTest, MatchesDirectFormulas) {
  OnlineStats stats;
  for (double x : {1.0, 2.0, 3.0, 4.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_EQ(stats.min(), 1.0);
  EXPECT_EQ(stats.max(), 4.0);
  EXPECT_EQ(stats.mean(), 2.5);
  // Sample variance via the documented (Σx² - (Σx)²/n) / (n-1) — every
  // intermediate is exactly representable for these inputs.
  EXPECT_DOUBLE_EQ(stats.variance(), (30.0 - 100.0 / 4) / 3);
  EXPECT_DOUBLE_EQ(stats.stddev(), std::sqrt((30.0 - 100.0 / 4) / 3));
}

TEST(OnlineStatsTest, EmptyIsAllZero) {
  const OnlineStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.min(), 0.0);
  EXPECT_EQ(stats.max(), 0.0);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(OnlineStatsTest, MergePartitionIndependent) {
  std::mt19937_64 rng(13);
  std::lognormal_distribution<double> dist(0.0, 2.0);
  std::vector<double> samples(400);
  for (double& s : samples) s = dist(rng);

  OnlineStats sequential;
  for (double s : samples) sequential.add(s);

  for (int trial = 0; trial < 10; ++trial) {
    std::shuffle(samples.begin(), samples.end(), rng);
    std::vector<OnlineStats> parts(1 + rng() % 8);
    for (double s : samples) parts[rng() % parts.size()].add(s);
    OnlineStats merged;
    for (const OnlineStats& p : parts) merged.merge(p);
    EXPECT_TRUE(merged == sequential) << "trial " << trial;
    EXPECT_EQ(merged.mean(), sequential.mean());
    EXPECT_EQ(merged.variance(), sequential.variance());
  }
}

// ---------------------------------------------------------- QuantileSketch

TEST(QuantileSketchTest, MergePartitionIndependent) {
  std::mt19937_64 rng(17);
  std::lognormal_distribution<double> dist(1.0, 3.0);
  std::vector<double> samples(600);
  for (double& s : samples) {
    s = dist(rng);
    if (rng() % 4 == 0) s = -s;  // exercise the mirrored histogram
    if (rng() % 16 == 0) s = 0.0;
  }

  QuantileSketch sequential;
  for (double s : samples) sequential.add(s);

  for (int trial = 0; trial < 10; ++trial) {
    std::shuffle(samples.begin(), samples.end(), rng);
    std::vector<QuantileSketch> parts(1 + rng() % 8);
    for (double s : samples) parts[rng() % parts.size()].add(s);
    QuantileSketch merged;
    for (const QuantileSketch& p : parts) merged.merge(p);
    EXPECT_TRUE(merged == sequential) << "trial " << trial;
  }
}

TEST(QuantileSketchTest, RankErrorBoundAgainstExactCdf) {
  // |quantile(phi) - q| <= |q| / kSubBins for the true ceil-rank sample
  // quantile q — the documented relative bound of the log-histogram.
  std::mt19937_64 rng(19);
  std::lognormal_distribution<double> dist(0.0, 2.5);
  for (const bool negate : {false, true}) {
    QuantileSketch sketch;
    std::vector<double> samples(2000);
    for (double& s : samples) {
      s = negate ? -dist(rng) : dist(rng);
      sketch.add(s);
    }
    const stats::Cdf cdf(samples);
    for (double phi = 0.01; phi < 1.0; phi += 0.01) {
      const double q = cdf.percentile(phi);
      const double v = sketch.quantile(phi);
      EXPECT_LE(std::abs(v - q),
                std::abs(q) / QuantileSketch::kSubBins + 1e-12)
          << "phi=" << phi << " negate=" << negate;
    }
  }
}

// The flat sorted-vector storage keeps a canonical form: any insertion
// order of the same multiset yields the identical sketch (operator== over
// the bin vectors), so shard partitioning can never reorder state.
TEST(QuantileSketchTest, InsertOrderNeverChangesState) {
  std::vector<double> values;
  std::mt19937_64 rng(77);
  std::uniform_real_distribution<double> mantissa(0.5, 1.0);
  std::uniform_int_distribution<int> exponent(-20, 19);
  for (int i = 0; i < 400; ++i) {
    const double magnitude = std::ldexp(mantissa(rng), exponent(rng));
    values.push_back(i % 7 == 0 ? 0.0 : (i % 3 == 0 ? -magnitude : magnitude));
  }
  QuantileSketch forward;
  for (double v : values) forward.add(v);
  QuantileSketch backward;
  for (auto it = values.rbegin(); it != values.rend(); ++it) backward.add(*it);
  QuantileSketch interleaved;
  for (std::size_t i = 0; i < values.size(); i += 2) interleaved.add(values[i]);
  for (std::size_t i = 1; i < values.size(); i += 2) interleaved.add(values[i]);
  EXPECT_TRUE(backward == forward);
  EXPECT_TRUE(interleaved == forward);
  for (double phi : {0.0, 0.25, 0.5, 0.9, 1.0}) {
    EXPECT_EQ(backward.quantile(phi), forward.quantile(phi));
  }
}

TEST(QuantileSketchTest, ResultClampedToObservedRange) {
  QuantileSketch sketch;
  sketch.add(3.0);
  sketch.add(5.0);
  for (double phi = 0.0; phi <= 1.0; phi += 0.125) {
    const double v = sketch.quantile(phi);
    EXPECT_GE(v, 3.0);
    EXPECT_LE(v, 5.0);
  }
}

TEST(QuantileSketchTest, EmptyAndZeroStreams) {
  const QuantileSketch empty;
  EXPECT_EQ(empty.quantile(0.5), 0.0);

  QuantileSketch zeros;
  for (int i = 0; i < 5; ++i) zeros.add(0.0);
  EXPECT_EQ(zeros.quantile(0.5), 0.0);
  EXPECT_EQ(zeros.count(), 5u);
}

// ------------------------------------------------------ summary vs rows

/// Two runs' window rows are equal: same windows, same columns, same bits.
void expectSameRows(const std::vector<WindowRow>& got,
                    const std::vector<WindowRow>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got[r].windowStart, want[r].windowStart) << what;
    EXPECT_EQ(got[r].windowEnd, want[r].windowEnd) << what;
    ASSERT_EQ(got[r].columns.size(), want[r].columns.size()) << what;
    for (std::size_t c = 0; c < want[r].columns.size(); ++c) {
      EXPECT_EQ(got[r].columns[c].first, want[r].columns[c].first) << what;
      EXPECT_EQ(got[r].columns[c].second, want[r].columns[c].second) << what;
    }
  }
}

// Extends the golden regime of scenario_metrics_test / sharded_sim_test to
// windowed metrics: on the STAT and SYNTH-BD golden workloads 60 s metric
// windows must (a) leave protocol execution bit-identical (the pinned
// summary fingerprints still hold with metric barriers inserted),
// (b) produce the same StreamedSummary at S = 1, 2, 3, 8 and with no
// windows at all, and (c) agree with collectSamples' rows exactly on
// count/min/max/mean.
TEST(StreamingLaneTest, StreamedSummariesMatchSamplesAcrossShards) {
  const auto golden = goldenScenarios();
  struct Pinned {
    const char* name;
    std::size_t goldenIndex;
    std::uint64_t summaryHashValue;
  };
  const Pinned pinned[] = {
      {"STAT", 0, 0x2653aa83f642c8d3ULL},
      {"SYNTH-BD", 1, 0x37267d9d4ef4b133ULL},
  };
  const unsigned shardCounts[] = {1, 2, 3, 8};

  std::vector<Scenario> scenarios;
  for (const Pinned& p : pinned) {
    for (const unsigned s : shardCounts) {
      Scenario sc = golden[p.goldenIndex];
      sc.shards = s;
      sc.metrics.window = 60 * kSecond;  // all groups, windowed path on
      scenarios.push_back(sc);
    }
    // Control: same workload, default metrics (one window at the horizon).
    Scenario control = golden[p.goldenIndex];
    control.shards = 2;
    scenarios.push_back(control);
  }
  // Pool capped at 4 to match the suite's PROCESSORS hint in CMakeLists.
  const auto runners = ParallelScenarioRunner(4).runAll(scenarios);
  ASSERT_EQ(runners.size(), 10u);

  for (std::size_t w = 0; w < 2; ++w) {
    const Pinned& p = pinned[w];
    const std::size_t base = w * 5;
    const ScenarioRunner& control = *runners[base + 4];
    const StreamingCollector& first = runners[base]->streamingCollector();
    const StreamedSummary& summary = first.summary();

    for (std::size_t i = 0; i < 4; ++i) {
      const ScenarioRunner& run = *runners[base + i];
      // (a) observation only: pinned execution fingerprint unchanged.
      EXPECT_EQ(summaryHash(run), p.summaryHashValue)
          << p.name << " S=" << shardCounts[i]
          << ": metric barriers perturbed execution";
      // (b) bit-identical streamed state across shard counts.
      const StreamedSummary& s = run.streamingCollector().summary();
      EXPECT_TRUE(s.discoverySeconds == summary.discoverySeconds);
      EXPECT_TRUE(s.memoryEntries == summary.memoryEntries);
      EXPECT_TRUE(s.outgoingBytesPerSecond == summary.outgoingBytesPerSecond);
      EXPECT_TRUE(s.uselessPingsPerMinute == summary.uselessPingsPerMinute);
      EXPECT_TRUE(s.computationsPerSecond == summary.computationsPerSecond);
      EXPECT_TRUE(s.accuracyAbsError == summary.accuracyAbsError);
      EXPECT_EQ(s.joined, summary.joined);
      EXPECT_EQ(s.found, summary.found);
      // Windowed time-series rows are partition-invariant too.
      expectSameRows(run.streamingCollector().windows(), first.windows(),
                     std::string(p.name) + " S=" +
                         std::to_string(shardCounts[i]));
    }

    // The unwindowed control streams the same summary.
    const StreamedSummary& c = control.streamingCollector().summary();
    EXPECT_TRUE(c.discoverySeconds == summary.discoverySeconds);
    EXPECT_TRUE(c.memoryEntries == summary.memoryEntries);
    EXPECT_TRUE(c.outgoingBytesPerSecond == summary.outgoingBytesPerSecond);
    EXPECT_TRUE(c.uselessPingsPerMinute == summary.uselessPingsPerMinute);
    EXPECT_TRUE(c.computationsPerSecond == summary.computationsPerSecond);
    EXPECT_TRUE(c.accuracyAbsError == summary.accuracyAbsError);
    ASSERT_EQ(control.streamingCollector().windows().size(), 1u);
    EXPECT_EQ(control.streamingCollector().windows().front().windowEnd,
              control.scenario().horizon);

    // (c) exact agreement with the per-sample rows.
    const auto expectMatches = [&](const StreamedMetric& m,
                                   std::vector<double> samples) {
      ASSERT_EQ(m.stats.count(), samples.size());
      if (samples.empty()) return;
      const auto [lo, hi] =
          std::minmax_element(samples.begin(), samples.end());
      EXPECT_EQ(m.stats.min(), *lo);
      EXPECT_EQ(m.stats.max(), *hi);
      ExactSum exact;
      for (double x : samples) exact.add(x);
      EXPECT_EQ(m.stats.mean(),
                exact.value() / static_cast<double>(samples.size()));
    };
    const MetricSet rows = collectSamples(control);
    expectMatches(summary.discoverySeconds, rows.discoverySeconds);
    expectMatches(summary.memoryEntries, rows.memoryEntries);
    expectMatches(summary.outgoingBytesPerSecond, rows.outgoingBytesPerSecond);
    expectMatches(summary.uselessPingsPerMinute, rows.uselessPingsPerMinute);
    expectMatches(summary.computationsPerSecond, rows.computationsPerSecond);

    std::vector<double> absErrors;
    absErrors.reserve(rows.accuracy.size());
    for (const auto& a : rows.accuracy) {
      absErrors.push_back(std::abs(a.estimated - a.actual));
    }
    expectMatches(summary.accuracyAbsError, absErrors);
    EXPECT_EQ(summary.discoveredFraction(), discoveredFractionOf(control))
        << p.name;
  }
}

// The second and third monitor's delays stream through the same probe as
// the first: counts and means equal those recomputed from
// discoveryDelay(id, 2) and discoveryDelay(id, 3) over the measured set,
// at one shard and at three.
TEST(StreamingLaneTest, SecondAndThirdMonitorDelaysMatchTheProbes) {
  for (const unsigned shards : {1u, 3u}) {
    Scenario s = goldenScenarios().front();  // STAT
    s.shards = shards;
    ScenarioRunner runner(s);
    runner.run();
    const StreamedSummary& summary = runner.streamingCollector().summary();
    for (const std::size_t l : {2u, 3u}) {
      std::vector<double> delays;
      for (const NodeId& id : runner.measuredIds()) {
        if (const auto d = runner.protocol().discoveryDelay(id, l)) {
          delays.push_back(toSeconds(*d));
        }
      }
      const StreamedMetric& m = l == 2 ? summary.discovery2Seconds
                                       : summary.discovery3Seconds;
      ASSERT_FALSE(delays.empty()) << "l=" << l;
      ASSERT_EQ(m.stats.count(), delays.size()) << "S=" << shards;
      ExactSum exact;
      for (double x : delays) exact.add(x);
      EXPECT_EQ(m.stats.mean(),
                exact.value() / static_cast<double>(delays.size()))
          << "S=" << shards << " l=" << l;
    }
  }
}

// The CSV files of a sharded, windowed run are written from the rows:
// discovery.csv carries one data line per measured node that discovered a
// monitor, however many shards and windows the run had.
TEST(StreamingLaneTest, ShardedRunWritesOneDiscoveryLinePerDiscoveredNode) {
  Scenario s = goldenScenarios().front();  // STAT
  s.stableSize = 60;
  s.horizon = 45 * kMinute;
  s.warmup = 15 * kMinute;
  s.shards = 2;
  s.metrics.window = 60 * kSecond;
  ScenarioRunner runner(s);
  runner.run();

  const std::string prefix = ::testing::TempDir() + "avmon_sharded_csv";
  const std::vector<std::string> written =
      writeCsvFiles(prefix, {collectSamples(runner)});
  std::ifstream discovery(prefix + ".discovery.csv");
  ASSERT_TRUE(discovery.good());
  std::string line;
  std::size_t dataLines = 0;
  ASSERT_TRUE(std::getline(discovery, line));  // header
  while (std::getline(discovery, line)) ++dataLines;
  for (const std::string& path : written) std::remove(path.c_str());

  std::size_t discovered = 0;
  for (const NodeId& id : runner.measuredIds()) {
    if (runner.protocol().discoveryDelay(id, 1)) ++discovered;
  }
  EXPECT_GT(discovered, 0u);
  EXPECT_EQ(dataLines, discovered);
}

// Memory regression guard for the collector (the million-node diet):
// retained metric state must be O(shards x sketch bins), never O(N). The old
// horizon accuracy scan materialized a per-node estimate map inside
// finish(); the window-incremental probes replaced it, and this test keeps
// it dead — quadrupling the population may not grow the collector's
// retained bytes more than the sketches' bin spread (a few hundred bytes
// for each of the summary's eight sketches; one 8-byte id per added node
// in each shard bank would add 1440 B on top of it), and the absolute
// footprint stays under a flat ceiling no million-node run could meet
// with any per-node container left on the path.
TEST(StreamingLaneTest, CollectorStateIsPopulationIndependent) {
  const auto streamedStateBytes = [](std::size_t stableSize) {
    Scenario s = goldenScenarios().front();  // STAT
    s.stableSize = stableSize;
    s.horizon = 45 * kMinute;
    s.warmup = 15 * kMinute;
    s.shards = 2;
    s.metrics.window = 60 * kSecond;  // all groups, windowed path on
    ScenarioRunner runner(s);
    runner.run();
    return runner.streamingCollector().stateBytes();
  };
  const std::size_t small = streamedStateBytes(60);
  const std::size_t large = streamedStateBytes(240);
  EXPECT_LT(large, small + 3072u)
      << "streamed metric state grew with N — a per-node container is back "
         "on the probe path";
  EXPECT_LT(large, 65536u) << "collector footprint exceeds the flat ceiling";
}

// ------------------------------------------------------------ window rows

// The window columns come out group by group in the scenario's
// metrics.reducers order — an empty list runs every group in
// kMetricGroups order — and "summary" adds none, so a summary-only run
// takes no window rows at all. The rows are the same at one shard and at
// three. A collusion attack gives the resilience columns victims to count.
TEST(StreamingLaneTest, WindowColumnsFollowTheSpecOrder) {
  const std::vector<std::string> traffic = {
      "traffic_bytes", "traffic_messages", "traffic_bytes_per_sec"};
  const std::vector<std::string> discovery = {"discoveries",
                                              "discovered_total"};
  const std::vector<std::string> resilience = {"victims_monitored",
                                               "victims_eclipsed"};
  const auto concat = [](std::vector<std::vector<std::string>> parts) {
    std::vector<std::string> out;
    for (const auto& part : parts) {
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  };
  struct Case {
    std::vector<std::string> groups;
    std::vector<std::string> columns;  ///< empty: no window rows
  };
  const Case cases[] = {
      {{}, concat({traffic, discovery, resilience})},
      {{"summary", "traffic", "resilience", "discovery"},  // sharded_faults
       concat({traffic, resilience, discovery})},
      {{"summary"}, {}},
  };
  const unsigned shardCounts[] = {1, 3};

  std::vector<Scenario> scenarios;
  for (const Case& c : cases) {
    for (const unsigned shards : shardCounts) {
      Scenario s = goldenScenarios().front();  // STAT
      s.stableSize = 60;
      s.horizon = 45 * kMinute;
      s.warmup = 15 * kMinute;
      s.attack.collusion = 6;
      s.attack.victims = 4;
      s.shards = shards;
      s.metrics.window = 300 * kSecond;
      s.metrics.reducers = c.groups;
      scenarios.push_back(s);
    }
  }
  const auto runners = ParallelScenarioRunner(4).runAll(scenarios);
  ASSERT_EQ(runners.size(), scenarios.size());

  for (std::size_t i = 0; i < runners.size(); ++i) {
    const Case& c = cases[i / 2];
    const std::string what = "case " + std::to_string(i / 2) +
                             " S=" + std::to_string(shardCounts[i % 2]);
    const std::vector<WindowRow>& rows =
        runners[i]->streamingCollector().windows();
    if (c.columns.empty()) {
      EXPECT_TRUE(rows.empty()) << what;
      continue;
    }
    ASSERT_FALSE(rows.empty()) << what;
    for (const WindowRow& row : rows) {
      std::vector<std::string> names;
      for (const auto& column : row.columns) names.push_back(column.first);
      EXPECT_EQ(names, c.columns) << what;
    }
    expectSameRows(rows, runners[i - i % 2]->streamingCollector().windows(),
                   what);
  }
}

// The windows' traffic adds up to the post-warm-up traffic: the window
// holding the warm-up reset counts from the reset, whichever way the
// shard totals moved across it. At warmup_min = 7 the reset falls inside
// the window (300 s, 600 s], and more is sent after it than the total at
// the 300 s barrier, so the totals rise across the reset. At
// warmup_min = 5 the reset falls on the 300 s window boundary.
TEST(StreamingLaneTest, WindowTrafficSumsToPostWarmupTraffic) {
  for (const int warmupMin : {7, 5}) {
    for (const unsigned shards : {1u, 3u}) {
      const Scenario s = Scenario::fromSpec(
          "model = STAT\nn = 200\nhorizon_min = 15\nwarmup_min = " +
          std::to_string(warmupMin) +
          "\nseed = 5\nmetrics.window = 300\n"
          "metrics.reducers = summary, traffic\nshards = " +
          std::to_string(shards) + "\n");
      ScenarioRunner runner(s);
      runner.run();
      const std::string what = "warmup_min=" + std::to_string(warmupMin) +
                               " S=" + std::to_string(shards);

      double windowBytes = 0.0, windowMessages = 0.0;
      for (const WindowRow& row : runner.streamingCollector().windows()) {
        if (row.windowEnd < s.warmup) continue;
        ASSERT_EQ(row.columns.size(), 3u) << what;
        ASSERT_EQ(row.columns[0].first, "traffic_bytes") << what;
        ASSERT_EQ(row.columns[1].first, "traffic_messages") << what;
        windowBytes += row.columns[0].second;
        windowMessages += row.columns[1].second;
      }
      std::uint64_t nodeBytes = 0, nodeMessages = 0;
      for (const MetricSet::PerNodeRow& row : collectSamples(runner).perNode) {
        nodeBytes += row.bytesSent;
        nodeMessages += row.messagesSent;
      }
      EXPECT_GT(nodeBytes, 0u) << what;
      EXPECT_EQ(windowBytes, static_cast<double>(nodeBytes)) << what;
      EXPECT_EQ(windowMessages, static_cast<double>(nodeMessages)) << what;
    }
  }
}

}  // namespace
}  // namespace avmon::experiments::streaming
