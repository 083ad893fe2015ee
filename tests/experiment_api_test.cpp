// The protocol-agnostic experiment API: protocol registry, declarative
// scenario specs (round-trip property), sweep expansion determinism,
// Scenario::validate(), the measured-set rule, and the metrics writers'
// stream-failure contract.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "experiments/metrics.hpp"
#include "experiments/protocol_registry.hpp"
#include "experiments/scenario.hpp"
#include "experiments/spec.hpp"
#include "experiments/streaming/collector.hpp"
#include "golden_hash.hpp"
#include "stats/table_printer.hpp"

namespace avmon::experiments {
namespace {

// ---- registry ----

TEST(ProtocolRegistryTest, EnumeratesAllFiveProtocols) {
  const auto names = ProtocolRegistry::instance().names();
  const std::vector<std::string> expected = {"avmon", "broadcast", "central",
                                             "dht_ring", "self_report"};
  EXPECT_EQ(names, expected);
}

TEST(ProtocolRegistryTest, CreateInstantiatesEveryRegisteredProtocol) {
  for (const std::string& name : ProtocolRegistry::instance().names()) {
    const auto protocol = ProtocolRegistry::instance().create(name);
    ASSERT_NE(protocol, nullptr);
    EXPECT_EQ(protocol->name(), name);
  }
}

TEST(ProtocolRegistryTest, UnknownNameListsKnownProtocols) {
  try {
    ProtocolRegistry::instance().create("gossipmon");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gossipmon"), std::string::npos);
    EXPECT_NE(what.find("avmon"), std::string::npos);
    EXPECT_NE(what.find("self_report"), std::string::npos);
  }
}

TEST(ProtocolRegistryTest, DuplicateRegistrationThrows) {
  EXPECT_THROW(ProtocolRegistry::instance().add(
                   {"avmon", "dup", 1, [] { return nullptr; }}),
               std::invalid_argument);
}

TEST(ProtocolRegistryTest, OnlyAvmonIsMultiShard) {
  for (const std::string& name : ProtocolRegistry::instance().names()) {
    const ProtocolFactory* f = ProtocolRegistry::instance().find(name);
    ASSERT_NE(f, nullptr) << name;
    EXPECT_EQ(f->maxShards, name == "avmon" ? 0u : 1u) << name;
  }
}

// ---- spec round-trip ----

bool faultsEqual(const sim::FaultPlan& a, const sim::FaultPlan& b) {
  if (a.partitions.size() != b.partitions.size() ||
      a.bursts.size() != b.bursts.size() ||
      a.latencyWindows.size() != b.latencyWindows.size())
    return false;
  for (std::size_t i = 0; i < a.partitions.size(); ++i) {
    if (a.partitions[i].start != b.partitions[i].start ||
        a.partitions[i].end != b.partitions[i].end ||
        a.partitions[i].groups != b.partitions[i].groups)
      return false;
  }
  for (std::size_t i = 0; i < a.bursts.size(); ++i) {
    if (a.bursts[i].at != b.bursts[i].at ||
        a.bursts[i].duration != b.bursts[i].duration ||
        a.bursts[i].fraction != b.bursts[i].fraction)
      return false;
  }
  for (std::size_t i = 0; i < a.latencyWindows.size(); ++i) {
    if (a.latencyWindows[i].start != b.latencyWindows[i].start ||
        a.latencyWindows[i].end != b.latencyWindows[i].end ||
        a.latencyWindows[i].minLatency != b.latencyWindows[i].minLatency ||
        a.latencyWindows[i].maxLatency != b.latencyWindows[i].maxLatency)
      return false;
  }
  return a.geo.regions == b.geo.regions && a.geo.intraMin == b.geo.intraMin &&
         a.geo.intraMax == b.geo.intraMax && a.geo.interMin == b.geo.interMin &&
         a.geo.interMax == b.geo.interMax;
}

bool scenarioEquals(const Scenario& a, const Scenario& b) {
  const bool configEqual =
      a.configOverride.has_value() == b.configOverride.has_value() &&
      (!a.configOverride || (a.configOverride->cvs == b.configOverride->cvs &&
                             a.configOverride->k == b.configOverride->k));
  return a.protocol == b.protocol && a.model == b.model &&
         a.stableSize == b.stableSize && a.horizon == b.horizon &&
         a.warmup == b.warmup && a.controlFraction == b.controlFraction &&
         a.seed == b.seed && a.hashName == b.hashName && configEqual &&
         a.pr2 == b.pr2 && a.forgetful == b.forgetful &&
         a.forgetfulEwma == b.forgetfulEwma &&
         a.overreportFraction == b.overreportFraction &&
         a.messageDropProbability == b.messageDropProbability &&
         a.rpcFailProbability == b.rpcFailProbability &&
         a.measured == b.measured && a.shards == b.shards &&
         a.metrics.window == b.metrics.window &&
         a.metrics.reducers == b.metrics.reducers &&
         a.metrics.quantiles == b.metrics.quantiles &&
         faultsEqual(a.faults, b.faults) &&
         a.attack.collusion == b.attack.collusion &&
         a.attack.victims == b.attack.victims &&
         a.attack.forgetfulFraction == b.attack.forgetfulFraction &&
         a.shuffle == b.shuffle && a.notifyDedupMax == b.notifyDedupMax &&
         a.transport == b.transport && a.udp == b.udp;
}

TEST(ScenarioSpecTest, DefaultScenarioRoundTrips) {
  const Scenario s;
  const Scenario back = Scenario::fromSpec(s.toSpec());
  EXPECT_TRUE(scenarioEquals(s, back));
  EXPECT_EQ(s.toSpec(), back.toSpec());
}

TEST(ScenarioSpecTest, RoundTripIsFixedPointProperty) {
  // Pseudo-randomized scenarios over every spec-representable axis:
  // parse(serialize(s)) must reproduce s, and serialize must be a fixed
  // point from the first iteration on.
  const churn::Model models[] = {churn::Model::kStat, churn::Model::kSynth,
                                 churn::Model::kSynthBD,
                                 churn::Model::kSynthBD2,
                                 churn::Model::kPlanetLab,
                                 churn::Model::kOvernet};
  const char* hashes[] = {"md5", "sha1", "splitmix64"};
  const MeasuredSet measured[] = {
      MeasuredSet::kAuto, MeasuredSet::kControlGroup,
      MeasuredSet::kBornAfterWarmup, MeasuredSet::kAll};
  const auto protocols = ProtocolRegistry::instance().names();

  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto nextRand = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };

  for (int i = 0; i < 200; ++i) {
    Scenario s;
    s.protocol = protocols[nextRand() % protocols.size()];
    s.model = models[nextRand() % 6];
    s.stableSize = 1 + nextRand() % 5000;
    s.horizon = 1 + static_cast<SimDuration>(nextRand() % (5 * kHour));
    s.warmup = static_cast<SimTime>(nextRand() % (2 * kHour));
    s.controlFraction = static_cast<double>(nextRand() % 1000) / 999.0;
    s.seed = nextRand();
    s.hashName = hashes[nextRand() % 3];
    s.pr2 = nextRand() % 2 == 0;
    s.forgetful = nextRand() % 2 == 0;
    s.forgetfulEwma = nextRand() % 2 == 0;
    s.overreportFraction = static_cast<double>(nextRand() % 100) / 99.0;
    s.messageDropProbability = static_cast<double>(nextRand() % 100) / 99.0;
    s.rpcFailProbability = 1.0 / static_cast<double>(1 + nextRand() % 7);
    s.measured = measured[nextRand() % 4];
    s.shards = static_cast<unsigned>(nextRand() % 9);
    if (nextRand() % 3 == 0) {
      s.transport = TransportKind::kUdp;
      s.udp.portBase = static_cast<std::uint16_t>(1024 + nextRand() % 60000);
      s.udp.retryMax = 1 + static_cast<std::uint32_t>(nextRand() % 6);
      s.udp.backoffMs = 1 + static_cast<std::uint32_t>(nextRand() % 200);
      s.udp.backoffCapMs =
          s.udp.backoffMs * (1 + static_cast<std::uint32_t>(nextRand() % 8));
      s.udp.timeScale = static_cast<double>(1 + nextRand() % 120);
    }
    s.metrics.window =
        nextRand() % 3 == 0 ? 0 : static_cast<SimDuration>(nextRand() % kHour);
    if (nextRand() % 2 == 0) {
      s.metrics.reducers.clear();
      for (const std::string_view r : streaming::kMetricGroups) {
        if (nextRand() % 2 == 0) s.metrics.reducers.emplace_back(r);
      }
    }
    if (nextRand() % 3 == 0) {
      s.metrics.quantiles.clear();
      const std::size_t count = 1 + nextRand() % 4;
      for (std::size_t q = 0; q < count; ++q) {
        s.metrics.quantiles.push_back(
            static_cast<double>(1 + nextRand() % 999) / 1000.0);
      }
    }
    // Fault schedule and adversary keys (all optional; absent by default).
    if (nextRand() % 3 == 0) {
      const std::size_t count = 1 + nextRand() % 3;
      for (std::size_t p = 0; p < count; ++p) {
        sim::PartitionWindow w;
        w.start = static_cast<SimTime>(nextRand() % kHour);
        w.end = w.start + 1000 * (1 + static_cast<SimDuration>(nextRand() % 3600));
        w.groups = 2 + static_cast<std::uint32_t>(nextRand() % 6);
        s.faults.partitions.push_back(w);
      }
    }
    if (nextRand() % 3 == 0) {
      sim::BurstSpec b;
      b.at = static_cast<SimTime>(nextRand() % kHour);
      b.duration = 1000 * (1 + static_cast<SimDuration>(nextRand() % 600));
      b.fraction = static_cast<double>(1 + nextRand() % 99) / 99.0;
      s.faults.bursts.push_back(b);
    }
    if (nextRand() % 3 == 0) {
      sim::LatencyWindow w;
      w.start = static_cast<SimTime>(nextRand() % kHour);
      w.end = w.start + 1000 * (1 + static_cast<SimDuration>(nextRand() % 3600));
      w.minLatency = 1 + static_cast<SimDuration>(nextRand() % 100);
      w.maxLatency = w.minLatency + static_cast<SimDuration>(nextRand() % 400);
      s.faults.latencyWindows.push_back(w);
    }
    if (nextRand() % 3 == 0) {
      s.faults.geo.regions = 2 + static_cast<std::uint32_t>(nextRand() % 7);
      s.faults.geo.intraMin = 1 + static_cast<SimDuration>(nextRand() % 20);
      s.faults.geo.intraMax =
          s.faults.geo.intraMin + static_cast<SimDuration>(nextRand() % 30);
      s.faults.geo.interMin = 1 + static_cast<SimDuration>(nextRand() % 100);
      s.faults.geo.interMax =
          s.faults.geo.interMin + static_cast<SimDuration>(nextRand() % 200);
    }
    if (nextRand() % 3 == 0) {
      s.attack.collusion = 1 + static_cast<std::uint32_t>(nextRand() % 12);
      s.attack.victims = static_cast<std::uint32_t>(nextRand() % 8);
    }
    if (nextRand() % 3 == 0) {
      s.attack.forgetfulFraction =
          static_cast<double>(1 + nextRand() % 99) / 99.0;
    }
    if (nextRand() % 3 == 0) {
      s.shuffle = nextRand() % 2 == 0 ? avmon::ShufflePolicy::kUnionSample
                                      : avmon::ShufflePolicy::kSwap;
    }
    if (nextRand() % 3 == 0) {
      s.notifyDedupMax = 1 + static_cast<std::uint32_t>(nextRand() % 64);
    }

    const std::string spec1 = s.toSpec();
    const Scenario s2 = Scenario::fromSpec(spec1);
    const std::string spec2 = s2.toSpec();
    EXPECT_TRUE(scenarioEquals(s, s2)) << "iteration " << i << "\n" << spec1;
    EXPECT_EQ(spec1, spec2) << "iteration " << i;
  }
}

TEST(ScenarioSpecTest, CvsAndKOverridesRoundTrip) {
  const std::string spec =
      "model = SYNTH\nn = 500\nhorizon_min = 90\nwarmup_min = 30\n"
      "cvs = 30\nk = 7\n";
  const Scenario s = Scenario::fromSpec(spec);
  ASSERT_TRUE(s.configOverride.has_value());
  EXPECT_EQ(s.configOverride->cvs, 30u);
  EXPECT_EQ(s.configOverride->k, 7u);
  // Everything but the pinned knobs keeps paper defaults for N=500.
  const AvmonConfig defaults = AvmonConfig::paperDefaults(500);
  EXPECT_EQ(s.configOverride->protocolPeriod, defaults.protocolPeriod);

  const Scenario back = Scenario::fromSpec(s.toSpec());
  EXPECT_TRUE(scenarioEquals(s, back));
  EXPECT_EQ(s.toSpec(), back.toSpec());
}

TEST(ScenarioSpecTest, CommentsAndBlankLinesAreIgnored) {
  const Scenario s = Scenario::fromSpec(
      "# a comment line\n\n  model = SYNTH-BD  # trailing comment\n"
      "\t n\t=\t250 \n");
  EXPECT_EQ(s.model, churn::Model::kSynthBD);
  EXPECT_EQ(s.stableSize, 250u);
}

TEST(ScenarioSpecTest, MillisecondPrecisionSurvives) {
  Scenario s;
  s.horizon = 90 * kMinute + 123;  // not minute-aligned
  s.warmup = 30 * kMinute;
  const Scenario back = Scenario::fromSpec(s.toSpec());
  EXPECT_EQ(back.horizon, s.horizon);
  EXPECT_EQ(back.warmup, s.warmup);
  EXPECT_NE(s.toSpec().find("horizon_ms"), std::string::npos);
  EXPECT_NE(s.toSpec().find("warmup_min"), std::string::npos);
}

TEST(ScenarioSpecTest, ErrorsNameTheOffendingLine) {
  const auto expectError = [](const std::string& spec,
                              const std::string& fragment) {
    try {
      SweepSpec::parse(spec);
      FAIL() << "expected invalid_argument for:\n" << spec;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  expectError("bogus_key = 1\n", "unknown key 'bogus_key'");
  expectError("model = STAT\nmodel = SYNTH\n", "duplicate key");
  expectError("model STAT\n", "expected 'key = value'");
  expectError("n = twelve\n", "unsigned integer");
  expectError("model = FOO\n", "unknown model");
  expectError("measured = sometimes\n", "measured");
  expectError("pr2 = maybe\n", "boolean");
  expectError("faults.partition = 600\n", "t0:t1:groups");
  expectError("faults.burst = 100:60\n", "t:duration:fraction");
  expectError("faults.latency = 0:60:30\n", "t0:t1:min_ms:max_ms");
  expectError("faults.geo = 4:5:20\n", "regions:intra_min_ms");
  expectError("shuffle = shake\n", "union-sample|swap");
  // A swept horizon below the default warm-up names the missing key.
  expectError("horizon_min = 120, 30\n", "set warmup_min");

  // Integers: no sign for stoull to wrap, and every narrowing key checks
  // its range before it casts or multiplies.
  expectError("model = STAT\nseed = -3\n",
              "spec line 2: expected an unsigned integer, got '-3'");
  expectError("k = 4294967297\n", "spec line 1: '4294967297' is out of range");
  expectError("shards = -1\n", "spec line 1: expected an unsigned integer");
  expectError("horizon_min = 153722867280912930\n",
              "spec line 1: '153722867280912930' is out of range");
  expectError("warmup_min = 153722867280912930\n", "spec line 1: ");
  expectError("horizon_ms = 9223372036854775808\n", "out of range");
  expectError("n = 18446744073709551616\n", "out of range");
  expectError("notify_dedup_max = 4294967296\n", "out of range");
  expectError("attack.collusion = 4294967296\n", "out of range");
  expectError("attack.victims = -1\n", "unsigned integer");
  expectError("faults.partition = 0:60:4294967296\n", "out of range");
  expectError("faults.geo = 4294967296:5:20:50:150\n", "out of range");
  expectError("udp.retry_max = 4294967296\n", "out of range");
  expectError("udp.backoff_ms = -5\n", "unsigned integer");
  expectError("udp.backoff_cap_ms = 99999999999\n", "out of range");
  expectError("udp.port_base = 65536\n", "out of range");

  // Reals: finite only, and times in seconds must fit SimTime's
  // milliseconds before they are rounded.
  expectError("faults.partition = nan:600:2\n",
              "spec line 1: expected a finite number, got 'nan'");
  expectError("faults.partition = 1e300:600:2\n",
              "spec line 1: '1e300' seconds is out of range");
  expectError("faults.latency = nan:200:30:300\n",
              "spec line 1: expected a finite number, got 'nan'");
  expectError("faults.partition = 100:inf:2\n",
              "spec line 1: expected a finite number, got 'inf'");
  expectError("history = aged\nhistory_param = nan\n",
              "spec line 2: expected a finite number, got 'nan'");
  expectError("metrics.window = 1e300\n", "spec line 1: '1e300' seconds");
  expectError("control_fraction = 0.5x\n", "expected a finite number");

  // Malformed expect lines name their line too.
  expectError("model = STAT\nexpect.bogus.mean < 1\n",
              "spec line 2: unknown metric 'bogus'");
  expectError("expect.discovery_s.median < 1\n",
              "spec line 1: unknown statistic 'median'");
  expectError("expect.discovery_s.p100 < 1\n", "unknown statistic 'p100'");
  expectError("expect.discovery_s.mean = 1\n",
              "spec line 1: unknown operator '='");
  expectError("expect.discovery_s.mean < closed:nope\n",
              "spec line 1: unknown closed form 'nope'");
  expectError("expect.discovery_s.mean ~ 30\n",
              "spec line 1: '~' needs a tolerance");
  expectError("expect.discovery_s.mean < 30 \xC2\xB1 2\n", "'~' only");
  expectError("expect.discovered_fraction.p50 >= 0.5\n",
              "discovered_fraction has only");
  expectError("expect.discovery_s < 30\n", "expect.<metric>.<stat>");
}

TEST(ScenarioSpecTest, FromSpecRejectsExpectations) {
  try {
    Scenario::fromSpec(
        "model = STAT\n\nexpect.discovery_s.mean < 60\n"
        "expect.memory_entries.max < 9\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("spec line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("expect.discovery_s.mean < 60"), std::string::npos)
        << what;
  }
}

TEST(ScenarioSpecTest, FromSpecRejectsSweeps) {
  EXPECT_THROW(Scenario::fromSpec("seed = 1, 2\n"), std::invalid_argument);
}

TEST(ScenarioSpecTest, StreamingMetricsKeysParseAndStayOptional) {
  const Scenario s = Scenario::fromSpec(
      "model = STAT\nn = 100\nmetrics.window = 45.5\n"
      "metrics.reducers = summary, traffic\n"
      "metrics.quantiles = 0.25, 0.9\n");
  EXPECT_EQ(s.metrics.window, static_cast<SimDuration>(45500));
  ASSERT_EQ(s.metrics.reducers.size(), 2u);
  EXPECT_EQ(s.metrics.reducers[0], "summary");
  EXPECT_EQ(s.metrics.reducers[1], "traffic");
  ASSERT_EQ(s.metrics.quantiles.size(), 2u);
  EXPECT_EQ(s.metrics.quantiles[0], 0.25);
  EXPECT_EQ(s.metrics.quantiles[1], 0.9);
  const Scenario back = Scenario::fromSpec(s.toSpec());
  EXPECT_TRUE(scenarioEquals(s, back));

  // A scenario that sets no metrics.* key serializes without them.
  EXPECT_EQ(Scenario{}.toSpec().find("metrics."), std::string::npos);
  EXPECT_EQ(Scenario{}.metrics.window, 0);
}

TEST(ScenarioSpecTest, TransportKeysParseRoundTripAndStayOptional) {
  const Scenario s = Scenario::fromSpec(
      "model = STAT\nn = 120\ntransport = udp\n"
      "udp.port_base = 43000\nudp.retry_max = 3\n"
      "udp.backoff_ms = 25\nudp.backoff_cap_ms = 400\n"
      "udp.time_scale = 30\n");
  EXPECT_EQ(s.transport, TransportKind::kUdp);
  EXPECT_EQ(s.udp.portBase, 43000);
  EXPECT_EQ(s.udp.retryMax, 3u);
  EXPECT_EQ(s.udp.backoffMs, 25u);
  EXPECT_EQ(s.udp.backoffCapMs, 400u);
  EXPECT_DOUBLE_EQ(s.udp.timeScale, 30.0);
  EXPECT_NO_THROW(s.validate());

  const Scenario back = Scenario::fromSpec(s.toSpec());
  EXPECT_TRUE(scenarioEquals(s, back));
  EXPECT_EQ(s.toSpec(), back.toSpec());

  // Pre-live specs serialize byte-unchanged: no transport/udp keys appear
  // unless a scenario opted into the live lane.
  const std::string defaults = Scenario{}.toSpec();
  EXPECT_EQ(defaults.find("transport"), std::string::npos);
  EXPECT_EQ(defaults.find("udp."), std::string::npos);
}

TEST(ScenarioValidateTest, UdpKeysUnderSimTransportAreRejected) {
  // Non-default udp.* configuration on a sim spec is dead configuration —
  // almost certainly a live spec missing `transport = udp`.
  Scenario s;
  s.udp.portBase = 43000;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  try {
    s.validate();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("transport = udp"),
              std::string::npos);
  }
}

TEST(ScenarioValidateTest, LiveLaneChecksItsOwnKnobs) {
  Scenario live;
  live.transport = TransportKind::kUdp;
  EXPECT_NO_THROW(live.validate());

  Scenario s = live;
  s.udp.portBase = 80;  // privileged range
  EXPECT_THROW(s.validate(), std::invalid_argument);

  s = live;
  s.udp.retryMax = 0;
  EXPECT_THROW(s.validate(), std::invalid_argument);

  s = live;
  s.udp.backoffCapMs = 10;  // below backoff_ms = 50
  EXPECT_THROW(s.validate(), std::invalid_argument);

  s = live;
  s.udp.timeScale = 0.0;
  EXPECT_THROW(s.validate(), std::invalid_argument);

  s = live;
  s.shards = 4;  // sharding is a sim-lane concept
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(ScenarioValidateTest, RunnerRefusesLiveSpecs) {
  // ScenarioRunner executes the simulated lane only; a valid udp spec must
  // be routed through tools/avmon_live instead of silently simulated.
  Scenario s;
  s.transport = TransportKind::kUdp;
  s.stableSize = 20;
  EXPECT_NO_THROW(s.validate());
  EXPECT_THROW(ScenarioRunner runner(s), std::invalid_argument);
}

TEST(ScenarioSpecTest, FaultAndAttackKeysParseRoundTripAndStayOptional) {
  const Scenario s = Scenario::fromSpec(
      "model = SYNTH\nn = 200\n"
      "faults.partition = 2400:3000:2; 3600:3900:4\n"
      "faults.burst = 2700:300:0.25\n"
      "faults.latency = 1800:2400:30:300\n"
      "faults.geo = 4:5:20:50:150\n"
      "attack.collusion = 6\nattack.victims = 4\n"
      "attack.forgetful = 0.2\n");
  ASSERT_EQ(s.faults.partitions.size(), 2u);
  EXPECT_EQ(s.faults.partitions[0].start, 2400 * kSecond);
  EXPECT_EQ(s.faults.partitions[0].end, 3000 * kSecond);
  EXPECT_EQ(s.faults.partitions[0].groups, 2u);
  EXPECT_EQ(s.faults.partitions[1].groups, 4u);
  ASSERT_EQ(s.faults.bursts.size(), 1u);
  EXPECT_EQ(s.faults.bursts[0].at, 2700 * kSecond);
  EXPECT_EQ(s.faults.bursts[0].duration, 300 * kSecond);
  EXPECT_DOUBLE_EQ(s.faults.bursts[0].fraction, 0.25);
  ASSERT_EQ(s.faults.latencyWindows.size(), 1u);
  EXPECT_EQ(s.faults.latencyWindows[0].minLatency, 30);
  EXPECT_EQ(s.faults.latencyWindows[0].maxLatency, 300);
  EXPECT_EQ(s.faults.geo.regions, 4u);
  EXPECT_EQ(s.faults.geo.interMax, 150);
  EXPECT_EQ(s.attack.collusion, 6u);
  EXPECT_EQ(s.attack.victims, 4u);
  EXPECT_DOUBLE_EQ(s.attack.forgetfulFraction, 0.2);
  EXPECT_NO_THROW(s.validate());

  const Scenario back = Scenario::fromSpec(s.toSpec());
  EXPECT_TRUE(scenarioEquals(s, back));
  EXPECT_EQ(s.toSpec(), back.toSpec());

  // Pre-fault specs serialize byte-unchanged: no fault/attack keys appear
  // unless a scenario armed them, so every historical spec (and golden
  // fingerprint) is untouched.
  const std::string defaults = Scenario{}.toSpec();
  EXPECT_EQ(defaults.find("faults."), std::string::npos);
  EXPECT_EQ(defaults.find("attack."), std::string::npos);
  EXPECT_TRUE(Scenario{}.faults.empty());
  EXPECT_FALSE(Scenario{}.attack.enabled());
}

TEST(ScenarioSpecTest, FormatDoubleIsShortestExact) {
  EXPECT_EQ(formatDouble(0.1), "0.1");
  EXPECT_EQ(formatDouble(0.0), "0");
  EXPECT_EQ(formatDouble(1.0), "1");
  const double awkward = 1.0 / 3.0;
  EXPECT_EQ(std::stod(formatDouble(awkward)), awkward);
}

// ---- sweep expansion ----

TEST(SweepSpecTest, ExpansionCountAndOrderAreDeterministic) {
  const std::string text =
      "protocol = avmon, broadcast\n"
      "model = STAT, SYNTH\n"
      "n = 50, 80\n"
      "seed = 1, 2, 3\n"
      "drop = 0, 0.05\n"
      "horizon_min = 60\nwarmup_min = 20\n";
  const SweepSpec sweep = SweepSpec::parse(text);
  EXPECT_EQ(sweep.pointCount(), 2u * 2u * 2u * 3u * 2u);
  const auto scenarios = sweep.expand();
  ASSERT_EQ(scenarios.size(), 48u);

  // Nested order: protocol > model > n > seed > drop (drop innermost).
  EXPECT_EQ(scenarios[0].protocol, "avmon");
  EXPECT_EQ(scenarios[0].model, churn::Model::kStat);
  EXPECT_EQ(scenarios[0].stableSize, 50u);
  EXPECT_EQ(scenarios[0].seed, 1u);
  EXPECT_DOUBLE_EQ(scenarios[0].messageDropProbability, 0.0);
  EXPECT_DOUBLE_EQ(scenarios[1].messageDropProbability, 0.05);
  EXPECT_EQ(scenarios[2].seed, 2u);
  EXPECT_EQ(scenarios[6].stableSize, 80u);
  EXPECT_EQ(scenarios[12].model, churn::Model::kSynth);
  EXPECT_EQ(scenarios[24].protocol, "broadcast");
  EXPECT_EQ(scenarios[47].protocol, "broadcast");
  EXPECT_EQ(scenarios[47].seed, 3u);

  // Same text, same expansion — bit for bit.
  const auto again = SweepSpec::parse(text).expand();
  ASSERT_EQ(again.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_TRUE(scenarioEquals(scenarios[i], again[i])) << i;
    EXPECT_EQ(scenarios[i].toSpec(), again[i].toSpec()) << i;
  }
}

TEST(SweepSpecTest, OverreportIsTheInnermostOfTheSixOuterAxes) {
  const SweepSpec sweep = SweepSpec::parse(
      "model = STAT\nn = 60\nseed = 1, 2\n"
      "overreport = 0, 0.5\n");
  EXPECT_EQ(sweep.pointCount(), 4u);
  const auto scenarios = sweep.expand();
  ASSERT_EQ(scenarios.size(), 4u);
  // Nested order: ... > seed > drop > overreport (overreport innermost).
  EXPECT_EQ(scenarios[0].seed, 1u);
  EXPECT_DOUBLE_EQ(scenarios[0].overreportFraction, 0.0);
  EXPECT_DOUBLE_EQ(scenarios[1].overreportFraction, 0.5);
  EXPECT_EQ(scenarios[1].seed, 1u);
  EXPECT_EQ(scenarios[2].seed, 2u);
  EXPECT_DOUBLE_EQ(scenarios[3].overreportFraction, 0.5);

  // A single value is a one-point axis.
  const auto scalar = SweepSpec::parse("model = STAT\nn = 60\n"
                                       "overreport = 0.3\n")
                          .expand();
  ASSERT_EQ(scalar.size(), 1u);
  EXPECT_DOUBLE_EQ(scalar[0].overreportFraction, 0.3);
}

TEST(SweepSpecTest, AnySweptKeyNestsInsideSeed) {
  // hash precedes cvs in the key list, so it is the outer of the two.
  const SweepSpec sweep = SweepSpec::parse(
      "cvs = 8, 12\nhash = md5, splitmix64\nmodel = STAT\nn = 60\n"
      "seed = 1, 2\n");
  ASSERT_EQ(sweep.pointCount(), 8u);
  const auto scenarios = sweep.expand();
  ASSERT_EQ(scenarios.size(), 8u);
  const AvmonConfig defaults = AvmonConfig::paperDefaults(60);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = scenarios[i];
    EXPECT_EQ(s.seed, i < 4 ? 1u : 2u) << i;
    EXPECT_EQ(s.hashName, i % 4 < 2 ? "md5" : "splitmix64") << i;
    ASSERT_TRUE(s.configOverride.has_value()) << i;
    EXPECT_EQ(s.configOverride->cvs, i % 2 == 0 ? 8u : 12u) << i;
    EXPECT_EQ(s.configOverride->k, defaults.k) << i;
  }

  // Line order never changes the nesting.
  const auto reordered = SweepSpec::parse(
      "seed = 1, 2\nn = 60\nmodel = STAT\nhash = md5, splitmix64\n"
      "cvs = 8, 12\n").expand();
  ASSERT_EQ(reordered.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(reordered[i].toSpec(), scenarios[i].toSpec()) << i;
  }
}

TEST(SweepSpecTest, ListValuedMetricsKeysStayOnePoint) {
  const SweepSpec sweep = SweepSpec::parse(
      "model = STAT\nn = 60\nmetrics.reducers = summary, traffic\n"
      "metrics.quantiles = 0.5, 0.9\n");
  EXPECT_EQ(sweep.pointCount(), 1u);
  const auto scenarios = sweep.expand();
  ASSERT_EQ(scenarios.size(), 1u);
  EXPECT_EQ(scenarios[0].metrics.reducers,
            (std::vector<std::string>{"summary", "traffic"}));
  EXPECT_EQ(scenarios[0].metrics.quantiles, (std::vector<double>{0.5, 0.9}));
}

TEST(SweepSpecTest, EveryExpandedPointRoundTrips) {
  const auto scenarios =
      SweepSpec::parse(
          "protocol = avmon, self_report\nmodel = SYNTH\nn = 80\n"
          "seed = 3\ncvs = 9, 0\nk = 0, 4\npr2 = true, false\n"
          "forgetful = false, true\nshuffle = swap, union-sample\n"
          "history = raw, compact\nhorizon_min = 40\nwarmup_min = 10\n"
          "metrics.reducers = summary, discovery\n")
          .expand();
  ASSERT_EQ(scenarios.size(), 2u * 2u * 2u * 2u * 2u * 2u * 2u);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario back = Scenario::fromSpec(scenarios[i].toSpec());
    EXPECT_TRUE(scenarioEquals(scenarios[i], back)) << i;
    EXPECT_EQ(scenarios[i].toSpec(), back.toSpec()) << i;
  }
}

TEST(SweepSpecTest, AbsentAxesDefaultToSingletons) {
  const SweepSpec sweep = SweepSpec::parse("model = SYNTH\nn = 77\n");
  EXPECT_EQ(sweep.pointCount(), 1u);
  const auto scenarios = sweep.expand();
  ASSERT_EQ(scenarios.size(), 1u);
  EXPECT_EQ(scenarios[0].protocol, "avmon");
  EXPECT_EQ(scenarios[0].stableSize, 77u);
}

// ---- validate ----

TEST(ScenarioValidateTest, DefaultIsValid) {
  EXPECT_NO_THROW(Scenario{}.validate());
}

TEST(ScenarioValidateTest, ActionableErrors) {
  const auto expectError = [](const std::function<void(Scenario&)>& mutate,
                              const std::string& fragment) {
    Scenario s;
    mutate(s);
    try {
      s.validate();
      FAIL() << "expected invalid_argument containing '" << fragment << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  expectError([](Scenario& s) { s.protocol = "nope"; }, "unknown protocol");
  expectError([](Scenario& s) { s.stableSize = 0; }, "stableSize");
  expectError([](Scenario& s) { s.horizon = 0; }, "horizon");
  expectError([](Scenario& s) { s.warmup = s.horizon; }, "warmup");
  expectError([](Scenario& s) { s.hashName = "crc32"; }, "unknown hash");
  expectError([](Scenario& s) { s.controlFraction = 1.5; },
              "controlFraction");
  expectError([](Scenario& s) { s.messageDropProbability = -0.1; },
              "messageDropProbability");
  expectError(
      [](Scenario& s) {
        s.protocol = "broadcast";
        s.shards = 2;
      },
      "shared global state");
  expectError([](Scenario& s) { s.metrics.window = -1; }, "metrics.window");
  expectError([](Scenario& s) { s.metrics.reducers = {"nope"}; },
              "unknown reducer");
  expectError(
      [](Scenario& s) {
        s.metrics.reducers = {"summary", "traffic", "traffic"};
      },
      "metrics.reducers names 'traffic' more than once");
  expectError([](Scenario& s) { s.metrics.quantiles = {1.5}; },
              "metrics.quantiles");
  expectError([](Scenario& s) { s.faults.partitions.push_back({600, 500, 2}); },
              "partition window must end after it starts");
  expectError([](Scenario& s) { s.faults.bursts.push_back({100, 60, 1.5}); },
              "burst fraction");
  expectError(
      [](Scenario& s) { s.faults.latencyWindows.push_back({0, 600, 300, 30}); },
      "latency window band");
  expectError(
      [](Scenario& s) {
        s.faults.geo.regions = 1;
        s.faults.geo.intraMin = s.faults.geo.intraMax = 5;
        s.faults.geo.interMin = s.faults.geo.interMax = 50;
      },
      "at least 2 regions");
  expectError([](Scenario& s) { s.attack.forgetfulFraction = 1.5; },
              "attack.forgetful");
  expectError([](Scenario& s) { s.attack.victims = 3; }, "attack.collusion");
  expectError([](Scenario& s) { s.notifyDedupMax = 0; }, "notify_dedup_max");
  expectError(
      [](Scenario& s) {
        s.history = "aged";
        s.historyParam = std::numeric_limits<double>::quiet_NaN();
      },
      "history_param must be >= 0");
}

// Runs `read` on the one-flag command line `--flag value` and returns the
// UsageError it threw ("" when it threw none).
template <typename Read>
std::string argError(const std::string& value, Read read) {
  std::string program = "tool", flag = "--flag", text = value;
  char* argv[] = {program.data(), flag.data(), text.data()};
  ArgParser args(3, argv);
  EXPECT_TRUE(args.next());
  try {
    read(args);
  } catch (const UsageError& e) {
    return e.what();
  }
  return "";
}

TEST(ArgParserTest, UnsignedValuesAreWholeDigitsInRange) {
  const auto u64 = [](ArgParser& a) { a.valueU64(); };
  EXPECT_EQ(argError("18446744073709551615", u64), "");
  EXPECT_EQ(argError("12abc", u64),
            "bad value for --flag: expected an unsigned integer, got '12abc'");
  EXPECT_NE(argError("-1", u64).find("expected an unsigned integer"),
            std::string::npos);
  EXPECT_NE(argError("+1", u64), "");
  EXPECT_NE(argError(" 1", u64), "");
  EXPECT_NE(argError("", u64), "");
  EXPECT_NE(argError("1.5", u64), "");
  EXPECT_NE(argError("18446744073709551616", u64).find("out of range"),
            std::string::npos);

  std::string program = "tool", flag = "--n", text = "42";
  char* argv[] = {program.data(), flag.data(), text.data()};
  ArgParser args(3, argv);
  ASSERT_TRUE(args.next());
  EXPECT_EQ(args.valueSize(), 42u);
  EXPECT_FALSE(args.next());
}

TEST(ArgParserTest, NarrowingIsRangeChecked) {
  const auto port = [](ArgParser& a) { a.valueU64(0xFFFF); };
  EXPECT_EQ(argError("65535", port), "");
  EXPECT_EQ(argError("70000", port),
            "bad value for --flag: '70000' is out of range (at most 65535)");
  const auto u32 = [](ArgParser& a) { a.valueUnsigned(); };
  EXPECT_EQ(argError("4294967295", u32), "");
  EXPECT_NE(argError("4294967296", u32).find("out of range"),
            std::string::npos);
}

TEST(ArgParserTest, LongValuesAreWholeAndInRange) {
  long got = 0;
  const auto read = [&got](ArgParser& a) { got = a.valueLong(); };
  EXPECT_EQ(argError("-5", read), "");
  EXPECT_EQ(got, -5);
  EXPECT_EQ(argError("-9223372036854775808", read), "");
  EXPECT_EQ(got, std::numeric_limits<long>::min());
  EXPECT_EQ(argError("5x", read),
            "bad value for --flag: expected an integer, got '5x'");
  EXPECT_NE(argError("", read), "");
  EXPECT_NE(argError("-", read), "");
  EXPECT_NE(argError(" 5", read), "");
  EXPECT_NE(argError("9223372036854775808", read).find("out of range"),
            std::string::npos);
}

TEST(ArgParserTest, DoubleValuesAreWholeAndFinite) {
  double got = 0;
  const auto read = [&got](ArgParser& a) { got = a.valueDouble(); };
  EXPECT_EQ(argError("0.25", read), "");
  EXPECT_EQ(got, 0.25);
  for (const char* bad : {"1.5x", "nan", "inf", "-inf", "1e400", "", " 1"}) {
    EXPECT_NE(argError(bad, read).find("expected a finite number"),
              std::string::npos)
        << "'" << bad << "'";
  }
}

TEST(ArgParserTest, MissingValueNamesTheFlag) {
  std::string program = "tool", flag = "--seed";
  char* argv[] = {program.data(), flag.data()};
  ArgParser args(2, argv);
  ASSERT_TRUE(args.next());
  try {
    args.valueU64();
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_EQ(std::string(e.what()), "missing value for --seed");
  }
}

TEST(ScenarioValidateTest, TraceModelsIgnoreStableSize) {
  Scenario s;
  s.model = churn::Model::kPlanetLab;
  s.stableSize = 0;
  EXPECT_NO_THROW(s.validate());
}

TEST(ScenarioValidateTest, RunnerValidatesOnConstruction) {
  Scenario s;
  s.protocol = "no_such_scheme";
  EXPECT_THROW(ScenarioRunner{s}, std::invalid_argument);
}

// ---- measured set ----

// The birth/death models measure nodes born after the warm-up, and a node
// born exactly at its end counts: the simulated and live lanes share this
// one rule, and every golden pins ">=".
TEST(MeasuredSetTest, NodeBornExactlyAtWarmupIsMeasured) {
  for (const churn::Model model :
       {churn::Model::kSynthBD, churn::Model::kSynthBD2}) {
    for (const MeasuredSet mode :
         {MeasuredSet::kBornAfterWarmup, MeasuredSet::kAuto}) {
      Scenario s;
      s.model = model;
      s.measured = mode;
      trace::NodeTrace nt;
      nt.birth = s.warmup;
      EXPECT_TRUE(inMeasuredSet(s, nt))
          << churn::modelName(model) << " mode " << static_cast<int>(mode);
      nt.birth = s.warmup - 1;
      EXPECT_FALSE(inMeasuredSet(s, nt))
          << churn::modelName(model) << " mode " << static_cast<int>(mode);
    }
  }
}

// The runner's measured set is the schedule filtered by that rule, in
// trace order.
TEST(MeasuredSetTest, RunnerMeasuresTheScheduleFilteredByTheRule) {
  for (const Scenario& s : goldenScenarios()) {
    const ScenarioRunner runner(s);
    std::vector<NodeId> expected;
    for (const trace::NodeTrace& nt : runner.schedule().nodes()) {
      if (inMeasuredSet(s, nt)) expected.push_back(nt.id);
    }
    EXPECT_FALSE(expected.empty()) << churn::modelName(s.model);
    EXPECT_EQ(runner.measuredIds(), expected) << churn::modelName(s.model);
  }
}

// ---- metrics writers ----

MetricSet tinySet(const std::string& protocol, std::uint64_t seed) {
  MetricSet set;
  set.protocol = protocol;
  set.model = "STAT";
  set.hashName = "splitmix64";
  set.effectiveN = 10;
  set.seed = seed;
  set.discoverySeconds = {1.0, 2.0, 3.0};
  set.discoveredFraction = 1.0;
  set.memoryEntries = {5.0, 6.0};
  set.outgoingBytesPerSecond = {10.0};
  set.perNode.push_back({NodeId::fromIndex(0), 100, 10, 5, 42, 0, 1.5});
  // The summary holds the same samples, as collectMetrics and
  // collectSamples would leave it.
  streaming::StreamedSummary summary;
  for (double x : set.discoverySeconds) summary.discoverySeconds.add(x);
  for (double x : set.memoryEntries) summary.memoryEntries.add(x);
  for (double x : set.outgoingBytesPerSecond) {
    summary.outgoingBytesPerSecond.add(x);
  }
  summary.joined = summary.found = 3;
  set.streamed = summary;
  return set;
}

TEST(MetricsWriterTest, CsvFilesRejectASetWithoutRowsNamingTheRun) {
  const std::string prefix = ::testing::TempDir() + "avmon_csv_norows";
  std::vector<std::string> validRunFiles;
  for (const char* suffix :
       {".discovery.csv", ".memory.csv", ".bandwidth.csv", ".pernode.csv"}) {
    validRunFiles.push_back(prefix + ".avmon-STAT-n10-s1" + suffix);
    std::remove(validRunFiles.back().c_str());
  }
  MetricSet summaryOnly = tinySet("central", 4);
  summaryOnly.discoverySeconds.clear();
  summaryOnly.memoryEntries.clear();
  summaryOnly.outgoingBytesPerSecond.clear();
  summaryOnly.perNode.clear();
  try {
    writeCsvFiles(prefix, {tinySet("avmon", 1), summaryOnly});
    FAIL() << "expected invalid_argument for a MetricSet without rows";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(summaryOnly.label()),
              std::string::npos)
        << e.what();
  }
  // Nothing was written, not even the valid run's files.
  for (const std::string& path : validRunFiles) {
    EXPECT_FALSE(std::ifstream(path).good()) << path;
  }
}

TEST(MetricsWriterTest, CsvFilesReportStreamFailure) {
  try {
    writeCsvFiles("/nonexistent-dir-for-avmon-test/prefix",
                  {tinySet("avmon", 1)});
    FAIL() << "expected runtime_error for unwritable CSV target";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent-dir-for-avmon-test"),
              std::string::npos)
        << e.what();
  }
}

TEST(MetricsWriterTest, CsvFilesWriteAllFilesAndPerNodeRows) {
  const std::string prefix = ::testing::TempDir() + "avmon_csv_sink";
  const std::vector<std::string> written =
      writeCsvFiles(prefix, {tinySet("avmon", 1)});
  ASSERT_EQ(written.size(), 4u);
  for (const std::string& path : written) {
    std::ifstream f(path);
    EXPECT_TRUE(f.good()) << path;
    std::remove(path.c_str());
  }
  // Single-run sweeps keep the historical file names.
  EXPECT_EQ(written[0], prefix + ".discovery.csv");
}

TEST(MetricsWriterTest, MultiRunCsvFilesAreKeyedByRunLabel) {
  const std::string prefix = ::testing::TempDir() + "avmon_csv_multi";
  const std::vector<std::string> written =
      writeCsvFiles(prefix, {tinySet("avmon", 1), tinySet("broadcast", 1)});
  ASSERT_EQ(written.size(), 8u);
  EXPECT_NE(written[0].find("avmon-STAT"), std::string::npos);
  EXPECT_NE(written[4].find("broadcast-STAT"), std::string::npos);
  for (const std::string& path : written) std::remove(path.c_str());
}

TEST(MetricsWriterTest, JsonReportsStreamFailure) {
  EXPECT_THROW(writeJson("/nonexistent-dir-for-avmon-test/metrics.json",
                         {tinySet("avmon", 1)}),
               std::runtime_error);
}

TEST(MetricsWriterTest, JsonEmitsOneObjectPerRun) {
  const std::string path = ::testing::TempDir() + "avmon_metrics.json";
  writeJson(path, {tinySet("avmon", 1), tinySet("central", 2)});
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream buffer;
  buffer << f.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"protocol\": \"avmon\""), std::string::npos);
  EXPECT_NE(json.find("\"protocol\": \"central\""), std::string::npos);
  EXPECT_NE(json.find("\"first_monitor_discovery_s\""), std::string::npos);
  EXPECT_NE(json.find("\"discovered_fraction\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(MetricsWriterTest, SummaryTablesPrintComparisonForMultipleRuns) {
  std::ostringstream out;
  printSummaryTables({tinySet("avmon", 1), tinySet("broadcast", 1)}, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("protocol comparison"), std::string::npos);
  EXPECT_NE(text.find("avmon"), std::string::npos);
  EXPECT_NE(text.find("broadcast"), std::string::npos);
}

TEST(MetricsWriterTest, SummaryTablesSingleRunHasNoComparison) {
  std::ostringstream out;
  printSummaryTables({tinySet("avmon", 1)}, out);
  EXPECT_EQ(out.str().find("protocol comparison"), std::string::npos);
}

// ---- a spec reproduces a scenario built in code ----

TEST(ScenarioSpecTest, SpecReproducesCodeBuiltScenario) {
  // A scenario built field by field and its spec twin must be
  // indistinguishable, which (by the pinned determinism guarantees) makes
  // the metrics identical too.
  Scenario built;
  built.hashName = "md5";
  built.model = churn::Model::kSynth;
  built.stableSize = 300;
  built.warmup = 30 * kMinute;
  built.horizon = built.warmup + 90 * kMinute;
  built.seed = 7;
  built.messageDropProbability = 0.01;

  const Scenario spec = Scenario::fromSpec(
      "model = SYNTH\nn = 300\nhorizon_min = 120\nwarmup_min = 30\n"
      "seed = 7\nhash = md5\ndrop = 0.01\n");
  EXPECT_TRUE(scenarioEquals(built, spec));
  EXPECT_EQ(built.toSpec(), spec.toSpec());
}

// ---- expectations ----

TEST(ExpectationTest, ComparisonsAndTolerances) {
  const auto one = [](const std::string& line) {
    const SweepSpec sweep = SweepSpec::parse(line + "\n");
    EXPECT_EQ(sweep.expectations.size(), 1u) << line;
    return sweep.expectations.front();
  };
  EXPECT_TRUE(one("expect.discovery_s.mean < 30").holds(29.9, 30));
  EXPECT_FALSE(one("expect.discovery_s.mean < 30").holds(30, 30));
  EXPECT_TRUE(one("expect.discovery_s.mean <= 30").holds(30, 30));
  EXPECT_TRUE(one("expect.discovery_s.mean > 30").holds(30.1, 30));
  EXPECT_FALSE(one("expect.discovery_s.mean >= 30").holds(29.9, 30));
  const Expectation relative = one("expect.memory_entries.mean ~ 40 \xC2\xB1 10%");
  EXPECT_TRUE(relative.holds(44, 40));
  EXPECT_FALSE(relative.holds(44.5, 40));
  const Expectation absolute = one("expect.memory_entries.mean ~ 40 \xC2\xB1 2");
  EXPECT_TRUE(absolute.holds(38, 40));
  EXPECT_FALSE(absolute.holds(37.5, 40));

  // p<percent> reads the sketch at percent / 100.
  const Expectation p = one("expect.outgoing_bps.p99.85 <= 11");
  EXPECT_EQ(p.stat, Expectation::Stat::kQuantile);
  EXPECT_DOUBLE_EQ(p.phi, 0.9985);

  // closed:<name> evaluates the formulas.hpp closed form at the point.
  const analysis::ClosedFormPoint point{2000, 27, 11, 60.0};
  EXPECT_DOUBLE_EQ(
      one("expect.memory_entries.mean ~ closed:memory_entries \xC2\xB1 10%")
          .boundAt(point),
      27.0 + 2.0 * 11.0);
  EXPECT_DOUBLE_EQ(
      one("expect.computations_per_s.mean < closed:checks_per_s")
          .boundAt(point),
      2.0 * 27.0 * 27.0 / 60.0);
  EXPECT_DOUBLE_EQ(one("expect.discovery_s.mean < 30").boundAt(point), 30.0);
}

Scenario tinyRun() {
  Scenario s;
  s.model = churn::Model::kStat;
  s.stableSize = 40;
  s.horizon = 30 * kMinute;
  s.warmup = 10 * kMinute;
  s.seed = 5;
  return s;
}

TEST(ExpectationTest, VerdictRowsCarryTheMeasuredValue) {
  ScenarioRunner runner(tinyRun());
  runner.run();
  const MetricSet set = collectMetrics(runner);
  const SweepSpec sweep = SweepSpec::parse(
      "expect.memory_entries.mean > 0\n"
      "expect.memory_entries.mean < 0\n");
  const double mean = set.summary().memoryEntries.stats.mean();
  ASSERT_GT(mean, 0.0);
  EXPECT_EQ(sweep.expectations[0].measuredOn(set.summary()), mean);

  std::ostringstream out;
  EXPECT_EQ(printVerdicts(sweep.expectations, {set}, out), 1u);
  const std::string text = out.str();
  const std::string measured = stats::TablePrinter::num(mean, 4);
  const std::size_t pass = text.find("expect.memory_entries.mean > 0");
  const std::size_t fail = text.find("expect.memory_entries.mean < 0");
  ASSERT_NE(pass, std::string::npos) << text;
  ASSERT_NE(fail, std::string::npos) << text;
  const std::string passRow = text.substr(pass, text.find('\n', pass) - pass);
  const std::string failRow = text.substr(fail, text.find('\n', fail) - fail);
  EXPECT_NE(passRow.find(measured), std::string::npos) << passRow;
  EXPECT_NE(passRow.find("PASS"), std::string::npos) << passRow;
  EXPECT_NE(failRow.find(measured), std::string::npos) << failRow;
  EXPECT_NE(failRow.find("FAIL"), std::string::npos) << failRow;
  EXPECT_NE(text.find("1 of 2 expectations failed"), std::string::npos);

  // A metric without samples fails: no vacuous pass on an empty sketch.
  const SweepSpec empty =
      SweepSpec::parse("expect.discovery3_s.max <= 1e9\n");
  MetricSet none = set;
  none.streamed->discovery3Seconds = streaming::StreamedMetric{};
  std::ostringstream quiet;
  EXPECT_EQ(printVerdicts(empty.expectations, {none}, quiet), 1u);
  EXPECT_NE(quiet.str().find("n/a"), std::string::npos);
}

#ifdef AVMON_SIM_BINARY
std::string readFile(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream buffer;
  buffer << f.rdbuf();
  return buffer.str();
}

// Runs the avmon_sim binary on `spec`; returns its exit status.
int runAvmonSim(const std::string& spec, const std::string& stdoutPath,
                const std::string& jsonPath) {
  const std::string specPath = ::testing::TempDir() + "avmon_sim_expect.spec";
  std::ofstream(specPath) << spec;
  const std::string command = std::string(AVMON_SIM_BINARY) + " --spec " +
                              specPath + " --json " + jsonPath + " > " +
                              stdoutPath + " 2>&1";
  const int status = std::system(command.c_str());
  std::remove(specPath.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// Expectations change no run: with and without its expect lines a spec
// prints the same tables and writes the same JSON; the verdict rows follow
// the tables, and one failed row makes the exit status 1.
TEST(ExpectationTest, AvmonSimChecksWithoutChangingTheRun) {
  const std::string base =
      "model = STAT\nn = 40\nhorizon_min = 30\nwarmup_min = 10\n"
      "seed = 5, 6\n";
  const std::string dir = ::testing::TempDir();
  const std::string json = dir + "avmon_sim_expect.json";

  ASSERT_EQ(runAvmonSim(base, dir + "avmon_sim_plain.txt", json), 0);
  const std::string plainOut = readFile(dir + "avmon_sim_plain.txt");
  const std::string plainJson = readFile(json);

  ASSERT_EQ(runAvmonSim(base + "expect.discovered_fraction.count >= 0\n",
                        dir + "avmon_sim_pass.txt", json),
            0);
  const std::string passOut = readFile(dir + "avmon_sim_pass.txt");
  EXPECT_EQ(readFile(json), plainJson);

  ASSERT_EQ(runAvmonSim(base + "expect.discovered_fraction.count >= 0\n"
                               "expect.memory_entries.mean < 0\n",
                        dir + "avmon_sim_fail.txt", json),
            1);
  const std::string failOut = readFile(dir + "avmon_sim_fail.txt");
  EXPECT_EQ(readFile(json), plainJson);

  for (const std::string* out : {&passOut, &failOut}) {
    ASSERT_GT(out->size(), plainOut.size());
    EXPECT_EQ(out->substr(0, plainOut.size()), plainOut);
    EXPECT_EQ(out->substr(plainOut.size()).rfind("== expectations ==", 0), 0u)
        << *out;
  }
  EXPECT_NE(passOut.find("0 of 2 expectations failed"), std::string::npos);
  EXPECT_NE(failOut.find("2 of 4 expectations failed"), std::string::npos);
  for (const char* name :
       {"avmon_sim_plain.txt", "avmon_sim_pass.txt", "avmon_sim_fail.txt"}) {
    std::remove((dir + name).c_str());
  }
  std::remove(json.c_str());
}
#endif

}  // namespace
}  // namespace avmon::experiments
