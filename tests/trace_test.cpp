// Availability-trace representation, generators, and CSV I/O tests.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "trace/availability_trace.hpp"
#include "trace/generators.hpp"
#include "trace/trace_io.hpp"

namespace avmon::trace {
namespace {

NodeTrace simpleNode() {
  NodeTrace t;
  t.id = NodeId::fromIndex(7);
  t.birth = 0;
  t.sessions = {{10, 20}, {30, 50}};
  return t;
}

TEST(NodeTraceTest, UpAtRespectsSessions) {
  const NodeTrace t = simpleNode();
  EXPECT_FALSE(t.upAt(5));
  EXPECT_TRUE(t.upAt(10));
  EXPECT_TRUE(t.upAt(19));
  EXPECT_FALSE(t.upAt(20));  // half-open interval
  EXPECT_FALSE(t.upAt(25));
  EXPECT_TRUE(t.upAt(40));
  EXPECT_FALSE(t.upAt(50));
}

TEST(NodeTraceTest, AvailabilityIsUpFraction) {
  const NodeTrace t = simpleNode();
  // Sessions cover 10+20=30 time units within [0,50).
  EXPECT_DOUBLE_EQ(t.availability(0, 50), 0.6);
  EXPECT_DOUBLE_EQ(t.availability(10, 20), 1.0);
  EXPECT_DOUBLE_EQ(t.availability(20, 30), 0.0);
  EXPECT_DOUBLE_EQ(t.availability(0, 0), 0.0);  // empty window
}

TEST(NodeTraceTest, FirstJoinAndUpTime) {
  const NodeTrace t = simpleNode();
  ASSERT_TRUE(t.firstJoin().has_value());
  EXPECT_EQ(*t.firstJoin(), 10);
  EXPECT_EQ(t.totalUpTime(), 30);

  NodeTrace empty;
  EXPECT_FALSE(empty.firstJoin().has_value());
  EXPECT_EQ(empty.totalUpTime(), 0);
}

TEST(AvailabilityTraceTest, AliveCountAndBornBy) {
  AvailabilityTrace tr(100, {});
  NodeTrace a = simpleNode();
  NodeTrace b;
  b.id = NodeId::fromIndex(8);
  b.birth = 15;
  b.sessions = {{15, 100}};
  tr.add(a);
  tr.add(b);

  EXPECT_EQ(tr.aliveCount(5), 0u);
  EXPECT_EQ(tr.aliveCount(16), 2u);
  EXPECT_EQ(tr.aliveCount(25), 1u);
  EXPECT_EQ(tr.bornBy(0), 1u);
  EXPECT_EQ(tr.bornBy(15), 2u);
}

TEST(AvailabilityTraceTest, ValidateCatchesBadSessions) {
  AvailabilityTrace tr(100, {});
  NodeTrace bad;
  bad.id = NodeId::fromIndex(1);
  bad.sessions = {{20, 10}};  // inverted
  tr.add(bad);
  std::string why;
  EXPECT_FALSE(tr.validate(&why));
  EXPECT_NE(why.find("inverted"), std::string::npos);
}

TEST(AvailabilityTraceTest, ValidateCatchesOverlap) {
  AvailabilityTrace tr(100, {});
  NodeTrace bad;
  bad.id = NodeId::fromIndex(1);
  bad.sessions = {{10, 30}, {20, 40}};
  tr.add(bad);
  EXPECT_FALSE(tr.validate());
}

TEST(AvailabilityTraceTest, ValidateCatchesSessionAfterDeath) {
  AvailabilityTrace tr(100, {});
  NodeTrace bad;
  bad.id = NodeId::fromIndex(1);
  bad.death = 25;
  bad.sessions = {{10, 30}};
  tr.add(bad);
  EXPECT_FALSE(tr.validate());
}

TEST(AvailabilityTraceTest, QuantizeRoundsAndMerges) {
  AvailabilityTrace tr(1000, {});
  NodeTrace n;
  n.id = NodeId::fromIndex(1);
  n.sessions = {{12, 18}, {22, 35}};  // grain 10: [10,20) and [20,40) -> merge
  tr.add(n);
  tr.quantize(10);
  ASSERT_EQ(tr.nodes()[0].sessions.size(), 1u);
  EXPECT_EQ(tr.nodes()[0].sessions[0], (Interval{10, 40}));
  EXPECT_TRUE(tr.validate());
}

// ---- generators ----

TEST(GeneratorTest, StatAllNodesAlwaysUp) {
  SynthParams p;
  p.stableSize = 50;
  p.horizon = 10 * kMinute;
  p.controlFraction = 0.0;
  const AvailabilityTrace tr = generateStat(p);
  ASSERT_EQ(tr.nodes().size(), 50u);
  EXPECT_TRUE(tr.validate());
  for (const NodeTrace& n : tr.nodes()) {
    EXPECT_DOUBLE_EQ(n.availability(0, p.horizon), 1.0);
  }
}

TEST(GeneratorTest, StatControlGroupJoinsAtControlTime) {
  SynthParams p;
  p.stableSize = 100;
  p.horizon = 2 * kHour;
  p.controlFraction = 0.1;
  p.controlJoinTime = kHour;
  const AvailabilityTrace tr = generateStat(p);
  ASSERT_EQ(tr.nodes().size(), 110u);
  std::size_t controls = 0;
  for (const NodeTrace& n : tr.nodes()) {
    if (!n.isControl) continue;
    ++controls;
    EXPECT_EQ(n.birth, kHour);
    ASSERT_TRUE(n.firstJoin());
    EXPECT_EQ(*n.firstJoin(), kHour);
  }
  EXPECT_EQ(controls, 10u);
}

TEST(GeneratorTest, SynthKeepsStableAliveCount) {
  SynthParams p;
  p.stableSize = 300;
  p.churnPerHour = 0.2;
  p.horizon = 12 * kHour;
  p.seed = 99;
  const AvailabilityTrace tr = generateSynth(p);
  EXPECT_TRUE(tr.validate());
  // Base population is 2N; alive count should hover near N.
  const double mean = tr.meanAliveCount(kHour, p.horizon, 10 * kMinute);
  EXPECT_NEAR(mean, 300.0, 300.0 * 0.15);
}

TEST(GeneratorTest, SynthHasNoBirthsOrDeathsByDefault) {
  SynthParams p;
  p.stableSize = 100;
  p.horizon = 6 * kHour;
  const AvailabilityTrace tr = generateSynth(p);
  for (const NodeTrace& n : tr.nodes()) {
    EXPECT_EQ(n.birth, 0);
    EXPECT_FALSE(n.death.has_value());
  }
}

TEST(GeneratorTest, SynthBDBirthsMatchRate) {
  SynthParams p;
  p.stableSize = 500;
  p.birthDeathPerDay = 0.2;
  p.horizon = 48 * kHour;
  p.seed = 7;
  const AvailabilityTrace tr = generateSynth(p);
  EXPECT_TRUE(tr.validate());
  // N_longterm after 2 days ≈ 2N + 2*0.2*N (paper: 2809 for N=2000 at 1x;
  // our population bookkeeping: base 2N plus 0.4N born).
  const double born = static_cast<double>(tr.nodes().size());
  EXPECT_NEAR(born, 2 * 500 + 0.4 * 500, 80.0);

  std::size_t deaths = 0;
  for (const NodeTrace& n : tr.nodes()) deaths += n.death.has_value() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(deaths), 0.4 * 500, 80.0);
}

TEST(GeneratorTest, SynthChurnRateIsAsConfigured) {
  SynthParams p;
  p.stableSize = 400;
  p.churnPerHour = 0.2;
  p.horizon = 10 * kHour;
  p.seed = 3;
  const AvailabilityTrace tr = generateSynth(p);
  // Count leave events (session ends) per hour in steady state: expect
  // churnPerHour * N ≈ 80/hour.
  std::size_t leaves = 0;
  for (const NodeTrace& n : tr.nodes()) {
    for (const Interval& s : n.sessions) {
      if (s.end > kHour && s.end < p.horizon) ++leaves;
    }
  }
  const double perHour = static_cast<double>(leaves) / 9.0;
  EXPECT_NEAR(perHour, 80.0, 20.0);
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  SynthParams p;
  p.stableSize = 100;
  p.birthDeathPerDay = 0.2;
  p.horizon = 4 * kHour;
  p.seed = 1234;
  const AvailabilityTrace a = generateSynth(p);
  const AvailabilityTrace b = generateSynth(p);
  ASSERT_EQ(a.nodes().size(), b.nodes().size());
  for (std::size_t i = 0; i < a.nodes().size(); ++i) {
    EXPECT_EQ(a.nodes()[i].sessions, b.nodes()[i].sessions);
  }
}

TEST(GeneratorTest, PlanetLabLikeShape) {
  PlanetLabParams p;
  p.horizon = 24 * kHour;
  const AvailabilityTrace tr = generatePlanetLabLike(p);
  EXPECT_TRUE(tr.validate());
  EXPECT_EQ(tr.nodes().size(), 239u);
  for (const NodeTrace& n : tr.nodes()) {
    EXPECT_EQ(n.birth, 0);
    EXPECT_FALSE(n.death.has_value());
  }
  // High mean availability, PlanetLab-like.
  const double avail = tr.meanAvailability(0, p.horizon);
  EXPECT_GT(avail, 0.75);
  EXPECT_LT(avail, 0.98);
}

TEST(GeneratorTest, OvernetLikeShape) {
  OvernetParams p;
  p.horizon = 48 * kHour;
  p.seed = 5;
  const AvailabilityTrace tr = generateOvernetLike(p);
  EXPECT_TRUE(tr.validate());
  // Stable alive count near 550.
  const double mean = tr.meanAliveCount(2 * kHour, p.horizon, kHour);
  EXPECT_NEAR(mean, 550.0, 550.0 * 0.2);
  // N_longterm after 2 days ≈ 1320 (paper: 1319).
  EXPECT_NEAR(static_cast<double>(tr.bornBy(p.horizon)), 1320.0, 150.0);
  // All transitions quantized to 20 minutes.
  for (const NodeTrace& n : tr.nodes()) {
    for (const Interval& s : n.sessions) {
      EXPECT_EQ(s.start % (20 * kMinute), 0) << n.id.toString();
      EXPECT_EQ(s.end % (20 * kMinute), 0) << n.id.toString();
    }
  }
}

// ---- CSV I/O ----

TEST(TraceIoTest, RoundTrips) {
  SynthParams p;
  p.stableSize = 40;
  p.birthDeathPerDay = 0.3;
  p.horizon = 6 * kHour;
  p.controlFraction = 0.1;
  const AvailabilityTrace original = generateSynth(p);

  std::stringstream buf;
  saveCsv(original, buf);
  const AvailabilityTrace loaded = loadCsv(buf);

  EXPECT_EQ(loaded.horizon(), original.horizon());
  ASSERT_EQ(loaded.nodes().size(), original.nodes().size());
  for (std::size_t i = 0; i < loaded.nodes().size(); ++i) {
    const NodeTrace& a = original.nodes()[i];
    const NodeTrace& b = loaded.nodes()[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.birth, b.birth);
    EXPECT_EQ(a.death, b.death);
    EXPECT_EQ(a.isControl, b.isControl);
    EXPECT_EQ(a.sessions, b.sessions);
  }
}

TEST(TraceIoTest, RejectsBadMagic) {
  std::stringstream buf("not-a-trace,100\n");
  EXPECT_THROW(loadCsv(buf), std::runtime_error);
}

TEST(TraceIoTest, RejectsEmptyInput) {
  std::stringstream buf("");
  EXPECT_THROW(loadCsv(buf), std::runtime_error);
}

TEST(TraceIoTest, RejectsMalformedSession) {
  std::stringstream buf("avmon-trace-v1,100\n1,2,0,-1,0,1020\n");
  EXPECT_THROW(loadCsv(buf), std::runtime_error);
}

// The message loadCsv throws for `body` after a valid header, or "" if it
// loads.
std::string loadError(const std::string& body) {
  std::stringstream buf("avmon-trace-v1,5000\n" + body);
  try {
    loadCsv(buf);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(TraceIoTest, FieldsAreWholeIntegersInRange) {
  EXPECT_EQ(loadError("4294967295,65535,0,-1,1,0:1000\n"), "");
  // Values a narrowing cast or std::stoll used to accept silently.
  EXPECT_EQ(loadError("1,70000,0,-1,0,0:1000\n"),
            "malformed trace: line 2: port: '70000' is out of range (at most "
            "65535)");
  EXPECT_EQ(loadError("4294967297,2,0,-1,0,0:1000\n"),
            "malformed trace: line 2: ip: '4294967297' is out of range (at "
            "most 4294967295)");
  EXPECT_EQ(loadError("-1,2,0,-1,0,0:1000\n"),
            "malformed trace: line 2: ip: expected an unsigned integer, got "
            "'-1'");
  EXPECT_EQ(loadError("1,2,0,-1,0,0:1000x\n"),
            "malformed trace: line 2: session end: expected an integer, got "
            "'1000x'");
  EXPECT_EQ(loadError("1,2,abc,-1,0,0:1000\n"),
            "malformed trace: line 2: birth: expected an integer, got 'abc'");
  // The line number counts the header and blank lines.
  EXPECT_EQ(loadError("1,2,0,-1,0,0:1000\n\n1,3,0,-1,2,0:1000\n"),
            "malformed trace: line 4: control: '2' is out of range (at most "
            "1)");
  EXPECT_EQ(loadError("1,2,0\n"), "malformed trace: line 2: death: missing");
  EXPECT_EQ(loadError("1,2,0,-1,0,0:99999999999999999999\n"),
            "malformed trace: line 2: session end: "
            "'99999999999999999999' is out of range");
  EXPECT_EQ(loadError("1,2,0,-1,0,0:1000,7\n"),
            "malformed trace: line 2: session end: expected an integer, got "
            "'1000,7'");
  std::stringstream header("avmon-trace-v1,100x\n");
  EXPECT_THROW(loadCsv(header), std::runtime_error);
}

TEST(TraceIoTest, RejectsARepeatedNodeId) {
  EXPECT_EQ(loadError("1,2,0,-1,0,0:1000\n1,3,0,-1,0,0:1000\n"
                      "1,2,0,-1,0,10:20\n"),
            "malformed trace: line 4: node id: 0.0.0.1:2 repeats line 2");
}

TEST(TraceIoTest, SessionErrorsNameTheLine) {
  EXPECT_EQ(loadError("1,2,0,-1,0,0:1000\n1,3,0,-1,0,50:10\n"),
            "malformed trace: line 3: sessions: empty or inverted session at "
            "node 0.0.0.1:3");
  EXPECT_EQ(loadError("1,2,0,-1,0,1020\n"),
            "malformed trace: line 2: session: expected start:end, got "
            "'1020'");
}

}  // namespace
}  // namespace avmon::trace
