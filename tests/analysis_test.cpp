// Property tests on the Section 4 formulas, including verifying the
// optimality derivations numerically over the integer neighborhood.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/formulas.hpp"
#include "analysis/table1.hpp"

namespace avmon::analysis {
namespace {

TEST(FormulaTest, PairCheckProbabilityInUnitInterval) {
  for (std::size_t n : {100u, 1000u, 100000u}) {
    for (std::size_t cvs : {2u, 10u, 50u}) {
      const double p = pairCheckProbabilityPerRound(cvs, n);
      EXPECT_GT(p, 0.0);
      EXPECT_LT(p, 1.0);
    }
  }
}

TEST(FormulaTest, DiscoveryTimeDecreasesWithCvs) {
  for (std::size_t n : {1000u, 10000u}) {
    double prev = expectedDiscoveryRounds(2, n);
    for (std::size_t cvs = 3; cvs * cvs < n; ++cvs) {
      const double cur = expectedDiscoveryRounds(cvs, n);
      EXPECT_LT(cur, prev) << "cvs=" << cvs << " N=" << n;
      prev = cur;
    }
  }
}

TEST(FormulaTest, ApproximationMatchesExactForSmallCvs) {
  // E[D] ≈ N/cvs² when cvs = o(√N): at cvs = ⁴√N the two must agree well.
  for (std::size_t n : {10000u, 1000000u}) {
    const std::size_t cvs = cvsOptimalMDC(n);
    const double exact = expectedDiscoveryRounds(cvs, n);
    const double approx = expectedDiscoveryRoundsApprox(cvs, n);
    EXPECT_NEAR(exact / approx, 1.0, 0.05) << "N=" << n;
  }
}

TEST(FormulaTest, PaperDiscoveryNumberAtOneMillion) {
  // Section 4.2 "In practice": N=1M, cvs=32 ⇒ E[D] ≈ 1000 protocol periods.
  EXPECT_NEAR(expectedDiscoveryRounds(32, 1000000), 1000.0, 30.0);
}

TEST(FormulaTest, OptimalMdMinimizesObjective) {
  // The derivation says cvs* = ∛(2N); check that no integer neighbor (or
  // any point in a wide sweep) beats it.
  for (std::size_t n : {500u, 2000u, 100000u}) {
    const std::size_t star = cvsOptimalMD(n);
    const double best = objectiveMD(star, n);
    for (std::size_t cvs = 2; cvs < 4 * star; ++cvs) {
      EXPECT_GE(objectiveMD(cvs, n) + 1.0, best)
          << "cvs=" << cvs << " beats MD optimum at N=" << n;
    }
  }
}

TEST(FormulaTest, OptimalMdcMinimizesObjective) {
  for (std::size_t n : {500u, 2000u, 100000u}) {
    const std::size_t star = cvsOptimalMDC(n);
    const double best = objectiveMDC(star, n);
    for (std::size_t cvs = 2; cvs < 6 * star; ++cvs) {
      EXPECT_GE(objectiveMDC(cvs, n) + 1.0, best)
          << "cvs=" << cvs << " beats MDC optimum at N=" << n;
    }
  }
}

TEST(FormulaTest, OptimalValuesMatchClosedForms) {
  EXPECT_EQ(cvsOptimalMD(1000000), static_cast<std::size_t>(
                                       std::llround(std::cbrt(2000000.0))));
  EXPECT_EQ(cvsOptimalMDC(1000000), 32u);
  EXPECT_EQ(cvsOptimalDC(1000000), cvsOptimalMDC(1000000));
}

TEST(FormulaTest, JoinSpreadIsLogarithmic) {
  EXPECT_DOUBLE_EQ(joinSpreadRounds(32), 5.0);
  EXPECT_DOUBLE_EQ(joinSpreadRounds(2), 1.0);
  EXPECT_GT(joinSpreadRounds(1000), joinSpreadRounds(100));
}

TEST(FormulaTest, DuplicateJoinsVanishForSmallCvs) {
  // cvs = o(√N) ⇒ expected duplicates per period is o(1).
  EXPECT_LT(expectedDuplicateJoins(32, 1000000), 0.01);
  EXPECT_LT(expectedDuplicateJoins(27, 2000), 1.0);
}

TEST(FormulaTest, DeadEntryDeletionGrowsWithCvsAndN) {
  EXPECT_GT(deadEntryDeletionRounds(20, 1000), deadEntryDeletionRounds(10, 1000));
  EXPECT_GT(deadEntryDeletionRounds(10, 100000), deadEntryDeletionRounds(10, 1000));
}

TEST(FormulaTest, SomeMonitorUpProbability) {
  // 1-(1-a)^K: with a = 0.5 and K = 10, failure chance is 2^-10.
  EXPECT_NEAR(probSomeMonitorUp(10, 0.5), 1.0 - std::pow(2.0, -10.0), 1e-12);
  EXPECT_DOUBLE_EQ(probSomeMonitorUp(5, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(probSomeMonitorUp(5, 0.0), 0.0);
  // Monotone in K.
  EXPECT_GT(probSomeMonitorUp(20, 0.3), probSomeMonitorUp(5, 0.3));
}

TEST(FormulaTest, KForLOutOfKMatchesPaperRule) {
  // K = (l+1)·log2(N).
  EXPECT_EQ(kForLOutOfK(1024, 1), 20u);
  EXPECT_EQ(kForLOutOfK(1024, 2), 30u);
  EXPECT_GE(kForLOutOfK(2, 1), 1u);
}

TEST(FormulaTest, CollusionResilienceApproachesOne) {
  // With K = O(log N) and C constant, pollution probability vanishes.
  const double p1k = probNoColluderInPS(1000, 10, 3);
  const double p1m = probNoColluderInPS(1000000, 20, 3);
  EXPECT_GT(p1m, p1k);
  EXPECT_GT(p1m, 0.9999);
  // Degenerate: many colluders at tiny N do pollute.
  EXPECT_LT(probNoColluderInPS(100, 10, 50), 0.01);
}

TEST(FormulaTest, SystemWideCollusionFreedom) {
  // D = o(N/log N) colluding pairs leave the system clean w.h.p.
  EXPECT_GT(probSystemCollusionFree(1000000, 20, 1000), 0.97);
  EXPECT_LT(probSystemCollusionFree(1000, 10, 1000), 0.01);
}

TEST(FormulaTest, MemoryAndCheckClosedForms) {
  EXPECT_DOUBLE_EQ(expectedMemoryEntries(27, 11), 49.0);  // Figure 9, N=2000
  EXPECT_DOUBLE_EQ(checksPerPeriod(27), 1458.0);
}

TEST(FormulaTest, ClosedFormsResolveByName) {
  const ClosedFormPoint point{2000, 27, 11, 60.0};
  ASSERT_NE(findClosedForm("memory_entries"), nullptr);
  EXPECT_DOUBLE_EQ(findClosedForm("memory_entries")->eval(point), 49.0);
  EXPECT_DOUBLE_EQ(findClosedForm("checks_per_s")->eval(point), 1458.0 / 60);
  EXPECT_DOUBLE_EQ(findClosedForm("discovery_s")->eval(point),
                   expectedDiscoveryRounds(27, 2000) * 60.0);
  EXPECT_EQ(findClosedForm("nope"), nullptr);
  EXPECT_NE(closedFormNames().find("checks_per_s"), std::string::npos);
}

TEST(Table1Test, HasFiveRowsWithExpectedOrdering) {
  const auto rows = table1(1000000, 100);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].approach, "Broadcast (AVCast)");

  // Broadcast memory is N; all AVMON variants are far below.
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i].memoryEntries, rows[0].memoryEntries / 100.0);
  }

  // MD discovers faster than MDC (larger cvs), but costs more memory.
  const auto& md = rows[3];
  const auto& mdc = rows[4];
  EXPECT_LT(md.discoveryRounds, mdc.discoveryRounds);
  EXPECT_GT(md.memoryEntries, mdc.memoryEntries);
}

TEST(Table1Test, ConcreteValuesAtPaperScale) {
  const auto rows = table1(1000000, 32);
  // Optimal-MDC row: memory ≈ 32, discovery ≈ √N = 1000, compute ≈ √N.
  const auto& mdc = rows[4];
  EXPECT_NEAR(mdc.memoryEntries, 32.0, 1.0);
  EXPECT_NEAR(mdc.discoveryRounds, 1000.0, 40.0);
  EXPECT_NEAR(mdc.computationsPerRound, 1024.0, 70.0);
}

}  // namespace
}  // namespace avmon::analysis
