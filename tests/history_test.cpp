// Availability-history store tests (raw / recent / aged / compact).
#include <gtest/gtest.h>

#include "churn/churn_model.hpp"
#include "history/availability_history.hpp"
#include "trace/availability_trace.hpp"

namespace avmon::history {
namespace {

bool upAt(const trace::NodeTrace& nt, SimTime t) {
  for (const trace::Interval& s : nt.sessions) {
    if (s.start <= t && t < s.end) return true;
  }
  return false;
}

TEST(RawHistoryTest, EstimateIsUpFraction) {
  RawHistory h;
  EXPECT_DOUBLE_EQ(h.estimate(), 0.0);
  h.record(1, true);
  h.record(2, true);
  h.record(3, false);
  h.record(4, true);
  EXPECT_DOUBLE_EQ(h.estimate(), 0.75);
  EXPECT_EQ(h.sampleCount(), 4u);
}

TEST(RawHistoryTest, WindowedEstimate) {
  RawHistory h;
  for (SimTime t = 0; t < 10; ++t) h.record(t, t >= 5);
  EXPECT_DOUBLE_EQ(h.estimateWindow(0, 5), 0.0);
  EXPECT_DOUBLE_EQ(h.estimateWindow(5, 10), 1.0);
  EXPECT_DOUBLE_EQ(h.estimateWindow(0, 10), 0.5);
  EXPECT_DOUBLE_EQ(h.estimateWindow(20, 30), 0.0);  // empty window
}

TEST(RawHistoryTest, KeepsFullSampleLog) {
  RawHistory h;
  h.record(10, true);
  h.record(20, false);
  ASSERT_EQ(h.samples().size(), 2u);
  EXPECT_EQ(h.samples()[0].when, 10);
  EXPECT_TRUE(h.samples()[0].up);
  EXPECT_FALSE(h.samples()[1].up);
}

TEST(RecentHistoryTest, SlidingWindowEvictsOldest) {
  RecentHistory h(3);
  h.record(1, false);
  h.record(2, false);
  h.record(3, true);
  EXPECT_NEAR(h.estimate(), 1.0 / 3.0, 1e-12);
  h.record(4, true);  // evicts the first false
  EXPECT_NEAR(h.estimate(), 2.0 / 3.0, 1e-12);
  h.record(5, true);  // evicts the second false
  EXPECT_DOUBLE_EQ(h.estimate(), 1.0);
  EXPECT_EQ(h.sampleCount(), 3u);
}

TEST(RecentHistoryTest, RejectsZeroCapacity) {
  EXPECT_THROW(RecentHistory h(0), std::invalid_argument);
}

TEST(AgedHistoryTest, ConvergesTowardRecentValue) {
  AgedHistory h(0.5);
  h.record(1, true);
  EXPECT_DOUBLE_EQ(h.estimate(), 1.0);  // first sample initializes
  h.record(2, false);
  EXPECT_DOUBLE_EQ(h.estimate(), 0.5);
  h.record(3, false);
  EXPECT_DOUBLE_EQ(h.estimate(), 0.25);
  for (int i = 0; i < 30; ++i) h.record(10 + i, false);
  EXPECT_LT(h.estimate(), 0.01);
}

TEST(AgedHistoryTest, RejectsBadAlpha) {
  EXPECT_THROW(AgedHistory h(0.0), std::invalid_argument);
  EXPECT_THROW(AgedHistory h(-1.0), std::invalid_argument);
  EXPECT_THROW(AgedHistory h(1.5), std::invalid_argument);
  EXPECT_NO_THROW(AgedHistory h(1.0));
}

TEST(CompactHistoryTest, ExtendsPureRunsAndCoalescesOldest) {
  CompactHistory h(2);
  h.record(1, true);
  h.record(2, true);
  EXPECT_EQ(h.runs().size(), 1u);
  h.record(3, false);
  EXPECT_EQ(h.runs().size(), 2u);
  h.record(4, true);  // third run — the two oldest coalesce into one
  ASSERT_EQ(h.runs().size(), 2u);
  EXPECT_EQ(h.runs()[0].first, 1);
  EXPECT_EQ(h.runs()[0].last, 3);
  EXPECT_EQ(h.runs()[0].total, 3u);
  EXPECT_EQ(h.runs()[0].up, 2u);
  EXPECT_EQ(h.runs()[1].total, 1u);
  // Coarsening never touches the headline counters.
  EXPECT_EQ(h.sampleCount(), 4u);
  EXPECT_DOUBLE_EQ(h.estimate(), 0.75);
}

TEST(CompactHistoryTest, MixedRunIsNeverExtended) {
  CompactHistory h(2);
  h.record(1, true);
  h.record(2, false);
  h.record(3, true);  // coalesce -> runs_[0] mixed {t1..t2}
  h.record(4, true);  // extends the pure tail run, not the mixed head
  ASSERT_EQ(h.runs().size(), 2u);
  EXPECT_EQ(h.runs()[0].total, 2u);
  EXPECT_EQ(h.runs()[1].total, 2u);
  EXPECT_EQ(h.runs()[1].up, 2u);
}

TEST(CompactHistoryTest, RejectsBudgetBelowTwo) {
  EXPECT_THROW(CompactHistory h(0), std::invalid_argument);
  EXPECT_THROW(CompactHistory h(1), std::invalid_argument);
  EXPECT_NO_THROW(CompactHistory h(2));
}

TEST(CompactHistoryTest, SampleSpanMatchesRaw) {
  RawHistory raw;
  CompactHistory compact(4);
  EXPECT_FALSE(compact.sampleSpan().has_value());
  for (SimTime t = 5; t <= 95; t += 10) {
    const bool up = (t / 10) % 3 != 0;
    raw.record(t, up);
    compact.record(t, up);
  }
  ASSERT_TRUE(compact.sampleSpan().has_value());
  EXPECT_EQ(compact.sampleSpan()->first, raw.sampleSpan()->first);
  EXPECT_EQ(compact.sampleSpan()->last, raw.sampleSpan()->last);
}

// The satellite equivalence suite: on sample streams drawn from the
// paper's four synthetic churn models, the compact store's estimate,
// sample count, and span are IDENTICAL to RawHistory's (bit-for-bit —
// both divide the same integer counters) even with a run budget far below
// the sample count, while the run table stays within budget.
class CompactEquivalenceTest : public ::testing::TestWithParam<churn::Model> {
};

TEST_P(CompactEquivalenceTest, MatchesRawOnChurnSignals) {
  churn::WorkloadParams workload;
  workload.stableSize = 40;
  workload.horizon = 4 * kHour;
  workload.controlFraction = 0.2;
  workload.controlJoinTime = 30 * kMinute;
  workload.seed = 7;
  const trace::AvailabilityTrace trace =
      churn::generate(GetParam(), workload);
  const SimDuration period = 2 * kMinute;
  constexpr std::size_t kBudget = 2;  // tightest legal budget
  std::size_t coarsened = 0;
  for (const trace::NodeTrace& nt : trace.nodes()) {
    RawHistory raw;
    CompactHistory compact(kBudget);
    std::size_t rawRuns = 0;  // maximal same-value spans of the stream
    bool prev = false;
    for (SimTime t = 0; t <= workload.horizon; t += period) {
      const bool up = upAt(nt, t);
      if (rawRuns == 0 || up != prev) ++rawRuns;
      prev = up;
      raw.record(t, up);
      compact.record(t, up);
    }
    ASSERT_EQ(compact.sampleCount(), raw.sampleCount());
    EXPECT_DOUBLE_EQ(compact.estimate(), raw.estimate());
    ASSERT_TRUE(compact.sampleSpan().has_value());
    EXPECT_EQ(compact.sampleSpan()->first, raw.sampleSpan()->first);
    EXPECT_EQ(compact.sampleSpan()->last, raw.sampleSpan()->last);
    ASSERT_LE(compact.runs().size(), compact.maxRuns());
    if (rawRuns > compact.maxRuns()) ++coarsened;
  }
  // The budget must actually bind somewhere, or the suite proves nothing.
  // STAT is exempt: its streams have at most two runs (a control node's
  // pre-join gap, then up forever), which is exactly the budget.
  if (GetParam() != churn::Model::kStat) {
    EXPECT_GT(coarsened, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperChurnModels, CompactEquivalenceTest,
                         ::testing::Values(churn::Model::kStat,
                                           churn::Model::kSynth,
                                           churn::Model::kSynthBD,
                                           churn::Model::kSynthBD2));

TEST(HistoryFactoryTest, BuildsAllStyles) {
  EXPECT_EQ(makeHistory("raw")->name(), "raw");
  EXPECT_EQ(makeHistory("recent")->name(), "recent");
  EXPECT_EQ(makeHistory("aged")->name(), "aged");
  EXPECT_EQ(makeHistory("compact")->name(), "compact");
  EXPECT_THROW(makeHistory("bogus"), std::invalid_argument);
}

TEST(HistoryFactoryTest, HonorsParameters) {
  const auto recent = makeHistory("recent", 7);
  auto* r = dynamic_cast<RecentHistory*>(recent.get());
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->capacity(), 7u);

  const auto aged = makeHistory("aged", 0.25);
  auto* a = dynamic_cast<AgedHistory*>(aged.get());
  ASSERT_NE(a, nullptr);
  EXPECT_DOUBLE_EQ(a->alpha(), 0.25);

  const auto compact = makeHistory("compact", 6);
  auto* c = dynamic_cast<CompactHistory*>(compact.get());
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->maxRuns(), 6u);
  const auto unparam = makeHistory("compact");
  auto* d = dynamic_cast<CompactHistory*>(unparam.get());
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->maxRuns(), CompactHistory::kDefaultMaxRuns);
}

// Property: all stores agree on a constant signal.
class HistoryAgreementTest : public ::testing::TestWithParam<const char*> {};

TEST_P(HistoryAgreementTest, ConstantSignalEstimatesExactly) {
  for (bool value : {true, false}) {
    const auto h = makeHistory(GetParam());
    for (SimTime t = 0; t < 100; ++t) h->record(t, value);
    EXPECT_DOUBLE_EQ(h->estimate(), value ? 1.0 : 0.0) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(AllStyles, HistoryAgreementTest,
                         ::testing::Values("raw", "recent", "aged"));

}  // namespace
}  // namespace avmon::history
