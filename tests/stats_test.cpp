// Summary, CDF, and table printer tests.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "common/rng.hpp"
#include "stats/cdf.hpp"
#include "stats/summary.hpp"
#include "stats/table_printer.hpp"

namespace avmon::stats {
namespace {

TEST(SummaryTest, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SummaryTest, SingleSampleHasZeroVariance) {
  Summary s;
  s.add(3.14);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.14);
}

TEST(SummaryTest, MergeEqualsSequential) {
  Rng rng(77);
  Summary all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniformReal(-5, 20);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SummaryTest, MergeWithEmpty) {
  Summary a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

TEST(CdfTest, EmptyIsSafe) {
  Cdf cdf({});
  EXPECT_EQ(cdf.count(), 0u);
  EXPECT_DOUBLE_EQ(cdf.percentile(0.5), 0.0);
}

TEST(CdfTest, Percentiles) {
  Cdf cdf({10, 20, 30, 40});
  EXPECT_DOUBLE_EQ(cdf.percentile(0.25), 10.0);
  EXPECT_DOUBLE_EQ(cdf.percentile(0.5), 20.0);
  EXPECT_DOUBLE_EQ(cdf.percentile(1.0), 40.0);
  EXPECT_DOUBLE_EQ(cdf.percentile(0.0), 10.0);
}

TEST(CdfTest, PercentileOneReturnsMaxForAllSizes) {
  for (std::size_t n : {1u, 2u, 3u, 7u, 100u}) {
    std::vector<double> samples;
    for (std::size_t i = 0; i < n; ++i)
      samples.push_back(0.1 * static_cast<double>(i + 1));
    Cdf cdf(std::move(samples));
    EXPECT_DOUBLE_EQ(cdf.percentile(1.0), cdf.max()) << "n=" << n;
    // Values that creep past 1.0 through accumulated rounding still clamp.
    EXPECT_DOUBLE_EQ(cdf.percentile(1.0 + 1e-15), cdf.max()) << "n=" << n;
  }
}

TEST(CdfTest, SingleSamplePercentileIsTotal) {
  Cdf cdf({42.0});
  for (double p : {-1.0, 0.0, 1e-300, 0.5, 1.0, 1.5,
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_DOUBLE_EQ(cdf.percentile(p), 42.0) << "p=" << p;
  }
}

TEST(TablePrinterTest, AlignsColumnsAndPrintsTitle) {
  TablePrinter t("Figure X: demo");
  t.setHeader({"model", "N", "value"});
  t.addRow({"STAT", "100", "1.5"});
  t.addRow({"SYNTH-BD", "2000", "0.25"});
  std::ostringstream out;
  t.print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("== Figure X: demo =="), std::string::npos);
  EXPECT_NE(s.find("SYNTH-BD"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("----"), std::string::npos);
  // Columns aligned: "N" column starts at the same offset in both rows.
  const auto l1 = s.find("STAT");
  const auto l2 = s.find("SYNTH-BD");
  ASSERT_NE(l1, std::string::npos);
  ASSERT_NE(l2, std::string::npos);
}

TEST(TablePrinterTest, PadsMultiByteCellsByDisplayWidth) {
  TablePrinter t("widths");
  t.setHeader({"bound", "verdict"});
  t.addRow({"24.3 \xC2\xB1 10%", "PASS"});
  t.addRow({"24.3 +- 10%", "FAIL"});
  std::ostringstream out;
  t.print(out);
  const std::string text = out.str();
  // "±" occupies one column, so both verdicts start in the same column.
  const std::size_t pass = text.find("PASS");
  const std::size_t fail = text.find("FAIL");
  const std::size_t passLine = text.rfind('\n', pass) + 1;
  const std::size_t failLine = text.rfind('\n', fail) + 1;
  EXPECT_EQ(pass - passLine, fail - failLine + 1);  // +1: ± is two bytes
}

TEST(TablePrinterTest, NumFormatsPrecision) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
}

}  // namespace
}  // namespace avmon::stats
