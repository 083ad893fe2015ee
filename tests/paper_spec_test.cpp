// The paper's figures as specs (examples/specs/paper/): every spec parses,
// expands and validates, and every expectation resolves — its metric,
// statistic and closed form — at every point, without running a world.
// Running the specs is `ctest -C paper` (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "churn/churn_model.hpp"
#include "experiments/scenario.hpp"
#include "experiments/spec.hpp"

namespace avmon::experiments {
namespace {

std::vector<std::string> paperSpecs() {
  std::vector<std::string> out;
  const std::filesystem::path dir =
      std::filesystem::path(AVMON_SOURCE_DIR) / "examples/specs/paper";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".spec") out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(PaperSpecTest, EverySpecParsesExpandsValidatesAndResolves) {
  const std::vector<std::string> specs = paperSpecs();
  // One spec or more for each of the 21 figure and ablation drivers.
  EXPECT_GE(specs.size(), 21u);
  std::size_t expectations = 0;
  for (const std::string& path : specs) {
    SCOPED_TRACE(path);
    const SweepSpec sweep = SweepSpec::parseFile(path);
    const std::vector<Scenario> points = sweep.expand();
    ASSERT_FALSE(points.empty());
    for (const Scenario& s : points) {
      EXPECT_NO_THROW(s.validate());
      // The figures' fixed recipe.
      EXPECT_EQ(s.seed, 20070601u);
      EXPECT_EQ(s.warmup, 30 * kMinute);
      EXPECT_EQ(s.controlFraction, 0.1);

      // The point a closed form is evaluated at: effective N and the
      // resolved cvs, K and protocol period, as the runner resolves them.
      const std::size_t n =
          churn::effectiveStableSize(s.model, workloadOf(s));
      const AvmonConfig cfg =
          s.configOverride.value_or(AvmonConfig::paperDefaults(n));
      const analysis::ClosedFormPoint point{n, cfg.cvs, cfg.k,
                                            toSeconds(cfg.protocolPeriod)};
      for (const Expectation& e : sweep.expectations) {
        const double bound = e.boundAt(point);
        EXPECT_TRUE(std::isfinite(bound)) << e.text;
        if (e.closed != nullptr) {
          EXPECT_GT(bound, 0.0) << e.text;
        }
      }
    }
    expectations += sweep.expectations.size();
  }
  EXPECT_GT(expectations, 0u);
}

}  // namespace
}  // namespace avmon::experiments
