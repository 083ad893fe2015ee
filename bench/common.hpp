// Shared helpers for the experiment benches.
//
// Every bench binary reproduces one paper artifact (a table or figure) and
// prints the same rows/series the paper reports. Simulated horizons default
// to a laptop-friendly scale — discovery and steady-state metrics converge
// within tens of simulated minutes — and can be raised to the paper's
// 48-hour runs with AVMON_BENCH_SCALE=full (see fullScale below).
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "experiments/metrics.hpp"
#include "experiments/scenario.hpp"
#include "stats/cdf.hpp"
#include "stats/summary.hpp"
#include "stats/table_printer.hpp"

namespace avmon::benchx {

/// True when AVMON_BENCH_SCALE=full: run the paper's 48 h horizons.
bool fullScale();

/// The one sanctioned wall clock: benches time the HARNESS (events/sec,
/// wall seconds per figure), never simulation behavior — simulated time
/// comes from Simulator::now() alone. Funneling every real-clock read
/// through this alias keeps the rest of the tree free of clock calls.
// lint:allow(wall-clock, bench harness self-timing only; wall time is reported, never fed back into a simulation)
using WallClock = std::chrono::steady_clock;

/// Current harness timestamp (see WallClock).
WallClock::time_point wallClockNow();

/// Seconds elapsed since `start` on the harness clock.
double secondsSince(WallClock::time_point start);

/// Standard scenario for a figure bench: warm-up 30 min (1 h at full
/// scale), with `measureMinutes` of measured time after it (48 h at full
/// scale). Control group 10%, seed fixed for reproducibility.
experiments::Scenario figureScenario(churn::Model model, std::size_t n,
                                     int measureMinutes,
                                     std::uint64_t seed = 20070601);

/// Memory entries of each measured node with any state, in measured-set
/// order (the rows' memoryEntries cover every participant).
std::vector<double> measuredMemoryEntries(
    const experiments::ScenarioRunner& runner);

/// Mean of a sample vector (0 when empty).
double meanOf(const std::vector<double>& v);

/// Summary (mean/stddev/count) of a sample vector.
stats::Summary summarize(const std::vector<double>& v);

/// Prints one CDF per labeled sample set, `points` rows each, under a
/// common title. Mirrors the multi-curve CDF figures.
void printCdfs(const std::string& title,
               const std::vector<std::pair<std::string, std::vector<double>>>&
                   curves,
               std::size_t points = 12);

/// Formats "mean ± stddev (n=count)".
std::string meanPlusMinus(const std::vector<double>& v, int precision = 2);

}  // namespace avmon::benchx
