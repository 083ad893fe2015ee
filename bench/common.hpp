// Shared helpers for the bench drivers that no spec expresses (Table 1,
// the collusion, DHT-consistency, join-spread, K-choice and prediction
// ablations, and the simulator-core trajectory). The paper's figures are
// spec files under examples/specs/paper/, run by avmon_sim.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "stats/table_printer.hpp"

namespace avmon::benchx {

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

/// Formats "mean +/- stddev (n=count)".
std::string meanPlusMinus(const std::vector<double>& v, int precision = 2);

}  // namespace avmon::benchx
