// Layer probes: isolated timings of each layer's public functions, with
// inputs shaped like the workload (its hash, node count, coarse-view size,
// dedup bound and history length). The traced pass runs them after the
// workload, each inside its own `probe.<name>` span.
#pragma once

#include <cstddef>
#include <string>

#include "json.hpp"
#include "trace.hpp"

namespace avmon::bench {

struct ProbeShape {
  std::string hashName = "splitmix64";
  std::size_t nodes = 1000;   ///< effective N
  unsigned k = 10;            ///< expected pinging-set size
  std::size_t cvs = 23;       ///< coarse-view entries
  std::size_t dedupMax = 1u << 16;
  std::size_t historyRuns = 32;       ///< compact-history run budget
  std::size_t samplesPerTarget = 30;  ///< monitoring pings over the horizon
  double scale = 1.0;         ///< < 1 shortens every probe
};

/// Runs every probe; returns {metric name: value} in the per-layer units
/// (ns per operation, µs for live RTTs, frames/s, retries per RPC).
Json runProbes(const ProbeShape& shape, Tracer& tracer);

}  // namespace avmon::bench
