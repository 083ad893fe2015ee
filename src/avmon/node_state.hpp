// Struct-of-arrays mirror of the hot per-node probe fields.
//
// The metric probes (Protocol::memoryEntries / hashChecks / uselessPings /
// discoveryDelay / isMonitoring) are answered thousands to millions of
// times per run — per window barrier and per node in the end-of-run scan
// of the streaming collector. Answering them from the full AvmonNode means
// a hash lookup plus size() reads across three scattered unordered
// containers per probe; at million-node scale that walk dominates the
// metric path and drags every node's cold cache lines back in.
//
// NodeStateTable keeps just the probe-visible scalars in parallel dense
// arrays indexed by the node's global world slot (== trace position, PR 3
// addressing). AvmonNode publishes into its row at the end of every
// externally driven mutation (message, RPC, tick, timer completion), so
// the row is exact whenever the world is quiescent — which is the only
// time probes run (window barriers, post-horizon scans). The full
// AvmonNode remains the authority for protocol logic; the table is a
// read-optimized projection, ~50 bytes per node.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/time.hpp"

namespace avmon::soa {

/// Parallel per-slot arrays of the probe-hot node state. A row is all the
/// fields at one index; -1 marks "never" for the time-valued columns.
struct NodeStateTable {
  std::vector<std::uint8_t> alive;
  std::vector<std::uint32_t> cvSize;
  std::vector<std::uint32_t> psSize;
  std::vector<std::uint32_t> tsSize;
  std::vector<std::uint64_t> hashChecks;
  std::vector<std::uint64_t> uselessPings;
  std::vector<SimTime> firstJoin;        ///< first join() instant, -1 never
  std::vector<SimTime> firstDiscovery;   ///< first PS entry instant, -1 never
  std::vector<SimTime> lastPingReceived; ///< PR2 baseline, -1 never

  void resize(std::size_t n) {
    alive.assign(n, 0);
    cvSize.assign(n, 0);
    psSize.assign(n, 0);
    tsSize.assign(n, 0);
    hashChecks.assign(n, 0);
    uselessPings.assign(n, 0);
    firstJoin.assign(n, -1);
    firstDiscovery.assign(n, -1);
    lastPingReceived.assign(n, -1);
  }

  std::size_t size() const noexcept { return alive.size(); }
};

}  // namespace avmon::soa
