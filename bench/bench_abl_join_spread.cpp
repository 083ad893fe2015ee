// Ablation A4: the joining sub-protocol (Figure 1). Measures, for a fresh
// node joining a warmed-up system: how many JOIN messages circulate, how
// many coarse views gain the joiner (target: ~cvs), how long dissemination
// takes (analysis: O(log cvs) forwarding hops, i.e. sub-second at network
// latency), and the duplicate-JOIN rate (analysis: o(1) expected
// duplicates when cvs = o(sqrt N)).
#include <iostream>
#include <memory>
#include <vector>

#include "analysis/formulas.hpp"
#include "avmon/node.hpp"
#include "common.hpp"
#include "hash/hash_function.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace avmon;

struct SpreadResult {
  std::size_t cvs = 0;
  std::uint64_t joinMessages = 0;  ///< JOINs received system-wide
  std::uint64_t adds = 0;          ///< coarse views that gained the joiner
  std::uint64_t duplicates = 0;    ///< JOINs landing where joiner was known
  SimTime spreadMs = 0;            ///< time until the last JOIN was received
};

SpreadResult measure(std::size_t n, std::size_t cvs, std::uint64_t seed) {
  sim::Simulator sim;
  hash::SplitMix64HashFunction hashFn;
  AvmonConfig cfg = AvmonConfig::paperDefaults(n);
  cfg.cvs = cvs;
  HashMonitorSelector selector(hashFn, cfg.k, n);
  sim::Network net(sim, sim::NetworkConfig{}, Rng(seed));
  Rng root(seed + 1);

  std::vector<NodeId> alive;
  const auto bootstrap = [&](const NodeId& self) {
    for (int i = 0; i < 4; ++i) {
      if (alive.empty()) return NodeId{};
      const NodeId pick = alive[root.index(alive.size())];
      if (pick != self) return pick;
    }
    return NodeId{};
  };

  std::vector<std::unique_ptr<AvmonNode>> nodes;
  for (std::size_t i = 0; i <= n; ++i) {
    nodes.push_back(std::make_unique<AvmonNode>(
        NodeId::fromIndex(static_cast<std::uint32_t>(i)), cfg, selector, sim,
        net, bootstrap, root.fork()));
  }
  for (std::size_t i = 0; i < n; ++i) {
    nodes[i]->join(true);
    alive.push_back(nodes[i]->id());
  }
  sim.runUntil(30 * cfg.protocolPeriod);

  const auto totals = [&] {
    std::uint64_t received = 0, adds = 0;
    for (const auto& node : nodes) {
      received += node->metrics().joinsReceived;
      adds += node->metrics().joinAdds;
    }
    return std::pair{received, adds};
  };
  const auto [rxBefore, addsBefore] = totals();

  const SimTime joinAt = sim.now();
  nodes[n]->join(true);
  alive.push_back(nodes[n]->id());

  // Advance in 50 ms steps until no new JOIN has been received for 500 ms.
  SpreadResult r;
  r.cvs = cvs;
  std::uint64_t lastRx = rxBefore;
  SimTime lastGrowth = 0;
  for (SimTime t = 50; t <= 10 * kSecond; t += 50) {
    sim.runUntil(joinAt + t);
    const auto [rx, adds] = totals();
    if (rx > lastRx) {
      lastRx = rx;
      lastGrowth = t;
    } else if (t - lastGrowth > 500) {
      break;
    }
    r.joinMessages = rx - rxBefore;
    r.adds = adds - addsBefore;
  }
  r.duplicates = r.joinMessages - r.adds;
  r.spreadMs = lastGrowth;
  return r;
}

}  // namespace

int main() {
  constexpr std::size_t kN = 800;
  stats::TablePrinter table(
      "Ablation A4: JOIN dissemination for one fresh node (N=800, averaged "
      "fields per run)");
  table.setHeader({"cvs", "JOINs received", "CV adds", "duplicates",
                   "analytic E[dup]", "spread ms", "log2(cvs) hops"});

  for (std::size_t cvs : {8u, 16u, 24u, 32u}) {
    // Average three seeds to smooth the duplicate count.
    std::uint64_t msgs = 0, adds = 0, dups = 0;
    SimTime spread = 0;
    constexpr int kRuns = 3;
    for (int s = 0; s < kRuns; ++s) {
      const SpreadResult r = measure(kN, cvs, 100 + static_cast<std::uint64_t>(s));
      msgs += r.joinMessages;
      adds += r.adds;
      dups += r.duplicates;
      spread = std::max(spread, r.spreadMs);
    }
    table.addRow(
        {std::to_string(cvs), std::to_string(msgs / kRuns),
         std::to_string(adds / kRuns), std::to_string(dups / kRuns),
         avmon::stats::TablePrinter::num(
             avmon::analysis::expectedDuplicateJoins(cvs, kN), 2),
         std::to_string(spread),
         avmon::stats::TablePrinter::num(
             avmon::analysis::joinSpreadRounds(cvs), 1)});
  }
  table.print(std::cout);
  std::cout << "Expected: ~cvs coarse-view adds per join, duplicates near "
               "the o(1) bound, dissemination finishing within a few "
               "hundred ms (O(log cvs) forwarding hops x ~45 ms latency).\n";
  return 0;
}
