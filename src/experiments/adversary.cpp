#include "experiments/adversary.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <unordered_map>

#include "common/rng.hpp"
#include "experiments/protocol.hpp"

namespace avmon::experiments {

namespace {

// Role salts ("colluder", "amnesia", "burst" in ASCII): each cohort draws
// from its own stream, so arming one attack never shifts another's picks.
constexpr std::uint64_t kCollusionSalt = 0x636f6c6c75646572ULL;
constexpr std::uint64_t kAmnesiaSalt = 0x00616d6e65736961ULL;
constexpr std::uint64_t kBurstSalt = 0x0000006275727374ULL;

}  // namespace

ResolvedAdversary resolveAdversary(const Scenario& scenario,
                                   const trace::AvailabilityTrace& trace) {
  ResolvedAdversary out;
  const std::vector<trace::NodeTrace>& nodes = trace.nodes();
  const std::size_t n = nodes.size();

  if (scenario.attack.collusion > 0 && n > 1) {
    Rng rng(splitmix64Mix(scenario.seed ^ kCollusionSalt));
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    rng.shuffle(order);
    // Victims first, then the coalition, from one shuffled pass — the two
    // cohorts are disjoint by construction. attack.victims = 0 means one
    // targeted node; both clamp to what the population can supply.
    const std::size_t victimCount = std::min<std::size_t>(
        std::max<std::uint32_t>(1, scenario.attack.victims), n - 1);
    const std::size_t coalitionSize =
        std::min<std::size_t>(scenario.attack.collusion, n - victimCount);
    // lint:allow(per-node-alloc, built once at resolve time and bounded by the attack's victim count, not N)
    auto victimSet = std::make_shared<std::unordered_set<NodeId>>();
    for (std::size_t i = 0; i < victimCount; ++i) {
      out.victims.push_back(nodes[order[i]].id);
      victimSet->insert(nodes[order[i]].id);
    }
    for (std::size_t i = victimCount; i < victimCount + coalitionSize; ++i) {
      out.colluders.push_back(nodes[order[i]].id);
      out.colluderSet.insert(nodes[order[i]].id);
    }
    out.victimSet = std::move(victimSet);
  }

  if (scenario.attack.forgetfulFraction > 0.0) {
    Rng rng(splitmix64Mix(scenario.seed ^ kAmnesiaSalt));
    for (const trace::NodeTrace& nt : nodes) {
      if (rng.chance(scenario.attack.forgetfulFraction)) {
        out.amnesiacs.push_back(nt.id);
        out.amnesiacSet.insert(nt.id);
      }
    }
  }

  return out;
}

void applyBursts(trace::AvailabilityTrace& trace,
                 const std::vector<sim::BurstSpec>& bursts,
                 std::uint64_t seed) {
  if (bursts.empty()) return;
  std::vector<trace::NodeTrace>& nodes = trace.nodes();
  const std::size_t n = nodes.size();
  if (n == 0) return;
  Rng rng(splitmix64Mix(seed ^ kBurstSalt));

  for (const sim::BurstSpec& burst : bursts) {
    const SimTime from = burst.at;
    const SimTime to = burst.at + burst.duration;
    const std::size_t count = std::min<std::size_t>(
        n, static_cast<std::size_t>(
               std::ceil(burst.fraction * static_cast<double>(n))));
    if (count == 0) continue;
    // A contiguous cluster (wrapping) starting at a random offset —
    // correlated failure, not i.i.d. churn.
    const std::size_t start = rng.index(n);
    for (std::size_t k = 0; k < count; ++k) {
      trace::NodeTrace& nt = nodes[(start + k) % n];
      std::vector<trace::Interval> clipped;
      clipped.reserve(nt.sessions.size() + 1);
      for (const trace::Interval& s : nt.sessions) {
        if (s.end <= from || s.start >= to) {
          clipped.push_back(s);  // untouched by the burst
          continue;
        }
        // The member dies at the burst instant and rejoins when it ends
        // (bounded by its own session): [s.start, from) and [to, s.end).
        if (s.start < from) clipped.push_back({s.start, from});
        if (s.end > to) clipped.push_back({to, s.end});
      }
      nt.sessions = std::move(clipped);
    }
  }
}

std::optional<AvailabilityAccuracy> alignedAccuracyOf(
    const Protocol& protocol, const trace::NodeTrace& nt) {
  if (!nt.firstJoin()) return std::nullopt;
  AvailabilityAccuracy acc;
  acc.id = nt.id;
  double estSum = 0.0;
  double actualSum = 0.0;
  // Visited, not copied: this probe runs once per node per run, and a
  // monitor vector per node was O(N) allocation churn at million-node scale.
  protocol.visitMonitorsOf(nt.id, [&](const NodeId& monitorId) {
    const auto sample = protocol.estimate(monitorId, nt.id);
    if (!sample) return;
    estSum += sample->estimated;
    // Ground truth aligned to this monitor's observation window (see
    // Protocol::estimate): truth over any other window would bias the
    // ratio on short runs.
    actualSum += nt.availability(sample->windowStart, sample->windowEnd);
    ++acc.reporters;
  });
  if (acc.reporters == 0) return std::nullopt;
  acc.estimated = estSum / static_cast<double>(acc.reporters);
  acc.actual = actualSum / static_cast<double>(acc.reporters);
  return acc;
}

std::vector<VictimOutcome> victimOutcomes(
    const Protocol& protocol, const ResolvedAdversary& adversary,
    const trace::AvailabilityTrace& trace) {
  std::vector<VictimOutcome> out;
  if (adversary.victims.empty()) return out;
  // lint:allow(per-node-alloc, bounded by the attack's victim count and built once per report, not per probe)
  std::unordered_map<NodeId, const trace::NodeTrace*> byId;
  for (const trace::NodeTrace& nt : trace.nodes()) {
    if (adversary.isVictim(nt.id)) byId.emplace(nt.id, &nt);
  }
  out.reserve(adversary.victims.size());
  for (const NodeId& id : adversary.victims) {
    VictimOutcome o;
    o.id = id;
    protocol.visitMonitorsOf(id, [&](const NodeId& monitor) {
      ++o.monitors;
      if (adversary.isColluder(monitor)) ++o.colludingMonitors;
    });
    o.eclipsed = o.monitors > 0 && o.colludingMonitors == o.monitors;
    if (const auto it = byId.find(id); it != byId.end()) {
      if (const auto acc = alignedAccuracyOf(protocol, *it->second)) {
        o.estimateAbsError = std::fabs(acc->estimated - acc->actual);
      }
    }
    out.push_back(o);
  }
  return out;
}

}  // namespace avmon::experiments
