#include "experiments/protocols/avmon_protocol.hpp"

#include <algorithm>

#include "experiments/adversary.hpp"

namespace avmon::experiments {

void AvmonProtocol::build(const ProtocolContext& ctx) {
  monitoringPeriod_ = ctx.config.monitoringPeriod;
  horizon_ = ctx.scenario.horizon;

  precomputeBootstrapPicks(ctx);

  // One protocol node per scheduled node, all constructed up front (they
  // start down; the trace player brings them up). Each node lives in its
  // home shard's sub-world and checks the consistency condition through
  // that shard's selector. Every node shares one immutable config — a
  // copy per node is ~150 B nobody reads twice.
  const auto sharedConfig = std::make_shared<const AvmonConfig>(ctx.config);
  std::uint32_t index = 0;
  for (const trace::NodeTrace& nt : ctx.trace.nodes()) {
    const std::size_t shard = ctx.world.shardOfIndex(index);
    const auto bootstrap = [this, index](const NodeId&) {
      return nextBootstrapPick(index);
    };
    auto node = std::make_unique<AvmonNode>(
        nt.id, sharedConfig, *ctx.shardSelectors[shard], ctx.world.simOf(shard),
        ctx.world.netOf(shard), bootstrap, ctx.rootRng.fork());
    nodes_.emplace(nt.id, std::move(node));
    ++index;
  }

  // Overreporting attackers (Figure 20): a uniformly random fraction.
  // Marking follows the trace's canonical node order, not container hash
  // order, so which nodes turn hostile is a function of the seed alone.
  if (ctx.scenario.overreportFraction > 0) {
    for (const trace::NodeTrace& nt : ctx.trace.nodes()) {
      if (ctx.rootRng.chance(ctx.scenario.overreportFraction))
        nodes_.at(nt.id)->setOverreporting(true);
    }
  }

  // Adversary cohorts (Section 4.3): membership was resolved from private
  // seed-derived streams, so tagging here draws nothing from rootRng and
  // the underlying world is bit-identical with the attack on or off.
  if (ctx.adversary != nullptr && ctx.adversary->enabled()) {
    for (const trace::NodeTrace& nt : ctx.trace.nodes()) {
      AvmonNode& node = *nodes_.at(nt.id);
      if (ctx.adversary->isColluder(nt.id))
        node.setCollusion(ctx.adversary->victimSet);
      if (ctx.adversary->isAmnesiac(nt.id)) node.setAmnesia(true);
    }
  }
}

void AvmonProtocol::precomputeBootstrapPicks(const ProtocolContext& ctx) {
  // The alive set at any instant is fully determined by the availability
  // trace, so the bootstrap oracle ("a random alive node other than the
  // joiner") can be evaluated up front: replay the trace's transitions in
  // a canonical order and bank one pick per session start. At run time a
  // join just consumes its node's next pick — no global alive list exists,
  // which is what lets joins on different shards proceed without sharing
  // (and keeps the draws shard-count-invariant).
  Rng bootRng = ctx.rootRng.fork();
  const auto& nodes = ctx.trace.nodes();

  // One pick per session, banked into a flat arena sliced by pickOffsets_
  // (node i's picks live at [pickOffsets_[i], pickOffsets_[i+1])).
  pickOffsets_.assign(nodes.size() + 1, 0);
  for (std::uint32_t i = 0; i < nodes.size(); ++i) {
    pickOffsets_[i + 1] =
        pickOffsets_[i] + static_cast<std::uint32_t>(nodes[i].sessions.size());
  }
  bootstrapPicks_.assign(pickOffsets_.back(), NodeId{});
  bootstrapCursor_.assign(nodes.size(), 0);

  struct Transition {
    SimTime t;
    std::uint32_t node;
    std::uint32_t session;
    bool join;
  };
  std::vector<Transition> transitions;
  for (std::uint32_t i = 0; i < nodes.size(); ++i) {
    const auto& sessions = nodes[i].sessions;
    for (std::uint32_t j = 0; j < sessions.size(); ++j) {
      transitions.push_back({sessions[j].start, i, j, true});
      transitions.push_back({sessions[j].end, i, j, false});
    }
  }
  // Canonical order: time, then trace position, then session, join before
  // the (zero-length-session) leave at the same instant.
  std::sort(transitions.begin(), transitions.end(),
            [](const Transition& a, const Transition& b) {
              if (a.t != b.t) return a.t < b.t;
              if (a.node != b.node) return a.node < b.node;
              if (a.session != b.session) return a.session < b.session;
              return a.join && !b.join;
            });

  std::vector<NodeId> alive;
  // lint:allow(per-node-alloc, one-shot bootstrap precomputation at build(); freed before the run starts)
  std::unordered_map<NodeId, std::size_t> alivePos;
  for (const Transition& tr : transitions) {
    const NodeId id = nodes[tr.node].id;
    if (tr.join) {
      // Pick before the joiner becomes visible; a few draws are enough to
      // dodge self, and a lone first node genuinely has nobody to call.
      NodeId pick{};
      if (!alive.empty()) {
        for (int attempt = 0; attempt < 4; ++attempt) {
          const NodeId candidate = alive[bootRng.index(alive.size())];
          if (candidate != id) {
            pick = candidate;
            break;
          }
        }
      }
      bootstrapPicks_[pickOffsets_[tr.node] + tr.session] = pick;
      if (!alivePos.count(id)) {
        alivePos[id] = alive.size();
        alive.push_back(id);
      }
    } else if (const auto it = alivePos.find(id); it != alivePos.end()) {
      const std::size_t pos = it->second;
      alive[pos] = alive.back();
      alivePos[alive[pos]] = pos;
      alive.pop_back();
      alivePos.erase(id);
    }
  }
}

NodeId AvmonProtocol::nextBootstrapPick(std::uint32_t nodeIndex) {
  const std::uint32_t begin = pickOffsets_[nodeIndex];
  const std::uint32_t end = pickOffsets_[nodeIndex + 1];
  std::uint32_t& cursor = bootstrapCursor_[nodeIndex];
  if (begin + cursor >= end) return NodeId{};  // more joins than sessions?
  return bootstrapPicks_[begin + cursor++];
}

void AvmonProtocol::onJoin(const NodeId& id, bool firstJoin) {
  nodes_.at(id)->join(firstJoin);
}

void AvmonProtocol::onLeave(const NodeId& id) { nodes_.at(id)->leave(); }

void AvmonProtocol::forEachNode(
    const std::function<void(const NodeId&)>& fn) const {
  // lint:allow(unordered-iter, visit order feeds float accumulation and CSV row order that the golden fingerprints pin; hash order is deterministic for the fixed insertion history in build())
  for (const auto& [id, node] : nodes_) fn(id);
}

std::optional<SimDuration> AvmonProtocol::discoveryDelay(
    const NodeId& id, std::size_t k) const {
  return nodes_.at(id)->discoveryDelay(k);
}

std::size_t AvmonProtocol::memoryEntries(const NodeId& id) const {
  return nodes_.at(id)->memoryEntries();
}

std::uint64_t AvmonProtocol::hashChecks(const NodeId& id) const {
  return nodes_.at(id)->metrics().hashChecks;
}

std::uint64_t AvmonProtocol::uselessPings(const NodeId& id) const {
  return nodes_.at(id)->metrics().uselessPings;
}

bool AvmonProtocol::isMonitoring(const NodeId& id) const {
  return !nodes_.at(id)->targetSet().empty();
}

void AvmonProtocol::visitMonitorsOf(
    const NodeId& id, const std::function<void(const NodeId&)>& fn) const {
  // lint:allow(unordered-iter, the accuracy and eclipse probes' monitor visit order is pinned by the golden fingerprints; sorting here would reorder their float sums)
  for (const NodeId& m : nodes_.at(id)->pingingSet()) fn(m);
}

std::optional<EstimateSample> AvmonProtocol::estimate(
    const NodeId& monitor, const NodeId& target) const {
  const auto monIt = nodes_.find(monitor);
  if (monIt == nodes_.end()) return std::nullopt;
  const auto est = monIt->second->availabilityEstimateOf(target);
  if (!est) return std::nullopt;
  // Window aligned to this monitor's observation stream: its samples
  // start at discovery (correlated with the target's up periods), so
  // comparing truth over any other window would bias the accuracy ratio.
  const auto& ts = monIt->second->targetSet();
  const auto recIt = ts.find(target);
  if (recIt == ts.end()) return std::nullopt;
  const history::AvailabilityHistory& hist = *recIt->second.history;
  const auto span = hist.sampleSpan();
  // Monitors with a handful of samples carry no statistical weight
  // (the paper's 48 h runs give every monitor thousands of pings).
  if (!span || hist.sampleCount() < 10) return std::nullopt;
  EstimateSample sample;
  sample.estimated = *est;
  sample.windowStart = span->first;
  // Window end matters too: a monitor that left before the horizon
  // stopped sampling then, so truth is measured over its sample span.
  sample.windowEnd = std::min(span->last + monitoringPeriod_, horizon_);
  return sample;
}

const AvmonNode* AvmonProtocol::avmonNode(const NodeId& id) const {
  const auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

AvmonNode* AvmonProtocol::mutableAvmonNode(const NodeId& id) {
  const auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

}  // namespace avmon::experiments
