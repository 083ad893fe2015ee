#include "experiments/streaming/collector.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "experiments/adversary.hpp"
#include "experiments/protocol.hpp"
#include "experiments/scenario.hpp"
#include "experiments/streaming/reducer_registry.hpp"
#include "sim/sharded_simulator.hpp"

namespace avmon::experiments::streaming {

NodeProbe probeNode(const ScenarioRunner& runner, const NodeId& id) {
  const Protocol& protocol = runner.protocol();
  const Scenario& scenario = runner.scenario();
  NodeProbe probe;
  probe.id = id;
  probe.measured = runner.isMeasured(id);
  // nullptr only for scheme-owned participants outside the trace (the
  // central server), which are never measured.
  const trace::NodeTrace* nt = runner.traceOf(id);

  // Discovery, computation, and accuracy cover the measured set. The
  // discovery denominator counts measured nodes that joined during the
  // run: one whose first session never started cannot be discovered.
  // Accuracy goes through the one shared definition (alignedAccuracyOf in
  // experiments/adversary.cpp).
  if (probe.measured && nt != nullptr) {
    probe.joined = nt->firstJoin().has_value();
    if (const auto d = protocol.discoveryDelay(id, 1)) {
      probe.discoverySeconds = toSeconds(*d);
    }
    if (const auto d = protocol.discoveryDelay(id, 2)) {
      probe.discovery2Seconds = toSeconds(*d);
    }
    if (const auto d = protocol.discoveryDelay(id, 3)) {
      probe.discovery3Seconds = toSeconds(*d);
    }
    const double upSeconds = toSeconds(nt->totalUpTime());
    if (upSeconds >= 1.0) {
      probe.computationsPerSecond =
          static_cast<double>(protocol.hashChecks(id)) / upSeconds;
    }
    probe.accuracy = alignedAccuracyOf(protocol, *nt);
  }

  // Memory covers every participant with any state (a node that never
  // joined holds nothing; skipping it avoids a wall of zeros).
  if (const std::size_t entries = protocol.memoryEntries(id); entries != 0) {
    probe.memoryEntries = static_cast<double>(entries);
  }

  // Bandwidth covers every participant up for at least one protocol period
  // of the post-warm-up window. The paper normalizes by wall-clock time,
  // not up-time (nodes spend nothing while down); nodes born mid-window
  // get their shorter window, and off-trace participants are always up.
  const SimTime from = scenario.warmup;
  const SimTime to = scenario.horizon;
  double upSeconds, windowSeconds;
  if (nt != nullptr) {
    upSeconds = nt->availability(from, to) * toSeconds(to - from);
    windowSeconds = toSeconds(to - std::max(from, nt->birth));
  } else {
    upSeconds = toSeconds(to - from);
    windowSeconds = upSeconds;
  }
  if (upSeconds >= toSeconds(runner.config().protocolPeriod)) {
    probe.outgoingBytesPerSecond =
        static_cast<double>(runner.trafficOf(id).bytesSent) / windowSeconds;
  }

  // Useless pings cover every monitor up for at least a minute.
  if (protocol.isMonitoring(id)) {
    const double upMinutes = nt != nullptr ? toMinutes(nt->totalUpTime())
                                           : toMinutes(scenario.horizon);
    if (upMinutes >= 1.0) {
      probe.uselessPingsPerMinute =
          static_cast<double>(protocol.uselessPings(id)) / upMinutes;
    }
  }
  return probe;
}

StreamingCollector::StreamingCollector(
    const ScenarioRunner& runner, const std::vector<std::string>& reducerNames)
    : runner_(&runner) {
  const ReducerRegistry& registry = ReducerRegistry::instance();
  names_ = reducerNames.empty() ? registry.names() : reducerNames;
  for (const std::string& name : names_) {
    const ReducerFactory* factory = registry.find(name);
    if (factory == nullptr) {
      throw std::invalid_argument(
          "StreamingCollector: unknown reducer '" + name +
          "' — known reducers: " + registry.namesJoined());
    }
    prototypes_.push_back(factory->make());
    windowed_.push_back(factory->windowed);
    anyWindowed_ = anyWindowed_ || factory->windowed;
  }

  const sim::ShardedSimulator& world = runner.world();
  banks_.resize(world.shardCount());
  for (ShardBank& bank : banks_) {
    bank.reducers.reserve(prototypes_.size());
    for (const auto& prototype : prototypes_) {
      bank.reducers.push_back(prototype->fork());
    }
  }

  // Partition the participant population by home shard so the final node
  // scan runs where each node lives. Every protocol builds one participant
  // per trace node, so the measured set is a subset of this visit.
  runner.protocol().forEachNode([&](const NodeId& id) {
    ShardBank& bank = banks_[world.shardOf(id)];
    bank.participants.push_back(id);
    if (runner.isMeasured(id)) bank.measuredHome.push_back(id);
  });

  // Collusion victims, partitioned the same way, so the resilience
  // reducer's barrier gauges are computed on each victim's home thread.
  for (const NodeId& id : runner.adversary().victims) {
    banks_[world.shardOf(id)].victimsHome.push_back(id);
  }
}

void StreamingCollector::onWindowBarrier(sim::ShardedSimulator& world,
                                         SimTime boundary) {
  const Protocol& protocol = runner_->protocol();
  world.visitShards([&](std::size_t s) {
    ShardBank& bank = banks_[s];
    WindowProbe probe;
    probe.shard = s;
    probe.windowStart = lastBoundary_;
    probe.windowEnd = boundary;
    // Aggregate counters are differenced, not scanned: O(1) per shard per
    // window. The warm-up resetTraffic zeroes the totals mid-window, so a
    // "backwards" total means this window's delta restarts at the reset.
    const sim::TrafficCounters totals = world.netOf(s).totalTraffic();
    probe.bytesSentDelta = totals.bytesSent >= bank.lastTotals.bytesSent
                               ? totals.bytesSent - bank.lastTotals.bytesSent
                               : totals.bytesSent;
    probe.messagesSentDelta =
        totals.messagesSent >= bank.lastTotals.messagesSent
            ? totals.messagesSent - bank.lastTotals.messagesSent
            : totals.messagesSent;
    bank.lastTotals = totals;
    // A recorded first-monitor delay implies the discovery already happened
    // (<= boundary), so the running count minus the last barrier's count is
    // exactly the discoveries inside (lastBoundary, boundary].
    std::size_t discovered = 0;
    for (const NodeId& id : bank.measuredHome) {
      if (protocol.discoveryDelay(id, 1)) ++discovered;
    }
    probe.discoveries =
        static_cast<std::uint64_t>(discovered - bank.discoveredSoFar);
    bank.discoveredSoFar = discovered;
    // Eclipse gauges over the victims homed here (the victim list is tiny
    // — the attack spec's victim count — so this stays O(1)-ish).
    const ResolvedAdversary& adversary = runner_->adversary();
    for (const NodeId& id : bank.victimsHome) {
      std::size_t monitors = 0, colluding = 0;
      protocol.visitMonitorsOf(id, [&](const NodeId& m) {
        ++monitors;
        if (adversary.isColluder(m)) ++colluding;
      });
      if (monitors > 0) {
        ++probe.victimsMonitored;
        if (colluding == monitors) ++probe.victimsEclipsed;
      }
    }
    for (auto& reducer : bank.reducers) reducer->onWindow(probe);
  });

  WindowRow row;
  row.windowStart = lastBoundary_;
  row.windowEnd = boundary;
  for (std::size_t i = 0; i < prototypes_.size(); ++i) {
    if (!windowed_[i]) continue;
    mergedRoot(i)->emitWindowColumns(row);
    for (ShardBank& bank : banks_) bank.reducers[i]->resetWindow();
  }
  windows_.push_back(std::move(row));
  lastBoundary_ = boundary;
}

void StreamingCollector::finish(sim::ShardedSimulator& world,
                                SimTime horizon) {
  if (finished_) {
    throw std::logic_error("StreamingCollector::finish called twice");
  }
  if (anyWindowed_ && lastBoundary_ < horizon) {
    onWindowBarrier(world, horizon);  // final (possibly shorter) window
  }
  world.visitShards([&](std::size_t s) {
    ShardBank& bank = banks_[s];
    for (const NodeId& id : bank.participants) {
      const NodeProbe probe = probeNode(*runner_, id);
      for (auto& reducer : bank.reducers) reducer->onNode(probe);
    }
  });
  for (std::size_t i = 0; i < prototypes_.size(); ++i) {
    mergedRoot(i)->finish(summary_);
  }
  finished_ = true;
}

std::unique_ptr<Reducer> StreamingCollector::mergedRoot(std::size_t i) const {
  std::unique_ptr<Reducer> root = prototypes_[i]->fork();
  for (const ShardBank& bank : banks_) root->mergeFrom(*bank.reducers[i]);
  return root;
}

const StreamedSummary& StreamingCollector::summary() const {
  if (!finished_) {
    throw std::logic_error(
        "StreamingCollector::summary read before finish()");
  }
  return summary_;
}

std::size_t StreamingCollector::stateBytes() const {
  std::size_t bytes = 0;
  for (const auto& prototype : prototypes_) bytes += prototype->stateBytes();
  for (const ShardBank& bank : banks_) {
    for (const auto& reducer : bank.reducers) bytes += reducer->stateBytes();
  }
  for (const WindowRow& row : windows_) {
    bytes += sizeof(WindowRow) +
             row.columns.size() * sizeof(std::pair<std::string, double>);
  }
  return bytes;
}

}  // namespace avmon::experiments::streaming
