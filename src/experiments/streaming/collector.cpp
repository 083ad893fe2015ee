#include "experiments/streaming/collector.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "experiments/adversary.hpp"
#include "experiments/protocol.hpp"
#include "experiments/scenario.hpp"
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

StreamingCollector::StreamingCollector(const ScenarioRunner& runner,
                                       const std::vector<std::string>& groups)
    : runner_(&runner) {
  if (groups.empty()) {
    groups_ = {kSummary, kTraffic, kDiscovery, kResilience};
  }
  for (const std::string& name : groups) {
    groups_.push_back(static_cast<Group>(
        std::find(kMetricGroups.begin(), kMetricGroups.end(), name) -
        kMetricGroups.begin()));
  }
  for (const Group group : groups_) {
    summarize_ = summarize_ || group == kSummary;
    anyWindowed_ = anyWindowed_ || group != kSummary;
  }

  const sim::ShardedSimulator& world = runner.world();
  banks_.resize(world.shardCount());

  // Partition the participant population by home shard so the final node
  // scan runs where each node lives. Every protocol builds one participant
  // per trace node, so the measured set is a subset of this visit.
  runner.protocol().forEachNode([&](const NodeId& id) {
    ShardBank& bank = banks_[world.shardOf(id)];
    bank.participants.push_back(id);
    if (runner.isMeasured(id)) bank.measuredHome.push_back(id);
  });

  // Collusion victims, partitioned the same way, so the barrier's eclipse
  // gauges are computed on each victim's home thread.
  for (const NodeId& id : runner.adversary().victims) {
    banks_[world.shardOf(id)].victimsHome.push_back(id);
  }
}

void StreamingCollector::onWindowBarrier(sim::ShardedSimulator& world,
                                         SimTime boundary) {
  const Protocol& protocol = runner_->protocol();
  const ResolvedAdversary& adversary = runner_->adversary();
  // The warm-up resetTraffic zeroes every shard's totals at the warm-up
  // instant, so the window holding it counts from the reset, not from the
  // last barrier's (pre-reset) totals.
  const SimTime warmup = runner_->scenario().warmup;
  const bool holdsReset =
      warmup > 0 && lastBoundary_ < warmup && warmup <= boundary;
  world.visitShards([&](std::size_t s) {
    ShardBank& bank = banks_[s];
    // Aggregate counters are differenced, not scanned: O(1) per shard per
    // window.
    const sim::TrafficCounters totals = world.netOf(s).totalTraffic();
    const sim::TrafficCounters since =
        holdsReset ? sim::TrafficCounters{} : bank.lastTotals;
    bank.windowTraffic = {totals.bytesSent - since.bytesSent,
                          totals.messagesSent - since.messagesSent};
    bank.lastTotals = totals;
    // A recorded first-monitor delay implies the discovery already happened
    // (<= boundary), so the running count minus the last barrier's count is
    // exactly the discoveries inside (lastBoundary, boundary].
    std::size_t discovered = 0;
    for (const NodeId& id : bank.measuredHome) {
      if (protocol.discoveryDelay(id, 1)) ++discovered;
    }
    bank.windowDiscoveries = discovered - bank.discoveredSoFar;
    bank.discoveredSoFar = discovered;
    // Eclipse gauges over the victims homed here (the victim list is tiny
    // — the attack spec's victim count — so this stays O(1)-ish).
    bank.victimsMonitored = bank.victimsEclipsed = 0;
    for (const NodeId& id : bank.victimsHome) {
      std::size_t monitors = 0, colluding = 0;
      protocol.visitMonitorsOf(id, [&](const NodeId& m) {
        ++monitors;
        if (adversary.isColluder(m)) ++colluding;
      });
      if (monitors > 0) {
        ++bank.victimsMonitored;
        if (colluding == monitors) ++bank.victimsEclipsed;
      }
    }
  });

  // Integer sums in shard order: the row is the same at every shard count.
  std::uint64_t bytes = 0, messages = 0, discoveries = 0, discovered = 0,
                monitored = 0, eclipsed = 0;
  for (const ShardBank& bank : banks_) {
    bytes += bank.windowTraffic.bytesSent;
    messages += bank.windowTraffic.messagesSent;
    discoveries += bank.windowDiscoveries;
    discovered += bank.discoveredSoFar;
    monitored += bank.victimsMonitored;
    eclipsed += bank.victimsEclipsed;
  }
  WindowRow row;
  row.windowStart = lastBoundary_;
  row.windowEnd = boundary;
  const double seconds = toSeconds(boundary - lastBoundary_);
  const auto column = [&row](const char* name, std::uint64_t value) {
    row.columns.emplace_back(name, static_cast<double>(value));
  };
  for (const Group group : groups_) {
    switch (group) {
      case kSummary:
        break;
      case kTraffic:
        column("traffic_bytes", bytes);
        column("traffic_messages", messages);
        row.columns.emplace_back(
            "traffic_bytes_per_sec",
            seconds > 0.0 ? static_cast<double>(bytes) / seconds : 0.0);
        break;
      case kDiscovery:
        column("discoveries", discoveries);
        column("discovered_total", discovered);
        break;
      case kResilience:
        column("victims_monitored", monitored);
        column("victims_eclipsed", eclipsed);
        break;
    }
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
  if (summarize_) {
    world.visitShards([&](std::size_t s) {
      ShardBank& bank = banks_[s];
      for (const NodeId& id : bank.participants) {
        bank.summary.add(probeNode(*runner_, id));
      }
    });
    for (const ShardBank& bank : banks_) summary_.merge(bank.summary);
  }
  finished_ = true;
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
  for (const ShardBank& bank : banks_) {
    bytes += sizeof(ShardBank) - sizeof(StreamedSummary) +
             bank.summary.stateBytes();
  }
  for (const WindowRow& row : windows_) {
    bytes += sizeof(WindowRow) +
             row.columns.size() * sizeof(std::pair<std::string, double>);
  }
  return bytes;
}

}  // namespace avmon::experiments::streaming
