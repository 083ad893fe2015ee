// Golden-hash helper for the scheduler-determinism regression tests.
//
// Folds every metric a completed ScenarioRunner reports — the per-sample
// rows (collectSamples), the accuracy table, and a per-node "CSV" row in
// schedule order — into one FNV-1a fingerprint. Any change to event
// ordering, RNG draw order, or metric arithmetic moves the hash; identical
// seeded runs are bit-identical and reproduce it exactly.
// scenario_metrics_test pins the current values (they must survive every
// scheduler / transport / harness rewrite), and sharded_sim_test
// additionally proves them identical for every shard count of the sharded
// simulator.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "experiments/metrics.hpp"
#include "experiments/protocol.hpp"
#include "experiments/scenario.hpp"

namespace avmon::experiments {

class MetricsFingerprint {
 public:
  void mix(std::uint64_t x) noexcept {
    // 64-bit FNV-1a over the 8 bytes of x.
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (x >> (8 * i)) & 0xFF;
      hash_ *= 1099511628211ULL;
    }
  }

  void mixDouble(double d) noexcept {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  }

  void mixVector(const std::vector<double>& v) noexcept {
    mix(v.size());
    for (double d : v) mixDouble(d);
  }

  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;  // FNV offset basis
};

/// The discovered fraction recounted from the protocol probes: measured
/// nodes that joined, and of those the ones with a first monitor.
inline double discoveredFractionOf(const ScenarioRunner& runner) {
  std::size_t joined = 0, found = 0;
  for (const NodeId& id : runner.measuredIds()) {
    if (!runner.traceOf(id)->firstJoin()) continue;
    ++joined;
    if (runner.protocol().discoveryDelay(id, 1)) ++found;
  }
  return joined == 0 ? 0.0
                     : static_cast<double>(found) / static_cast<double>(joined);
}

/// Fingerprint of everything a run reports: the per-sample rows, the
/// third-monitor discovery delays, the discovered fraction, and the
/// availability-accuracy table.
inline std::uint64_t summaryHash(const ScenarioRunner& runner) {
  const MetricSet rows = collectSamples(runner);
  std::vector<double> thirdMonitor;
  for (const NodeId& id : runner.measuredIds()) {
    if (const auto d = runner.protocol().discoveryDelay(id, 3)) {
      thirdMonitor.push_back(toSeconds(*d));
    }
  }

  MetricsFingerprint fp;
  fp.mixVector(rows.discoverySeconds);
  fp.mixVector(thirdMonitor);
  fp.mixDouble(rows.discoveredFraction);
  fp.mixVector(rows.computationsPerSecond);
  fp.mixVector(rows.memoryEntries);
  fp.mixVector(rows.outgoingBytesPerSecond);
  fp.mixVector(rows.uselessPingsPerMinute);

  fp.mix(rows.accuracy.size());
  for (const auto& a : rows.accuracy) {
    fp.mix((static_cast<std::uint64_t>(a.id.ip()) << 16) | a.id.port());
    fp.mixDouble(a.estimated);
    fp.mixDouble(a.actual);
    fp.mix(a.reporters);
  }
  return fp.value();
}

/// Fingerprint of the per-node CSV: id, traffic counters, protocol
/// counters, and state sizes for every node, in schedule order.
inline std::uint64_t perNodeHash(const ScenarioRunner& runner) {
  MetricsFingerprint fp;
  const auto& nodes = runner.schedule().nodes();
  fp.mix(nodes.size());
  for (const auto& nt : nodes) {
    const AvmonNode& node = runner.node(nt.id);
    fp.mix((static_cast<std::uint64_t>(nt.id.ip()) << 16) | nt.id.port());
    const NodeMetrics& m = node.metrics();
    fp.mix(m.hashChecks);
    fp.mix(m.notifiesSent);
    fp.mix(m.joinsForwarded);
    fp.mix(m.joinsReceived);
    fp.mix(m.joinAdds);
    fp.mix(m.cvFetches);
    fp.mix(m.monitoringPingsSent);
    fp.mix(m.uselessPings);
    fp.mix(m.forgetfulSuppressed);
    fp.mix(node.coarseView().size());
    fp.mix(node.pingingSet().size());
    fp.mix(node.targetSet().size());
    if (const auto d = node.discoveryDelay(1)) {
      fp.mix(static_cast<std::uint64_t>(*d));
    } else {
      fp.mix(0xFFFFFFFFFFFFFFFFULL);
    }
  }
  return fp.value();
}

/// Protocol-generic per-node fingerprint: every participant in
/// forEachNode order, through the Protocol probes and the runner's traffic
/// counters only — so it pins the baselines too, where perNodeHash's
/// runner.node() throws.
inline std::uint64_t protocolNodeHash(const ScenarioRunner& runner) {
  MetricsFingerprint fp;
  const Protocol& protocol = runner.protocol();
  protocol.forEachNode([&](const NodeId& id) {
    fp.mix((static_cast<std::uint64_t>(id.ip()) << 16) | id.port());
    if (const auto d = protocol.discoveryDelay(id, 1)) {
      fp.mix(static_cast<std::uint64_t>(*d));
    } else {
      fp.mix(0xFFFFFFFFFFFFFFFFULL);
    }
    fp.mix(protocol.memoryEntries(id));
    fp.mix(protocol.hashChecks(id));
    fp.mix(protocol.uselessPings(id));
    const sim::TrafficCounters traffic = runner.trafficOf(id);
    fp.mix(traffic.bytesSent);
    fp.mix(traffic.messagesSent);
  });
  return fp.value();
}

/// The three seeded workloads the golden test pins: STAT, SYNTH-BD, and
/// SYNTH with injected network faults (drops + RPC timeouts).
inline std::vector<Scenario> goldenScenarios() {
  Scenario stat;
  stat.model = churn::Model::kStat;
  stat.stableSize = 120;
  stat.horizon = 90 * kMinute;
  stat.warmup = 30 * kMinute;
  stat.controlFraction = 0.1;
  stat.seed = 314;
  stat.hashName = "splitmix64";

  Scenario synthBd = stat;
  synthBd.model = churn::Model::kSynthBD;
  synthBd.seed = 271;

  Scenario synthDrop = stat;
  synthDrop.model = churn::Model::kSynth;
  synthDrop.seed = 99;
  synthDrop.messageDropProbability = 0.05;
  synthDrop.rpcFailProbability = 0.02;

  return {stat, synthBd, synthDrop};
}

}  // namespace avmon::experiments
