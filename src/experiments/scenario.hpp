// Scenario runner: the one harness behind every experiment.
//
// Builds a complete simulated deployment — availability schedule from a
// churn model, a network, one protocol participant per scheduled node —
// plays the schedule, and measures it through the streaming collector
// (experiments/streaming/collector.hpp), which reports the metrics the
// paper's figures use: discovery times, per-node memory entries,
// consistency-check rates, outgoing bandwidth, useless pings, and
// estimated-vs-real availability.
//
// The monitoring scheme is pluggable: Scenario::protocol names an entry in
// the ProtocolRegistry (AVMON plus the paper's four Section-1 baselines),
// and the harness drives whichever Protocol it resolves to — so AVMON and
// every baseline produce the same MetricSet through the same code path,
// which is what makes the paper's head-to-head tables (Sections 5–6) one
// sweep instead of per-scheme harnesses.
//
// Measurement conventions (Section 5.1 of the paper):
//  * a warm-up period runs first; bandwidth counters reset when it ends;
//  * the "measured set" is the control group where the model defines one
//    (STAT/SYNTH), nodes born after warm-up for the birth/death models,
//    and every node for the trace-driven models (PL/OV);
//  * discovery time of the k-th monitor is measured from a node's first
//    join to the instant its pinging set reached size k.
//
// Execution: every scenario runs inside a sim::ShardedSimulator —
// Scenario::shards sub-worlds in lock-stepped windows (shards = 1, the
// default, is the degenerate single sub-world). Shard counts change wall
// clock only, never metrics; see sharded_simulator.hpp for the model.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "avmon/config.hpp"
#include "avmon/monitor_selector.hpp"
#include "avmon/node.hpp"
#include "churn/churn_model.hpp"
#include "churn/trace_player.hpp"
#include "common/rng.hpp"
#include "hash/hash_function.hpp"
#include "sim/fault_plan.hpp"
#include "sim/network.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim/simulator.hpp"
#include "trace/availability_trace.hpp"

namespace avmon::experiments {

class Protocol;            // experiments/protocol.hpp
struct ResolvedAdversary;  // experiments/adversary.hpp

namespace streaming {
class StreamingCollector;  // experiments/streaming/collector.hpp
}

/// Metrics configuration (experiments/streaming). Every run is measured
/// by the streaming collector; these knobs only shape its output.
struct StreamingMetricsSpec {
  /// Metric-window length; 0 (the default) means one window that closes
  /// at the horizon. The runner aligns each nominal boundary UP to the
  /// sharding-window grid, so a windowed run's event execution is
  /// bit-identical to an uninterrupted one.
  SimDuration window = 0;
  /// Metric groups to run (streaming::kMetricGroups names, each at most
  /// once), in window-column order; empty = all four.
  std::vector<std::string> reducers;
  /// Quantiles the streamed summary reports (each in (0, 1)).
  std::vector<double> quantiles{0.5, 0.99};
};

/// Adversary cohorts (spec keys attack.*; paper Section 4.3). Cohort
/// membership is resolved against the concrete trace at runner
/// construction — see experiments/adversary.hpp — from seed-derived
/// streams that never touch the runner's root stream, so arming an attack
/// leaves the underlying world bit-identical.
struct AttackSpec {
  /// Collusion coalition size C: that many nodes report 100% availability
  /// for the targeted victims. 0 disables the attack.
  std::uint32_t collusion = 0;
  /// Targeted nodes the coalition lies about; 0 with collusion > 0 means
  /// one victim. Both clamp to what the population can supply.
  std::uint32_t victims = 0;
  /// Fraction of nodes that wipe persistent storage (CV/PS/TS) on every
  /// leave, violating the Section 3.3 persistence assumption.
  double forgetfulFraction = 0.0;

  bool enabled() const noexcept {
    return collusion > 0 || forgetfulFraction > 0.0;
  }
};

/// Which lane executes the scenario: the deterministic discrete-event
/// simulator (ScenarioRunner) or the live-wire loopback cluster of real
/// UDP processes (tools/avmon_live). The sim lane is the default and the
/// only one ScenarioRunner accepts; kUdp specs are driver input.
enum class TransportKind {
  kSim,  ///< in-process sim::Network (default; every golden runs here)
  kUdp,  ///< net::LiveTransport over loopback sockets, one process per node
};

/// Live-lane knobs (spec keys udp.*). Meaningful only under
/// transport = udp; validate() rejects non-default values under kSim so a
/// spec cannot silently carry dead configuration.
struct UdpSpec {
  /// First UDP port: node i binds 127.0.0.1:(portBase + i), the driver
  /// takes portBase - 1.
  std::uint16_t portBase = 42000;
  /// RPC retry ladder (net::LiveConfig): total send attempts, initial
  /// per-attempt timeout, and the doubling cap.
  std::uint32_t retryMax = 4;
  std::uint32_t backoffMs = 50;
  std::uint32_t backoffCapMs = 800;
  /// Simulated milliseconds per wall millisecond: every node process
  /// wall-slaves its simulator clock at this rate so a 40-minute horizon
  /// replays in 40 s of wall time at the default 60x.
  double timeScale = 60.0;

  bool operator==(const UdpSpec& other) const {
    return portBase == other.portBase && retryMax == other.retryMax &&
           backoffMs == other.backoffMs &&
           backoffCapMs == other.backoffCapMs && timeScale == other.timeScale;
  }
  bool operator!=(const UdpSpec& other) const { return !(*this == other); }
};

/// Which nodes the metrics cover.
enum class MeasuredSet {
  kAuto,             ///< per-model default described above
  kControlGroup,     ///< nodes flagged isControl in the trace
  kBornAfterWarmup,  ///< nodes whose birth is after the warm-up
  kAll,              ///< every node in the trace
};

/// Full experiment description. Declarative: a Scenario round-trips
/// through the key=value spec grammar (fromSpec/toSpec, experiments/
/// spec.hpp), so workloads are text files, not code.
struct Scenario {
  /// Monitoring scheme, by ProtocolRegistry name ("avmon", "broadcast",
  /// "central", "dht_ring", "self_report").
  std::string protocol = "avmon";

  churn::Model model = churn::Model::kStat;
  std::size_t stableSize = 1000;    ///< N (ignored by PL/OV)
  SimDuration horizon = 2 * kHour;  ///< total simulated time
  SimTime warmup = 1 * kHour;       ///< warm-up end = control join time
  double controlFraction = 0.1;     ///< control group size (STAT/SYNTH)
  std::uint64_t seed = 1;

  /// Hash behind the consistency condition. Scenarios default to the fast
  /// splitmix64 mixer: the metrics count *how many* condition checks the
  /// protocol performs, and the selection distribution is uniform for any
  /// well-mixing hash, so figures are unchanged (compared by
  /// examples/specs/paper/abl_hash.spec); MD5 is the paper-faithful choice.
  std::string hashName = "splitmix64";

  /// Protocol settings; defaults to AvmonConfig::paperDefaults(N).
  std::optional<AvmonConfig> configOverride;
  bool pr2 = false;
  bool forgetful = true;
  /// Use the exponentially averaged session length in forgetful pinging.
  bool forgetfulEwma = false;

  /// Fraction of nodes misreporting 100% availability for all their
  /// targets (Figure 20's attack; the self-report baseline maps it to its
  /// selfish nodes).
  double overreportFraction = 0.0;

  /// Failure injection (resilience testing; the paper assumes a reliable
  /// network, so both default to 0).
  double messageDropProbability = 0.0;
  double rpcFailProbability = 0.0;

  /// Scheduled faults (spec keys faults.*): timed partitions, correlated
  /// failure bursts, latency-regime windows, geo-clustered bands. Empty by
  /// default — an empty plan is bit-identical to no plan at all.
  sim::FaultPlan faults;

  /// Adversary cohorts (spec keys attack.*).
  AttackSpec attack;

  /// Deep AvmonConfig knobs surfaced as spec keys. Unset keeps whatever
  /// the resolved config (paper defaults or configOverride) says; set,
  /// they override it just before validation.
  std::optional<avmon::ShufflePolicy> shuffle;  ///< spec key `shuffle`
  std::optional<std::uint32_t> notifyDedupMax;  ///< spec key `notify_dedup_max`
  /// Availability-history implementation behind every AVMON target record
  /// ("raw", "recent", "aged", "compact"; spec keys `history` /
  /// `history_param`). "compact" is the million-node run-length layout —
  /// see history/availability_history.hpp.
  std::optional<std::string> history;
  std::optional<double> historyParam;

  MeasuredSet measured = MeasuredSet::kAuto;

  /// Execution lane (spec key `transport`, values sim|udp). ScenarioRunner
  /// refuses kUdp — live specs are executed by tools/avmon_live, which
  /// spawns one avmon_node process per scheduled node.
  TransportKind transport = TransportKind::kSim;
  /// Live-lane knobs (spec keys udp.*); defaults under kSim only.
  UdpSpec udp;

  /// Shards the node population is partitioned across (sim::ShardedSimulator).
  /// 1 = single sub-world (still windowed, so its metrics are bit-identical
  /// to any other shard count); 0 = one shard per hardware thread. The
  /// shard count never changes results, only wall-clock time.
  unsigned shards = 1;

  /// Metrics pipeline (spec keys metrics.window / metrics.reducers /
  /// metrics.quantiles).
  StreamingMetricsSpec metrics;

  /// Checks every cross-field invariant (known protocol and hash, nonzero
  /// N/horizon, warmup < horizon, protocol shard limits, probability ranges) and throws std::invalid_argument
  /// with an actionable message on the first violation. ScenarioRunner
  /// validates on construction; tools validate right after parsing so a
  /// bad spec fails before any world is built.
  void validate() const;

  /// Parses the key=value spec grammar (see experiments/spec.hpp for the
  /// key list). Throws std::invalid_argument on unknown keys or malformed
  /// values. fromSpec(s.toSpec()) reproduces s exactly.
  static Scenario fromSpec(const std::string& text);

  /// Canonical spec serialization: fixed key order, one key per line.
  /// parse -> serialize -> parse is a fixed point.
  std::string toSpec() const;
};

/// The churn-generator parameters of `scenario`'s availability schedule:
/// the simulated lane and the live lane both generate from these, so the
/// two replay the same schedule for the same spec.
churn::WorkloadParams workloadOf(const Scenario& scenario);

/// Whether `nt` is in `scenario`'s measured set, resolving
/// MeasuredSet::kAuto per model (control group for STAT/SYNTH, born after
/// warm-up for SYNTH-BD/SYNTH-BD2, everyone for PL/OV). "Born after
/// warm-up" includes a node born exactly at the warm-up end. The one rule
/// both lanes count by.
bool inMeasuredSet(const Scenario& scenario, const trace::NodeTrace& nt);

/// Estimated-vs-actual availability for one node (Figures 17 and 20).
struct AvailabilityAccuracy {
  NodeId id;
  double estimated = 0.0;  ///< mean over the node's PS members' histories
  double actual = 0.0;     ///< ground truth from the availability trace
  std::size_t reporters = 0;
};

/// Builds, runs, and reports one scenario.
class ScenarioRunner final : public churn::LifecycleListener {
 public:
  explicit ScenarioRunner(Scenario scenario);
  ~ScenarioRunner() override;

  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  /// Runs the full scenario to its horizon. Call once.
  void run();

  // ---- results (valid after run()) ----

  const Scenario& scenario() const noexcept { return scenario_; }
  const trace::AvailabilityTrace& schedule() const noexcept { return trace_; }
  const AvmonConfig& config() const noexcept { return config_; }
  std::size_t effectiveN() const noexcept { return effectiveN_; }

  /// The scheme under measurement (probe surface for tests).
  const Protocol& protocol() const noexcept { return *protocol_; }

  /// The scenario's attack spec resolved against the trace (empty cohorts
  /// when no attack keys are set). Valid from construction.
  const ResolvedAdversary& adversary() const noexcept;

  /// Ids in the measured set (see MeasuredSet).
  const std::vector<NodeId>& measuredIds() const noexcept { return measured_; }

  /// Whether `id` is in the measured set. O(1): one byte per global world
  /// slot, not a hash set.
  bool isMeasured(const NodeId& id) const;

  /// Direct node access for custom probes (tests, examples, ablations).
  /// AVMON scenarios only: throws std::logic_error for other protocols
  /// (use protocol() probes instead) and std::out_of_range for unknown ids.
  const AvmonNode& node(const NodeId& id) const;
  AvmonNode& mutableNode(const NodeId& id);

  /// The sharded world the scenario runs in (always present; a plain run
  /// is the one-shard case). Exposes per-shard simulators/networks and the
  /// window/hand-off counters for tests and benches.
  const sim::ShardedSimulator& world() const noexcept { return *world_; }

  /// Outgoing-traffic counters for `id`, read from its home shard.
  sim::TrafficCounters trafficOf(const NodeId& id) const;

  /// Ground-truth schedule of `id`, or nullptr for scheme-owned
  /// participants outside the trace (e.g. the central baseline's server).
  /// O(1): a dense vector indexed by the world's global slot (== trace
  /// position), not a per-node hash map — the probe paths at million-node
  /// scale lean on this.
  const trace::NodeTrace* traceOf(const NodeId& id) const;

  /// The metrics pipeline every run is measured by. Windows and the
  /// streamed summary are valid after run().
  const streaming::StreamingCollector& streamingCollector() const noexcept {
    return *collector_;
  }

  // ---- LifecycleListener ----
  void onJoin(const NodeId& id, bool firstJoin) override;
  void onLeave(const NodeId& id) override;
  void onDeath(const NodeId& id) override;

 private:
  void buildMeasuredSet();

  Scenario scenario_;
  std::size_t effectiveN_;
  AvmonConfig config_;

  Rng rootRng_;
  // The scenario's fault plan, bound to the trace population and wired
  // into every shard network. Must outlive world_ (declared before it).
  sim::FaultPlan faultPlan_;
  std::unique_ptr<ResolvedAdversary> adversary_;
  std::unique_ptr<sim::ShardedSimulator> world_;
  std::unique_ptr<hash::HashFunction> hashFn_;
  std::unique_ptr<HashMonitorSelector> selector_;
  // What each shard's nodes check the consistency condition through. For
  // md5 and sha1 that is a per-shard verdict memo (thread-private; the
  // repeated checks of a long run become table probes). splitmix64
  // hashes a pair faster than a memo probe that misses the cache, so
  // every shard reads the one stateless selector_ instead.
  std::vector<std::unique_ptr<MemoizedMonitorSelector>> memos_;
  std::vector<const MonitorSelector*> shardSelectors_;

  trace::AvailabilityTrace trace_;
  std::unique_ptr<churn::TracePlayer> player_;

  std::unique_ptr<Protocol> protocol_;

  // Trace record per global world slot (slot i == trace position i; see
  // the registration loop). Dense: 8 bytes per node, no hash buckets.
  std::vector<const trace::NodeTrace*> traceBySlot_;

  std::vector<NodeId> measured_;
  std::vector<std::uint8_t> measuredBySlot_;  ///< 1 = measured, per slot
  std::unique_ptr<streaming::StreamingCollector> collector_;
  bool ran_ = false;
};

}  // namespace avmon::experiments
