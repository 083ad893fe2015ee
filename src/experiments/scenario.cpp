#include "experiments/scenario.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "experiments/adversary.hpp"
#include "experiments/protocol.hpp"
#include "experiments/protocol_registry.hpp"
#include "experiments/streaming/collector.hpp"

namespace avmon::experiments {

namespace {

// The shard count a scenario actually runs with (0 = hardware width).
// Resolved before validation so shards = 0 cannot smuggle a single-shard
// baseline into a multi-shard world on a multi-core host.
unsigned resolveShards(unsigned shards) {
  return shards != 0 ? shards
                     : std::max(1u, std::thread::hardware_concurrency());
}

void requireUnit(double value, const char* what) {
  if (!(value >= 0.0 && value <= 1.0)) {
    throw std::invalid_argument(std::string("Scenario: ") + what +
                                " must be in [0, 1]");
  }
}

}  // namespace

void Scenario::validate() const {
  const ProtocolFactory* factory = ProtocolRegistry::instance().find(protocol);
  if (factory == nullptr) {
    throw std::invalid_argument(
        "Scenario: unknown protocol '" + protocol + "' — known protocols: " +
        ProtocolRegistry::instance().namesJoined());
  }
  const bool traceModel = model == churn::Model::kPlanetLab ||
                          model == churn::Model::kOvernet;
  if (!traceModel && stableSize == 0) {
    throw std::invalid_argument(
        "Scenario: stableSize must be nonzero for model " +
        churn::modelName(model) + " (only PL/OV fix their own N)");
  }
  if (horizon <= 0) {
    throw std::invalid_argument(
        "Scenario: horizon must be a positive duration");
  }
  if (warmup < 0 || warmup >= horizon) {
    throw std::invalid_argument(
        "Scenario: warmup must satisfy 0 <= warmup < horizon (got warmup = " +
        std::to_string(warmup) + " ms, horizon = " + std::to_string(horizon) +
        " ms)");
  }
  if (!hash::isKnownHashName(hashName)) {
    throw std::invalid_argument(
        "Scenario: unknown hash '" + hashName +
        "' — known hashes: md5, sha1, splitmix64");
  }
  requireUnit(controlFraction, "controlFraction");
  requireUnit(overreportFraction, "overreportFraction");
  requireUnit(messageDropProbability, "messageDropProbability");
  requireUnit(rpcFailProbability, "rpcFailProbability");

  faults.validate();
  requireUnit(attack.forgetfulFraction, "attack.forgetful");
  if (attack.victims > 0 && attack.collusion == 0) {
    throw std::invalid_argument(
        "Scenario: attack.victims names targets for a collusion coalition — "
        "set attack.collusion > 0 as well");
  }
  if (notifyDedupMax.has_value() && *notifyDedupMax == 0) {
    throw std::invalid_argument(
        "Scenario: notify_dedup_max must be >= 1 (the cache needs room for "
        "at least one pair)");
  }
  if (history.has_value() && *history != "raw" && *history != "recent" &&
      *history != "aged" && *history != "compact") {
    throw std::invalid_argument(
        "Scenario: unknown history '" + *history +
        "' — known histories: raw, recent, aged, compact");
  }
  if (historyParam.has_value() && !(*historyParam >= 0)) {
    throw std::invalid_argument("Scenario: history_param must be >= 0");
  }

  const unsigned effectiveShards = resolveShards(shards);
  if (factory->maxShards != 0 && effectiveShards > factory->maxShards) {
    throw std::invalid_argument(
        "Scenario: protocol '" + protocol + "' keeps shared global state and "
        "runs on at most " + std::to_string(factory->maxShards) +
        " shard(s) — got shards = " + std::to_string(effectiveShards));
  }
  if (transport == TransportKind::kSim) {
    // A sim spec carrying non-default udp.* keys is almost certainly a
    // live spec missing `transport = udp`; refuse the dead configuration.
    if (udp != UdpSpec{}) {
      throw std::invalid_argument(
          "Scenario: udp.* keys are set but transport = sim — the simulated "
          "lane never reads them; set transport = udp (or drop the keys)");
    }
  } else {
    if (udp.portBase < 1024) {
      throw std::invalid_argument(
          "Scenario: udp.port_base must be >= 1024 (unprivileged range; the "
          "driver binds port_base - 1)");
    }
    if (udp.retryMax == 0) {
      throw std::invalid_argument(
          "Scenario: udp.retry_max must be >= 1 (every RPC needs at least "
          "one send attempt)");
    }
    if (udp.backoffMs == 0 || udp.backoffCapMs < udp.backoffMs) {
      throw std::invalid_argument(
          "Scenario: udp backoff ladder needs 0 < udp.backoff_ms <= "
          "udp.backoff_cap_ms");
    }
    if (!(udp.timeScale > 0.0)) {
      throw std::invalid_argument(
          "Scenario: udp.time_scale must be > 0 (simulated ms per wall ms)");
    }
    if (shards > 1) {
      throw std::invalid_argument(
          "Scenario: the live lane runs one process per node — sharding is a "
          "sim-lane concept; use shards = 1 with transport = udp");
    }
  }
  if (metrics.window < 0) {
    throw std::invalid_argument(
        "Scenario: metrics.window must be >= 0 (0 = one window closing at "
        "the horizon)");
  }
  const auto& groups = streaming::kMetricGroups;
  for (auto it = metrics.reducers.begin(); it != metrics.reducers.end();
       ++it) {
    if (std::find(groups.begin(), groups.end(), *it) == groups.end()) {
      std::string known;
      for (const std::string_view group : groups) {
        if (!known.empty()) known += ", ";
        known += group;
      }
      throw std::invalid_argument("Scenario: unknown reducer '" + *it +
                                  "' — known reducers: " + known);
    }
    // A repeated group would repeat its window columns (and JSON keys).
    if (std::find(metrics.reducers.begin(), it, *it) != it) {
      throw std::invalid_argument("Scenario: metrics.reducers names '" + *it +
                                  "' more than once");
    }
  }
  for (const double q : metrics.quantiles) {
    if (!(q > 0.0 && q < 1.0)) {
      throw std::invalid_argument(
          "Scenario: metrics.quantiles entries must be in (0, 1), got " +
          std::to_string(q));
    }
  }
}

churn::WorkloadParams workloadOf(const Scenario& scenario) {
  churn::WorkloadParams workload;
  workload.stableSize = scenario.stableSize;
  workload.horizon = scenario.horizon;
  workload.controlFraction = scenario.controlFraction;
  workload.controlJoinTime = scenario.warmup;
  workload.seed = scenario.seed;
  return workload;
}

bool inMeasuredSet(const Scenario& scenario, const trace::NodeTrace& nt) {
  MeasuredSet mode = scenario.measured;
  if (mode == MeasuredSet::kAuto) {
    switch (scenario.model) {
      case churn::Model::kStat:
      case churn::Model::kSynth:
        mode = MeasuredSet::kControlGroup;
        break;
      case churn::Model::kSynthBD:
      case churn::Model::kSynthBD2:
        mode = MeasuredSet::kBornAfterWarmup;
        break;
      case churn::Model::kPlanetLab:
      case churn::Model::kOvernet:
        mode = MeasuredSet::kAll;
        break;
    }
  }
  return mode == MeasuredSet::kAll ||
         (mode == MeasuredSet::kControlGroup && nt.isControl) ||
         (mode == MeasuredSet::kBornAfterWarmup &&
          nt.birth >= scenario.warmup);
}

ScenarioRunner::ScenarioRunner(Scenario scenario)
    : scenario_(std::move(scenario)), rootRng_(scenario_.seed) {
  scenario_.validate();
  if (scenario_.transport != TransportKind::kSim) {
    throw std::invalid_argument(
        "ScenarioRunner executes the simulated lane only — run "
        "transport = udp specs through tools/avmon_live instead");
  }

  const churn::WorkloadParams workload = workloadOf(scenario_);
  effectiveN_ = churn::effectiveStableSize(scenario_.model, workload);
  config_ = scenario_.configOverride.value_or(
      AvmonConfig::paperDefaults(effectiveN_));
  config_.pr2 = scenario_.pr2;
  config_.forgetful.enabled = scenario_.forgetful;
  config_.forgetful.ewmaSessionLength = scenario_.forgetfulEwma;
  if (scenario_.shuffle.has_value()) config_.shuffle = *scenario_.shuffle;
  if (scenario_.notifyDedupMax.has_value())
    config_.notifyDedupMax = *scenario_.notifyDedupMax;
  if (scenario_.history.has_value()) config_.historyStyle = *scenario_.history;
  if (scenario_.historyParam.has_value())
    config_.historyParam = *scenario_.historyParam;
  config_.validate();

  const unsigned effectiveShards = resolveShards(scenario_.shards);

  protocol_ = ProtocolRegistry::instance().create(scenario_.protocol);

  hashFn_ = hash::makeHashFunction(scenario_.hashName);
  selector_ = std::make_unique<HashMonitorSelector>(*hashFn_, config_.k,
                                                    effectiveN_);

  // The schedule exists before the world does: correlated bursts rewrite
  // it, the fault plan binds to its population, and the adversary cohorts
  // resolve against it. churn::generate draws only from workload.seed and
  // the burst/adversary streams are private (seed XOR role salt), so the
  // root stream still forks in exactly the order it always did — netSeed
  // below stays its first draw.
  trace_ = churn::generate(scenario_.model, workload);
  applyBursts(trace_, scenario_.faults.bursts, scenario_.seed);
  faultPlan_ = scenario_.faults;
  faultPlan_.bindPopulation(static_cast<std::uint32_t>(trace_.nodes().size()));
  adversary_ =
      std::make_unique<ResolvedAdversary>(resolveAdversary(scenario_, trace_));

  sim::ShardedSimulator::Config worldConfig;
  worldConfig.shards = effectiveShards;
  worldConfig.net.messageDropProbability = scenario_.messageDropProbability;
  worldConfig.net.rpcFailProbability = scenario_.rpcFailProbability;
  if (!faultPlan_.empty()) {
    // A latency window or geo band may dip below the flat band's minimum;
    // the conservative sharding window must follow it down.
    worldConfig.lookahead = faultPlan_.lookaheadFloor(worldConfig.net.minLatency);
  }
  // One draw from the root stream seeds every shard network identically;
  // per-node latency/fault streams derive from (seed, node id), so the
  // shard count never shifts anyone's randomness.
  worldConfig.netSeed = rootRng_.fork()();
  world_ = std::make_unique<sim::ShardedSimulator>(worldConfig);
  if (!faultPlan_.empty()) world_->setFaultPlan(&faultPlan_);

  for (std::size_t s = 0; s < world_->shardCount(); ++s) {
    if (hashFn_->cheaperThanMemo()) {
      shardSelectors_.push_back(selector_.get());
    } else {
      memos_.push_back(std::make_unique<MemoizedMonitorSelector>(*selector_));
      shardSelectors_.push_back(memos_.back().get());
    }
  }

  player_ = std::make_unique<churn::TracePlayer>(world_->simOf(0), trace_);

  // Register the whole population first: global indices follow trace order
  // (partition-independent), and every id must be known to the router
  // before its endpoint attaches. traceOf, isMeasured and buildMeasuredSet
  // read a node's trace at its global index, so a repeated id, which gets
  // its first index again, must stop the run here.
  traceBySlot_.reserve(trace_.nodes().size());
  for (const trace::NodeTrace& nt : trace_.nodes()) {
    if (world_->registerNode(nt.id) != traceBySlot_.size()) {
      throw std::invalid_argument("scenario trace repeats node id " +
                                  nt.id.toString());
    }
    traceBySlot_.push_back(&nt);
  }

  // The protocol populates the world: one participant per trace node,
  // every scheme-owned RNG stream forked from the root stream so the
  // scenario seed governs the whole experiment.
  const ProtocolContext ctx{scenario_,       effectiveN_, config_,
                            *world_,         trace_,      *hashFn_,
                            shardSelectors_, rootRng_,    adversary_.get()};
  protocol_->build(ctx);

  buildMeasuredSet();

  collector_ = std::make_unique<streaming::StreamingCollector>(
      *this, scenario_.metrics.reducers);
}

ScenarioRunner::~ScenarioRunner() = default;

const ResolvedAdversary& ScenarioRunner::adversary() const noexcept {
  return *adversary_;
}

void ScenarioRunner::buildMeasuredSet() {
  // Trace position == global world slot (see the registration loop).
  measuredBySlot_.assign(trace_.nodes().size(), 0);
  for (std::size_t slot = 0; slot < trace_.nodes().size(); ++slot) {
    const trace::NodeTrace& nt = trace_.nodes()[slot];
    if (!inMeasuredSet(scenario_, nt)) continue;
    measured_.push_back(nt.id);
    measuredBySlot_[slot] = 1;
  }
}

bool ScenarioRunner::isMeasured(const NodeId& id) const {
  const std::size_t slot = world_->globalIndexOf(id);
  return slot < measuredBySlot_.size() && measuredBySlot_[slot] != 0;
}

void ScenarioRunner::onJoin(const NodeId& id, bool firstJoin) {
  protocol_->onJoin(id, firstJoin);
}

void ScenarioRunner::onLeave(const NodeId& id) { protocol_->onLeave(id); }

void ScenarioRunner::onDeath(const NodeId& id) {
  // Deaths are silent (Section 3 system model): the node simply never
  // rejoins. Schemes may record them for bookkeeping; none tears down —
  // TS/PS garbage is the point of the forgetful-pinging experiments.
  protocol_->onDeath(id);
}

void ScenarioRunner::run() {
  if (ran_) throw std::logic_error("ScenarioRunner::run called twice");
  ran_ = true;
  player_->schedule(*this, [this](const NodeId& id) -> sim::Simulator& {
    return world_->simFor(id);
  });
  // Scope bandwidth measurement to the post-warm-up window (each shard
  // resets its own counters at its local warm-up instant). warmup = 0
  // means "no warm-up": there is no window boundary to reset at, and a
  // reset event would race the t = 0 joins scheduled above it.
  if (scenario_.warmup > 0) {
    for (std::size_t s = 0; s < world_->shardCount(); ++s) {
      sim::Network* net = &world_->netOf(s);
      world_->simOf(s).at(scenario_.warmup, [net] { net->resetTraffic(); });
    }
  }
  if (scenario_.metrics.window > 0 && collector_->anyWindowed()) {
    // Windowed metric groups: stop at metric-window boundaries to take barrier
    // probes. Each nominal boundary (a multiple of metrics.window) is
    // aligned UP to the end of the sharding window containing it, so no
    // runUntil call ever splits a sharding window — a split would divide
    // one hand-off batch across two barrier drains and reorder same-due
    // insertions, diverging from the uninterrupted run. Aligned this way,
    // execution is bit-identical to a single runUntil(horizon). With
    // window = 0 the only window is the one finish() closes at the horizon.
    const SimDuration shardWindow = world_->windowLength();
    SimTime lastAligned = -1;
    for (SimTime nominal = scenario_.metrics.window;
         nominal < scenario_.horizon; nominal += scenario_.metrics.window) {
      const SimTime aligned =
          (nominal / shardWindow) * shardWindow + shardWindow - 1;
      if (aligned <= lastAligned) continue;  // window shorter than the grid
      if (aligned >= scenario_.horizon) break;
      world_->runUntil(aligned);
      collector_->onWindowBarrier(*world_, aligned);
      lastAligned = aligned;
    }
  }
  world_->runUntil(scenario_.horizon);
  collector_->finish(*world_, scenario_.horizon);
}

sim::TrafficCounters ScenarioRunner::trafficOf(const NodeId& id) const {
  return world_->netFor(id).traffic(id);
}

const trace::NodeTrace* ScenarioRunner::traceOf(const NodeId& id) const {
  // Trace nodes registered first, so their global slots are exactly
  // [0, traceBySlot_.size()); anything past that is a scheme-owned extra
  // participant with no ground truth.
  const std::size_t slot = world_->globalIndexOf(id);
  return slot < traceBySlot_.size() ? traceBySlot_[slot] : nullptr;
}

const AvmonNode& ScenarioRunner::node(const NodeId& id) const {
  const AvmonNode* n = protocol_->avmonNode(id);
  if (n == nullptr) {
    if (scenario_.protocol != "avmon") {
      throw std::logic_error(
          "ScenarioRunner::node(): protocol '" + scenario_.protocol +
          "' has no AvmonNode — query the Protocol probes instead");
    }
    throw std::out_of_range("ScenarioRunner::node(): unknown node " +
                            id.toString());
  }
  return *n;
}

AvmonNode& ScenarioRunner::mutableNode(const NodeId& id) {
  AvmonNode* n = protocol_->mutableAvmonNode(id);
  if (n == nullptr) {
    if (scenario_.protocol != "avmon") {
      throw std::logic_error(
          "ScenarioRunner::mutableNode(): protocol '" + scenario_.protocol +
          "' has no AvmonNode — query the Protocol probes instead");
    }
    throw std::out_of_range("ScenarioRunner::mutableNode(): unknown node " +
                            id.toString());
  }
  return *n;
}

}  // namespace avmon::experiments
