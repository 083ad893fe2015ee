#include "child.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "churn/churn_model.hpp"
#include "experiments/metrics.hpp"
#include "experiments/parallel_runner.hpp"
#include "experiments/protocol.hpp"
#include "experiments/protocol_registry.hpp"
#include "experiments/scenario.hpp"
#include "experiments/spec.hpp"
#include "probes.hpp"
#include "trace.hpp"

namespace avmon::bench {
namespace {

using experiments::MetricSet;
using experiments::Scenario;
using experiments::ScenarioRunner;

double cpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

std::string hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// FNV-1a over 64-bit words.
class Fingerprint {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ULL;
    }
  }
  void mixDouble(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Mixes count, min and max of one summary metric. Both metric lanes give
/// the same three numbers (the streamed lane reproduces them exactly), so
/// the fingerprint does not depend on which lane a workload uses.
void mixSummary(Fingerprint& fp, const std::vector<double>& samples) {
  fp.mix(samples.size());
  const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  fp.mixDouble(samples.empty() ? 0.0 : *lo);
  fp.mixDouble(samples.empty() ? 0.0 : *hi);
}

void mixSummary(Fingerprint& fp,
                const experiments::streaming::StreamedMetric& metric) {
  fp.mix(metric.stats.count());
  fp.mixDouble(metric.stats.min());
  fp.mixDouble(metric.stats.max());
}

/// The run's output, checked across reps, seeds' pins and shard counts:
/// the collectMetrics summary (counts, min, max, discovered fraction) and
/// every participant's Protocol probes plus traffic, in forEachNode order.
std::uint64_t fingerprintOf(const ScenarioRunner& runner, const MetricSet& m) {
  Fingerprint fp;
  if (m.streamed) {
    const auto& s = *m.streamed;
    for (const auto* metric :
         {&s.discoverySeconds, &s.memoryEntries, &s.outgoingBytesPerSecond,
          &s.uselessPingsPerMinute, &s.computationsPerSecond}) {
      mixSummary(fp, *metric);
    }
    fp.mixDouble(s.discoveredFraction());
  } else {
    for (const auto* samples :
         {&m.discoverySeconds, &m.memoryEntries, &m.outgoingBytesPerSecond,
          &m.uselessPingsPerMinute, &m.computationsPerSecond}) {
      mixSummary(fp, *samples);
    }
    fp.mixDouble(m.discoveredFraction);
  }
  const experiments::Protocol& protocol = runner.protocol();
  protocol.forEachNode([&](const NodeId& id) {
    fp.mix((static_cast<std::uint64_t>(id.ip()) << 16) | id.port());
    const auto delay = protocol.discoveryDelay(id, 1);
    fp.mix(delay ? static_cast<std::uint64_t>(*delay) : ~0ULL);
    fp.mix(protocol.memoryEntries(id));
    fp.mix(protocol.hashChecks(id));
    fp.mix(protocol.uselessPings(id));
    const sim::TrafficCounters traffic = runner.trafficOf(id);
    fp.mix(traffic.bytesSent);
    fp.mix(traffic.messagesSent);
  });
  return fp.value();
}

/// Public counters of the layers, read after run().
struct Counters {
  std::uint64_t events = 0, windows = 0, handoffs = 0;
  std::uint64_t delivered = 0, lost = 0, bytes = 0, messages = 0;
  std::uint64_t hashChecks = 0, notifies = 0, cvFetches = 0,
                monitoringPings = 0;
  std::uint64_t metricWindows = 0, metricStateBytes = 0;

  void add(const Counters& o) {
    events += o.events;
    windows += o.windows;
    handoffs += o.handoffs;
    delivered += o.delivered;
    lost += o.lost;
    bytes += o.bytes;
    messages += o.messages;
    hashChecks += o.hashChecks;
    notifies += o.notifies;
    cvFetches += o.cvFetches;
    monitoringPings += o.monitoringPings;
    metricWindows += o.metricWindows;
    metricStateBytes += o.metricStateBytes;
  }

  Json toJson() const {
    Json j = Json::object();
    j.set("sim.events", events);
    j.set("sim.windows", windows);
    j.set("sim.handoffs", handoffs);
    j.set("net.delivered", delivered);
    j.set("net.lost", lost);
    j.set("traffic.bytes", bytes);
    j.set("traffic.messages", messages);
    j.set("avmon.hash_checks", hashChecks);
    j.set("avmon.notifies", notifies);
    j.set("avmon.cv_fetches", cvFetches);
    j.set("avmon.monitoring_pings", monitoringPings);
    j.set("metrics.windows", metricWindows);
    j.set("metrics.state_bytes", metricStateBytes);
    return j;
  }
};

Counters countersOf(const ScenarioRunner& runner, const MetricSet& m) {
  Counters c;
  const sim::ShardedSimulator& world = runner.world();
  c.events = world.executedEvents();
  c.windows = world.windowsRun();
  c.handoffs = world.handoffsCarried();
  c.delivered = world.delivered();
  c.lost = world.lost();
  for (std::size_t s = 0; s < world.shardCount(); ++s) {
    const sim::TrafficCounters t = world.netOf(s).totalTraffic();
    c.bytes += t.bytesSent;
    c.messages += t.messagesSent;
  }
  const experiments::Protocol& protocol = runner.protocol();
  const bool avmon = runner.scenario().protocol == "avmon";
  protocol.forEachNode([&](const NodeId& id) {
    c.hashChecks += protocol.hashChecks(id);
    if (avmon) {
      const NodeMetrics& nm = runner.node(id).metrics();
      c.notifies += nm.notifiesSent;
      c.cvFetches += nm.cvFetches;
      c.monitoringPings += nm.monitoringPingsSent;
    }
  });
  c.metricWindows = m.windows.size();
  c.metricStateBytes = m.metricStateBytes;
  return c;
}

/// `scenario` with its shard count overridden, clamped to its protocol's
/// shard ceiling (the same rule ParallelScenarioRunner applies).
Scenario withShards(Scenario scenario, unsigned shards) {
  if (shards == 0) return scenario;
  const auto* factory =
      experiments::ProtocolRegistry::instance().find(scenario.protocol);
  scenario.shards = factory != nullptr && factory->maxShards != 0
                        ? std::min(shards, factory->maxShards)
                        : shards;
  return scenario;
}

/// churn::generate with exactly the parameters ScenarioRunner passes it.
churn::WorkloadParams workloadParams(const Scenario& s) {
  churn::WorkloadParams params;
  params.stableSize = s.stableSize;
  params.horizon = s.horizon;
  params.controlFraction = s.controlFraction;
  params.controlJoinTime = s.warmup;
  params.seed = s.seed;
  return params;
}

/// Totals of one pass over all of a workload's scenarios.
struct Pass {
  double parse = 0, construct = 0, run = 0, collect = 0;
  double generate = 0, runCpu = 0;
  Counters counters;
  std::map<std::string, double> protocolRun;
  std::vector<std::uint64_t> fingerprints;
  std::size_t maxNodes = 0;
  unsigned shards = 1;  ///< effective shard count of the AVMON scenarios
  std::optional<ProbeShape> probeShape;
};

void recordRunner(Pass& pass, const ScenarioRunner& runner) {
  pass.maxNodes = std::max(pass.maxNodes, runner.schedule().nodes().size());
  if (runner.scenario().protocol != "avmon" || pass.probeShape) return;
  pass.shards = static_cast<unsigned>(runner.world().shardCount());
  const AvmonConfig& config = runner.config();
  ProbeShape shape;
  shape.hashName = runner.scenario().hashName;
  shape.nodes = runner.effectiveN();
  shape.k = config.k;
  shape.cvs = config.cvs;
  shape.dedupMax = config.notifyDedupMax;
  if (config.historyStyle == "compact" && config.historyParam > 0) {
    shape.historyRuns = static_cast<std::size_t>(config.historyParam);
  }
  shape.samplesPerTarget =
      static_cast<std::size_t>(runner.scenario().horizon /
                               config.monitoringPeriod);
  pass.probeShape = shape;
}

/// One scenario through the four timed phases, under a per-scenario span.
void runScenario(const Scenario& scenario, Tracer& tracer, Pass& pass) {
  const std::size_t span = tracer.open("scenario." + scenario.protocol);
  if (tracer.recording()) {
    pass.generate += tracer.timed("churn.generate", [&] {
      churn::generate(scenario.model, workloadParams(scenario));
    });
  }
  std::unique_ptr<ScenarioRunner> runner;
  pass.construct += tracer.timed("scenario.construct", [&] {
    runner = std::make_unique<ScenarioRunner>(scenario);
  });
  const double cpuBefore = cpuSeconds();
  const double run = tracer.timed("scenario.run", [&] { runner->run(); });
  pass.runCpu += cpuSeconds() - cpuBefore;
  pass.run += run;
  pass.protocolRun[scenario.protocol] += run;
  MetricSet metrics;
  pass.collect += tracer.timed("metrics.collect", [&] {
    metrics = experiments::collectMetrics(*runner);
  });
  tracer.timed("fingerprint", [&] {
    pass.fingerprints.push_back(fingerprintOf(*runner, metrics));
  });
  pass.counters.add(countersOf(*runner, metrics));
  recordRunner(pass, *runner);
  tracer.close(span);
}

/// What one sweep point hands back from a ParallelScenarioRunner worker.
struct Harvest {
  std::uint64_t fingerprint = 0;
  Counters counters;
  std::int64_t doneNs = 0;
};

}  // namespace

Json runChild(const std::string& specText, const ChildOptions& options) {
  const bool traced = options.traced;
  Tracer tracer(traced);
  const std::size_t root = tracer.open("pass");
  Pass pass;
  std::vector<Scenario> scenarios;
  pass.parse = tracer.timed("spec.parse", [&] {
    scenarios = experiments::SweepSpec::parse(specText).expand();
  });
  for (Scenario& s : scenarios) s = withShards(std::move(s), options.shards);

  Json result = Json::object();
  const bool parallel = scenarios.size() > 1 && !options.serial && !traced;
  double wall = 0.0;
  if (parallel) {
    // Serial construct-only pass: the sweep's set-up cost, kept apart from
    // the parallel map so work moved into construction shows on setup_s.
    for (const Scenario& s : scenarios) {
      std::unique_ptr<ScenarioRunner> runner;
      pass.construct += tracer.timed("scenario.construct", [&] {
        runner = std::make_unique<ScenarioRunner>(s);
      });
      recordRunner(pass, *runner);
    }
    const unsigned threads =
        std::min(4u, experiments::defaultWorkerThreads());
    const experiments::ParallelScenarioRunner pool(threads);
    std::vector<Harvest> harvest;
    const double cpuBefore = cpuSeconds();
    pass.run = tracer.timed("sweep.map", [&] {
      harvest = pool.map<Harvest>(scenarios, [](ScenarioRunner& runner) {
        const MetricSet metrics = experiments::collectMetrics(runner);
        Harvest h;
        h.fingerprint = fingerprintOf(runner, metrics);
        h.counters = countersOf(runner, metrics);
        h.doneNs = nowNs();
        return h;
      });
    });
    pass.runCpu = cpuSeconds() - cpuBefore;
    std::int64_t first = harvest.front().doneNs, last = first;
    for (const Harvest& h : harvest) {
      pass.fingerprints.push_back(h.fingerprint);
      pass.counters.add(h.counters);
      first = std::min(first, h.doneNs);
      last = std::max(last, h.doneNs);
    }
    Json sweep = Json::object();
    sweep.set("tail_s", secondsBetween(first, last));
    sweep.set("cpu_per_wall", pass.runCpu / pass.run);
    result.set("sweep", std::move(sweep));
    wall = pass.parse + pass.run;
  } else {
    for (const Scenario& s : scenarios) runScenario(s, tracer, pass);
    wall = pass.parse + pass.construct + pass.run + pass.collect;
  }

  Fingerprint combined;
  for (const std::uint64_t fp : pass.fingerprints) combined.mix(fp);
  result.set("fingerprint", hex(combined.value()));
  result.set("scenarios", scenarios.size());
  result.set("nodes", pass.maxNodes);
  result.set("shards", pass.shards);

  Json times = Json::object();
  times.set("parse_s", pass.parse);
  times.set("run_s", pass.run);
  times.set("collect_s", pass.collect);
  times.set("generate_s", pass.generate);
  times.set("setup_s", pass.parse + pass.construct);
  times.set("wall_s", wall);
  times.set("run_cpu_s", pass.runCpu);
  result.set("times", std::move(times));
  result.set("counters", pass.counters.toJson());
  Json protocolRun = Json::object();
  for (const auto& [protocol, seconds] : pass.protocolRun) {
    protocolRun.set(protocol, seconds);
  }
  result.set("protocol_run_s", std::move(protocolRun));

  if (traced) {
    ProbeShape shape = pass.probeShape.value_or(ProbeShape{});
    shape.scale = options.probeScale;
    result.set("probes", runProbes(shape, tracer));
  }
  tracer.close(root);
  if (traced) result.set("spans", tracer.toJson());
  return result;
}

}  // namespace avmon::bench
