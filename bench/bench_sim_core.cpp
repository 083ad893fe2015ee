// Simulator-core microbenchmarks: the perf trajectory of the event loop.
//
// Measures the hot paths the calendar-queue overhaul targets and compares
// them against the scheduler it replaced (std::priority_queue of
// std::function events, reimplemented here as LegacySimulator so the
// baseline never bit-rots). Self-timed with std::chrono — no Google
// Benchmark dependency — and emits a machine-readable BENCH_simcore.json
// so every future PR can extend the trajectory.
//
// Usage: bench_sim_core [--preset smoke|full] [--out PATH] [--million]
//   smoke     ~1 s, for CI artifact jobs
//   full      ~20 s, the checked-in trajectory point (default)
//   --million additionally runs the N = 10^6 memory-diet scenario
//             (examples/specs/million_node.spec in-process; minutes of
//             wall time and ~3 GB of RSS) and appends its rows
//
// Hardware-dependent rows carry a machine-readable qualifier: on hosts
// with fewer than 4 hardware threads the sharded 4-shard speedup row is
// still emitted (the measurement is honest — pure barrier overhead) but
// tagged "note": "skipped_1core", which tells downstream trajectory
// checks to skip the >=1.5x @ >=4-core assertion rather than fail it.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include <thread>

#include <sys/resource.h>

#include "avmon/notify_dedup.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "experiments/scenario.hpp"
#include "experiments/spec.hpp"
#include "golden_hash.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace avmon {
namespace {

// ---------------------------------------------------------------------------
// The pre-overhaul scheduler, verbatim: one binary heap of (when, seq,
// std::function). Every schedule is a heap sift of 56-byte events plus (for
// any capture over std::function's ~16-byte SBO) a heap allocation.
// ---------------------------------------------------------------------------
class LegacySimulator {
 public:
  using Action = std::function<void()>;

  SimTime now() const noexcept { return now_; }

  void at(SimTime when, Action action) {
    if (when < now_) when = now_;
    queue_.push(Event{when, nextSeq_++, std::move(action)});
  }

  void after(SimDuration delay, Action action) {
    at(now_ + delay, std::move(action));
  }

  void runUntil(SimTime until) {
    while (!queue_.empty() && queue_.top().when <= until) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = ev.when;
      ev.action();
    }
    if (now_ < until) now_ = until;
  }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  SimTime now_ = 0;
  std::uint64_t nextSeq_ = 0;
};

using avmon::benchx::secondsSince;
using avmon::benchx::wallClockNow;

// Best-of-N wrapper: scheduler microbenchmarks on a shared box are noisy,
// and the *capability* of each implementation is its fastest observed run.
template <class Fn>
double bestOf(int runs, Fn&& measure) {
  double best = 0.0;
  for (int i = 0; i < runs; ++i) best = std::max(best, measure());
  return best;
}

// ---------------------------------------------------------------------------
// Workload 1: schedule/fire churn. `pending` self-rescheduling events with
// latency-scale delays (the shape of one-way message delivery). This is the
// microbench the >=2x acceptance criterion applies to.
// ---------------------------------------------------------------------------

// Self-rescheduling event. The capture (three pointers) fits InlineAction's
// buffer but exceeds std::function's SBO — exactly like the network's
// delivery closures, which carry a Message on top.
template <class Sched>
struct ChurnEvent {
  Sched* sched;
  Rng* rng;
  std::uint64_t* fired;
  std::uint64_t pad = 0;  // round the capture up to delivery-closure scale

  void operator()() {
    ++*fired;
    sched->after(static_cast<SimDuration>(1 + (rng->operator()() & 127)),
                 ChurnEvent{sched, rng, fired, pad});
  }
};

template <class Sched>
double scheduleFireEventsPerSec(std::size_t pending, std::uint64_t target) {
  Sched sched;
  Rng rng(42);
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < pending; ++i) {
    sched.at(static_cast<SimTime>(rng.below(128)),
             ChurnEvent<Sched>{&sched, &rng, &fired});
  }
  const auto start = wallClockNow();
  while (fired < target) {
    sched.runUntil(sched.now() + 1024);
  }
  return static_cast<double>(fired) / secondsSince(start);
}

// Workload 2: mixed tiers — 90% latency-scale delays, 10% minute-scale
// (periodic-timer shape). Exercises overflow promotion against the heap.
template <class Sched>
struct MixedEvent {
  Sched* sched;
  Rng* rng;
  std::uint64_t* fired;

  void operator()() {
    ++*fired;
    const std::uint64_t roll = rng->operator()();
    const SimDuration delay =
        (roll % 10 == 0) ? kMinute + static_cast<SimDuration>(roll & 1023)
                         : 1 + static_cast<SimDuration>(roll & 127);
    sched->after(delay, MixedEvent{sched, rng, fired});
  }
};

template <class Sched>
double mixedTierEventsPerSec(std::size_t pending, std::uint64_t target) {
  Sched sched;
  Rng rng(43);
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < pending; ++i) {
    sched.at(static_cast<SimTime>(rng.below(128)),
             MixedEvent<Sched>{&sched, &rng, &fired});
  }
  const auto start = wallClockNow();
  while (fired < target) {
    sched.runUntil(sched.now() + 4096);
  }
  return static_cast<double>(fired) / secondsSince(start);
}

// ---------------------------------------------------------------------------
// Workload 3: network send throughput — full send -> latency -> deliver
// cycles through the dense-slot switchboard.
// ---------------------------------------------------------------------------
class CountingEndpoint final : public sim::Endpoint {
 public:
  void onMessage(const NodeId&, const sim::Message&) override { ++received; }
  std::uint64_t received = 0;
};

double sendThroughputPerSec(std::size_t nodes, std::uint64_t messages) {
  sim::Simulator simulator;
  sim::Network net(simulator, sim::NetworkConfig{}, Rng(7));
  std::vector<CountingEndpoint> endpoints(nodes);
  std::vector<NodeId> ids;
  ids.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    ids.push_back(NodeId::fromIndex(static_cast<std::uint32_t>(i)));
    net.attach(ids[i], endpoints[i]);
    net.setUp(ids[i], true);
  }

  Rng rng(8);
  const auto start = wallClockNow();
  std::uint64_t sent = 0;
  while (sent < messages) {
    // A burst of sends from random sources, then drain the deliveries.
    for (int burst = 0; burst < 1024 && sent < messages; ++burst, ++sent) {
      const NodeId& from = ids[rng.index(nodes)];
      const NodeId& to = ids[rng.index(nodes)];
      net.send(from, to, sim::NotifyMessage{from, to});
    }
    simulator.runUntil(simulator.now() + 100);
  }
  simulator.runUntil(simulator.now() + kSecond);
  return static_cast<double>(sent) / secondsSince(start);
}

// ---------------------------------------------------------------------------
// Workload 4: deferred RPC round trips — request leg, serve, response leg
// and timeout backstop, all as simulator events (the exchange every
// protocol tick rides), timed until the simulator has drained them.
// ---------------------------------------------------------------------------
double rpcRoundTripsPerSec(std::uint64_t calls) {
  sim::Simulator simulator;
  sim::Network net(simulator, sim::NetworkConfig{}, Rng(9));
  CountingEndpoint a, b;
  const NodeId idA = NodeId::fromIndex(1), idB = NodeId::fromIndex(2);
  net.attach(idA, a);
  net.attach(idB, b);
  net.setUp(idA, true);
  net.setUp(idB, true);

  std::uint64_t acked = 0;
  const auto start = wallClockNow();
  for (std::uint64_t issued = 0; issued < calls;) {
    for (int burst = 0; burst < 1024 && issued < calls; ++burst, ++issued) {
      net.exchangeAsync(idA, idB, sim::PingRequest{8},
                        [&acked](std::optional<sim::PingResponse> pong) {
                          if (pong) ++acked;
                        });
    }
    simulator.runUntil(simulator.now() + 100);
  }
  simulator.runUntil(simulator.now() + kSecond);
  const double elapsed = secondsSince(start);
  if (acked != calls) std::fprintf(stderr, "rpc bench: missing acks!\n");
  return static_cast<double>(calls) / elapsed;
}

// ---------------------------------------------------------------------------
// Workload 5: NOTIFY dedup cache under a churning key stream (80% recent
// repeats, 20% fresh keys) at a capacity far below the key population —
// the long-churn regime the generational eviction is for.
// ---------------------------------------------------------------------------
double dedupOpsPerSec(std::uint64_t ops, double* suppressedOut) {
  NotifyDedupCache cache(4096);
  Rng rng(10);
  std::uint64_t fresh = 0;
  std::uint64_t suppressed = 0;
  const auto start = wallClockNow();
  for (std::uint64_t i = 0; i < ops; ++i) {
    std::uint64_t key;
    if (rng.chance(0.8) && fresh > 0) {
      key = splitmix64Mix(fresh - 1 - (rng() % std::min<std::uint64_t>(
                                                  fresh, 1024)));
    } else {
      key = splitmix64Mix(fresh++);
    }
    if (!cache.insert(key)) ++suppressed;
  }
  const double elapsed = secondsSince(start);
  *suppressedOut =
      static_cast<double>(suppressed) / static_cast<double>(ops);
  return static_cast<double>(ops) / elapsed;
}

// ---------------------------------------------------------------------------
// Workload 6: sharded single-scenario execution. ONE large AVMON world —
// the thing the per-scenario pool cannot parallelize — run through the
// ShardedSimulator at S = 1 vs S = 4. The acceptance bar is >= 1.5x with
// 4 shards on >= 4 cores; shard counts never change the metrics (pinned
// by sharded_sim_test), so this measures pure wall-clock.
// ---------------------------------------------------------------------------
struct ShardedRun {
  double seconds = 0.0;
  double eventsPerSec = 0.0;
};

ShardedRun shardedScenarioRun(unsigned shards, std::size_t n,
                              SimDuration horizon) {
  experiments::Scenario s;
  s.model = churn::Model::kSynth;  // churn keeps join/NOTIFY traffic flowing
  s.stableSize = n;
  s.horizon = horizon;
  s.warmup = horizon / 4;
  s.seed = 77;
  s.hashName = "splitmix64";
  s.shards = shards;
  experiments::ScenarioRunner runner(s);
  const auto start = wallClockNow();
  runner.run();
  ShardedRun result;
  result.seconds = secondsSince(start);
  result.eventsPerSec =
      static_cast<double>(runner.world().executedEvents()) / result.seconds;
  return result;
}

struct Row {
  std::string name;
  double value;
  std::string unit;
  /// Optional qualifier emitted into the JSON (e.g. "skipped_1core" on a
  /// speedup row measured without enough hardware threads, or the golden
  /// fingerprint of the million-node run).
  std::string note{};
};

// ---------------------------------------------------------------------------
// Workload 7 (--million): the ROADMAP million-node scenario — N = 10^6
// through the memory diet (shared config, compact histories, streamed
// metrics, sharded execution). Mirrors examples/specs/million_node.spec
// exactly; the smoke-scale twin of that spec is pinned by million_node_test,
// and this run reports the full-scale golden fingerprint in its row note.
// ---------------------------------------------------------------------------
struct MillionRun {
  double seconds = 0.0;
  double eventsPerSec = 0.0;
  double peakRssKb = 0.0;
  std::uint64_t fingerprint = 0;
};

MillionRun millionNodeRun(std::size_t n) {
  experiments::Scenario s;
  s.model = churn::Model::kStat;
  s.stableSize = n;
  s.horizon = 3 * kMinute;
  s.warmup = 1 * kMinute;
  s.seed = 1000003;
  s.hashName = "splitmix64";
  s.configOverride = experiments::cvsKOverride(s.model, n, /*cvs=*/4, /*k=*/1);
  s.shards = 4;
  s.history = "compact";
  s.metrics.window = kMinute;
  s.metrics.reducers = {"summary"};
  experiments::ScenarioRunner runner(s);
  MillionRun result;
  const auto start = wallClockNow();
  runner.run();
  result.seconds = secondsSince(start);
  result.eventsPerSec =
      static_cast<double>(runner.world().executedEvents()) / result.seconds;
  result.fingerprint = experiments::summaryHash(runner);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  result.peakRssKb = static_cast<double>(usage.ru_maxrss);
  return result;
}

}  // namespace
}  // namespace avmon

int main(int argc, char** argv) {
  using namespace avmon;

  std::string preset = "full";
  std::string outPath = "BENCH_simcore.json";
  bool million = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--preset" && i + 1 < argc) {
      preset = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      outPath = argv[++i];
    } else if (arg == "--million") {
      million = true;
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--preset smoke|full] [--out PATH] [--million]\n"
          "  smoke     ~1 s, for CI artifact jobs\n"
          "  full      ~20 s, the checked-in trajectory point (default)\n"
          "  --million append the N = 10^6 memory-diet rows (minutes, ~3 GB)\n"
          "rpc_deferred_round_trip times two-leg RPC exchanges until the\n"
          "simulator has drained them (responses and timeout backstops)\n"
          "hardware-dependent rows (sharded 4-shard speedup) are tagged\n"
          "\"note\": \"skipped_1core\" on <4-thread hosts: recorded, but the\n"
          ">=1.5x assertion is skipped instead of failed\n",
          argv[0]);
      return 2;
    }
  }
  if (preset != "smoke" && preset != "full") {
    std::fprintf(stderr, "unknown preset '%s' (smoke|full)\n",
                 preset.c_str());
    return 2;
  }
  const bool smoke = preset == "smoke";

  // Smoke shortens the measurement, not the workload shape: the pending-
  // event population sets the heap depth the baseline pays, so shrinking
  // it would understate the comparison.
  const std::size_t pending = 10'000;
  const std::uint64_t fireTarget = smoke ? 200'000 : 2'000'000;
  const std::uint64_t sendTarget = smoke ? 100'000 : 1'000'000;
  const std::uint64_t rpcTarget = smoke ? 200'000 : 2'000'000;
  const std::uint64_t dedupTarget = smoke ? 500'000 : 5'000'000;

  std::vector<Row> rows;

  const int reps = smoke ? 2 : 3;
  const double calendarEps = bestOf(reps, [&] {
    return scheduleFireEventsPerSec<sim::Simulator>(pending, fireTarget);
  });
  const double legacyEps = bestOf(reps, [&] {
    return scheduleFireEventsPerSec<LegacySimulator>(pending, fireTarget);
  });
  const double speedup = calendarEps / legacyEps;
  rows.push_back({"schedule_fire_calendar", calendarEps, "events/sec"});
  rows.push_back({"schedule_fire_priority_queue", legacyEps, "events/sec"});
  rows.push_back({"schedule_fire_speedup", speedup, "x"});
  rows.push_back(
      {"schedule_fire_latency", 1e9 / calendarEps, "ns/event"});

  const double calendarMixed = bestOf(reps, [&] {
    return mixedTierEventsPerSec<sim::Simulator>(pending, fireTarget);
  });
  const double legacyMixed = bestOf(reps, [&] {
    return mixedTierEventsPerSec<LegacySimulator>(pending, fireTarget);
  });
  rows.push_back({"mixed_tier_calendar", calendarMixed, "events/sec"});
  rows.push_back({"mixed_tier_priority_queue", legacyMixed, "events/sec"});
  rows.push_back({"mixed_tier_speedup", calendarMixed / legacyMixed, "x"});

  rows.push_back(
      {"send_throughput", sendThroughputPerSec(1000, sendTarget),
       "msgs/sec"});
  rows.push_back({"rpc_deferred_round_trip", rpcRoundTripsPerSec(rpcTarget),
                  "calls/sec"});

  double suppressedFraction = 0.0;
  rows.push_back(
      {"notify_dedup", dedupOpsPerSec(dedupTarget, &suppressedFraction),
       "ops/sec"});
  rows.push_back(
      {"notify_dedup_suppressed", suppressedFraction, "fraction"});

  // Sharded single-scenario section. Smoke shrinks the world, not the
  // structure, so the JSON shape is identical across presets.
  const std::size_t shardedN = smoke ? 600 : 2000;
  const SimDuration shardedHorizon = smoke ? 8 * kMinute : 20 * kMinute;
  const ShardedRun oneShard = shardedScenarioRun(1, shardedN, shardedHorizon);
  const ShardedRun fourShards = shardedScenarioRun(4, shardedN, shardedHorizon);
  const double shardedSpeedup = oneShard.seconds / fourShards.seconds;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  rows.push_back({"sharded_scenario_1shard", oneShard.eventsPerSec,
                  "events/sec"});
  rows.push_back({"sharded_scenario_4shards", fourShards.eventsPerSec,
                  "events/sec"});
  Row speedupRow{"sharded_scenario_speedup_4shards", shardedSpeedup, "x"};
  // The >=1.5x bar needs the 4 shards on 4 real threads; on a smaller
  // host the measurement is still recorded but marked so downstream
  // trajectory checks skip the assertion instead of failing on hardware.
  if (cores < 4) speedupRow.note = "skipped_1core";
  rows.push_back(std::move(speedupRow));
  rows.push_back({"sharded_hw_threads", static_cast<double>(cores),
                  "threads"});
  if (cores < 4) {
    std::printf(
        "NOTE: only %u hardware thread(s); the >=1.5x sharded target "
        "applies to >=4-core hosts (row marked skipped_1core)\n",
        cores);
  } else if (shardedSpeedup < 1.5) {
    std::printf(
        "WARNING: sharded 4-shard speedup %.2fx below the 1.5x target\n",
        shardedSpeedup);
  }

  if (million) {
    // Run last: getrusage's high-water mark is monotone, so everything
    // before this point is guaranteed smaller than the million-node peak.
    const std::size_t millionN = 1'000'000;
    const MillionRun run = millionNodeRun(millionN);
    char fingerprint[32];
    std::snprintf(fingerprint, sizeof fingerprint, "0x%016llx",
                  static_cast<unsigned long long>(run.fingerprint));
    rows.push_back({"million_node_events_per_sec", run.eventsPerSec,
                    "events/sec", fingerprint});
    rows.push_back({"million_node_wall", run.seconds, "sec"});
    rows.push_back({"million_node_peak_rss_kb", run.peakRssKb, "kb"});
    rows.push_back({"million_node_peak_rss_bytes_per_node",
                    run.peakRssKb * 1024.0 / static_cast<double>(millionN),
                    "bytes/node"});
    std::printf("million-node golden fingerprint: %s\n", fingerprint);
  }

  std::printf("# bench_sim_core (%s preset)\n", preset.c_str());
  for (const Row& row : rows) {
    if (row.unit == "x" || row.unit == "fraction") {
      std::printf("%-32s %14.2f %s\n", row.name.c_str(), row.value,
                  row.unit.c_str());
    } else {
      std::printf("%-32s %14.0f %s\n", row.name.c_str(), row.value,
                  row.unit.c_str());
    }
  }
  if (speedup < 2.0) {
    std::printf("WARNING: schedule/fire speedup %.2fx below the 2x target\n",
                speedup);
  }

  if (std::FILE* out = std::fopen(outPath.c_str(), "w")) {
    std::fprintf(out, "{\n  \"bench\": \"bench_sim_core\",\n");
    std::fprintf(out, "  \"preset\": \"%s\",\n", preset.c_str());
    std::fprintf(out, "  \"results\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].note.empty()) {
        std::fprintf(out,
                     "    {\"name\": \"%s\", \"value\": %.1f, \"unit\": "
                     "\"%s\"}%s\n",
                     rows[i].name.c_str(), rows[i].value,
                     rows[i].unit.c_str(), i + 1 < rows.size() ? "," : "");
      } else {
        std::fprintf(out,
                     "    {\"name\": \"%s\", \"value\": %.1f, \"unit\": "
                     "\"%s\", \"note\": \"%s\"}%s\n",
                     rows[i].name.c_str(), rows[i].value,
                     rows[i].unit.c_str(), rows[i].note.c_str(),
                     i + 1 < rows.size() ? "," : "");
      }
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", outPath.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
    return 1;
  }
  return 0;
}
