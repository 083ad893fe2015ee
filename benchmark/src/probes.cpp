#include "probes.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "avmon/monitor_selector.hpp"
#include "avmon/notify_dedup.hpp"
#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "experiments/streaming/exact_sum.hpp"
#include "experiments/streaming/quantile_sketch.hpp"
#include "hash/hash_function.hpp"
#include "history/availability_history.hpp"
#include "net/live_transport.hpp"
#include "net/wire_codec.hpp"
#include "sim/network.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim/simulator.hpp"

namespace avmon::bench {
namespace {

// Results of timed loops land here so the optimizer cannot drop the work.
volatile std::uint64_t g_sink = 0;

constexpr int kBatches = 5;

std::uint64_t scaled(std::uint64_t ops, double scale) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(ops) * scale));
}

/// Median over kBatches of (batch time / ops), in ns per operation.
template <class F>
double nsPerOp(std::uint64_t ops, F&& batch) {
  std::vector<double> samples;
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t start = nowNs();
    batch(ops);
    samples.push_back(static_cast<double>(nowNs() - start) /
                      static_cast<double>(ops));
  }
  return median(std::move(samples));
}

// ---- sim.sharded: one empty window barrier per shard count ----

/// One event per shard per window: reschedules itself one window later.
struct WindowTick {
  sim::Simulator* sim;
  SimDuration period;
  void operator()() const { sim->after(period, WindowTick{sim, period}); }
};

double windowNs(unsigned shards, std::uint64_t windows) {
  sim::ShardedSimulator::Config config;
  config.shards = shards;
  sim::ShardedSimulator world(config);
  const SimDuration w = world.windowLength();
  for (std::size_t s = 0; s < world.shardCount(); ++s) {
    world.simOf(s).at(0, WindowTick{&world.simOf(s), w});
  }
  SimTime until = 100 * w;
  world.runUntil(until);  // workers started, buckets warm
  std::vector<double> samples;
  for (int b = 0; b < kBatches; ++b) {
    const std::uint64_t before = world.windowsRun();
    const std::int64_t start = nowNs();
    until += static_cast<SimTime>(windows) * w;
    world.runUntil(until);
    samples.push_back(static_cast<double>(nowNs() - start) /
                      static_cast<double>(world.windowsRun() - before));
  }
  return median(std::move(samples));
}

// ---- sim.simulator / sim.network ----

/// Latency-scale self-rescheduling event (the shape of a delivery).
struct ChurnEvent {
  sim::Simulator* sim;
  Rng* rng;
  std::uint64_t* fired;
  void operator()() const {
    ++*fired;
    sim->after(static_cast<SimDuration>(1 + ((*rng)() & 127)),
               ChurnEvent{sim, rng, fired});
  }
};

double scheduleFireNs(std::uint64_t events) {
  sim::Simulator simulator;
  Rng rng(42);
  std::uint64_t fired = 0;
  for (int i = 0; i < 10'000; ++i) {
    simulator.at(static_cast<SimTime>(rng.below(128)),
                 ChurnEvent{&simulator, &rng, &fired});
  }
  return nsPerOp(events, [&](std::uint64_t ops) {
    const std::uint64_t target = fired + ops;
    while (fired < target) simulator.runUntil(simulator.now() + 64);
  });
}

class CountingEndpoint final : public sim::Endpoint {
 public:
  void onMessage(const NodeId&, const sim::Message&) override { ++received; }
  std::uint64_t received = 0;
};

double sendDeliverNs(std::size_t nodes, std::uint64_t messages) {
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
  const double ns = nsPerOp(messages, [&](std::uint64_t ops) {
    for (std::uint64_t sent = 0; sent < ops;) {
      for (int burst = 0; burst < 1024 && sent < ops; ++burst, ++sent) {
        const NodeId& from = ids[rng.index(nodes)];
        const NodeId& to = ids[rng.index(nodes)];
        net.send(from, to, sim::NotifyMessage{from, to});
      }
      simulator.runUntil(simulator.now() + 100);
    }
    simulator.runUntil(simulator.now() + kSecond);
  });
  g_sink = g_sink + net.delivered();
  return ns;
}

// ---- avmon: consistency-check selector and NOTIFY dedup ----

using Pair = std::pair<NodeId, NodeId>;

std::vector<Pair> randomPairs(std::uint32_t idSpace, std::size_t count,
                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Pair> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pairs.emplace_back(
        NodeId::fromIndex(static_cast<std::uint32_t>(rng.below(idSpace))),
        NodeId::fromIndex(static_cast<std::uint32_t>(rng.below(idSpace))));
  }
  return pairs;
}

double selectorNs(const MonitorSelector& selector,
                  const std::vector<Pair>& queries) {
  return nsPerOp(queries.size(), [&](std::uint64_t) {
    std::uint64_t yes = 0;
    for (const Pair& q : queries) yes += selector.isMonitor(q.first, q.second);
    g_sink = g_sink + yes;
  });
}

void selectorProbes(const ProbeShape& shape, Tracer& tracer, Json& out) {
  const std::size_t queries = scaled(1'000'000, shape.scale);
  const auto workloadHash = hash::makeHashFunction(shape.hashName);
  const HashMonitorSelector selector(*workloadHash, shape.k,
                                     std::max<std::size_t>(2, shape.nodes));

  tracer.timed("probe.selector.memo_hit", [&] {
    // 64 ids: 4096 pairs, a working set that stays cache-resident.
    const MemoizedMonitorSelector memo(selector);
    const std::vector<Pair> hot = randomPairs(64, queries, 11);
    for (const Pair& q : hot) memo.isMonitor(q.first, q.second);
    out.set("selector.memo_hit_ns", selectorNs(memo, hot));
  });
  tracer.timed("probe.selector.memo_thrash", [&] {
    // 2048 ids: ~4.2M distinct pairs, past the memo's 2^21-slot cap. Fill
    // the memo until it stops growing, then query the whole space.
    const MemoizedMonitorSelector memo(selector);
    Rng rng(12);
    std::size_t lastSize = 0;
    for (;;) {
      for (int i = 0; i < 65536; ++i) {
        const auto a = static_cast<std::uint32_t>(rng.below(2048));
        const auto b = static_cast<std::uint32_t>(rng.below(2048));
        memo.isMonitor(NodeId::fromIndex(a), NodeId::fromIndex(b));
      }
      if (memo.cacheSize() == lastSize) break;
      lastSize = memo.cacheSize();
    }
    out.set("selector.memo_thrash_ns",
            selectorNs(memo, randomPairs(2048, queries, 13)));
  });
  for (const char* name : {"splitmix64", "md5"}) {
    tracer.timed(std::string("probe.selector.raw.") + name, [&] {
      const auto fn = hash::makeHashFunction(name);
      const HashMonitorSelector raw(*fn, shape.k,
                                    std::max<std::size_t>(2, shape.nodes));
      out.set(std::string("selector.raw_ns.") + name,
              selectorNs(raw, randomPairs(65536, queries / 4, 14)));
    });
  }
  tracer.timed("probe.dedup.insert", [&] {
    // 80% recent repeats, 20% fresh keys: the long-churn NOTIFY stream.
    NotifyDedupCache cache(shape.dedupMax);
    Rng rng(10);
    std::uint64_t fresh = 0;
    out.set("dedup.insert_ns",
            nsPerOp(scaled(2'000'000, shape.scale), [&](std::uint64_t ops) {
              std::uint64_t suppressed = 0;
              for (std::uint64_t i = 0; i < ops; ++i) {
                const std::uint64_t window =
                    std::min<std::uint64_t>(fresh, 1024);
                const std::uint64_t key =
                    fresh > 0 && rng.chance(0.8)
                        ? splitmix64Mix(fresh - 1 - rng.below(window))
                        : splitmix64Mix(fresh++);
                suppressed += cache.insert(key) ? 0 : 1;
              }
              g_sink = g_sink + suppressed;
            }));
  });
}

// ---- history ----

void historyProbes(const ProbeShape& shape, Tracer& tracer, Json& out) {
  const std::size_t targets = 4096;
  const std::size_t samples = std::max<std::size_t>(8, shape.samplesPerTarget);
  std::vector<std::uint8_t> pattern(targets * samples);
  Rng rng(21);
  for (auto& up : pattern) up = rng.chance(0.8) ? 1 : 0;

  // Time one full history per target: record every sample in ping order.
  auto recordNs = [&](auto makeStore) {
    return nsPerOp(targets * samples, [&](std::uint64_t) {
      std::vector<std::unique_ptr<history::AvailabilityHistory>> stores;
      stores.reserve(targets);
      for (std::size_t t = 0; t < targets; ++t) stores.push_back(makeStore());
      for (std::size_t s = 0; s < samples; ++s) {
        for (std::size_t t = 0; t < targets; ++t) {
          stores[t]->record(static_cast<SimTime>(s) * kMinute,
                            pattern[t * samples + s] != 0);
        }
      }
      g_sink = g_sink + stores.front()->sampleCount();
    });
  };
  tracer.timed("probe.history.record.raw", [&] {
    out.set("history.record_ns.raw",
            recordNs([] { return std::make_unique<history::RawHistory>(); }));
  });
  tracer.timed("probe.history.record.compact", [&] {
    out.set("history.record_ns.compact", recordNs([&] {
              return std::make_unique<history::CompactHistory>(
                  shape.historyRuns);
            }));
  });
  tracer.timed("probe.history.estimate.compact", [&] {
    std::vector<history::CompactHistory> stores(
        targets, history::CompactHistory(shape.historyRuns));
    for (std::size_t t = 0; t < targets; ++t) {
      for (std::size_t s = 0; s < samples; ++s) {
        stores[t].record(static_cast<SimTime>(s) * kMinute,
                         pattern[t * samples + s] != 0);
      }
    }
    out.set("history.estimate_ns.compact",
            nsPerOp(targets * 64, [&](std::uint64_t) {
              double sum = 0.0;
              for (int round = 0; round < 64; ++round) {
                for (const auto& store : stores) sum += store.estimate();
              }
              g_sink = g_sink + static_cast<std::uint64_t>(sum);
            }));
  });
}

// ---- experiments.streaming ----

void streamingProbes(const ProbeShape& shape, Tracer& tracer, Json& out) {
  const std::size_t count = scaled(1'000'000, shape.scale);
  std::vector<double> values(count);
  Rng rng(31);
  for (double& v : values) v = rng.exponential(1.0 / 60.0);  // delays, s
  tracer.timed("probe.streaming.sketch_add", [&] {
    out.set("streaming.sketch_add_ns", nsPerOp(count, [&](std::uint64_t) {
              experiments::streaming::QuantileSketch sketch;
              for (const double v : values) sketch.add(v);
              g_sink = g_sink + sketch.count();
            }));
  });
  tracer.timed("probe.streaming.exact_sum_add", [&] {
    out.set("streaming.exact_sum_add_ns", nsPerOp(count, [&](std::uint64_t) {
              experiments::streaming::ExactSum sum;
              for (const double v : values) sum.add(v);
              g_sink = g_sink + static_cast<std::uint64_t>(sum.value());
            }));
  });
}

// ---- net: wire codec and the live loopback lane ----

void wireProbe(const std::string& name, std::uint64_t ops,
               const std::vector<std::uint8_t>& frame,
               const std::function<std::vector<std::uint8_t>()>& encode,
               Tracer& tracer, Json& out) {
  tracer.timed("probe.wire." + name, [&] {
    out.set("wire.encode_ns." + name, nsPerOp(ops, [&](std::uint64_t n) {
              for (std::uint64_t i = 0; i < n; ++i) {
                g_sink = g_sink + encode().size();
              }
            }));
    out.set("wire.decode_ns." + name, nsPerOp(ops, [&](std::uint64_t n) {
              for (std::uint64_t i = 0; i < n; ++i) {
                const auto decoded =
                    net::decodeFrame(frame.data(), frame.size());
                if (!decoded) {
                  throw std::runtime_error("wire probe: decode failed");
                }
                g_sink = g_sink + decoded->callId;
              }
            }));
  });
}

void wireProbes(const ProbeShape& shape, Tracer& tracer, Json& out) {
  const std::uint64_t ops = scaled(200'000, shape.scale);
  const NodeId a = NodeId::fromIndex(1), b = NodeId::fromIndex(2);
  auto notify = [&] { return net::encodeMessage(a, sim::NotifyMessage{a, b}); };
  wireProbe("notify", ops, notify(), notify, tracer, out);

  sim::CvFetchResponse view;
  for (std::size_t i = 0; i < shape.cvs; ++i) {
    view.view.push_back(NodeId::fromIndex(static_cast<std::uint32_t>(100 + i)));
  }
  const sim::RpcResponse response(view);
  auto cvFetch = [&] { return net::encodeResponse(a, 7, response); };
  wireProbe("cv_fetch", ops, cvFetch(), cvFetch, tracer, out);
}

/// Answers every RPC with the default liveness ack.
class AckEndpoint final : public sim::Endpoint {
 public:
  void onMessage(const NodeId&, const sim::Message&) override {}
};

void liveProbe(const ProbeShape& shape, Tracer& tracer, Json& out) {
  tracer.timed("probe.live.loopback", [&] {
    constexpr std::uint32_t kLoopback = 0x7F000001;
    net::LiveTransport a{net::LiveConfig{}};
    net::LiveTransport b{net::LiveConfig{}};
    if (!a.open(NodeId(kLoopback, 0)) || !b.open(NodeId(kLoopback, 0))) {
      throw std::runtime_error("live probe: cannot bind loopback UDP sockets");
    }
    AckEndpoint endpointA, endpointB;
    a.attach(a.local(), endpointA);
    b.attach(b.local(), endpointB);
    a.setUp(a.local(), true);
    b.setUp(b.local(), true);

    const std::uint64_t rpcs = scaled(4000, shape.scale);
    std::vector<double> rttUs;
    rttUs.reserve(rpcs);
    const std::int64_t start = nowNs();
    for (std::uint64_t i = 0; i < rpcs; ++i) {
      bool done = false;
      const std::int64_t sent = nowNs();
      a.exchangeAsync(a.local(), b.local(), sim::PingRequest{},
                      [&](std::optional<sim::PingResponse>) { done = true; });
      while (!done) {
        b.poll(0);
        a.poll(0);
      }
      rttUs.push_back(static_cast<double>(nowNs() - sent) * 1e-3);
    }
    const double seconds = secondsBetween(start, nowNs());
    std::sort(rttUs.begin(), rttUs.end());
    out.set("live.rtt_us.p50", rttUs[rttUs.size() / 2]);
    out.set("live.rtt_us.p99", rttUs[(rttUs.size() * 99) / 100]);
    const net::LiveCounters& ca = a.counters();
    const net::LiveCounters& cb = b.counters();
    out.set("live.frames_per_s",
            static_cast<double>(ca.datagramsSent + ca.datagramsReceived +
                                cb.datagramsSent + cb.datagramsReceived) /
                seconds);
    out.set("live.retries_per_rpc", static_cast<double>(ca.rpcRetries) /
                                        static_cast<double>(ca.rpcCalls));
    if (ca.rpcTimeouts != 0) {
      throw std::runtime_error("live probe: loopback RPC timed out");
    }
  });
}

}  // namespace

Json runProbes(const ProbeShape& shape, Tracer& tracer) {
  Json out = Json::object();
  const std::size_t handle = tracer.open("probes");
  const std::uint64_t windows = scaled(20'000, shape.scale);
  for (const unsigned shards : {1u, 2u, 4u}) {
    const std::string name = "sim.window_ns.s" + std::to_string(shards);
    tracer.timed("probe." + name,
                 [&] { out.set(name, windowNs(shards, windows)); });
  }
  tracer.timed("probe.sim.schedule_fire", [&] {
    out.set("sim.schedule_fire_ns",
            scheduleFireNs(scaled(1'000'000, shape.scale)));
  });
  tracer.timed("probe.sim.send_deliver", [&] {
    out.set("sim.send_deliver_ns",
            sendDeliverNs(std::min<std::size_t>(shape.nodes, 100'000),
                          scaled(500'000, shape.scale)));
  });
  selectorProbes(shape, tracer, out);
  historyProbes(shape, tracer, out);
  streamingProbes(shape, tracer, out);
  wireProbes(shape, tracer, out);
  liveProbe(shape, tracer, out);
  tracer.close(handle);
  return out;
}

}  // namespace avmon::bench
