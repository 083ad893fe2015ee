// Multi-core execution of ONE scenario: the node population is partitioned
// across S shards, each shard owning a full sub-world (Simulator + dense-
// slot Network), and the shards run in lock-stepped time windows on a
// thread pool.
//
// The pool steps aside for windows too small to split. A window runs on
// the pool only when the window before it executed at least kPoolMinEvents
// events (summed over shards), and a world's first window always does;
// every other window runs on the coordinator alone — every shard's events,
// then every destination's drain — with no barrier crossing. The trigger
// is an event count, never a clock, so the choice is reproducible; and
// which thread runs a shard never reaches results, so both paths give
// bit-identical worlds. Workers waiting out a serial stretch park after a
// bounded spin instead of burning their cores.
//
// Correctness model (conservative parallel discrete-event simulation with
// the network's minimum latency as lookahead):
//
//  * The window length W equals the minimum network latency (>= 1 ms). A
//    message sent at time t inside window [kW, (k+1)W) is due no earlier
//    than t + W >= (k+1)W — i.e. always in a LATER window — so shards
//    never need to see each other's state mid-window and can run their
//    windows fully in parallel.
//  * Every inter-node hand-off (one-way delivery, deferred-RPC request
//    leg, deferred-RPC response leg) — including traffic whose endpoints
//    share a shard — is appended to a plain buffer (one per source/dest
//    shard pair, reused across windows) instead of being scheduled
//    directly. At the window barrier each destination shard sorts small
//    keys for its column of buffers by the shard-count-invariant order
//    (due, sender index, per-sender seq), then moves each record once, in
//    that order, into its simulator. A buffer is appended to in a window's
//    run phase and drained after the barrier that ends it, so the barrier
//    alone orders the two; no buffer is ever touched by two threads at
//    once.
//
// Determinism: because (a) the barrier at which an item is inserted is a
// function of its send time alone, (b) batches are sorted by a key that
// depends only on what each node did, and (c) all network randomness is
// drawn from per-sender streams keyed by node id (see Network), the
// execution each node observes is bit-identical for EVERY shard count —
// S = 8 reproduces S = 1 exactly, which the sharded property suite pins
// against golden fingerprints. The price of that guarantee: state
// exchanges must ride the latency-modeled async RPC (a synchronous
// Network::call cannot cross a shard boundary), and scenario metrics must
// be per-node or order-insensitive aggregates.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <variant>
#include <vector>

#include "common/det_checks.hpp"
#include "common/id_index.hpp"
#include "common/node_id.hpp"
#include "common/time.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace avmon::sim {

/// Deferred-RPC request leg crossing to the target's shard.
struct RpcRequestHandoff {
  RpcRequest request;
  RpcTicket ticket;
};

/// Deferred-RPC response leg crossing back to the caller's shard.
struct RpcResponseHandoff {
  RpcResponse response;
  RpcTicket ticket;
};

/// One cross-shard event in flight: a one-way message, a deferred-RPC
/// request leg, or a deferred-RPC response leg. The payload is a variant
/// — these records are buffered and moved on the per-window hot path, so
/// each carries only its own alternative. The drain sorts keys, never
/// these records.
struct Handoff {
  SimTime due = 0;
  HandoffKey key;
  NodeId from;  ///< sender (message / request legs)
  NodeId to;    ///< destination node, or the RPC caller for response legs
  std::variant<Message, RpcRequestHandoff, RpcResponseHandoff> payload;
};

/// Runs one simulated world on up to `threads` cores by partitioning its
/// node population across `shards` sub-worlds.
class ShardedSimulator {
 public:
  struct Config {
    /// Number of shards (>= 1). Shard 1 is the degenerate case: same
    /// window/barrier/hand-off mechanics, no threads — which is exactly
    /// why its runs are bit-identical to any other shard count.
    std::size_t shards = 1;
    /// Shared latency/fault model. minLatency must be >= 1 ms (it is the
    /// cross-shard lookahead that bounds the window length).
    NetworkConfig net;
    /// Seed shared by every shard's Network; per-node streams derive from
    /// (seed, node id), so the partitioning never shifts a node's draws.
    std::uint64_t netSeed = 1;
    /// The most threads a pool window may use (visits always use them
    /// all); 0 = min(shards, hardware concurrency). Windows below the
    /// pool threshold run on the calling thread whatever this says.
    unsigned threads = 0;
    /// Cross-shard lookahead bounding the window length; 0 (the default)
    /// means net.minLatency. A fault plan whose latency windows or geo
    /// bands dip below the base band minimum must lower this to the
    /// plan's lookaheadFloor, or a fast-regime message could be due
    /// inside the window that sent it.
    SimDuration lookahead = 0;
  };

  /// Attaches a fault plan to every shard's Network (see
  /// Network::setFaultPlan). The plan must outlive the simulator; callers
  /// are responsible for configuring `Config::lookahead` to the plan's
  /// lookaheadFloor before construction.
  void setFaultPlan(const FaultPlan* plan);

  explicit ShardedSimulator(Config config);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  std::size_t shardCount() const noexcept { return shards_.size(); }
  SimDuration windowLength() const noexcept { return window_; }
  unsigned workerThreads() const noexcept { return workerCount_; }

  /// Registers a node and assigns it a global index (round-robin over
  /// shards by index): 0, 1, 2, ... in first-registration order. Must be
  /// called for every node id that will attach to a shard network, before
  /// running. Returns the global index; a repeated id gets its first one.
  std::uint32_t registerNode(const NodeId& id);

  std::size_t shardOfIndex(std::uint32_t index) const noexcept {
    return static_cast<std::size_t>(index) % shards_.size();
  }
  std::size_t shardOf(const NodeId& id) const;
  std::uint32_t globalIndexOf(const NodeId& id) const;

  Simulator& simOf(std::size_t shard);
  Network& netOf(std::size_t shard);
  const Network& netOf(std::size_t shard) const;
  Simulator& simFor(const NodeId& id) { return simOf(shardOf(id)); }
  Network& netFor(const NodeId& id) { return netOf(shardOf(id)); }
  const Network& netFor(const NodeId& id) const { return netOf(shardOf(id)); }

  /// Runs every shard in lock-stepped windows until all simulated clocks
  /// reach `until` (events exactly at `until` are executed). May be called
  /// repeatedly with increasing horizons.
  void runUntil(SimTime until);

  /// Runs `fn(shard)` once per shard, in parallel, each call on the
  /// shard's HOME worker (shard s -> worker s % workers) and inside that
  /// shard's determinism-sentinel scope. Unlike the run phase — which
  /// steals shards across workers per window — visits always use the
  /// static home assignment, so state `fn` accumulates per shard (e.g. a
  /// metric bank) is touched by exactly one thread for the whole run.
  /// The shards must be quiescent (between runUntil calls); `fn` may read
  /// the shard's sub-world and write only per-shard state it owns. This is
  /// how per-shard metric banks ingest window probes without any state
  /// ever crossing a shard boundary (experiments/streaming). Exceptions
  /// from `fn` are rethrown on this thread after every shard completed.
  void visitShards(const std::function<void(std::size_t)>& fn);

  /// Watermark: all shards have fully executed up to and including now().
  SimTime now() const noexcept { return now_; }

  // ---- aggregates (valid while shards are quiescent) ----
  std::uint64_t executedEvents() const;
  std::uint64_t delivered() const;
  std::uint64_t lost() const;
  /// Windows actually executed (idle stretches are skipped in one hop).
  std::uint64_t windowsRun() const noexcept { return windowsRun_; }
  /// Of those, the windows that ran on the worker pool; the rest ran on
  /// the calling thread. Always 0 without worker threads.
  std::uint64_t poolWindows() const noexcept { return poolWindows_; }
  /// Workers blocked at the barrier right now (a snapshot: a worker parks
  /// once its bounded spin runs out, e.g. during a serial stretch).
  unsigned parkedWorkers() const noexcept { return barrier_.parked(); }
  /// Hand-off items carried across window barriers so far.
  std::uint64_t handoffsCarried() const noexcept { return handoffsCarried_; }

 private:
  class ShardPort;
  struct Shard;

  // A window runs on the pool only if the window before it executed at
  // least this many events, summed over shards. The break-even lies
  // between two traced workloads at 4 shards (seed 1, 4-vCPU hosts):
  // stat_dense's windows, 11.6 events each, ran at 0.84–1.06x of one
  // shard on the pool, and wide_sparse's, 183 each, at 1.88–2.83x. 32 is
  // ~3x the first and ~6x below the second, and the choice is flat
  // around it: on sharded_faults (2.8 events per window) 16 put 1 903 of
  // 319 027 windows on the pool, 32 put 101 and 64 put 63, for run
  // medians of 0.68, 0.62 and 0.63 s; wide_sparse ran all 24 001 of its
  // windows on the pool at all three.
  static constexpr std::uint64_t kPoolMinEvents = 32;

  // Reusable sense-reversing combining-tree barrier. Each party arrives
  // at its leaf group node (kFanIn parties per node); the last arriver at
  // a node propagates one arrival to the parent, and the root release is
  // a single generation bump. A waiter spins on the generation for a
  // bounded budget, then parks on a condition variable until the bump, so
  // a worker left at barrier A through a serial stretch, or after the
  // world's last window, sleeps instead of burning its core. Per-barrier
  // contention is O(fan-in) per cache line instead of every party
  // hammering one counter, which is what a flat barrier costs three times
  // per window at high worker counts.
  class TreeBarrier {
   public:
    explicit TreeBarrier(unsigned parties);
    /// `party` is the calling thread's stable index in [0, parties).
    void arriveAndWait(unsigned party);
    /// Counts `party`'s arrival without waiting for the release; returns
    /// true when it was the last arrival and released everyone.
    bool arrive(unsigned party);
    /// Waiters currently parked.
    unsigned parked() const noexcept {
      return sleepers_.load(std::memory_order_relaxed);
    }

   private:
    // Spin budget before parking: kSpinRounds rounds of kSpinsPerRound
    // generation loads, each round ending in a yield. It lasts 14–30 µs
    // on a 4-vCPU EPYC host with the other cores idle, longer when they
    // are busy: well above the coordinator's bookkeeping between two pool
    // windows (under 1 µs), so a run of pool windows keeps its workers
    // awake, and far below a serial stretch (sharded_faults switches
    // paths 30 times in 319 027 windows, so its serial stretches average
    // ~20 000 windows, tens of ms), so a stretch parks them almost at
    // once.
    static constexpr unsigned kSpinRounds = 64;
    static constexpr unsigned kSpinsPerRound = 512;
    static constexpr unsigned kFanIn = 4;
    struct alignas(64) Node {
      std::atomic<unsigned> pending{0};
      unsigned expected = 0;
      unsigned parent = 0;  ///< unused on the root
      bool root = false;
    };
    void release();

    std::vector<Node> nodes_;        ///< leaves first, root last
    std::vector<unsigned> leafOf_;   ///< party -> leaf node index
    std::atomic<std::uint64_t> generation_{0};
    // Parking: a waiter past its spin budget counts itself in sleepers_
    // and blocks on parkedCv_ until the generation moves. The release
    // bumps the generation, then reads sleepers_; the waiter counts
    // itself, then reads the generation. All four are seq_cst, so at
    // least one side sees the other: either the waiter sees the bump and
    // never blocks, or the release sees the sleeper and notifies under
    // parkMutex_, which the waiter holds from its count until it blocks.
    std::atomic<unsigned> sleepers_{0};
    std::mutex parkMutex_;
    std::condition_variable parkedCv_;
  };

  void enqueue(std::size_t srcShard, Handoff handoff);

  // Run phase: every worker claims shards from the shared steal cursor
  // until none remain (per-window work stealing — a worker whose shards
  // went idle picks up the stragglers instead of spinning at the barrier).
  void runShardsStealing(SimTime target);
  // Drain/visit phases on the pool keep the static home map (shard s ->
  // worker s % workerCount_): drains reuse each destination's key
  // scratch, and visitShards promises metric banks a single touching
  // thread. drainShards(first, stride) drains destinations first,
  // first + stride, ...: (worker, workerCount_) on the pool, (0, 1) for a
  // serial window.
  void drainShards(std::size_t first, std::size_t stride);
  void visitOwnedShards(unsigned worker);

  // One full window, on the pool or on this thread alone; returns items
  // drained.
  std::uint64_t executeWindow(SimTime wEnd, bool onPool);

  void workerLoop(unsigned worker);
  // Releases the pool into its stop check and joins it.
  void stopWorkers();
  // Keeps the first error a window or visit raised, on any thread.
  void storeError(std::exception_ptr error);
  void rethrowPendingError();

  std::uint64_t totalExecuted() const;

  static unsigned computeWorkerCount(const Config& config) noexcept;

  SimDuration window_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Written by registerNode before the run only; shard threads then call
  // globalIndexOf (a find) concurrently.
  IdIndex indexOf_;

  SimTime windowStart_ = 0;  ///< start of the next (or partially run) window
  SimTime now_ = 0;
  std::uint64_t windowsRun_ = 0;
  std::uint64_t poolWindows_ = 0;
  std::uint64_t handoffsCarried_ = 0;
  // Whether the next window may use the pool: the last window executed at
  // least kPoolMinEvents events. True before the first window, which holds
  // the t = 0 join burst; starting it on the pool also spreads every
  // shard's first allocations over the workers' malloc arenas (run on one
  // thread, wide_sparse's peak RSS rose 7%).
  bool nextOnPool_ = true;

  // Thread pool: workerCount_ - 1 threads beside the coordinator (none
  // when one worker suffices); workers_ is declared last, after everything
  // its threads use.
  unsigned workerCount_ = 1;
  TreeBarrier barrier_;
  // Next unclaimed shard of the current run phase; reset by the
  // coordinator before each release (the barrier orders the reads).
  std::atomic<std::size_t> stealCursor_{0};
  // What the next barrier-A release asks the workers to do: run a window
  // to phaseTarget_ (the default) or visit their shards with visitFn_.
  // Published by the coordinator before A; the barrier orders the reads.
  enum class Phase : std::uint8_t { kWindow, kVisit };
  Phase phase_ = Phase::kWindow;
  SimTime phaseTarget_ = 0;
  const std::function<void(std::size_t)>* visitFn_ = nullptr;
  // Determinism-sentinel domain for this world (per-instance so concurrent
  // worlds under a parallel runner check independently); empty unless
  // AVMON_DET_CHECKS.
  AVMON_DET_DOMAIN(detDomain_);
  std::atomic<bool> stop_{false};
  std::exception_ptr firstError_;  // guarded by errorMutex_
  std::mutex errorMutex_;
  std::atomic<bool> hasError_{false};  ///< set with firstError_
  std::vector<std::thread> workers_;
};

}  // namespace avmon::sim
