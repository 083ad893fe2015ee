#include "sim/sharded_simulator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace avmon::sim {

namespace {

// Where a drain finds one hand-off, with the order it is inserted in:
// (due, src, seq) is the shard-count-invariant key, and (src, seq) pairs
// are unique, so the order is strict. `shard` and `pos` locate the record
// in shards_[shard]->out[destination]; they never enter the order.
struct HandoffRef {
  SimTime due;
  std::uint64_t seq;
  std::uint32_t src;
  std::uint32_t shard;
  std::uint32_t pos;

  bool operator<(const HandoffRef& other) const noexcept {
    if (due != other.due) return due < other.due;
    if (src != other.src) return src < other.src;
    return seq < other.seq;
  }
};

}  // namespace

// Per-shard adapter handed to that shard's Network: stamps the source
// shard onto every hand-off and forwards it to the owner's buffers.
class ShardedSimulator::ShardPort final : public CrossShardRouter {
 public:
  ShardPort(ShardedSimulator& owner, std::size_t shard)
      : owner_(owner), shard_(shard) {}

  std::uint32_t globalIndexOf(const NodeId& id) const override {
    return owner_.globalIndexOf(id);
  }

  void handoffMessage(SimTime due, HandoffKey key, const NodeId& from,
                      const NodeId& to, Message message) override {
    owner_.enqueue(shard_, Handoff{due, key, from, to, std::move(message)});
  }

  void handoffRpcRequest(SimTime due, HandoffKey key, const NodeId& from,
                         const NodeId& to, RpcRequest request,
                         RpcTicket ticket) override {
    owner_.enqueue(
        shard_, Handoff{due, key, from, to,
                        RpcRequestHandoff{std::move(request),
                                          std::move(ticket)}});
  }

  void handoffRpcResponse(SimTime due, HandoffKey key, const NodeId& caller,
                          RpcResponse response, RpcTicket ticket) override {
    owner_.enqueue(
        shard_, Handoff{due, key, NodeId{}, caller,
                        RpcResponseHandoff{std::move(response),
                                           std::move(ticket)}});
  }

 private:
  ShardedSimulator& owner_;
  std::size_t shard_;
};

struct ShardedSimulator::Shard {
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<ShardPort> port;
  std::unique_ptr<Network> net;
  /// out[d]: hand-offs this shard produced in the current window for
  /// destination shard d, in production order. This shard's run phase
  /// appends; d's drain moves the records out and clears the buffer, which
  /// keeps its capacity for the next window. The window barrier between
  /// the two phases is their only synchronization.
  std::vector<std::vector<Handoff>> out;
  /// Drain scratch owned by this shard in its role as a DESTINATION: one
  /// key per inbound hand-off, sorted in place of the records.
  std::vector<HandoffRef> keys;
  /// Items this shard inserted at barriers (its destination-side tally).
  std::uint64_t drained = 0;
};

ShardedSimulator::TreeBarrier::TreeBarrier(unsigned parties) {
  const unsigned p = std::max(1u, parties);
  // Level sizes bottom-up, computed before any Node exists: Node holds an
  // atomic (neither movable nor copyable), so nodes_ must be sized once.
  std::vector<unsigned> levels{(p + kFanIn - 1) / kFanIn};
  while (levels.back() > 1) {
    levels.push_back((levels.back() + kFanIn - 1) / kFanIn);
  }
  unsigned total = 0;
  for (const unsigned count : levels) total += count;
  nodes_ = std::vector<Node>(total);

  leafOf_.resize(p);
  for (unsigned i = 0; i < p; ++i) leafOf_[i] = i / kFanIn;
  unsigned levelStart = 0;
  unsigned members = p;  // arrivals feeding the current level
  for (const unsigned count : levels) {
    for (unsigned i = 0; i < count; ++i) {
      Node& node = nodes_[levelStart + i];
      node.expected = std::min(kFanIn, members - i * kFanIn);
      node.pending.store(node.expected, std::memory_order_relaxed);
      node.parent = levelStart + count + i / kFanIn;
    }
    members = count;
    levelStart += count;
  }
  nodes_.back().root = true;
}

bool ShardedSimulator::TreeBarrier::arrive(unsigned party) {
  unsigned index = leafOf_[party];
  for (;;) {
    Node& node = nodes_[index];
    if (node.pending.fetch_sub(1, std::memory_order_acq_rel) != 1) {
      return false;
    }
    // Last arrival at this node: reset it for the next generation, then
    // count one arrival at the parent — or release everyone from the
    // root. The root bump happens only after every node in the tree has
    // completed (each resets itself before propagating), so re-arrivals
    // in the next generation always find reset counters.
    node.pending.store(node.expected, std::memory_order_relaxed);
    if (node.root) {
      release();
      return true;
    }
    index = node.parent;
  }
}

void ShardedSimulator::TreeBarrier::release() {
  // seq_cst pairs with the parker's count-then-check (see sleepers_).
  generation_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) != 0) {
    const std::lock_guard<std::mutex> lock(parkMutex_);
    parkedCv_.notify_all();
  }
}

void ShardedSimulator::TreeBarrier::arriveAndWait(unsigned party) {
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (arrive(party)) return;
  for (unsigned round = 0; round < kSpinRounds; ++round) {
    for (unsigned spin = 0; spin < kSpinsPerRound; ++spin) {
      if (generation_.load(std::memory_order_acquire) != gen) return;
    }
    std::this_thread::yield();
  }
  std::unique_lock<std::mutex> lock(parkMutex_);
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  parkedCv_.wait(lock, [&] {
    return generation_.load(std::memory_order_seq_cst) != gen;
  });
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
}

unsigned ShardedSimulator::computeWorkerCount(const Config& config) noexcept {
  const std::size_t shardCount = std::max<std::size_t>(1, config.shards);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned requested = config.threads == 0 ? hw : config.threads;
  return static_cast<unsigned>(std::min<std::size_t>(requested, shardCount));
}

ShardedSimulator::ShardedSimulator(Config config)
    : window_(std::max<SimDuration>(
          1, config.lookahead > 0
                 ? std::min(config.lookahead, config.net.minLatency)
                 : config.net.minLatency)),
      workerCount_(computeWorkerCount(config)),
      barrier_(workerCount_) {
  const std::size_t shardCount = std::max<std::size_t>(1, config.shards);
  if (config.net.minLatency < 1 && shardCount > 1) {
    throw std::invalid_argument(
        "ShardedSimulator: minLatency must be >= 1 ms — it is the lookahead "
        "that keeps shards independent within a window");
  }
  if (config.lookahead < 0) {
    throw std::invalid_argument("ShardedSimulator: lookahead must be >= 0");
  }
  if (config.net.minLatency > config.net.maxLatency) {
    throw std::invalid_argument("ShardedSimulator: minLatency > maxLatency");
  }
  shards_.reserve(shardCount);
  for (std::size_t s = 0; s < shardCount; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->sim = std::make_unique<Simulator>();
    shard->port = std::make_unique<ShardPort>(*this, s);
    // Every shard network gets the SAME seed: per-node streams are keyed
    // by (seed, node id), so equality of seeds — not of shard layout — is
    // what makes a node's draws partition-independent.
    shard->net =
        std::make_unique<Network>(*shard->sim, config.net, Rng(config.netSeed));
    shard->net->setRouter(shard->port.get());
    // Determinism sentinel: this shard's sub-world is owned by whichever
    // worker holds shard s during a window phase. Node RNGs and per-sender
    // streams inherit these bindings (AvmonNode ctor, Network::slotFor).
    AVMON_DET_BIND(shard->sim->detTag, &detDomain_, s);
    AVMON_DET_BIND(shard->net->detTag, &detDomain_, s);
    shard->out.resize(shardCount);
    shards_.push_back(std::move(shard));
  }

  try {
    workers_.reserve(workerCount_ - 1);
    for (unsigned w = 1; w < workerCount_; ++w) {
      workers_.emplace_back([this, w] { workerLoop(w); });
    }
  } catch (...) {
    // A spawn failed (e.g. EAGAIN at the host's thread limit). The
    // destructor will not run, so stop and join the workers that did
    // start here: destroying a joinable std::thread calls std::terminate.
    stopWorkers();
    throw;
  }
}

ShardedSimulator::~ShardedSimulator() {
  if (!workers_.empty()) stopWorkers();
}

void ShardedSimulator::stopWorkers() {
  stop_.store(true, std::memory_order_release);
  // Arrive for the parties whose thread never started, so the release
  // waits only on the workers that exist; it wakes any that are parked.
  for (auto party = static_cast<unsigned>(workers_.size()) + 1;
       party < workerCount_; ++party) {
    barrier_.arrive(party);
  }
  barrier_.arriveAndWait(0);  // releases workers into the stop check
  for (std::thread& t : workers_) t.join();
}

Simulator& ShardedSimulator::simOf(std::size_t shard) {
  return *shards_[shard]->sim;
}

Network& ShardedSimulator::netOf(std::size_t shard) {
  return *shards_[shard]->net;
}

const Network& ShardedSimulator::netOf(std::size_t shard) const {
  return *shards_[shard]->net;
}

void ShardedSimulator::setFaultPlan(const FaultPlan* plan) {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard->net->setFaultPlan(plan);
  }
}

std::uint32_t ShardedSimulator::registerNode(const NodeId& id) {
  return indexOf_.insert(id).index;
}

std::size_t ShardedSimulator::shardOf(const NodeId& id) const {
  return shardOfIndex(globalIndexOf(id));
}

std::uint32_t ShardedSimulator::globalIndexOf(const NodeId& id) const {
  const std::uint32_t index = indexOf_.find(id);
  assert(index != IdIndex::kAbsent &&
         "node must be registered with ShardedSimulator::registerNode before "
         "attaching or receiving traffic");
  if (index == IdIndex::kAbsent) return 0;  // degraded (assertions off)
  return index;
}

void ShardedSimulator::enqueue(std::size_t srcShard, Handoff handoff) {
  const std::size_t dst = shardOf(handoff.to);
  shards_[srcShard]->out[dst].push_back(std::move(handoff));
}

void ShardedSimulator::runShardsStealing(SimTime target) {
  try {
    // Per-window work stealing: shards are claimed from the shared cursor
    // instead of a static worker -> shard map, so a worker whose claims
    // went idle picks up the stragglers instead of spinning at barrier B.
    // WHICH thread runs a shard cannot affect results: a shard's event
    // execution is self-contained within a window, the sentinel scope
    // follows the claim, and the barrier orders every hand-off buffer's
    // appends against its drain.
    for (std::size_t s = stealCursor_.fetch_add(1, std::memory_order_relaxed);
         s < shards_.size();
         s = stealCursor_.fetch_add(1, std::memory_order_relaxed)) {
      AVMON_DET_SHARD_SCOPE(&detDomain_, s);
      shards_[s]->sim->runUntil(target);
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(errorMutex_);
    if (!firstError_) firstError_ = std::current_exception();
  }
}

void ShardedSimulator::drainShards(std::size_t first, std::size_t stride) {
  try {
    for (std::size_t d = first; d < shards_.size(); d += stride) {
      Shard& dest = *shards_[d];
      // Sanctioned barrier-phase insertion: while draining, this worker
      // acts as destination shard d.
      AVMON_DET_SHARD_SCOPE(&detDomain_, d);
      // Sort small keys, not the records: each record moves once, from
      // its source buffer into the destination simulator.
      dest.keys.clear();
      for (std::uint32_t s = 0; s < shards_.size(); ++s) {
        const std::vector<Handoff>& batch = shards_[s]->out[d];
        for (std::uint32_t pos = 0; pos < batch.size(); ++pos) {
          const Handoff& h = batch[pos];
          dest.keys.push_back(HandoffRef{h.due, h.key.seq, h.key.src, s, pos});
        }
      }
      if (dest.keys.empty()) continue;
      std::sort(dest.keys.begin(), dest.keys.end());
      for (const HandoffRef& ref : dest.keys) {
        Handoff& h = shards_[ref.shard]->out[d][ref.pos];
        std::visit(Overloaded{
                       [&](Message& message) {
                         dest.net->scheduleHandoffDelivery(
                             h.due, h.from, h.to, std::move(message));
                       },
                       [&](RpcRequestHandoff& leg) {
                         dest.net->scheduleHandoffServe(
                             h.due, h.from, h.to, std::move(leg.request),
                             std::move(leg.ticket));
                       },
                       [&](RpcResponseHandoff& leg) {
                         dest.net->scheduleHandoffComplete(
                             h.due, std::move(leg.response),
                             std::move(leg.ticket));
                       },
                   },
                   h.payload);
      }
      dest.drained += dest.keys.size();
      for (const auto& src : shards_) src->out[d].clear();
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(errorMutex_);
    if (!firstError_) firstError_ = std::current_exception();
  }
}

void ShardedSimulator::visitOwnedShards(unsigned worker) {
  try {
    for (std::size_t s = worker; s < shards_.size(); s += workerCount_) {
      AVMON_DET_SHARD_SCOPE(&detDomain_, s);
      (*visitFn_)(s);
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(errorMutex_);
    if (!firstError_) firstError_ = std::current_exception();
  }
}

void ShardedSimulator::workerLoop(unsigned worker) {
  for (;;) {
    barrier_.arriveAndWait(worker);  // A: coordinator published the phase
    if (stop_.load(std::memory_order_acquire)) return;
    if (phase_ == Phase::kVisit) {
      visitOwnedShards(worker);
      barrier_.arriveAndWait(worker);  // C: every visit done
      continue;
    }
    runShardsStealing(phaseTarget_);
    barrier_.arriveAndWait(worker);  // B: every shard reached the window end
    drainShards(worker, workerCount_);
    barrier_.arriveAndWait(worker);  // C: every barrier insertion done
  }
}

std::uint64_t ShardedSimulator::executeWindow(SimTime wEnd, bool onPool) {
  // A window phase is in flight until the final barrier: any unscoped
  // touch of shard-owned state in this span is a violation.
  AVMON_DET_PHASE_SCOPE(detDomain_);
  std::uint64_t drainedBefore = 0;
  for (const auto& s : shards_) drainedBefore += s->drained;
  stealCursor_.store(0, std::memory_order_relaxed);
  if (onPool) {
    phaseTarget_ = wEnd;
    barrier_.arriveAndWait(0);  // A
    runShardsStealing(wEnd);
    barrier_.arriveAndWait(0);  // B
    drainShards(0, workerCount_);
    barrier_.arriveAndWait(0);  // C
  } else {
    // The coordinator alone: it claims every shard, then drains every
    // destination. The workers wait at barrier A (parked once their spin
    // runs out); the crossings on either side of a serial stretch order
    // their buffer appends and drains against this thread's.
    runShardsStealing(wEnd);
    drainShards(0, 1);
  }
  rethrowPendingError();
  std::uint64_t drainedAfter = 0;
  for (const auto& s : shards_) drainedAfter += s->drained;
  return drainedAfter - drainedBefore;
}

void ShardedSimulator::visitShards(const std::function<void(std::size_t)>& fn) {
  // The visit borrows the window-phase machinery: same shard->worker
  // assignment, same sentinel scopes, so a metric bank a visit populates
  // is touched by exactly one thread for the whole run.
  AVMON_DET_PHASE_SCOPE(detDomain_);
  visitFn_ = &fn;
  if (workers_.empty()) {
    visitOwnedShards(0);
  } else {
    phase_ = Phase::kVisit;
    barrier_.arriveAndWait(0);  // A
    visitOwnedShards(0);
    barrier_.arriveAndWait(0);  // C
    phase_ = Phase::kWindow;
  }
  visitFn_ = nullptr;
  rethrowPendingError();
}

void ShardedSimulator::rethrowPendingError() {
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(errorMutex_);
    error = firstError_;
    firstError_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void ShardedSimulator::runUntil(SimTime until) {
  while (windowStart_ <= until) {
    const SimTime fullEnd = windowStart_ + window_ - 1;
    const SimTime wEnd = std::min(fullEnd, until);
    const std::uint64_t executedBefore = totalExecuted();
    const bool onPool = nextOnPool_ && !workers_.empty();
    const std::uint64_t drained = executeWindow(wEnd, onPool);
    const std::uint64_t executed = totalExecuted() - executedBefore;
    // A count, never a clock: the same world makes the same choices.
    nextOnPool_ = executed >= kPoolMinEvents;
    ++windowsRun_;
    if (onPool) ++poolWindows_;
    handoffsCarried_ += drained;
    if (wEnd != fullEnd) break;  // stopped mid-window; resume here later
    if (drained == 0 && executed == 0) {
      // Idle window: hop straight to the window holding the next pending
      // event instead of grinding through empty ones. (Safe: the buffers
      // were just drained, so every pending event is inside a simulator.)
      SimTime next = Simulator::kNoPendingEvent;
      for (const auto& s : shards_) {
        next = std::min(next, s->sim->nextEventTime());
      }
      if (next > until) break;
      windowStart_ = next - (next % window_);
    } else {
      windowStart_ = fullEnd + 1;
    }
  }
  // No pending event at or before `until` remains; advance every clock and
  // park the window cursor at the window containing `until` (a later call
  // resumes there instead of re-walking skipped idle windows).
  for (const auto& s : shards_) s->sim->runUntil(until);
  if (until >= 0) {
    windowStart_ = std::max(windowStart_, until - (until % window_));
  }
  if (now_ < until) now_ = until;
}

std::uint64_t ShardedSimulator::totalExecuted() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->sim->executedEvents();
  return total;
}

std::uint64_t ShardedSimulator::executedEvents() const {
  return totalExecuted();
}

std::uint64_t ShardedSimulator::delivered() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->net->delivered();
  return total;
}

std::uint64_t ShardedSimulator::lost() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->net->lost();
  return total;
}

}  // namespace avmon::sim
