#include "avmon/node.hpp"

#include <algorithm>
#include <utility>

namespace avmon {
namespace {

// Per-thread scratch for collectCrossPairs, reused by every fetch.
thread_local std::vector<std::uint64_t> rowKeys;
thread_local std::vector<std::uint64_t> colKeys;
thread_local std::vector<std::int32_t> colBound;

// Collects the cross pairs of one fetch by list position: (i, j) is kept
// iff rows[i] != cols[j] and no earlier pair in row-major order names the
// same unordered pair, in either orientation. That is the set a seen-set
// over row-major order keeps, decided exactly from where each id first
// occurs instead of from a hashed key. Rows and columns may each repeat
// an id (CV(w) can hold x, which the column list appends again).
//
// With u = rows[i] and v = cols[j], (i, j) repeats an earlier pair iff
// u or v occurred earlier in its own list, or v occurred among the
// earlier rows while u occurs among the columns (the reverse pair came
// first). A row absent from the columns also never equals a column, so
// one bound per column decides every row: colBound[j] is -1 for a
// repeated column, else the first row holding v (nRows if none), and
// (i, j) is kept iff colBound[j] > (u among the columns ? i : -1).
void collectCrossPairs(const std::vector<NodeId>& rows,
                       const std::vector<NodeId>& cols,
                       std::vector<CrossPair>& out) {
  const auto nRows = static_cast<std::int32_t>(rows.size());
  const auto nCols = static_cast<std::int32_t>(cols.size());
  rowKeys.resize(rows.size());
  colKeys.resize(cols.size());
  colBound.resize(cols.size());
  for (std::int32_t i = 0; i < nRows; ++i) rowKeys[i] = rows[i].packed();
  for (std::int32_t j = 0; j < nCols; ++j) colKeys[j] = cols[j].packed();
  const auto occursIn = [](const std::vector<std::uint64_t>& keys,
                           std::int32_t end, std::uint64_t key) {
    return std::find(keys.begin(), keys.begin() + end, key) - keys.begin();
  };
  for (std::int32_t j = 0; j < nCols; ++j) {
    colBound[j] = occursIn(colKeys, j, colKeys[j]) < j
                      ? -1
                      : static_cast<std::int32_t>(
                            occursIn(rowKeys, nRows, colKeys[j]));
  }

  out.resize(rows.size() * cols.size());
  CrossPair* next = out.data();
  for (std::int32_t i = 0; i < nRows; ++i) {
    if (occursIn(rowKeys, i, rowKeys[i]) < i) continue;  // repeated row
    const std::int32_t self =
        occursIn(colKeys, nCols, rowKeys[i]) < nCols ? i : -1;
    for (std::int32_t j = 0; j < nCols; ++j) {
      *next = CrossPair{static_cast<std::uint32_t>(i),
                        static_cast<std::uint32_t>(j)};
      next += colBound[j] > self;
    }
  }
  out.resize(static_cast<std::size_t>(next - out.data()));
}

// One key per unordered pair, from its packed ids; the NOTIFY dedup key
// is built from it.
std::uint64_t pairKey(const NodeId& a, const NodeId& b) {
  const std::uint64_t x = a.packed();
  const std::uint64_t y = b.packed();
  return splitmix64Mix(std::min(x, y)) ^ std::max(x, y);
}

// Per-thread scratch for the tick-level view juggling and the fetch's
// pair batch. Each buffer is fully rewritten before every use, so sharing
// one instance across all nodes on a thread is safe — and keeps these
// vectors (24 B each plus their heap blocks) off every node, which
// mattered once nodes number millions.
thread_local std::vector<NodeId> mineScratch;
thread_local std::vector<NodeId> theirsScratch;
thread_local std::vector<NodeId> poolScratch;
thread_local std::vector<CrossPair> pairsScratch;
thread_local std::vector<std::uint8_t> verdictsScratch;

}  // namespace

AvmonNode::AvmonNode(NodeId id, std::shared_ptr<const AvmonConfig> config,
                     const MonitorSelector& selector, sim::Simulator& sim,
                     sim::Transport& net, BootstrapFn bootstrap, Rng rng)
    : id_(id),
      config_(std::move(config)),
      selector_(selector),
      sim_(sim),
      net_(net),
      bootstrap_(std::move(bootstrap)),
      rng_(std::move(rng)),
      notifiedPairs_(config_->notifyDedupMax) {
  config_->validate();
  net_.attach(id_, *this);
  // Determinism sentinel: this node's stream is owned by its home shard
  // (inherited from the simulator it lives on; unbound in plain runs).
  AVMON_DET_BIND_LIKE(rng_.detTag, sim_.detTag);
}

AvmonNode::AvmonNode(NodeId id, AvmonConfig config,
                     const MonitorSelector& selector, sim::Simulator& sim,
                     sim::Transport& net, BootstrapFn bootstrap, Rng rng)
    : AvmonNode(id, std::make_shared<const AvmonConfig>(std::move(config)),
                selector, sim, net, std::move(bootstrap), std::move(rng)) {}

// ---------------------------------------------------------------- lifecycle

void AvmonNode::join(bool firstJoin) {
  if (alive_) return;
  alive_ = true;
  ++epoch_;
  net_.setUp(id_, true);
  sessionStartTime_ = sim_.now();
  if (firstJoinTime_ < 0) firstJoinTime_ = sim_.now();

  // Figure 1: pick a random node; send JOIN with weight cvs on birth, or
  // min(cvs, downtime in protocol periods) on rejoin; inherit its view.
  int weight = static_cast<int>(config_->cvs);
  if (!firstJoin && lastLeaveTime_ >= 0) {
    const auto periodsDown = static_cast<int>(
        (sim_.now() - lastLeaveTime_) / config_->protocolPeriod);
    weight = std::min(weight, std::max(periodsDown, 1));
  }

  const NodeId contact = bootstrap_ ? bootstrap_(id_) : NodeId{};
  if (!contact.isNil()) {
    net_.send(id_, contact, JoinMessage{id_, weight});

    // "Inherit view from this random node": fetch its coarse view to seed
    // ours (charged like a regular view fetch). Like every completion
    // handler below, the epoch guard makes a response landing after
    // leave()/rejoin a no-op.
    const std::uint64_t epochAtSend = epoch_;
    net_.exchangeAsync(
        id_, contact,
        sim::CvFetchRequest{config_->pingBytes,
                            config_->bytesPerEntry * config_->cvs},
        [this, contact,
         epochAtSend](std::optional<sim::CvFetchResponse> fetch) {
          if (!alive_ || epoch_ != epochAtSend) return;
          if (!fetch) return;
          std::vector<NodeId> seed = std::move(fetch->view);
          seed.push_back(contact);
          rng_.shuffle(seed);
          for (const NodeId& n : seed) addToCoarseView(n);
        });
  }

  // Start the two periodic tasks with a random phase so nodes run
  // asynchronously (paper: periods fixed, execution unsynchronized).
  const std::uint64_t epochAtStart = epoch_;
  sim_.every(sim_.now() + static_cast<SimDuration>(
                              rng_.below(static_cast<std::uint64_t>(
                                  config_->protocolPeriod))),
             config_->protocolPeriod, [this, epochAtStart] {
               if (!alive_ || epoch_ != epochAtStart) return false;
               protocolTick();
               return true;
             });
  sim_.every(sim_.now() + static_cast<SimDuration>(
                              rng_.below(static_cast<std::uint64_t>(
                                  config_->monitoringPeriod))),
             config_->monitoringPeriod, [this, epochAtStart] {
               if (!alive_ || epoch_ != epochAtStart) return false;
               monitoringTick();
               return true;
             });
}

void AvmonNode::leave() {
  if (!alive_) return;
  alive_ = false;
  ++epoch_;  // cancels the periodic timers at their next firing
  lastLeaveTime_ = sim_.now();
  net_.setUp(id_, false);
  // Per-session state: CV/PS/TS live in persistent storage (paper Section
  // 3.3) and survive the downtime, but the NOTIFY dedup cache and the PR2
  // last-ping baseline describe the session that just ended and must not
  // leak into the next one.
  notifiedPairs_.clear();
  lastMonitoringPingReceived_ = -1;
  sessionStartTime_ = -1;
  if (amnesiac_) {
    // Forgetful failure mode (setAmnesia): the persistent storage the
    // paper assumes survives downtime is lost with the session. Discovery
    // timestamps stay — they describe events that did happen.
    cv_.clear();
    ps_.clear();
    ts_.clear();
  }
}

// -------------------------------------------------------------- coarse view

bool AvmonNode::addToCoarseView(const NodeId& id) {
  // Membership by linear scan: |CV| <= cvs, and the vector's one cache
  // line or two beat the hash-set mirror this used to consult.
  if (id == id_ || id.isNil() ||
      std::find(cv_.begin(), cv_.end(), id) != cv_.end()) {
    return false;
  }
  if (cv_.size() >= config_->cvs) {
    // Evict a uniformly random entry to stay within the cvs bound while
    // keeping the view a random subset.
    const std::size_t victim = rng_.index(cv_.size());
    cv_[victim] = id;
  } else {
    cv_.push_back(id);
  }
  return true;
}

// ----------------------------------------------------------------- messages

void AvmonNode::onMessage(const NodeId& /*from*/, const sim::Message& message) {
  if (!alive_) return;
  // Exhaustive over the closed wire format: a new Message alternative does
  // not compile until this dispatch decides what AVMON does with it.
  std::visit(
      sim::Overloaded{
          [this](const JoinMessage& m) { handleJoin(m); },
          [this](const NotifyMessage& m) { handleNotify(m); },
          [this](const ForceAddMessage& m) { handleForceAdd(m); },
          [](const sim::PresenceMessage&) {},  // baseline schemes' traffic:
          [](const sim::RegisterMessage&) {},  // not part of this protocol
          [](const sim::TextMessage&) {},      // harness-only payload
      },
      message);
}

sim::RpcResponse AvmonNode::onRpc(const NodeId& from,
                                  const sim::RpcRequest& request) {
  return std::visit(
      sim::Overloaded{
          [](const sim::PingRequest&) -> sim::RpcResponse {
            // Figure 2 step 1: answering at all is the liveness proof.
            return sim::PingResponse{};
          },
          [this](const sim::CvFetchRequest&) -> sim::RpcResponse {
            return sim::CvFetchResponse{cv_};
          },
          [&](const sim::SwapRequest& req) -> sim::RpcResponse {
            return sim::SwapResponse{acceptExchange(from, req.offered)};
          },
          [this](const sim::MonitorPingRequest&) -> sim::RpcResponse {
            acceptMonitoringPing();
            return sim::MonitorPingResponse{true};
          },
      },
      request);
}

void AvmonNode::handleJoin(const JoinMessage& msg) {
  // Figure 1, receiver side.
  int weight = msg.weight;
  if (weight <= 0 || msg.origin == id_) return;
  ++metrics_.joinsReceived;
  if (std::find(cv_.begin(), cv_.end(), msg.origin) == cv_.end()) {
    addToCoarseView(msg.origin);
    ++metrics_.joinAdds;
    --weight;
  }
  if (weight <= 0 || cv_.empty()) return;

  const int low = weight / 2;
  const int high = weight - low;
  if (high > 0) {
    net_.send(id_, cv_[rng_.index(cv_.size())], JoinMessage{msg.origin, high});
    ++metrics_.joinsForwarded;
  }
  if (low > 0) {
    net_.send(id_, cv_[rng_.index(cv_.size())], JoinMessage{msg.origin, low});
    ++metrics_.joinsForwarded;
  }
}

void AvmonNode::handleNotify(const NotifyMessage& msg) {
  // Section 3.3: re-check the consistency condition before trusting the
  // notification (a selfish node could forge NOTIFYs for its colluders).
  if (msg.target == id_ && msg.monitor != id_) {
    if (!ps_.count(msg.monitor) && checkCondition(msg.monitor, id_)) {
      ps_.insert(msg.monitor);
      psDiscoveryTimes_.push_back(sim_.now());
    }
  }
  if (msg.monitor == id_ && msg.target != id_) {
    if (!ts_.count(msg.target) && checkCondition(id_, msg.target)) {
      TargetRecord rec;
      rec.history = history::makeHistory(config_->historyStyle,
                                         config_->historyParam);
      ts_.emplace(msg.target, std::move(rec));
    }
  }
}

void AvmonNode::handleForceAdd(const ForceAddMessage& msg) {
  addToCoarseView(msg.origin);
}

// ------------------------------------------------------------ protocol tick

bool AvmonNode::checkCondition(const NodeId& u, const NodeId& v) {
  ++metrics_.hashChecks;
  return selector_.isMonitor(u, v);
}

void AvmonNode::discoverPairs(const std::vector<NodeId>& mine,
                              const std::vector<NodeId>& theirs) {
  // Check every distinct unordered cross pair {u,v}, u≠v, once per fetch
  // in both orientations, sending NOTIFY(u,v) to u and v whenever "u
  // monitors v" holds. The verdicts come from one selector batch; the
  // sends follow in (row, column, orientation) order.
  std::vector<CrossPair>& pairs = pairsScratch;
  std::vector<std::uint8_t>& verdicts = verdictsScratch;
  collectCrossPairs(mine, theirs, pairs);
  selector_.crossVerdicts(mine, theirs, pairs, verdicts);
  metrics_.hashChecks += 2 * pairs.size();

  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const NodeId& u = mine[pairs[k].row];
    const NodeId& v = theirs[pairs[k].col];
    for (int reverse = 0; reverse < 2; ++reverse) {
      if (!verdicts[2 * k + reverse]) continue;
      const NodeId& mon = reverse ? v : u;
      const NodeId& tgt = reverse ? u : v;
      if (config_->notifyDedup) {
        // Bounded generational cache (NotifyDedupCache): a false return
        // means this node already told both parties within the last two
        // epochs; the occasional re-NOTIFY after an epoch ages out is
        // idempotent at the receiver.
        const std::uint64_t dedupKey =
            splitmix64Mix(pairKey(mon, tgt)) ^ std::hash<NodeId>{}(mon);
        if (!notifiedPairs_.insert(dedupKey)) {
          continue;
        }
      }
      net_.send(id_, mon, NotifyMessage{mon, tgt});
      net_.send(id_, tgt, NotifyMessage{mon, tgt});
      metrics_.notifiesSent += 2;
    }
  }
}

void AvmonNode::reshuffleCoarseView(const std::vector<NodeId>& fetched,
                                    const NodeId& w) {
  std::vector<NodeId>& pool = poolScratch;
  pool.assign(cv_.begin(), cv_.end());
  pool.insert(pool.end(), fetched.begin(), fetched.end());
  pool.push_back(w);

  rng_.shuffle(pool);
  cv_.clear();
  for (const NodeId& n : pool) {
    if (cv_.size() >= config_->cvs) break;
    if (n == id_ || n.isNil() ||
        std::find(cv_.begin(), cv_.end(), n) != cv_.end()) {
      continue;
    }
    cv_.push_back(n);
  }
}

void AvmonNode::protocolTick() {
  // Step 1: liveness-probe one random coarse view entry. The probe is
  // fire-and-forget: the tick proceeds while it is in flight, and the unresponsive entry is dropped when the timeout lands.
  const std::uint64_t epochAtTick = epoch_;
  if (!cv_.empty()) {
    const NodeId z = cv_[rng_.index(cv_.size())];
    net_.exchangeAsync(id_, z, sim::PingRequest{config_->pingBytes},
                       [this, z,
                        epochAtTick](std::optional<sim::PingResponse> pong) {
                         if (!alive_ || epoch_ != epochAtTick) return;
                         if (pong) return;
                         const auto it = std::find(cv_.begin(), cv_.end(), z);
                         if (it != cv_.end()) cv_.erase(it);
                       });
  }

  // PR2 (Section 5.4): if nobody has monitoring-pinged us for two
  // successive periods, re-advertise ourselves to our CV members. This is
  // how indegree-starved nodes (never discovered, so never pinged) pull
  // themselves back into circulation; the baseline is the session start so
  // a freshly joined node waits two full periods before crying.
  const SimTime pingBaseline =
      std::max(lastMonitoringPingReceived_, sessionStartTime_);
  if (config_->pr2 &&
      sim_.now() - pingBaseline > 2 * config_->monitoringPeriod) {
    for (const NodeId& n : cv_) {
      net_.send(id_, n, ForceAddMessage{id_});
    }
  }

  // Step 2: fetch the coarse view of a random alive member w.
  if (cv_.empty()) return;
  const NodeId w = cv_[rng_.index(cv_.size())];
  net_.exchangeAsync(
      id_, w,
      sim::CvFetchRequest{config_->pingBytes,
                          config_->bytesPerEntry * (cv_.size() + 1)},
      [this, w, epochAtTick](std::optional<sim::CvFetchResponse> fetch) {
        if (!alive_ || epoch_ != epochAtTick) return;
        if (!fetch) return;  // w was down; try again next period
        ++metrics_.cvFetches;

        const std::vector<NodeId> fetched = std::move(fetch->view);

        // Step 3: consistency checks over (CV(x) ∪ {x,w}) × (CV(w) ∪ {x,w}).
        mineScratch.assign(cv_.begin(), cv_.end());
        mineScratch.push_back(id_);
        if (std::find(cv_.begin(), cv_.end(), w) == cv_.end()) {
          mineScratch.push_back(w);
        }
        theirsScratch.assign(fetched.begin(), fetched.end());
        theirsScratch.push_back(id_);
        theirsScratch.push_back(w);
        discoverPairs(mineScratch, theirsScratch);

        // Step 4: reshuffle the coarse view.
        if (config_->shuffle == ShufflePolicy::kSwap) {
          reshuffleBySwap(w);
        } else {
          reshuffleCoarseView(fetched, w);
        }
      });
}

std::vector<NodeId> AvmonNode::takeRandomEntries(std::size_t count) {
  std::vector<NodeId> taken;
  taken.reserve(std::min(count, cv_.size()));
  while (taken.size() < count && !cv_.empty()) {
    const std::size_t idx = rng_.index(cv_.size());
    taken.push_back(cv_[idx]);
    cv_[idx] = cv_.back();
    cv_.pop_back();
  }
  return taken;
}

void AvmonNode::reshuffleBySwap(const NodeId& w) {
  const std::size_t half = std::max<std::size_t>(1, cv_.size() / 2);
  std::vector<NodeId> offer = takeRandomEntries(half);
  // Build the request before the call: it copies `offer`, which the
  // completion handler then owns (argument evaluation order would
  // otherwise be free to move `offer` out before the request reads it).
  sim::SwapRequest request{offer, config_->bytesPerEntry, half};
  net_.exchangeAsync(
      id_, w, std::move(request),
      // No epoch guard here, deliberately: the handler only touches the
      // coarse view, which is persistent storage that survives leave()
      // (paper Section 3.3). A deferred settlement landing after a
      // leave/rejoin must still complete the trade — restore the offer on
      // timeout, merge the peer's half on success — or the view would
      // permanently leak the in-flight entries.
      [this, w, offer = std::move(offer)](
          std::optional<sim::SwapResponse> swap) {
        if (!swap) {
          // Timed out (w answered the fetch moments ago, so this is an
          // injected fault or a round trip past rpcTimeout). The offer never
          // left — put the entries back rather than leak view slots.
          for (const NodeId& n : offer) addToCoarseView(n);
          return;
        }
        for (const NodeId& n : swap->given) addToCoarseView(n);
        // Like CYCLON, the initiator also refreshes its pointer to the peer.
        addToCoarseView(w);
      });
}

std::vector<NodeId> AvmonNode::acceptExchange(
    const NodeId& /*from*/, const std::vector<NodeId>& offered) {
  std::vector<NodeId> given = takeRandomEntries(offered.size());
  for (const NodeId& n : offered) addToCoarseView(n);
  return given;
}

// ---------------------------------------------------------------- monitoring

void AvmonNode::pingTarget(const NodeId& target, TargetRecord& rec) {
  ++metrics_.monitoringPingsSent;
  // `rec` lives in ts_, whose entries are never erased and whose mapped
  // values are address-stable across rehashes, so the deferred handler may
  // safely outlive this tick.
  const std::uint64_t epochAtSend = epoch_;
  net_.exchangeAsync(
      id_, target, sim::MonitorPingRequest{config_->pingBytes},
      [this, &rec, epochAtSend](std::optional<sim::MonitorPingResponse> ack) {
        if (!alive_ || epoch_ != epochAtSend) return;
        const SimTime now = sim_.now();
        const bool up = ack && ack->acknowledged;
        rec.history->record(now, up);

        if (up) {
          if (rec.downSince >= 0 || rec.sessionStart < 0) rec.sessionStart = now;
          rec.downSince = -1;
        } else {
          ++metrics_.uselessPings;
          if (rec.downSince < 0) {
            // Transition up -> down: close the observed session, remember ts(u).
            if (rec.sessionStart >= 0) {
              rec.lastSessionLength = std::max<SimDuration>(
                  now - rec.sessionStart, config_->monitoringPeriod);
              const double alpha = config_->forgetful.ewmaAlpha;
              rec.ewmaSessionLength =
                  rec.ewmaSessionLength <= 0
                      ? static_cast<double>(rec.lastSessionLength)
                      : alpha * static_cast<double>(rec.lastSessionLength) +
                            (1.0 - alpha) * rec.ewmaSessionLength;
            }
            rec.downSince = now;
          }
        }
      });
}

void AvmonNode::monitoringTick() {
  const SimTime now = sim_.now();
  // lint:allow(unordered-iter, ts_ hash order is a pure function of this node's insertion history on a fixed stdlib; the golden fingerprints pin exactly this ping/draw order, so converting it would change every pinned metric)
  for (auto& [target, rec] : ts_) {
    const bool longDead =
        config_->forgetful.enabled && rec.downSince >= 0 &&
        (now - rec.downSince) > config_->forgetful.tau;
    if (longDead) {
      // Forgetful pinging: ping with probability c·ts/(ts + t) so the
      // target still receives an expected c pings from each monitor
      // between two successive joins.
      const double observed =
          config_->forgetful.ewmaSessionLength && rec.ewmaSessionLength > 0
              ? rec.ewmaSessionLength
              : static_cast<double>(rec.lastSessionLength);
      const double ts =
          std::max(observed, static_cast<double>(config_->monitoringPeriod));
      const double t = static_cast<double>(now - rec.downSince);
      if (!rng_.chance(config_->forgetful.c * ts / (ts + t))) {
        ++metrics_.forgetfulSuppressed;
        continue;
      }
    }
    pingTarget(target, rec);
  }
}

void AvmonNode::acceptMonitoringPing() {
  lastMonitoringPingReceived_ = sim_.now();
}

// ------------------------------------------------------------------- queries

std::optional<SimDuration> AvmonNode::discoveryDelay(std::size_t k) const {
  if (k == 0 || k > psDiscoveryTimes_.size() || firstJoinTime_ < 0)
    return std::nullopt;
  return psDiscoveryTimes_[k - 1] - firstJoinTime_;
}

std::vector<NodeId> AvmonNode::reportMonitors(std::size_t l) const {
  std::vector<NodeId> out;
  out.reserve(std::min(l, ps_.size()));
  // lint:allow(unordered-iter, which l monitors get reported is pinned by the golden fingerprints; ps_ hash order is deterministic for a fixed insertion history and stdlib)
  for (const NodeId& m : ps_) {
    if (out.size() >= l) break;
    out.push_back(m);
  }
  return out;
}

std::optional<double> AvmonNode::availabilityEstimateOf(
    const NodeId& target) const {
  const auto it = ts_.find(target);
  if (it == ts_.end()) return std::nullopt;
  if (overreporting_) return 1.0;
  if (collusionVictims_ != nullptr && collusionVictims_->count(target) != 0) {
    return 1.0;  // coalition lie for targeted victims (Section 4.3)
  }
  return it->second.history->estimate();
}

}  // namespace avmon
