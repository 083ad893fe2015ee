// DHT-based baseline: replica-set monitor selection on a consistent-hash
// ring (paper Section 1, existing approach (3), "akin to Total Recall").
//
// PS(x) = the K alive nodes whose hashed ids follow hash(x) clockwise on
// the ring. The paper argues this violates Consistency (a newly joined
// node landing near hash(x) displaces an existing monitor) and Randomness
// condition 3(b) (two monitors of x hash nearby, so they co-occur in many
// other pinging sets). This class models the *selection* layer omnisciently
// (no message protocol) — exactly what the consistency/correlation
// ablation (bench_abl_dht_consistency) needs to quantify those violations.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_set>
#include <vector>

#include "common/node_id.hpp"
#include "hash/hash_function.hpp"

namespace avmon::experiments {

/// Consistent-hash ring over alive nodes with replica-set pinging sets.
class DhtRing {
 public:
  /// `k` monitors per node; `hash` must outlive the ring.
  DhtRing(const hash::HashFunction& hash, unsigned k);

  /// Adds a node to the ring (idempotent).
  void join(const NodeId& id);

  /// Removes a node from the ring (idempotent).
  void leave(const NodeId& id);

  std::size_t size() const noexcept { return byPoint_.size(); }

  /// Ring position of an id in [0, 1) — exposed for tests.
  double point(const NodeId& id) const;

  /// Current PS(x): the K alive nodes clockwise from hash(x), excluding x
  /// itself. Fewer than K if the ring is small.
  std::vector<NodeId> replicaSet(const NodeId& x) const;

 private:
  const hash::HashFunction& hash_;
  unsigned k_;
  // Ring index: hash point -> node. A std::map gives us clockwise
  // successor queries via lower_bound with wraparound.
  std::map<std::uint64_t, NodeId> byPoint_;
  std::unordered_set<NodeId> members_;
};

}  // namespace avmon::experiments
