#include "experiments/protocols/dht_ring.hpp"

namespace avmon::experiments {
namespace {

std::uint64_t ringPoint(const hash::HashFunction& hash, const NodeId& id) {
  const auto bytes = id.toBytes();
  return hash.digest64(bytes);
}

}  // namespace

DhtRing::DhtRing(const hash::HashFunction& hash, unsigned k)
    : hash_(hash), k_(k) {}

void DhtRing::join(const NodeId& id) {
  if (!members_.insert(id).second) return;
  byPoint_.emplace(ringPoint(hash_, id), id);
}

void DhtRing::leave(const NodeId& id) {
  if (members_.erase(id) == 0) return;
  byPoint_.erase(ringPoint(hash_, id));
}

double DhtRing::point(const NodeId& id) const {
  return static_cast<double>(ringPoint(hash_, id)) * 0x1.0p-64;
}

std::vector<NodeId> DhtRing::replicaSet(const NodeId& x) const {
  std::vector<NodeId> ps;
  if (byPoint_.empty()) return ps;
  ps.reserve(k_);

  auto it = byPoint_.lower_bound(ringPoint(hash_, x));
  // Walk clockwise (with wraparound) collecting the first K others.
  for (std::size_t steps = 0; steps < byPoint_.size() && ps.size() < k_;
       ++steps) {
    if (it == byPoint_.end()) it = byPoint_.begin();
    if (it->second != x) ps.push_back(it->second);
    ++it;
  }
  return ps;
}

}  // namespace avmon::experiments
