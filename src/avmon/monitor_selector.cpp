#include "avmon/monitor_selector.hpp"

#include <array>
#include <stdexcept>

namespace avmon {
namespace {

std::uint64_t packId(const NodeId& id) noexcept {
  return (static_cast<std::uint64_t>(id.ip()) << 16) | id.port();
}

// splitmix-style combine of an unordered pair's two 48-bit identities
// (smaller first); the memo table size is a power of two, so only
// well-mixed bits may index it. Lookup and rehash must agree on this
// function bit-for-bit.
std::uint64_t mixPair(std::uint64_t lo, std::uint64_t hi) noexcept {
  std::uint64_t h = lo * 0x9E3779B97F4A7C15ULL ^ hi;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 31);
}

// The largest d with toUnit(d) <= threshold, by binary search: toUnit is
// monotone but rounds, so the answer is not simply threshold * 2^64.
std::uint64_t largestDigestAtOrBelow(double threshold) noexcept {
  using hash::HashFunction;
  constexpr std::uint64_t kTop = ~std::uint64_t{0};
  if (HashFunction::toUnit(kTop) <= threshold) return kTop;
  std::uint64_t lo = 0;     // toUnit(lo) <= threshold (threshold > 0)
  std::uint64_t hi = kTop;  // toUnit(hi) > threshold
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (HashFunction::toUnit(mid) <= threshold) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

void MonitorSelector::crossVerdicts(const std::vector<NodeId>& rows,
                                    const std::vector<NodeId>& cols,
                                    const std::vector<CrossPair>& pairs,
                                    std::vector<std::uint8_t>& out) const {
  out.resize(2 * pairs.size());
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const NodeId& r = rows[pairs[k].row];
    const NodeId& c = cols[pairs[k].col];
    out[2 * k] = isMonitor(r, c);
    out[2 * k + 1] = isMonitor(c, r);
  }
}

HashMonitorSelector::HashMonitorSelector(const hash::HashFunction& hash,
                                         unsigned k, std::size_t systemSize)
    : hash_(hash), k_(k), systemSize_(systemSize) {
  if (k_ < 1) throw std::invalid_argument("HashMonitorSelector: K must be >= 1");
  if (systemSize_ < 2)
    throw std::invalid_argument("HashMonitorSelector: N must be >= 2");
  threshold_ =
      static_cast<double>(k_) / static_cast<double>(systemSize_);
  maxDigest_ = largestDigestAtOrBelow(threshold_);
}

double HashMonitorSelector::hashPoint(const NodeId& observer,
                                      const NodeId& target) const {
  // 12-byte message: observer id then target id, matching the paper's
  // H(y, x) with y the (candidate) monitor.
  std::array<std::uint8_t, 2 * NodeId::kWireSize> buf;
  const auto yb = observer.toBytes();
  const auto xb = target.toBytes();
  std::copy(yb.begin(), yb.end(), buf.begin());
  std::copy(xb.begin(), xb.end(), buf.begin() + NodeId::kWireSize);
  return hash_.normalized(buf);
}

bool HashMonitorSelector::isMonitor(const NodeId& observer,
                                    const NodeId& target) const {
  if (observer == target) return false;
  return hash_.digestPair(packId(observer), packId(target)) <= maxDigest_;
}

void HashMonitorSelector::crossVerdicts(const std::vector<NodeId>& rows,
                                        const std::vector<NodeId>& cols,
                                        const std::vector<CrossPair>& pairs,
                                        std::vector<std::uint8_t>& out) const {
  thread_local std::vector<std::uint64_t> rows48;
  thread_local std::vector<std::uint64_t> cols48;
  thread_local std::vector<std::uint64_t> digests;
  rows48.resize(rows.size());
  cols48.resize(cols.size());
  for (std::size_t i = 0; i < rows.size(); ++i) rows48[i] = packId(rows[i]);
  for (std::size_t j = 0; j < cols.size(); ++j) cols48[j] = packId(cols[j]);
  hash_.digestCross(rows48, cols48, pairs, digests);
  out.resize(2 * pairs.size());
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    // Packing is one-to-one, so equal packed ids are the self-pair.
    const bool distinct = rows48[pairs[k].row] != cols48[pairs[k].col];
    out[2 * k] = distinct && digests[2 * k] <= maxDigest_;
    out[2 * k + 1] = distinct && digests[2 * k + 1] <= maxDigest_;
  }
}

bool MemoizedMonitorSelector::isMonitor(const NodeId& observer,
                                        const NodeId& target) const {
  const std::uint64_t obs = packId(observer);
  const std::uint64_t tgt = packId(target);
  const bool down = obs > tgt;
  const std::uint64_t lo = down ? tgt : obs;
  const std::uint64_t hi = down ? obs : tgt;
  const int shift = down ? kDownShift : 0;
  const std::uint64_t known = kKnownUp << shift;
  const std::uint64_t yes = kVerdictUp << shift;
  const std::uint64_t h = mixPair(lo, hi);

  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(h) & mask;
  while (slots_[i].hiBits != 0) {
    Slot& slot = slots_[i];
    if (slot.lo == lo && (slot.hiBits & kIdMask) == hi) {
      if ((slot.hiBits & known) == 0) {
        const bool verdict = inner_.isMonitor(observer, target);
        slot.hiBits |= known | (verdict ? yes : 0);
      }
      return (slot.hiBits & yes) != 0;
    }
    i = (i + 1) & mask;
  }

  const bool verdict = inner_.isMonitor(observer, target);
  if (count_ * 2 >= slots_.size()) {
    if (slots_.size() >= kMaxSlots) return verdict;  // cache full: passthrough
    grow();
    i = static_cast<std::size_t>(h) & (slots_.size() - 1);
    while (slots_[i].hiBits != 0) i = (i + 1) & (slots_.size() - 1);
  }
  slots_[i] = Slot{lo, hi | known | (verdict ? yes : 0)};
  ++count_;
  return verdict;
}

void MemoizedMonitorSelector::crossVerdicts(
    const std::vector<NodeId>& rows, const std::vector<NodeId>& cols,
    const std::vector<CrossPair>& pairs, std::vector<std::uint8_t>& out) const {
  // A probe that misses the CPU cache costs several times a hit; touching
  // every pair's home slot first overlaps those misses.
  const std::size_t mask = slots_.size() - 1;
  for (const CrossPair& p : pairs) {
    const std::uint64_t a = packId(rows[p.row]);
    const std::uint64_t b = packId(cols[p.col]);
    const std::uint64_t h = a < b ? mixPair(a, b) : mixPair(b, a);
    __builtin_prefetch(&slots_[static_cast<std::size_t>(h) & mask]);
  }
  MonitorSelector::crossVerdicts(rows, cols, pairs, out);
}

void MemoizedMonitorSelector::grow() const {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.hiBits == 0) continue;
    const std::uint64_t h = mixPair(slot.lo, slot.hiBits & kIdMask);
    std::size_t i = static_cast<std::size_t>(h) & mask;
    while (slots_[i].hiBits != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

}  // namespace avmon
