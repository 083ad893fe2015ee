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

}  // namespace

HashMonitorSelector::HashMonitorSelector(const hash::HashFunction& hash,
                                         unsigned k, std::size_t systemSize)
    : hash_(hash), k_(k), systemSize_(systemSize) {
  if (k_ < 1) throw std::invalid_argument("HashMonitorSelector: K must be >= 1");
  if (systemSize_ < 2)
    throw std::invalid_argument("HashMonitorSelector: N must be >= 2");
  threshold_ =
      static_cast<double>(k_) / static_cast<double>(systemSize_);
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
  return hash::HashFunction::toUnit(
             hash_.digestPair(packId(observer), packId(target))) <= threshold_;
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
