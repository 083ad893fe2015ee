#include "avmon/monitor_selector.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

namespace avmon {
namespace {

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
  return hash_.digestPair(observer.packed(), target.packed()) <= maxDigest_;
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
  for (std::size_t i = 0; i < rows.size(); ++i) rows48[i] = rows[i].packed();
  for (std::size_t j = 0; j < cols.size(); ++j) cols48[j] = cols[j].packed();
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
  const std::uint32_t o = indexOf(observer);
  return verdict(o, indexOf(target), observer, target);
}

void MemoizedMonitorSelector::crossVerdicts(
    const std::vector<NodeId>& rows, const std::vector<NodeId>& cols,
    const std::vector<CrossPair>& pairs, std::vector<std::uint8_t>& out) const {
  thread_local std::vector<std::uint32_t> rowAt;
  thread_local std::vector<std::uint32_t> colAt;
  rowAt.resize(rows.size());
  colAt.resize(cols.size());
  for (std::size_t i = 0; i < rows.size(); ++i) rowAt[i] = indexOf(rows[i]);
  for (std::size_t j = 0; j < cols.size(); ++j) colAt[j] = indexOf(cols[j]);
  out.resize(2 * pairs.size());
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const NodeId& row = rows[pairs[k].row];
    const NodeId& col = cols[pairs[k].col];
    const std::uint32_t r = rowAt[pairs[k].row];
    const std::uint32_t c = colAt[pairs[k].col];
    out[2 * k] = verdict(r, c, row, col);
    out[2 * k + 1] = verdict(c, r, col, row);
  }
}

std::uint32_t MemoizedMonitorSelector::indexOf(const NodeId& id) const {
  if (index_.size() >= kMaxIds) return index_.find(id);
  const std::uint32_t index = index_.insert(id).index;
  if (index >= capacity_) grow();
  return index;
}

bool MemoizedMonitorSelector::verdict(std::uint32_t o, std::uint32_t t,
                                      const NodeId& observer,
                                      const NodeId& target) const {
  if (o == IdIndex::kAbsent || t == IdIndex::kAbsent) {
    return inner_.isMonitor(observer, target);  // past the bound
  }
  if (o == t) return false;  // a self-pair has no cell
  const std::size_t cell = std::size_t{o} * capacity_ + t;
  std::uint64_t& word = cells_[cell / kCellsPerWord];
  const unsigned shift = 2 * (cell % kCellsPerWord);
  if ((word >> shift) & kKnown) return ((word >> shift) & kYes) != 0;
  const bool yes = inner_.isMonitor(observer, target);
  word |= (kKnown | (yes ? kYes : 0)) << shift;
  ++count_;
  return yes;
}

void MemoizedMonitorSelector::grow() const {
  const std::uint32_t capacity =
      capacity_ == 0 ? kInitialIds : std::min(2 * capacity_, kMaxIds);
  const std::size_t oldRow = capacity_ / kCellsPerWord;
  const std::size_t newRow = capacity / kCellsPerWord;
  std::vector<std::uint64_t> cells(newRow * capacity);
  for (std::size_t r = 0; r < capacity_; ++r) {
    std::copy_n(cells_.begin() + r * oldRow, oldRow,
                cells.begin() + r * newRow);
  }
  cells_ = std::move(cells);
  capacity_ = capacity;
}

}  // namespace avmon
