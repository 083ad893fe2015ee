// Monitor selection: who is allowed to monitor whom.
//
// AVMON's discovery protocol works with *any* consistent and verifiable
// selection scheme (paper Section 3.2); the scheme itself is pluggable
// behind MonitorSelector. The paper's concrete scheme (Section 3.1,
// borrowed from AVCast) is the hash condition
//
//     y ∈ PS(x)  ⇔  H(y ‖ x) ≤ K/N
//
// over the 6-byte wire encodings of the two node ids, giving an expected
// K monitors per node, chosen consistently, verifiably, and uniformly at
// random.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/node_id.hpp"
#include "hash/hash_function.hpp"

namespace avmon {

using hash::CrossPair;

/// Decides the monitoring relation. Implementations must be deterministic
/// (same answer forever — the Consistency property) and computable by any
/// third party from the two ids alone (the Verifiability property).
class MonitorSelector {
 public:
  virtual ~MonitorSelector() = default;

  /// True iff `observer` ∈ PS(`target`), i.e. observer monitors target.
  /// Never true when observer == target (self-monitoring is the
  /// self-reporting anti-pattern AVMON exists to avoid).
  virtual bool isMonitor(const NodeId& observer, const NodeId& target) const = 0;

  /// The consistency checks of one coarse-view fetch as one batch: for the
  /// k-th pair (r, c), out[2k] = isMonitor(rows[r], cols[c]) and
  /// out[2k+1] = isMonitor(cols[c], rows[r]). Resizes `out`. The default
  /// asks isMonitor in that order; an override must give the same
  /// verdicts.
  virtual void crossVerdicts(const std::vector<NodeId>& rows,
                             const std::vector<NodeId>& cols,
                             const std::vector<CrossPair>& pairs,
                             std::vector<std::uint8_t>& out) const;
};

/// The paper's hash-based selection scheme.
class HashMonitorSelector final : public MonitorSelector {
 public:
  /// `k` is the expected pinging-set size (paper: K = log2 N);
  /// `systemSize` is the a-priori stable size N. Requires k >= 1,
  /// systemSize >= 2, hash outliving this object.
  HashMonitorSelector(const hash::HashFunction& hash, unsigned k,
                      std::size_t systemSize);

  /// Hashes the pair through HashFunction::digestPair, which equals the
  /// digest of the 12-byte wire message that hashPoint() builds.
  bool isMonitor(const NodeId& observer, const NodeId& target) const override;

  /// Packs each id once and hashes the batch through
  /// HashFunction::digestCross. Keeps no state of its own, so one
  /// instance serves every shard.
  void crossVerdicts(const std::vector<NodeId>& rows,
                     const std::vector<NodeId>& cols,
                     const std::vector<CrossPair>& pairs,
                     std::vector<std::uint8_t>& out) const override;

  unsigned k() const noexcept { return k_; }
  std::size_t systemSize() const noexcept { return systemSize_; }

  /// The normalized hash H(observer ‖ target) in [0,1), computed from the
  /// 12-byte wire encoding any third party would build — the reference
  /// that tests hold isMonitor() and the threshold comparison to.
  double hashPoint(const NodeId& observer, const NodeId& target) const;

  /// The decision threshold K/N.
  double threshold() const noexcept { return threshold_; }

  /// The largest digest d with HashFunction::toUnit(d) <= K/N. Since
  /// toUnit is monotone, `digest <= maxDigest()` is the threshold
  /// comparison in exact integer form.
  std::uint64_t maxDigest() const noexcept { return maxDigest_; }

 private:
  const hash::HashFunction& hash_;
  unsigned k_;
  std::size_t systemSize_;
  double threshold_;
  std::uint64_t maxDigest_;
};

/// Memoizing decorator: caches pair verdicts so repeated consistency checks
/// don't recompute the hash. A selector is a pure function of the two ids,
/// so memoization cannot change any verdict; protocol-level computation
/// metrics are counted by the *nodes* per check performed, so it is
/// invisible to the measured results too. It pays only when a digest costs
/// more than a probe: an MD5 check takes ~200-250 ns, a probe ~10-15 ns
/// when its slot is in cache and ~80-290 ns when it is not, and splitmix64
/// hashes a pair in ~8-15 ns through isMonitor and ~7-14 ns in a fetch's
/// crossVerdicts batch (4-vCPU x86 host). So ScenarioRunner memoizes md5
/// and sha1 only (HashFunction::cheaperThanMemo).
/// The cache is a flat open-addressing table — one probe, no allocation
/// per pair — with one slot per unordered pair, so a check and its reverse
/// share a cache line. It is bounded by kMaxSlots; once full, further
/// distinct pairs are computed directly. A 1000-node SYNTH-BD run asks
/// ~4x10^7 times about fewer pairs than that; a 2000-node STAT run's pairs
/// overflow it.
/// Not thread-safe: share one per single-threaded simulation world (each
/// shard of a ScenarioRunner owns its own).
class MemoizedMonitorSelector final : public MonitorSelector {
 public:
  explicit MemoizedMonitorSelector(const MonitorSelector& inner)
      : inner_(inner), slots_(kInitialSlots) {}

  bool isMonitor(const NodeId& observer, const NodeId& target) const override;

  /// Prefetches every pair's home slot, then probes pair by pair exactly
  /// as isMonitor does, so misses and the pass-through past the cap are
  /// unchanged.
  void crossVerdicts(const std::vector<NodeId>& rows,
                     const std::vector<NodeId>& cols,
                     const std::vector<CrossPair>& pairs,
                     std::vector<std::uint8_t>& out) const override;

  /// Distinct unordered pairs cached (each with one or both verdicts).
  std::size_t cacheSize() const noexcept { return count_; }

 private:
  // One 16-byte slot per unordered pair, keyed by the smaller and larger
  // packed id (lo, hi; ids occupy 48 bits). hiBits holds hi plus, in its
  // free high bits, a known bit and a verdict bit per direction: "up" is
  // isMonitor(lo, hi), "down" is isMonitor(hi, lo) (self-pairs use up).
  // A direction is computed only when asked. Occupied slots always have
  // a known bit set, so hiBits == 0 marks an empty slot.
  struct Slot {
    std::uint64_t lo = 0;
    std::uint64_t hiBits = 0;  // verdictDown<<51 | knownDown<<50 |
                               // verdictUp<<49 | knownUp<<48 | hi
  };
  static constexpr std::uint64_t kKnownUp = 1ULL << 48;
  static constexpr std::uint64_t kVerdictUp = 1ULL << 49;
  static constexpr int kDownShift = 2;  // down bits sit just above up bits
  static constexpr std::uint64_t kIdMask = (1ULL << 48) - 1;
  static constexpr std::size_t kInitialSlots = 1u << 12;
  static constexpr std::size_t kMaxSlots = 1u << 21;  // 32 MiB ceiling

  void grow() const;

  const MonitorSelector& inner_;
  mutable std::vector<Slot> slots_;
  mutable std::size_t count_ = 0;
};

}  // namespace avmon
