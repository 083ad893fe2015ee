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

#include "common/id_index.hpp"
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
/// more than a lookup. An MD5 check takes ~270-300 ns; a memo hit takes
/// ~4-6 ns per check in a fetch's crossVerdicts batch and ~30-40 ns
/// through isMonitor, which resolves both ids on every call. splitmix64
/// hashes a pair in ~7-14 ns in a batch, and a matrix memo in front of it
/// was no faster on the benchmark's stat_dense and cost 4 MB more (4-vCPU
/// x86 host). So ScenarioRunner memoizes md5 and sha1 only
/// (HashFunction::cheaperThanMemo).
/// The memo gives each id a dense index on first sight (an IdIndex) and
/// keeps a row-major matrix of 2-bit cells, (known, verdict) for
/// isMonitor(row id, column id). The matrix is allocated at the first check
/// and regrown, rows copied, as ids arrive; it holds at most kMaxIds ids,
/// and checks on ids past them go straight to the inner selector. A
/// 1000-node SYNTH-BD run with births (the benchmark's churn_md5) indexes
/// ~1100 ids in a 1 MiB matrix, which stays in cache across its ~4x10^7
/// checks.
/// Not thread-safe: share one per single-threaded simulation world (each
/// shard of a ScenarioRunner owns its own).
class MemoizedMonitorSelector final : public MonitorSelector {
 public:
  explicit MemoizedMonitorSelector(const MonitorSelector& inner)
      : inner_(inner) {}

  bool isMonitor(const NodeId& observer, const NodeId& target) const override;

  /// Resolves each row and column id once, then reads two cells per pair;
  /// a self-pair is false without a cell.
  void crossVerdicts(const std::vector<NodeId>& rows,
                     const std::vector<NodeId>& cols,
                     const std::vector<CrossPair>& pairs,
                     std::vector<std::uint8_t>& out) const override;

  /// Ordered verdicts cached: one per (observer, target) asked, self-pairs
  /// excluded.
  std::size_t cacheSize() const noexcept { return count_; }

 private:
  static constexpr std::uint32_t kCellsPerWord = 32;  // 2 bits each
  static constexpr std::uint64_t kKnown = 1;
  static constexpr std::uint64_t kYes = 2;
  static constexpr std::uint32_t kInitialIds = 256;  // a 16 KiB matrix
  // The bound: the largest multiple of kCellsPerWord whose square of 2-bit
  // cells fits in 32 MiB, the ceiling of the pair hash table this matrix
  // replaced (2^21 slots of 16 bytes). 11584^2 / 4 = 33 547 264 bytes.
  static constexpr std::uint32_t kMaxIds = 11584;
  static_assert(kMaxIds % kCellsPerWord == 0 &&
                    std::uint64_t{kMaxIds} * kMaxIds / 4 <= (32u << 20) &&
                    std::uint64_t{kMaxIds + kCellsPerWord} *
                            (kMaxIds + kCellsPerWord) / 4 >
                        (32u << 20),
                "kMaxIds is the largest whole-word row count within 32 MiB");

  // The dense index of `id`, given on first sight while fewer than kMaxIds
  // ids are known (the matrix grows to hold it); IdIndex::kAbsent past
  // the bound.
  std::uint32_t indexOf(const NodeId& id) const;
  // isMonitor(observer, target) given indexOf of each: through cell (o, t)
  // when both are indexed (false, with no cell, when o == t), from the
  // inner selector when either is not.
  bool verdict(std::uint32_t o, std::uint32_t t, const NodeId& observer,
               const NodeId& target) const;
  void grow() const;

  const MonitorSelector& inner_;
  mutable IdIndex index_;
  mutable std::vector<std::uint64_t> cells_;  // capacity_ x capacity_ cells
  mutable std::uint32_t capacity_ = 0;        // ids per row and column
  mutable std::size_t count_ = 0;
};

}  // namespace avmon
