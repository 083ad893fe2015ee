// Monitor-selection scheme tests: the paper's six properties that concern
// selection — consistency, verifiability, randomness (uniformity and
// non-correlation) — plus expected pinging-set size.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "avmon/monitor_selector.hpp"
#include "common/rng.hpp"
#include "hash/hash_function.hpp"

namespace avmon {
namespace {

class SelectorTest : public ::testing::Test {
 protected:
  hash::Md5HashFunction md5_;
};

TEST_F(SelectorTest, RejectsBadParameters) {
  EXPECT_THROW(HashMonitorSelector(md5_, 0, 100), std::invalid_argument);
  EXPECT_THROW(HashMonitorSelector(md5_, 5, 1), std::invalid_argument);
}

TEST_F(SelectorTest, NeverSelfMonitor) {
  HashMonitorSelector sel(md5_, 50, 100);  // huge K/N to stress it
  for (std::uint32_t i = 0; i < 500; ++i) {
    const NodeId id = NodeId::fromIndex(i);
    EXPECT_FALSE(sel.isMonitor(id, id));
  }
}

TEST_F(SelectorTest, ConsistencyVerdictNeverChanges) {
  // The core Consistency property: the verdict is a pure function of the
  // two ids — repeated queries, in any order, agree.
  HashMonitorSelector sel(md5_, 10, 1000);
  const NodeId a = NodeId::fromIndex(3), b = NodeId::fromIndex(8);
  const bool first = sel.isMonitor(a, b);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sel.isMonitor(a, b), first);
}

TEST_F(SelectorTest, VerifiabilityThirdPartyAgrees) {
  // Any third party computing the same scheme reaches the same verdict.
  hash::Md5HashFunction otherInstance;
  HashMonitorSelector sel1(md5_, 10, 1000);
  HashMonitorSelector sel2(otherInstance, 10, 1000);
  for (std::uint32_t i = 0; i < 50; ++i) {
    for (std::uint32_t j = 0; j < 50; ++j) {
      const NodeId a = NodeId::fromIndex(i), b = NodeId::fromIndex(j);
      EXPECT_EQ(sel1.isMonitor(a, b), sel2.isMonitor(a, b));
    }
  }
}

TEST_F(SelectorTest, DirectionalityMatters) {
  // y ∈ PS(x) does not imply x ∈ PS(y): the hash covers the ordered pair.
  HashMonitorSelector sel(md5_, 300, 1000);  // high rate to find examples
  int asymmetric = 0;
  for (std::uint32_t i = 0; i < 60 && asymmetric == 0; ++i) {
    for (std::uint32_t j = i + 1; j < 60; ++j) {
      const NodeId a = NodeId::fromIndex(i), b = NodeId::fromIndex(j);
      if (sel.isMonitor(a, b) != sel.isMonitor(b, a)) {
        ++asymmetric;
        break;
      }
    }
  }
  EXPECT_GT(asymmetric, 0);
}

TEST_F(SelectorTest, ExpectedPingingSetSizeIsK) {
  // Randomness/uniformity: over a population of N nodes, |PS(x)| ≈ K.
  constexpr std::size_t kN = 1000;
  constexpr unsigned kK = 10;
  HashMonitorSelector sel(md5_, kK, kN);

  std::vector<NodeId> ids;
  ids.reserve(kN);
  for (std::uint32_t i = 0; i < kN; ++i) ids.push_back(NodeId::fromIndex(i));

  double totalPs = 0;
  for (std::size_t x = 0; x < 200; ++x) {  // sample of targets
    std::size_t ps = 0;
    for (std::size_t y = 0; y < kN; ++y) {
      if (x == y) continue;
      ps += sel.isMonitor(ids[y], ids[x]) ? 1 : 0;
    }
    totalPs += static_cast<double>(ps);
  }
  const double meanPs = totalPs / 200.0;
  EXPECT_NEAR(meanPs, static_cast<double>(kK), 1.0);
}

TEST_F(SelectorTest, ThresholdIsExactlyKOverN) {
  const std::pair<unsigned, std::size_t> cases[] = {
      {1, 2}, {10, 1000}, {17, 131072}, {50, 100}, {1000, 1000}};
  for (const auto& [k, n] : cases) {
    HashMonitorSelector sel(md5_, k, n);
    EXPECT_DOUBLE_EQ(sel.threshold(),
                     static_cast<double>(k) / static_cast<double>(n))
        << "K=" << k << " N=" << n;
    EXPECT_EQ(sel.k(), k);
    EXPECT_EQ(sel.systemSize(), n);
  }
}

TEST_F(SelectorTest, IntegerThresholdIsExact) {
  // maxDigest() is the largest digest whose toUnit is <= K/N, so the
  // integer comparison gives the same verdict as the real one for every
  // digest. K/N = 1/2 and 1/4 are exact doubles; 11/2000 and 17/100000
  // are not.
  using hash::HashFunction;
  const std::pair<unsigned, std::size_t> cases[] = {
      {1, 2}, {1, 4}, {11, 2000}, {17, 100000}};
  for (const auto& [k, n] : cases) {
    HashMonitorSelector sel(md5_, k, n);
    const std::uint64_t d = sel.maxDigest();
    ASSERT_LT(d, std::numeric_limits<std::uint64_t>::max());
    EXPECT_LE(HashFunction::toUnit(d), sel.threshold()) << k << "/" << n;
    EXPECT_GT(HashFunction::toUnit(d + 1), sel.threshold()) << k << "/" << n;
  }
  // toUnit rounds: digests up to 2^10 past 2^63 still scale to exactly
  // 1/2, so the bound is not simply K/N * 2^64.
  EXPECT_EQ(HashMonitorSelector(md5_, 1, 2).maxDigest(),
            (std::uint64_t{1} << 63) + 1024);
  // K >= N saturates: every digest passes, the largest one included.
  for (const unsigned k : {1000u, 2000u}) {
    HashMonitorSelector sel(md5_, k, 1000);
    EXPECT_EQ(sel.maxDigest(), std::numeric_limits<std::uint64_t>::max());
    EXPECT_LE(HashFunction::toUnit(sel.maxDigest()), sel.threshold());
  }
}

TEST_F(SelectorTest, HashPointStaysInUnitInterval) {
  HashMonitorSelector sel(md5_, 10, 1000);
  for (std::uint32_t i = 0; i < 60; ++i) {
    for (std::uint32_t j = 0; j < 60; ++j) {
      const double h = sel.hashPoint(NodeId::fromIndex(i), NodeId::fromIndex(j));
      EXPECT_GE(h, 0.0);
      EXPECT_LT(h, 1.0);
    }
  }
}

TEST_F(SelectorTest, NeverSelfMonitorEvenWithSaturatedThreshold) {
  // K >= N drives the threshold to >= 1, so the hash condition holds for
  // every pair — the explicit self-exclusion must still win.
  HashMonitorSelector sel(md5_, 2000, 1000);
  ASSERT_GE(sel.threshold(), 1.0);
  for (std::uint32_t i = 0; i < 200; ++i) {
    const NodeId id = NodeId::fromIndex(i);
    EXPECT_FALSE(sel.isMonitor(id, id));
    EXPECT_TRUE(sel.isMonitor(id, NodeId::fromIndex(i + 1)));
  }
}

TEST_F(SelectorTest, NonCorrelationAcrossTargets) {
  // Randomness condition 3(b): membership of y in PS(x) says nothing about
  // membership in PS(w). Estimate P(y∈PS(w) | y∈PS(x)) and compare with
  // the unconditional rate K/N.
  constexpr std::size_t kN = 2000;
  constexpr unsigned kK = 40;  // higher rate for statistical power
  HashMonitorSelector sel(md5_, kK, kN);

  std::vector<NodeId> ids;
  for (std::uint32_t i = 0; i < kN; ++i) ids.push_back(NodeId::fromIndex(i));
  const NodeId x = ids[0], w = ids[1];

  std::size_t inX = 0, inBoth = 0;
  for (std::size_t y = 2; y < kN; ++y) {
    const bool mx = sel.isMonitor(ids[y], x);
    const bool mw = sel.isMonitor(ids[y], w);
    inX += mx ? 1 : 0;
    inBoth += (mx && mw) ? 1 : 0;
  }
  ASSERT_GT(inX, 0u);
  const double conditional =
      static_cast<double>(inBoth) / static_cast<double>(inX);
  const double unconditional = static_cast<double>(kK) / kN;
  // Conditional rate should be close to unconditional (no correlation).
  EXPECT_LT(conditional, unconditional * 5 + 0.05);
}

TEST_F(SelectorTest, UniformAcrossCandidates) {
  // Randomness condition 3(a): every node is picked as monitor with the
  // same likelihood. Count how often each of a fixed candidate set lands
  // in pinging sets across many targets; counts should concentrate.
  constexpr std::size_t kN = 500;
  constexpr unsigned kK = 25;
  HashMonitorSelector sel(md5_, kK, kN);

  std::vector<NodeId> ids;
  for (std::uint32_t i = 0; i < kN; ++i) ids.push_back(NodeId::fromIndex(i));

  std::vector<int> monitorCount(kN, 0);
  for (std::size_t x = 0; x < kN; ++x) {
    for (std::size_t y = 0; y < kN; ++y) {
      if (x == y) continue;
      if (sel.isMonitor(ids[y], ids[x])) ++monitorCount[y];
    }
  }
  // Each candidate expects K·(N-1)/N ≈ 25 appearances, binomial stddev ≈ 5.
  for (std::size_t y = 0; y < kN; ++y) {
    EXPECT_GT(monitorCount[y], 2) << "node " << y << " starved";
    EXPECT_LT(monitorCount[y], 60) << "node " << y << " overloaded";
  }
}

// Same selection properties must hold for every hash backend.
class SelectorHashParamTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SelectorHashParamTest, ExpectedSetSizeHoldsForAllHashes) {
  const auto fn = hash::makeHashFunction(GetParam());
  constexpr std::size_t kN = 800;
  constexpr unsigned kK = 12;
  HashMonitorSelector sel(*fn, kK, kN);

  std::vector<NodeId> ids;
  for (std::uint32_t i = 0; i < kN; ++i) ids.push_back(NodeId::fromIndex(i));
  double total = 0;
  for (std::size_t x = 0; x < 100; ++x) {
    std::size_t ps = 0;
    for (std::size_t y = 0; y < kN; ++y) {
      if (x != y && sel.isMonitor(ids[y], ids[x])) ++ps;
    }
    total += static_cast<double>(ps);
  }
  EXPECT_NEAR(total / 100.0, static_cast<double>(kK), 2.0) << GetParam();
}

TEST_P(SelectorHashParamTest, HashPointMatchesThresholdDecision) {
  // isMonitor hashes the packed ids directly; hashPoint builds the 12-byte
  // wire message a third party would. Both must give the same verdict,
  // for synthetic ids and for random full-width ones (any IP, any port).
  const auto fn = hash::makeHashFunction(GetParam());
  HashMonitorSelector sel(*fn, 100, 1000);
  std::vector<NodeId> ids;
  for (std::uint32_t i = 0; i < 40; ++i) ids.push_back(NodeId::fromIndex(i));
  Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    ids.emplace_back(static_cast<std::uint32_t>(rng()),
                     static_cast<std::uint16_t>(rng()));
  }
  for (const NodeId& a : ids) {
    for (const NodeId& b : ids) {
      if (a == b) continue;
      EXPECT_EQ(sel.isMonitor(a, b), sel.hashPoint(a, b) <= sel.threshold())
          << GetParam() << " " << a.toString() << " " << b.toString();
    }
  }
}

// One fetch's id lists, shaped like the ones a node builds: the rows and
// columns share ids (x, w and CV entries both views hold), a column
// repeats (CV(w) holds x, and the column list appends x again), and
// random full-width ids sit beside synthetic ones.
struct CrossLists {
  std::vector<NodeId> rows;
  std::vector<NodeId> cols;
  std::vector<CrossPair> pairs;  // every (row, col) position, self-pairs too
};

CrossLists crossLists() {
  CrossLists l;
  for (std::uint32_t i = 0; i < 12; ++i) l.rows.push_back(NodeId::fromIndex(i));
  for (std::uint32_t i = 8; i < 20; ++i) l.cols.push_back(NodeId::fromIndex(i));
  Rng rng(11);
  for (int i = 0; i < 4; ++i) {
    const NodeId id(static_cast<std::uint32_t>(rng()),
                    static_cast<std::uint16_t>(rng()));
    l.rows.push_back(id);
    l.cols.push_back(id);
  }
  const NodeId x = l.rows[0], w = l.cols[0];
  l.rows.push_back(w);
  l.cols.push_back(x);
  l.cols.push_back(x);
  l.cols.push_back(w);
  for (std::uint32_t i = 0; i < l.rows.size(); ++i) {
    for (std::uint32_t j = 0; j < l.cols.size(); ++j) l.pairs.push_back({i, j});
  }
  return l;
}

// Checks `out` against reference.isMonitor, both orders of every pair.
void expectSameAsIsMonitor(const MonitorSelector& reference,
                           const CrossLists& l,
                           const std::vector<std::uint8_t>& out,
                           const std::string& what) {
  ASSERT_EQ(out.size(), 2 * l.pairs.size()) << what;
  for (std::size_t k = 0; k < l.pairs.size(); ++k) {
    const NodeId& r = l.rows[l.pairs[k].row];
    const NodeId& c = l.cols[l.pairs[k].col];
    EXPECT_EQ(out[2 * k] != 0, reference.isMonitor(r, c))
        << what << " " << r.toString() << " -> " << c.toString();
    EXPECT_EQ(out[2 * k + 1] != 0, reference.isMonitor(c, r))
        << what << " " << c.toString() << " -> " << r.toString();
  }
}

TEST_P(SelectorHashParamTest, CrossVerdictsMatchIsMonitor) {
  const auto fn = hash::makeHashFunction(GetParam());
  HashMonitorSelector sel(*fn, 300, 1000);  // both verdicts common
  const CrossLists l = crossLists();
  std::vector<std::uint8_t> out;
  sel.crossVerdicts(l.rows, l.cols, l.pairs, out);
  expectSameAsIsMonitor(sel, l, out, GetParam());
  // A second, smaller batch through the same scratch buffers.
  const CrossLists few{l.rows, l.cols, {{0, 0}, {3, 1}, {12, 5}}};
  sel.crossVerdicts(few.rows, few.cols, few.pairs, out);
  expectSameAsIsMonitor(sel, few, out, GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllHashes, SelectorHashParamTest,
                         ::testing::Values("md5", "sha1", "splitmix64"));

// The memo keeps one slot per unordered pair, keyed by (min, max) of the
// packed ids, with a known bit and a verdict bit per direction. These ids
// stress that key: dense synthetic ids, ids that differ only in the port,
// and ids that differ only in the top byte of the IP.
std::vector<NodeId> memoProbeIds() {
  std::vector<NodeId> ids;
  for (std::uint32_t i = 0; i < 24; ++i) ids.push_back(NodeId::fromIndex(i));
  for (const std::uint16_t port : {0, 1, 9000, 65535}) {
    ids.emplace_back(0xC0A80001u, port);
  }
  for (const std::uint32_t top : {0x00u, 0x01u, 0x7Fu, 0x80u, 0xFFu}) {
    ids.emplace_back((top << 24) | 0x00A80001u, 4242);
  }
  return ids;
}

// The memo pays for the slow hashes only; ScenarioRunner puts it in front
// of md5 and sha1.
class MemoHashParamTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MemoHashParamTest, MemoizedMatchesInner) {
  const auto fn = hash::makeHashFunction(GetParam());
  HashMonitorSelector inner(*fn, 300, 1000);  // both verdicts common
  const std::vector<NodeId> ids = memoProbeIds();
  // Ask each pair forward first in one memo and reverse first in the
  // other, then both directions again from the cache. Self-pairs included.
  for (const bool reverseFirst : {false, true}) {
    MemoizedMonitorSelector memo(inner);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      for (std::size_t j = i; j < ids.size(); ++j) {
        const NodeId a = reverseFirst ? ids[j] : ids[i];
        const NodeId b = reverseFirst ? ids[i] : ids[j];
        for (int pass = 0; pass < 2; ++pass) {
          EXPECT_EQ(memo.isMonitor(a, b), inner.isMonitor(a, b))
              << GetParam() << " " << a.toString() << " -> " << b.toString();
          EXPECT_EQ(memo.isMonitor(b, a), inner.isMonitor(b, a))
              << GetParam() << " " << b.toString() << " -> " << a.toString();
        }
      }
    }
    // One slot per unordered pair, self-pairs included.
    EXPECT_EQ(memo.cacheSize(), ids.size() * (ids.size() + 1) / 2);
  }
}

TEST_P(MemoHashParamTest, CrossVerdictsMatchIsMonitor) {
  const auto fn = hash::makeHashFunction(GetParam());
  HashMonitorSelector inner(*fn, 300, 1000);
  const CrossLists l = crossLists();
  std::vector<std::uint8_t> out;

  // Cold, then warm: the second batch answers from the cache.
  MemoizedMonitorSelector memo(inner);
  memo.crossVerdicts(l.rows, l.cols, l.pairs, out);
  expectSameAsIsMonitor(inner, l, out, std::string(GetParam()) + " cold");
  const std::size_t cached = memo.cacheSize();
  memo.crossVerdicts(l.rows, l.cols, l.pairs, out);
  expectSameAsIsMonitor(inner, l, out, std::string(GetParam()) + " warm");
  EXPECT_EQ(memo.cacheSize(), cached);

  // Past the cap: the first half of the lists' pairs goes in, then a
  // 1100 x 1100 batch of distinct pairs fills the table (2^20 pairs at
  // half load of 2^21 slots) part way through and passes the rest
  // through. The whole lists then mix cached pairs with pairs the full
  // table cannot take.
  MemoizedMonitorSelector full(inner);
  const CrossLists firstHalf{
      l.rows, l.cols,
      {l.pairs.begin(), l.pairs.begin() + l.pairs.size() / 2}};
  full.crossVerdicts(firstHalf.rows, firstHalf.cols, firstHalf.pairs, out);
  expectSameAsIsMonitor(inner, firstHalf, out,
                        std::string(GetParam()) + " first half");
  CrossLists filler;
  for (std::uint32_t i = 0; i < 1100; ++i) {
    filler.rows.push_back(NodeId::fromIndex(i));
    filler.cols.push_back(NodeId::fromIndex(1100 + i));
  }
  for (std::uint32_t i = 0; i < 1100; ++i) {
    for (std::uint32_t j = 0; j < 1100; ++j) filler.pairs.push_back({i, j});
  }
  full.crossVerdicts(filler.rows, filler.cols, filler.pairs, out);
  EXPECT_EQ(full.cacheSize(), std::size_t{1} << 20);
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < filler.pairs.size(); k += 97) {
    const NodeId& r = filler.rows[filler.pairs[k].row];
    const NodeId& c = filler.cols[filler.pairs[k].col];
    mismatches += (out[2 * k] != 0) != inner.isMonitor(r, c);
    mismatches += (out[2 * k + 1] != 0) != inner.isMonitor(c, r);
  }
  EXPECT_EQ(mismatches, 0u) << GetParam();
  full.crossVerdicts(l.rows, l.cols, l.pairs, out);
  expectSameAsIsMonitor(inner, l, out, std::string(GetParam()) + " full");
  EXPECT_EQ(full.cacheSize(), std::size_t{1} << 20);
}

// The memo's correctness does not depend on the hash behind it, so its
// tests also run on splitmix64, which ScenarioRunner never memoizes.
INSTANTIATE_TEST_SUITE_P(AllHashes, MemoHashParamTest,
                         ::testing::Values("md5", "sha1", "splitmix64"));

TEST(MemoizedSelectorTest, VerdictsStayExactPastTheCap) {
  // 1500 ids give 1,125,750 unordered pairs, more than the 2^21-slot
  // table holds at half load (2^20). splitmix64 keeps the run short.
  hash::SplitMix64HashFunction fn;
  HashMonitorSelector inner(fn, 300, 1000);
  MemoizedMonitorSelector memo(inner);
  constexpr std::uint32_t kIds = 1500;
  std::size_t mismatches = 0;
  for (std::uint32_t i = 0; i < kIds; ++i) {
    for (std::uint32_t j = i; j < kIds; ++j) {
      const NodeId a = NodeId::fromIndex(i), b = NodeId::fromIndex(j);
      mismatches += memo.isMonitor(a, b) != inner.isMonitor(a, b);
    }
  }
  const std::size_t full = memo.cacheSize();
  EXPECT_EQ(full, std::size_t{1} << 20);
  // Second pass, reverse direction first: cached pairs fill in their
  // other verdict, the rest are computed past the cap, and the table no
  // longer grows.
  for (std::uint32_t i = 0; i < kIds; ++i) {
    for (std::uint32_t j = i; j < kIds; ++j) {
      const NodeId a = NodeId::fromIndex(i), b = NodeId::fromIndex(j);
      mismatches += memo.isMonitor(b, a) != inner.isMonitor(b, a);
      mismatches += memo.isMonitor(a, b) != inner.isMonitor(a, b);
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(memo.cacheSize(), full);
}

}  // namespace
}  // namespace avmon
