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

// The memo gives each id a dense index and keeps a (known, verdict) cell
// per ordered pair of indices. These ids stress the id index: dense
// synthetic ids, ids that differ only in the port, and ids that differ
// only in the top byte of the IP.
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
    // One cached verdict per ordered pair; self-pairs are never cached.
    EXPECT_EQ(memo.cacheSize(), ids.size() * (ids.size() - 1));
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
}

// The memo's correctness does not depend on the hash behind it, so its
// tests also run on splitmix64, which ScenarioRunner never memoizes.
INSTANTIATE_TEST_SUITE_P(AllHashes, MemoHashParamTest,
                         ::testing::Values("md5", "sha1", "splitmix64"));

// Forwards to a selector and counts the questions it is asked, so a test
// can tell a memoized verdict (no question) from a computed one.
class CountingSelector final : public MonitorSelector {
 public:
  explicit CountingSelector(const MonitorSelector& inner) : inner_(inner) {}
  bool isMonitor(const NodeId& observer, const NodeId& target) const override {
    ++asked;
    return inner_.isMonitor(observer, target);
  }
  mutable std::size_t asked = 0;

 private:
  const MonitorSelector& inner_;
};

TEST(MemoizedSelectorTest, IdsPastTheBoundPassThrough) {
  // The matrix holds at most 11 584 ids (32 MiB of 2-bit cells); 16 000
  // ids, indexed in order, overflow it. splitmix64 keeps the run short.
  hash::SplitMix64HashFunction fn;
  const HashMonitorSelector inner(fn, 300, 1000);
  const CountingSelector counting(inner);
  const MemoizedMonitorSelector memo(counting);
  constexpr std::uint32_t kIds = 16000;
  const auto id = [](std::uint32_t i) { return NodeId::fromIndex(i); };
  std::size_t mismatches = 0;
  for (std::uint32_t i = 1; i < kIds; ++i) {
    mismatches += memo.isMonitor(id(i - 1), id(i)) !=
                  inner.isMonitor(id(i - 1), id(i));
  }
  EXPECT_EQ(mismatches, 0u);
  // Pairs of two indexed ids are cached; the rest were not.
  EXPECT_GE(memo.cacheSize(), 10000u);
  EXPECT_LT(memo.cacheSize(), kIds - 1);

  // Early ids stay memoized: asking again asks the inner selector nothing.
  const std::size_t cached = memo.cacheSize();
  std::size_t before = counting.asked;
  for (std::uint32_t i = 1; i < 1000; ++i) {
    mismatches += memo.isMonitor(id(i - 1), id(i)) !=
                  inner.isMonitor(id(i - 1), id(i));
  }
  EXPECT_EQ(counting.asked, before);
  // Later ids pass through: every question reaches the inner selector,
  // with an early id on either side or with none, and nothing is cached.
  before = counting.asked;
  for (std::uint32_t i = kIds - 500; i < kIds; ++i) {
    mismatches += memo.isMonitor(id(i), id(i - 1)) !=
                  inner.isMonitor(id(i), id(i - 1));
    mismatches += memo.isMonitor(id(0), id(i)) != inner.isMonitor(id(0), id(i));
    mismatches += memo.isMonitor(id(i), id(0)) != inner.isMonitor(id(i), id(0));
  }
  EXPECT_EQ(counting.asked, before + 3 * 500);
  EXPECT_EQ(memo.cacheSize(), cached);
  EXPECT_EQ(mismatches, 0u);

  // The batch path gives the same split. Rows and columns alternate early
  // and late ids and share some of each (self-pairs of both kinds); once
  // the early x early cells are filled, only pairs with a late id reach
  // the inner selector, both orders each.
  CrossLists l;
  for (std::uint32_t i = 0; i < 6; ++i) {
    l.rows.push_back(id(i));
    l.rows.push_back(id(kIds - 1 - i));
    l.cols.push_back(id(i + 3));
    l.cols.push_back(id(kIds - 4 - i));
  }
  std::size_t withLateId = 0;
  for (std::uint32_t i = 0; i < l.rows.size(); ++i) {
    for (std::uint32_t j = 0; j < l.cols.size(); ++j) {
      l.pairs.push_back({i, j});
      withLateId += i % 2 == 1 || j % 2 == 1;
    }
  }
  std::vector<std::uint8_t> out;
  memo.crossVerdicts(l.rows, l.cols, l.pairs, out);
  expectSameAsIsMonitor(inner, l, out, "past the bound, cold");
  const std::size_t warm = memo.cacheSize();
  EXPECT_GT(warm, cached);
  before = counting.asked;
  memo.crossVerdicts(l.rows, l.cols, l.pairs, out);
  expectSameAsIsMonitor(inner, l, out, "past the bound, warm");
  EXPECT_EQ(counting.asked - before, 2 * withLateId);
  EXPECT_EQ(memo.cacheSize(), warm);
}

TEST(MemoizedSelectorTest, CachedVerdictsSurviveARegrow) {
  hash::Md5HashFunction fn;
  const HashMonitorSelector inner(fn, 300, 1000);  // both verdicts common
  const CountingSelector counting(inner);
  const MemoizedMonitorSelector memo(counting);
  const std::vector<NodeId> ids = memoProbeIds();
  for (const NodeId& a : ids) {
    for (const NodeId& b : ids) memo.isMonitor(a, b);
  }
  const std::size_t cached = memo.cacheSize();
  ASSERT_EQ(cached, ids.size() * (ids.size() - 1));
  // 3000 more ids regrow the matrix several times (rows copied each time).
  for (std::uint32_t i = 0; i < 3000; ++i) {
    memo.isMonitor(ids[0], NodeId::fromIndex(100000 + i));
  }
  const std::size_t before = counting.asked;
  for (const NodeId& a : ids) {
    for (const NodeId& b : ids) {
      EXPECT_EQ(memo.isMonitor(a, b), inner.isMonitor(a, b))
          << a.toString() << " -> " << b.toString();
    }
  }
  EXPECT_EQ(counting.asked, before);  // every verdict came from the matrix
  EXPECT_EQ(memo.cacheSize(), cached + 3000);
}

}  // namespace
}  // namespace avmon
