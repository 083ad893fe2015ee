// NodeId, IdIndex and Rng unit/property tests.
#include <gtest/gtest.h>

#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/id_index.hpp"
#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"

namespace avmon {
namespace {

TEST(NodeIdTest, RoundTripsThroughBytes) {
  const NodeId id(0xC0A80101u, 8080);  // 192.168.1.1:8080
  EXPECT_EQ(NodeId::fromBytes(id.toBytes()), id);
}

TEST(NodeIdTest, BytesAreBigEndian) {
  const NodeId id(0x01020304u, 0x0506);
  const auto b = id.toBytes();
  EXPECT_EQ(b[0], 0x01);
  EXPECT_EQ(b[1], 0x02);
  EXPECT_EQ(b[2], 0x03);
  EXPECT_EQ(b[3], 0x04);
  EXPECT_EQ(b[4], 0x05);
  EXPECT_EQ(b[5], 0x06);
}

TEST(NodeIdTest, WireRoundTripPropertyOverRandomIds) {
  // Both directions: id -> bytes -> id and bytes -> id -> bytes, across
  // random ids and the corners of the (ip, port) space.
  Rng rng(11);
  std::vector<NodeId> ids = {
      NodeId(),                        // nil
      NodeId(0xFFFFFFFFu, 0xFFFF),     // all-ones
      NodeId(0, 0xFFFF),               // ip floor, port ceiling
      NodeId(0xFFFFFFFFu, 0),          // ip ceiling, port floor
      NodeId(0x7FFFFFFFu, 0x8000),     // sign-bit boundaries
  };
  for (int i = 0; i < 1000; ++i) {
    ids.emplace_back(static_cast<std::uint32_t>(rng.below(1ull << 32)),
                     static_cast<std::uint16_t>(rng.below(1ull << 16)));
  }
  for (const NodeId& id : ids) {
    const auto bytes = id.toBytes();
    const NodeId back = NodeId::fromBytes(bytes);
    EXPECT_EQ(back, id) << id.toString();
    EXPECT_EQ(back.toBytes(), bytes) << id.toString();
  }
}

TEST(NodeIdTest, ToStringFormatsDottedQuad) {
  EXPECT_EQ(NodeId(0xC0A80101u, 8080).toString(), "192.168.1.1:8080");
  EXPECT_EQ(NodeId().toString(), "0.0.0.0:0");
}

TEST(NodeIdTest, NilDetection) {
  EXPECT_TRUE(NodeId().isNil());
  EXPECT_FALSE(NodeId(1, 0).isNil());
  EXPECT_FALSE(NodeId(0, 1).isNil());
}

TEST(NodeIdTest, FromIndexIsInjectiveForSimulationSizes) {
  std::set<NodeId> seen;
  for (std::uint32_t i = 0; i < 20000; ++i) {
    EXPECT_TRUE(seen.insert(NodeId::fromIndex(i)).second) << "index " << i;
  }
}

TEST(NodeIdTest, OrderingIsTotal) {
  const NodeId a(1, 1), b(1, 2), c(2, 1);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(a, c);
}

TEST(NodeIdTest, StdHashSpreadsDenseIndices) {
  // Synthetic simulation ids are dense; the hash must still spread them.
  std::unordered_set<std::size_t> buckets;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    buckets.insert(std::hash<NodeId>{}(NodeId::fromIndex(i)) % 256);
  }
  EXPECT_GT(buckets.size(), 200u);  // near-all buckets touched
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_EQ(same, 0);
}

TEST(RngTest, ForkIsIndependentOfParent) {
  Rng parent(7);
  Rng child = parent.fork();
  // The child's stream must not reproduce the parent's.
  Rng parentCopy = parent;
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (child() == parentCopy()) ? 1 : 0;
  EXPECT_LE(same, 1);
}

TEST(RngTest, SuccessiveForksDiffer) {
  Rng parent(7);
  Rng c1 = parent.fork();
  Rng c2 = parent.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (c1() == c2()) ? 1 : 0;
  EXPECT_LE(same, 1);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(3);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(RngTest, BelowOneIsAlwaysZero) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(9);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    sawLo |= v == -3;
    sawHi |= v == 3;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(RngTest, Uniform01Bounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, Uniform01MeanIsHalf) {
  Rng rng(13);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(RngTest, ChanceEdgeCases) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-0.5));
    EXPECT_TRUE(rng.chance(1.5));
  }
}

TEST(RngTest, ChanceMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(23);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / kN, 0.5, 0.03);  // mean = 1/rate
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, SampleWithoutReplacement) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  const auto s = rng.sample(v, 3);
  ASSERT_EQ(s.size(), 3u);
  std::set<int> unique(s.begin(), s.end());
  EXPECT_EQ(unique.size(), 3u);
}

TEST(RngTest, SampleMoreThanSizeReturnsAll) {
  Rng rng(37);
  std::vector<int> v{1, 2, 3};
  const auto s = rng.sample(v, 10);
  EXPECT_EQ(s.size(), 3u);
}

TEST(IdIndexTest, AssignsIndicesInFirstInsertionOrder) {
  IdIndex index;
  EXPECT_EQ(index.size(), 0u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    const IdIndex::Insertion ins = index.insert(NodeId::fromIndex(100 + i));
    EXPECT_EQ(ins.index, i);
    EXPECT_TRUE(ins.inserted);
  }
  EXPECT_EQ(index.size(), 5u);
}

TEST(IdIndexTest, ReinsertReturnsTheExistingIndex) {
  IdIndex index;
  index.insert(NodeId::fromIndex(1));
  index.insert(NodeId::fromIndex(2));
  const IdIndex::Insertion again = index.insert(NodeId::fromIndex(1));
  EXPECT_EQ(again.index, 0u);
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.insert(NodeId::fromIndex(3)).index, 2u);
}

TEST(IdIndexTest, FindReportsUnknownIdsAsAbsent) {
  IdIndex index;
  EXPECT_EQ(index.find(NodeId::fromIndex(0)), IdIndex::kAbsent);  // empty
  EXPECT_EQ(index.find(NodeId()), IdIndex::kAbsent);
  index.insert(NodeId::fromIndex(0));
  EXPECT_EQ(index.find(NodeId::fromIndex(0)), 0u);
  EXPECT_EQ(index.find(NodeId::fromIndex(1)), IdIndex::kAbsent);
  EXPECT_EQ(index.find(NodeId()), IdIndex::kAbsent);
}

TEST(IdIndexTest, NearbyIdsAndTheNilIdAreDistinctKeys) {
  // The nil id, ids that differ only in the port, and ids that differ only
  // in the top byte of the IP (the bits next to the index's own flag).
  std::vector<NodeId> ids{NodeId()};
  for (const std::uint16_t port : {0, 1, 9000, 65535}) {
    ids.emplace_back(0xC0A80001u, port);
  }
  for (const std::uint32_t top : {0x00u, 0x01u, 0x7Fu, 0x80u, 0xFFu}) {
    ids.emplace_back((top << 24) | 0x00A80001u, 4242);
  }
  ids.emplace_back(0xFFFFFFFFu, 65535);
  IdIndex index;
  for (std::uint32_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(index.insert(ids[i]).index, i) << ids[i].toString();
  }
  for (std::uint32_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(index.find(ids[i]), i) << ids[i].toString();
    EXPECT_FALSE(index.insert(ids[i]).inserted) << ids[i].toString();
  }
  EXPECT_EQ(index.size(), ids.size());
}

TEST(IdIndexTest, FindStaysRightThroughEveryDoubling) {
  constexpr std::uint32_t kIds = 200000;
  IdIndex index;
  for (std::uint32_t i = 0; i < kIds; ++i) {
    ASSERT_EQ(index.insert(NodeId::fromIndex(i)).index, i);
  }
  std::size_t wrong = 0;
  for (std::uint32_t i = 0; i < kIds; ++i) {
    wrong += index.find(NodeId::fromIndex(i)) != i;
  }
  EXPECT_EQ(wrong, 0u);
  EXPECT_EQ(index.find(NodeId::fromIndex(kIds)), IdIndex::kAbsent);
}

TEST(IdIndexTest, MatchesAnUnorderedMapEmplaceLoop) {
  // The maps IdIndex replaced gave each id emplace(id, size()) on first
  // sight; over a shuffled list with repeats it must give the same values.
  std::vector<NodeId> ids;
  Rng rng(21);
  for (std::uint32_t i = 0; i < 3000; ++i) {
    ids.push_back(NodeId::fromIndex(i));
    ids.emplace_back(static_cast<std::uint32_t>(rng()),
                     static_cast<std::uint16_t>(rng()));
  }
  const std::vector<NodeId> firsts = ids;
  ids.insert(ids.end(), firsts.begin(), firsts.begin() + 1000);  // repeats
  rng.shuffle(ids);
  std::unordered_map<NodeId, std::uint32_t> reference;
  IdIndex index;
  for (const NodeId& id : ids) {
    const auto [it, inserted] =
        reference.emplace(id, static_cast<std::uint32_t>(reference.size()));
    const IdIndex::Insertion ins = index.insert(id);
    ASSERT_EQ(ins.index, it->second) << id.toString();
    ASSERT_EQ(ins.inserted, inserted) << id.toString();
  }
  ASSERT_EQ(index.size(), reference.size());
  for (const NodeId& id : firsts) EXPECT_EQ(index.find(id), reference.at(id));
}

TEST(TimeTest, UnitConversions) {
  EXPECT_EQ(kSecond, 1000);
  EXPECT_EQ(kMinute, 60 * kSecond);
  EXPECT_EQ(kHour, 60 * kMinute);
  EXPECT_EQ(kDay, 24 * kHour);
  EXPECT_DOUBLE_EQ(toSeconds(1500), 1.5);
  EXPECT_DOUBLE_EQ(toMinutes(90 * kSecond), 1.5);
}

}  // namespace
}  // namespace avmon
