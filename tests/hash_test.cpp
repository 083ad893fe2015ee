// MD5 / SHA-1 / hash-function interface tests, including the official RFC
// test vectors both digests must reproduce bit-exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include "common/byte_span.hpp"
#include <string>
#include <vector>

#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "hash/hash_function.hpp"
#include "hash/md5.hpp"
#include "hash/sha1.hpp"

namespace avmon::hash {
namespace {

ByteSpan bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// --- RFC 1321 Appendix A.5 test suite ---

struct Md5Vector {
  const char* message;
  const char* digest;
};

class Md5VectorTest : public ::testing::TestWithParam<Md5Vector> {};

TEST_P(Md5VectorTest, MatchesRfc1321) {
  const auto& [message, digest] = GetParam();
  EXPECT_EQ(Md5::toHex(Md5::digest(bytes(message))), digest);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc1321, Md5VectorTest,
    ::testing::Values(
        Md5Vector{"", "d41d8cd98f00b204e9800998ecf8427e"},
        Md5Vector{"a", "0cc175b9c0f1b6a831c399e269772661"},
        Md5Vector{"abc", "900150983cd24fb0d6963f7d28e17f72"},
        Md5Vector{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
        Md5Vector{"abcdefghijklmnopqrstuvwxyz",
                  "c3fcd3d76192e4007dfb496cca67e13b"},
        Md5Vector{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz01234"
                  "56789",
                  "d174ab98d277d9f5a5611c2c9f419d9f"},
        Md5Vector{"1234567890123456789012345678901234567890123456789012345678"
                  "9012345678901234567890",
                  "57edf4a22be3c955ac49da2e2107b67a"}));

// --- RFC 3174 / FIPS 180-1 SHA-1 vectors ---

struct Sha1Vector {
  const char* message;
  const char* digest;
};

class Sha1VectorTest : public ::testing::TestWithParam<Sha1Vector> {};

TEST_P(Sha1VectorTest, MatchesRfc3174) {
  const auto& [message, digest] = GetParam();
  EXPECT_EQ(Sha1::toHex(Sha1::digest(bytes(message))), digest);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc3174, Sha1VectorTest,
    ::testing::Values(
        Sha1Vector{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
        Sha1Vector{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                   "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
        Sha1Vector{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
        Sha1Vector{"The quick brown fox jumps over the lazy dog",
                   "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"}));

TEST(Md5Test, MillionAs) {
  // RFC 1321 long-message vector, exercised incrementally to cover the
  // buffered update path with uneven chunk sizes.
  Md5 ctx;
  const std::string chunk(617, 'a');  // deliberately not a divisor of 64
  std::size_t sent = 0;
  while (sent < 1000000) {
    const std::size_t take = std::min<std::size_t>(chunk.size(), 1000000 - sent);
    ctx.update(bytes(chunk.substr(0, take)));
    sent += take;
  }
  EXPECT_EQ(Md5::toHex(ctx.finalize()), "7707d6ae4e027c70eea2a935c2296f21");
}

TEST(Sha1Test, MillionAs) {
  Sha1 ctx;
  const std::string chunk(977, 'a');
  std::size_t sent = 0;
  while (sent < 1000000) {
    const std::size_t take = std::min<std::size_t>(chunk.size(), 1000000 - sent);
    ctx.update(bytes(chunk.substr(0, take)));
    sent += take;
  }
  EXPECT_EQ(Sha1::toHex(ctx.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Md5Test, IncrementalEqualsOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Md5 ctx;
    ctx.update(bytes(msg.substr(0, split)));
    ctx.update(bytes(msg.substr(split)));
    EXPECT_EQ(ctx.finalize(), Md5::digest(bytes(msg))) << "split=" << split;
  }
}

TEST(HashFunctionTest, FactoryKnowsAllNames) {
  for (const char* name : {"md5", "sha1", "splitmix64"}) {
    const auto fn = makeHashFunction(name);
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn->name(), name);
  }
  EXPECT_THROW(makeHashFunction("crc32"), std::invalid_argument);
}

TEST(HashFunctionTest, NormalizedIsInUnitInterval) {
  for (const char* name : {"md5", "sha1", "splitmix64"}) {
    const auto fn = makeHashFunction(name);
    for (std::uint32_t i = 0; i < 200; ++i) {
      const std::uint8_t data[4] = {
          static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i >> 8),
          static_cast<std::uint8_t>(i * 7), static_cast<std::uint8_t>(i * 13)};
      const double v = fn->normalized(data);
      EXPECT_GE(v, 0.0);
      EXPECT_LT(v, 1.0);
    }
  }
}

TEST(HashFunctionTest, Digest64MatchesMd5Prefix) {
  // digest64 must be exactly the big-endian first 8 bytes of the digest —
  // the paper's "first 64 bits returned considered".
  Md5HashFunction fn;
  const std::string msg = "avmon";
  const Md5::Digest full = Md5::digest(bytes(msg));
  std::uint64_t expect = 0;
  for (int i = 0; i < 8; ++i) expect = (expect << 8) | full[i];
  EXPECT_EQ(fn.digest64(bytes(msg)), expect);
}

TEST(HashFunctionTest, DigestPairEqualsDigestOfWireMessage) {
  // digestPair must equal digest64 over the 12-byte wire message a ‖ b,
  // so a third party hashing the encoding reaches the same verdict.
  std::vector<NodeId> ids = {NodeId(), NodeId(0xFFFFFFFFu, 0xFFFF),
                             NodeId(0x0A000001u, 0), NodeId(0x8A000001u, 0)};
  for (std::uint32_t i = 0; i < 16; ++i) ids.push_back(NodeId::fromIndex(i));
  Rng rng(20);
  for (int i = 0; i < 16; ++i) {
    ids.emplace_back(static_cast<std::uint32_t>(rng()),
                     static_cast<std::uint16_t>(rng()));
  }
  const auto pack = [](const NodeId& id) {
    return (static_cast<std::uint64_t>(id.ip()) << 16) | id.port();
  };
  for (const char* name : {"md5", "sha1", "splitmix64"}) {
    const auto fn = makeHashFunction(name);
    for (const NodeId& a : ids) {
      for (const NodeId& b : ids) {
        std::array<std::uint8_t, 2 * NodeId::kWireSize> msg;
        const auto ab = a.toBytes();
        const auto bb = b.toBytes();
        std::copy(ab.begin(), ab.end(), msg.begin());
        std::copy(bb.begin(), bb.end(), msg.begin() + NodeId::kWireSize);
        EXPECT_EQ(fn->digestPair(pack(a), pack(b)), fn->digest64(msg))
            << name << " " << a.toString() << " " << b.toString();
      }
    }
  }
}

TEST(HashFunctionTest, RoughlyUniformOverBuckets) {
  // Property: normalized hashes of structured (sequential) inputs should
  // spread evenly — the randomness property the selection scheme needs.
  for (const char* name : {"md5", "sha1", "splitmix64"}) {
    const auto fn = makeHashFunction(name);
    constexpr int kBuckets = 16;
    constexpr int kSamples = 4096;
    int counts[kBuckets] = {};
    for (std::uint32_t i = 0; i < kSamples; ++i) {
      std::uint8_t data[4];
      std::memcpy(data, &i, sizeof(data));
      const double v = fn->normalized(data);
      counts[static_cast<int>(v * kBuckets)]++;
    }
    const double expected = static_cast<double>(kSamples) / kBuckets;
    for (int b = 0; b < kBuckets; ++b) {
      EXPECT_GT(counts[b], expected * 0.7) << name << " bucket " << b;
      EXPECT_LT(counts[b], expected * 1.3) << name << " bucket " << b;
    }
  }
}

}  // namespace
}  // namespace avmon::hash
