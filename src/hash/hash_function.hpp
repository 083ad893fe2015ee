// Pluggable hash functions for the consistency condition.
//
// The monitor selection scheme (paper Section 3.1) needs a deterministic
// function H : bytes -> [0,1) that every node computes identically. The
// paper uses the first 64 bits of MD5; SHA-1 is named as an alternative.
// We expose both plus a fast non-cryptographic mixer (splitmix64) as an
// ablation (examples/specs/paper/abl_hash.spec): verifiability only requires agreement on H,
// so a faster mixer trades collusion-grinding resistance for CPU.
#pragma once

#include <cstdint>
#include <memory>
#include "common/byte_span.hpp"
#include <string>
#include <vector>

namespace avmon::hash {

/// One cross pair of a coarse-view fetch, named by its positions in the
/// fetch's two id lists.
struct CrossPair {
  std::uint32_t row = 0;
  std::uint32_t col = 0;
};

/// Uniform 64-bit hash of a byte string; the basis of the consistency
/// condition. Implementations must be deterministic and stateless.
class HashFunction {
 public:
  virtual ~HashFunction() = default;

  /// First 64 bits of the digest, interpreted big-endian.
  virtual std::uint64_t digest64(ByteSpan data) const = 0;

  /// digest64 of the 12-byte pair message a ‖ b, where `a48` and `b48`
  /// are two 6-byte ids packed big-endian into their low 48 bits (the
  /// NodeId wire encoding: ip << 16 | port). The default builds the
  /// message; an override must return exactly the same value.
  virtual std::uint64_t digestPair(std::uint64_t a48, std::uint64_t b48) const;

  /// digestPair in both orders over a batch of cross pairs: for the k-th
  /// pair (r, c), out[2k] = digestPair(rows48[r], cols48[c]) and
  /// out[2k+1] = digestPair(cols48[c], rows48[r]). Resizes `out`. The
  /// default loops over digestPair; an override must return exactly the
  /// same values.
  virtual void digestCross(const std::vector<std::uint64_t>& rows48,
                           const std::vector<std::uint64_t>& cols48,
                           const std::vector<CrossPair>& pairs,
                           std::vector<std::uint64_t>& out) const;

  /// True when one digest costs less than a verdict-memo probe, so a
  /// caller should hash every query directly instead of caching verdicts.
  virtual bool cheaperThanMemo() const noexcept { return false; }

  /// Human-readable name for reports ("md5", "sha1", "splitmix64").
  virtual std::string name() const = 0;

  /// A digest scaled to the real interval [0, 1]: monotone in the digest,
  /// but rounded (digests within 2^10 of 2^64 scale to exactly 1).
  static double toUnit(std::uint64_t digest) noexcept {
    return static_cast<double>(digest) * 0x1.0p-64;
  }

  /// digest64 normalized to the real interval [0, 1).
  double normalized(ByteSpan data) const { return toUnit(digest64(data)); }
};

/// MD5-backed hash (the paper's default).
class Md5HashFunction final : public HashFunction {
 public:
  std::uint64_t digest64(ByteSpan data) const override;
  std::string name() const override { return "md5"; }
};

/// SHA-1-backed hash (the paper's named alternative).
class Sha1HashFunction final : public HashFunction {
 public:
  std::uint64_t digest64(ByteSpan data) const override;
  std::string name() const override { return "sha1"; }
};

/// splitmix64 over a 64-bit fold of the input: good avalanche, but not
/// preimage-resistant. A consistency check costs ~8-15 ns alone and ~7-14
/// ns in a digestCross batch, against ~200-250 ns with MD5 (the
/// benchmark's selector probes, and a timed stat_dense run, on a 4-vCPU
/// x86 host). That is less than a verdict-memo probe that misses the CPU
/// cache, so pairs are hashed directly and never memoized.
class SplitMix64HashFunction final : public HashFunction {
 public:
  std::uint64_t digest64(ByteSpan data) const override;
  std::uint64_t digestPair(std::uint64_t a48, std::uint64_t b48) const override;
  /// Folds each row and column id into the seed once per batch, so each
  /// digest folds only its second id before the finalizer.
  void digestCross(const std::vector<std::uint64_t>& rows48,
                   const std::vector<std::uint64_t>& cols48,
                   const std::vector<CrossPair>& pairs,
                   std::vector<std::uint64_t>& out) const override;
  bool cheaperThanMemo() const noexcept override { return true; }
  std::string name() const override { return "splitmix64"; }
};

/// Factory by name; throws std::invalid_argument on unknown names.
std::unique_ptr<HashFunction> makeHashFunction(const std::string& name);

/// True if makeHashFunction(name) would succeed — validation without the
/// construction cost (or the exception).
bool isKnownHashName(const std::string& name);

}  // namespace avmon::hash
