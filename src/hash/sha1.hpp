// SHA-1 message digest, implemented from RFC 3174.
//
// The paper notes MD-5 *or* SHA-1 can implement the consistency condition
// (Section 3.1); we provide both so the hash choice is an ablation axis
// (examples/specs/paper/abl_hash.spec). Like MD5, SHA-1 is used as a mixer, not for security.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include "common/byte_span.hpp"
#include <string>

namespace avmon::hash {

/// Incremental SHA-1 context (init / update / final), RFC 3174.
class Sha1 {
 public:
  static constexpr std::size_t kDigestSize = 20;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha1() noexcept { reset(); }

  /// Re-initializes to the empty-message state.
  void reset() noexcept;

  /// Absorbs more message bytes.
  void update(ByteSpan data) noexcept;

  /// Pads, finalizes, and returns the 160-bit digest.
  Digest finalize() noexcept;

  /// One-shot convenience.
  static Digest digest(ByteSpan data) noexcept;

  /// Renders a digest as lowercase hex.
  static std::string toHex(const Digest& d);

 private:
  void processBlock(const std::uint8_t* block) noexcept;

  std::uint32_t state_[5];
  std::uint64_t bitCount_;
  std::uint8_t buffer_[64];
  std::size_t bufferLen_;
};

}  // namespace avmon::hash
