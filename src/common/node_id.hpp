// Node identity: the <IPaddress, portnumber> pair of the paper (Section 3.1).
//
// The consistency condition hashes the 6-byte wire encoding of a node id
// (4-byte big-endian IPv4 address + 2-byte big-endian port), matching the
// paper's accounting of "6 Bytes per entry" and 12-byte pair hashes.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

namespace avmon {

/// Identifies one host in the system, as an (IPv4 address, port) pair.
///
/// NodeId is a value type: cheap to copy, totally ordered, hashable, and
/// encodable to a fixed 6-byte representation used by the consistent-hash
/// monitor selection scheme.
class NodeId {
 public:
  static constexpr std::size_t kWireSize = 6;

  /// Constructs the "nil" id (0.0.0.0:0), used as a sentinel.
  constexpr NodeId() noexcept = default;

  constexpr NodeId(std::uint32_t ip, std::uint16_t port) noexcept
      : ip_(ip), port_(port) {}

  /// Convenience factory for simulations: maps a dense index to a unique
  /// synthetic address (10.x.y.z:9000+k). Indices up to 2^24-1 supported.
  static constexpr NodeId fromIndex(std::uint32_t index) noexcept {
    return NodeId(0x0A000000u | (index & 0x00FFFFFFu),
                  static_cast<std::uint16_t>(9000 + (index % 50000)));
  }

  constexpr std::uint32_t ip() const noexcept { return ip_; }
  constexpr std::uint16_t port() const noexcept { return port_; }

  constexpr bool isNil() const noexcept { return ip_ == 0 && port_ == 0; }

  /// The 48-bit identity (ip << 16 | port). One-to-one, so equal packed
  /// values are equal ids; the key every id hash and id index starts from.
  constexpr std::uint64_t packed() const noexcept {
    return (static_cast<std::uint64_t>(ip_) << 16) | port_;
  }

  /// Fixed-size wire encoding (big-endian ip, big-endian port) fed to the
  /// hash-based consistency condition.
  std::array<std::uint8_t, kWireSize> toBytes() const noexcept;

  /// Parses the encoding produced by toBytes().
  static NodeId fromBytes(const std::array<std::uint8_t, kWireSize>& b) noexcept;

  /// Renders "a.b.c.d:port" for logs and reports.
  std::string toString() const;

  friend constexpr bool operator==(const NodeId& a, const NodeId& b) noexcept {
    return a.ip_ == b.ip_ && a.port_ == b.port_;
  }
  friend constexpr bool operator!=(const NodeId& a, const NodeId& b) noexcept {
    return !(a == b);
  }
  friend constexpr bool operator<(const NodeId& a, const NodeId& b) noexcept {
    return a.ip_ != b.ip_ ? a.ip_ < b.ip_ : a.port_ < b.port_;
  }
  friend constexpr bool operator>(const NodeId& a, const NodeId& b) noexcept {
    return b < a;
  }
  friend constexpr bool operator<=(const NodeId& a, const NodeId& b) noexcept {
    return !(b < a);
  }
  friend constexpr bool operator>=(const NodeId& a, const NodeId& b) noexcept {
    return !(a < b);
  }

 private:
  std::uint32_t ip_ = 0;
  std::uint16_t port_ = 0;
};

/// Sorted snapshot of an unordered id set — the sanctioned way to iterate
/// one when the order matters (hash order is a function of insertion
/// history, not of the data; see the avmon_lint `unordered-iter` rule).
std::vector<NodeId> sortedIds(const std::unordered_set<NodeId>& ids);

}  // namespace avmon

template <>
struct std::hash<avmon::NodeId> {
  std::size_t operator()(const avmon::NodeId& id) const noexcept {
    // splitmix64 finalizer over the 48-bit identity; good avalanche for
    // unordered containers even with dense synthetic addresses.
    std::uint64_t x = id.packed();
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};
