// Whole decimal integers from text, range-checked before they narrow: the
// one parser behind spec values, command-line flags and trace fields.
#pragma once

#include <cstdint>
#include <string>

namespace avmon {

/// Reads `v` as an unsigned integer no larger than `max`: digits only (no
/// sign for std::stoull to wrap) and the whole string, range-checked before
/// any narrowing cast. Returns the error text, empty on success.
std::string readUInt(const std::string& v, std::uint64_t max,
                     std::uint64_t& out);

/// Reads `v` as a signed 64-bit integer: an optional '-', then digits, and
/// the whole string, in range. Returns the error text, empty on success.
std::string readInt(const std::string& v, std::int64_t& out);

}  // namespace avmon
