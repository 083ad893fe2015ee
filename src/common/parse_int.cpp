#include "common/parse_int.hpp"

#include <cctype>
#include <stdexcept>

namespace avmon {

std::string readUInt(const std::string& v, std::uint64_t max,
                     std::uint64_t& out) {
  const auto notUInt = [&] {
    return "expected an unsigned integer, got '" + v + "'";
  };
  const auto outOfRange = [&] {
    return "'" + v + "' is out of range (at most " + std::to_string(max) + ")";
  };
  if (v.empty() || !std::isdigit(static_cast<unsigned char>(v[0]))) {
    return notUInt();
  }
  std::size_t used = 0;
  try {
    out = std::stoull(v, &used);
  } catch (const std::out_of_range&) {
    return outOfRange();
  }
  if (used != v.size()) return notUInt();
  return out > max ? outOfRange() : std::string();
}

std::string readInt(const std::string& v, std::int64_t& out) {
  const std::size_t firstDigit = !v.empty() && v[0] == '-' ? 1 : 0;
  std::size_t used = 0;
  if (v.size() > firstDigit &&
      std::isdigit(static_cast<unsigned char>(v[firstDigit]))) {
    try {
      out = std::stoll(v, &used);
    } catch (const std::out_of_range&) {
      return "'" + v + "' is out of range";
    }
  }
  if (used == 0 || used != v.size()) {
    return "expected an integer, got '" + v + "'";
  }
  return std::string();
}

}  // namespace avmon
