#include "hash/hash_function.hpp"

#include <array>
#include <stdexcept>

#include "common/rng.hpp"
#include "hash/md5.hpp"
#include "hash/sha1.hpp"

namespace avmon::hash {
namespace {

std::uint64_t first64BigEndian(const std::uint8_t* d) noexcept {
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i) x = (x << 8) | d[i];
  return x;
}

constexpr int kIdBytes = 6;  // one packed id of a pair message

// splitmix64's byte fold: one step per input byte, in message order.
constexpr std::uint64_t kFoldSeed = 0x243F6A8885A308D3ULL;  // pi fraction
std::uint64_t foldByte(std::uint64_t acc, std::uint8_t b) noexcept {
  return (acc ^ b) * 0x100000001B3ULL;
}

// Folds one packed id's six bytes, big-endian.
std::uint64_t foldId(std::uint64_t acc, std::uint64_t id48) noexcept {
  for (int shift = 8 * (kIdBytes - 1); shift >= 0; shift -= 8)
    acc = foldByte(acc, static_cast<std::uint8_t>(id48 >> shift));
  return acc;
}

}  // namespace

std::uint64_t HashFunction::digestPair(std::uint64_t a48,
                                       std::uint64_t b48) const {
  std::array<std::uint8_t, 2 * kIdBytes> msg{};
  for (int i = 0; i < kIdBytes; ++i) {
    const int shift = 8 * (kIdBytes - 1 - i);
    msg[i] = static_cast<std::uint8_t>(a48 >> shift);
    msg[kIdBytes + i] = static_cast<std::uint8_t>(b48 >> shift);
  }
  return digest64(msg);
}

void HashFunction::digestCross(const std::vector<std::uint64_t>& rows48,
                               const std::vector<std::uint64_t>& cols48,
                               const std::vector<CrossPair>& pairs,
                               std::vector<std::uint64_t>& out) const {
  out.resize(2 * pairs.size());
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const std::uint64_t r = rows48[pairs[k].row];
    const std::uint64_t c = cols48[pairs[k].col];
    out[2 * k] = digestPair(r, c);
    out[2 * k + 1] = digestPair(c, r);
  }
}

std::uint64_t Md5HashFunction::digest64(
    ByteSpan data) const {
  const Md5::Digest d = Md5::digest(data);
  return first64BigEndian(d.data());
}

std::uint64_t Sha1HashFunction::digest64(
    ByteSpan data) const {
  const Sha1::Digest d = Sha1::digest(data);
  return first64BigEndian(d.data());
}

std::uint64_t SplitMix64HashFunction::digest64(
    ByteSpan data) const {
  // Fold bytes into the state with a multiply between words, then finish
  // with the splitmix64 finalizer. Equivalent structure to FNV-then-mix.
  std::uint64_t acc = kFoldSeed;
  for (std::uint8_t b : data) acc = foldByte(acc, b);
  return splitmix64Mix(acc);
}

std::uint64_t SplitMix64HashFunction::digestPair(std::uint64_t a48,
                                                 std::uint64_t b48) const {
  // The same fold over the same 12 bytes, read straight from the packed
  // ids: big-endian, a before b.
  return splitmix64Mix(foldId(foldId(kFoldSeed, a48), b48));
}

void SplitMix64HashFunction::digestCross(
    const std::vector<std::uint64_t>& rows48,
    const std::vector<std::uint64_t>& cols48,
    const std::vector<CrossPair>& pairs,
    std::vector<std::uint64_t>& out) const {
  // A pair message starts with one whole id, so the fold state after it is
  // a per-id value: compute it once per id, then finish each digest with
  // the other id's six bytes. Per-thread scratch keeps this const path
  // free of shared mutable state (one instance serves every shard).
  thread_local std::vector<std::uint64_t> rowHeads;
  thread_local std::vector<std::uint64_t> colHeads;
  rowHeads.resize(rows48.size());
  colHeads.resize(cols48.size());
  for (std::size_t i = 0; i < rows48.size(); ++i)
    rowHeads[i] = foldId(kFoldSeed, rows48[i]);
  for (std::size_t j = 0; j < cols48.size(); ++j)
    colHeads[j] = foldId(kFoldSeed, cols48[j]);
  out.resize(2 * pairs.size());
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const CrossPair p = pairs[k];
    out[2 * k] = splitmix64Mix(foldId(rowHeads[p.row], cols48[p.col]));
    out[2 * k + 1] = splitmix64Mix(foldId(colHeads[p.col], rows48[p.row]));
  }
}

std::unique_ptr<HashFunction> makeHashFunction(const std::string& name) {
  if (name == "md5") return std::make_unique<Md5HashFunction>();
  if (name == "sha1") return std::make_unique<Sha1HashFunction>();
  if (name == "splitmix64") return std::make_unique<SplitMix64HashFunction>();
  throw std::invalid_argument("unknown hash function: " + name);
}

bool isKnownHashName(const std::string& name) {
  return name == "md5" || name == "sha1" || name == "splitmix64";
}

}  // namespace avmon::hash
