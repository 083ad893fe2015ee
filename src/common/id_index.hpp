// Dense indices for node ids: a flat open-addressing map from a NodeId to
// the std::uint32_t it was first inserted as (0, 1, 2, ... in insertion
// order).
//
// The simulator resolves an id to a dense index on every send, hand-off
// and memoized consistency check, so the map is one power-of-two array of
// 16-byte slots, kept at most half full and probed linearly from the id's
// home slot: std::hash<NodeId>'s value, the splitmix64 finalizer of the
// packed 48-bit id. Ids are only ever added (there is no erase), and the
// nil id is a key like any other. A lookup allocates nothing; an insert
// allocates only when the table doubles.
//
// Thread safety: find() only reads, so any number of threads may call it
// at once, but only while nothing inserts. The simulator fills the global
// index before a run (ShardedSimulator::registerNode); each shard's Network
// and selector memo own an index of their own that only that shard's
// current thread touches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/node_id.hpp"
#include "common/rng.hpp"

namespace avmon {

class IdIndex {
 public:
  /// find()'s answer for an id that was never inserted.
  static constexpr std::uint32_t kAbsent = 0xFFFFFFFFu;

  struct Insertion {
    std::uint32_t index;  ///< the id's index, new or existing
    bool inserted;        ///< true iff this call added the id
  };

  /// Gives `id` the next index (size() before the call) unless it already
  /// has one; returns its index either way.
  Insertion insert(const NodeId& id) {
    const std::uint64_t key = id.packed() | kOccupied;
    if (!slots_.empty()) {
      const Slot& slot = slots_[probe(key)];
      if (slot.key == key) return {slot.index, false};
    }
    if (2 * (count_ + 1) > slots_.size()) grow();
    slots_[probe(key)] = Slot{key, count_};
    return {count_++, true};
  }

  /// The index `id` was inserted as, or kAbsent.
  std::uint32_t find(const NodeId& id) const noexcept {
    if (slots_.empty()) return kAbsent;
    const std::uint64_t key = id.packed() | kOccupied;
    const Slot& slot = slots_[probe(key)];
    return slot.key == key ? slot.index : kAbsent;
  }

  /// Ids inserted so far; the next insert's index.
  std::uint32_t size() const noexcept { return count_; }

 private:
  // key is the packed id with kOccupied set, so an empty slot (key 0)
  // cannot be mistaken for the nil id.
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t index = 0;
  };
  static constexpr std::uint64_t kOccupied = std::uint64_t{1} << 48;
  static constexpr std::size_t kMinSlots = 16;

  // The slot holding `key`, or the empty slot where it would go.
  std::size_t probe(std::uint64_t key) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i =
        static_cast<std::size_t>(splitmix64Mix(key & ~kOccupied)) & mask;
    while (slots_[i].key != key && slots_[i].key != 0) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? kMinSlots : 2 * old.size(), Slot{});
    for (const Slot& slot : old) {
      if (slot.key != 0) slots_[probe(slot.key)] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::uint32_t count_ = 0;
};

}  // namespace avmon
