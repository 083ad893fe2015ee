// Discrete-event simulation core.
//
// A Simulator owns a time-ordered collection of closures. Events scheduled
// for the same instant run in scheduling order, which keeps runs
// deterministic: the execution order is exactly (when, seq), where seq is
// the global scheduling sequence number.
//
// Every pending closure lives in one slot pool: fixed pages of kPageSlots
// slots, each an InlineAction plus a 4-byte link to the next slot.
// Scheduling moves the closure into a free slot once; after that only its
// 4-byte slot index moves, and the closure runs, and is destroyed, where
// it was stored. Free slots form a LIFO list through the same links, so
// the warmest slot is taken first and the pool holds the peak number of
// pending events rounded up to a page. Pages are never moved or freed
// before the simulator, so a running action may schedule freely.
//
// The slots are ordered by a two-tier calendar queue tuned for the
// protocol workload (integral-millisecond timestamps, dense near-future
// traffic from network latencies, sparse far-future traffic from
// minute-scale periodic timers):
//
//  * Near tier: a power-of-two ring of kBucketCount one-millisecond FIFO
//    buckets covering [cursor, cursor + kBucketCount). A bucket is the
//    (head, tail) pair of a linked slot list, so scheduling into the
//    window and firing from it are O(1). Same-instant events share one
//    bucket and run back-to-back as a batch — no per-event heap pop
//    between them.
//  * Overflow tier: a binary min-heap of (when, seq, slot) keys for events
//    beyond the window; heap sifts move 24-byte keys, never closures. As
//    the cursor advances, due overflow events are promoted (their slots
//    appended to their buckets) in (when, seq) order *before* any new
//    event can be scheduled at those times, so bucket FIFO order remains
//    global (when, seq) order and seeded runs are bit-identical to the
//    classic single-heap scheduler this replaced.
//
// Closures are stored as sim::InlineAction (small-buffer optimized), so the
// common schedule/fire cycle performs zero heap allocations.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/det_checks.hpp"
#include "common/time.hpp"
#include "sim/inline_action.hpp"

namespace avmon::sim {

/// Deterministic single-threaded discrete-event scheduler.
class Simulator {
 public:
  using Action = InlineAction;

  /// Ring span in buckets (= milliseconds). Covers every latency-scale
  /// delay the network model produces; minute-scale timers overflow to the
  /// heap tier and are promoted as the window reaches them.
  static constexpr std::size_t kBucketCount = 8192;

  /// Slots per page of the event store. A slot is a 96-byte action plus
  /// a 4-byte link, so a page is 100 KiB: under glibc's 128 KiB mmap
  /// threshold, so pages come from the malloc arena, and the most a
  /// simulator with a handful of pending events holds. Each of
  /// wide_sparse's four shards (25 000 nodes) peaks at ~162 500 pending
  /// events, 159 pages; stat_dense's one shard peaks at 13 100, 13 pages.
  /// That is one allocation per 1 024 events of peak, and none once the
  /// pending population is steady, because every fired event frees the
  /// slot that the next scheduling takes.
  static constexpr std::size_t kPageSlots = 1024;

  Simulator();

  // The queue stores closures that may capture `this`; moving the simulator
  // would dangle them.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Starts at 0.
  SimTime now() const noexcept { return now_; }

  /// Schedules `action` at absolute time `when`. Scheduling in the past is
  /// clamped to `now()` (runs as soon as the current event finishes).
  void at(SimTime when, Action action);

  /// Shard-ownership tag for the determinism sentinel (see
  /// common/det_checks.hpp); expands to nothing unless AVMON_DET_CHECKS.
  AVMON_DET_TAG(detTag);

  /// Schedules `action` after the given delay from `now()`.
  void after(SimDuration delay, Action action) { at(now_ + delay, std::move(action)); }

  /// Schedules `action` every `period`, first firing at `firstAt`. The
  /// callback receives no arguments; cancel by returning false from `keepGoing`.
  void every(SimTime firstAt, SimDuration period,
             std::function<bool()> keepGoing);

  /// Runs events until the queue is empty or simulated time would exceed
  /// `until`. Events exactly at `until` are executed.
  void runUntil(SimTime until);

  /// Executes the single earliest pending event. Returns false if none.
  bool step();

  /// Number of pending events (for tests).
  std::size_t pendingEvents() const noexcept { return size_; }

  /// Sentinel returned by nextEventTime() when nothing is pending.
  static constexpr SimTime kNoPendingEvent =
      std::numeric_limits<SimTime>::max();

  /// Time of the earliest pending event without executing or repositioning
  /// anything, or kNoPendingEvent. Used by the sharded driver to skip idle
  /// windows; O(ring span) worst case when the queue is sparse, O(first
  /// occupied bucket) when it is busy.
  SimTime nextEventTime() const noexcept;

  /// Total events executed so far (for tests and sanity checks).
  std::uint64_t executedEvents() const noexcept { return executed_; }

  /// Events currently waiting in the overflow tier (for tests/benches).
  std::size_t overflowEvents() const noexcept { return overflow_.size(); }

  /// Slots the event store holds, free or not: whole pages, so a multiple
  /// of kPageSlots (for tests/benches).
  std::size_t slotCapacity() const noexcept {
    return pages_.size() * kPageSlots;
  }

 private:
  static constexpr std::size_t kMask = kBucketCount - 1;
  static_assert((kBucketCount & kMask) == 0, "ring size must be a power of 2");
  static_assert((kPageSlots & (kPageSlots - 1)) == 0,
                "page size must be a power of 2");

  /// Link value ending a slot list.
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  // A page of slots: slot i's action and the index of the slot after it
  // in its bucket or in the free list. A free slot holds an empty action.
  struct Page {
    std::array<InlineAction, kPageSlots> actions;
    std::array<std::uint32_t, kPageSlots> next;
  };

  // One calendar bucket: a FIFO list of slots, linked through Page::next.
  // `tail` is meaningful only while `head` is not kNoSlot.
  struct Bucket {
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;

    bool empty() const noexcept { return head == kNoSlot; }
  };

  // An overflow event's heap entry; its action waits in slot `slot`.
  struct OverflowKey {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const OverflowKey& a, const OverflowKey& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  Bucket& bucketFor(SimTime when) noexcept {
    return buckets_[static_cast<std::size_t>(when) & kMask];
  }

  InlineAction& actionOf(std::uint32_t slot) noexcept {
    return pages_[slot / kPageSlots]->actions[slot % kPageSlots];
  }
  std::uint32_t& nextOf(std::uint32_t slot) noexcept {
    return pages_[slot / kPageSlots]->next[slot % kPageSlots];
  }

  // Takes the warmest free slot, adding a page when none is free.
  std::uint32_t takeSlot();
  // Links `slot` at the tail of `bucket`.
  void append(Bucket& bucket, std::uint32_t slot) noexcept;

  // Positions the cursor on the next pending event. Returns true iff that
  // event's time is <= until; never advances the cursor past `until` (so
  // the ring window stays valid for later insertions at the boundary).
  bool findNext(SimTime until);

  // Moves every overflow event inside the current window into its bucket,
  // in (when, seq) order.
  void promote();

  // Unlinks the cursor bucket's head event and runs it in its slot; the
  // slot is reset and freed when the action returns or throws.
  void fireNext();

  std::vector<Bucket> buckets_;
  std::vector<OverflowKey> overflow_;  // binary min-heap via std::*_heap
  std::vector<std::unique_ptr<Page>> pages_;
  std::uint32_t freeHead_ = kNoSlot;  ///< LIFO free list: the warmest first
  SimTime cursor_ = 0;      ///< lowest time mapped by the ring window
  std::size_t ringCount_ = 0;  ///< events currently in ring buckets
  std::size_t size_ = 0;       ///< total pending events (ring + overflow)
  SimTime now_ = 0;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace avmon::sim
