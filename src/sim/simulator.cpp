#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace avmon::sim {

Simulator::Simulator() : buckets_(kBucketCount) {}

void Simulator::at(SimTime when, Action action) {
  AVMON_DET_CHECK(detTag, "Simulator::at");
  if (when < now_) when = now_;
  if (size_ == 0) cursor_ = now_;  // empty queue: re-anchor the window
  ++size_;
  if (static_cast<std::uint64_t>(when - cursor_) < kBucketCount) {
    bucketFor(when).push(std::move(action));
    ++ringCount_;
  } else {
    if (freeSlots_.empty()) {
      // A fresh page's slots, stacked so the lowest is taken first.
      const auto base =
          static_cast<std::uint32_t>(pages_.size() * kOverflowPageSlots);
      pages_.push_back(std::make_unique<OverflowPage>());
      for (std::uint32_t i = kOverflowPageSlots; i > 0; --i) {
        freeSlots_.push_back(base + i - 1);
      }
    }
    const std::uint32_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    slotAction(slot) = std::move(action);
    overflow_.push_back(OverflowKey{when, nextSeq_++, slot});
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
  }
}

void Simulator::every(SimTime firstAt, SimDuration period,
                      std::function<bool()> keepGoing) {
  at(firstAt, [this, period, fn = std::move(keepGoing)]() mutable {
    if (!fn()) return;
    every(now_ + period, period, std::move(fn));
  });
}

void Simulator::promote() {
  const SimTime limit = cursor_ + static_cast<SimTime>(kBucketCount);
  while (!overflow_.empty() && overflow_.front().when < limit) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    const OverflowKey key = overflow_.back();
    overflow_.pop_back();
    bucketFor(key.when).push(std::move(slotAction(key.slot)));
    freeSlots_.push_back(key.slot);
    ++ringCount_;
  }
}

SimTime Simulator::nextEventTime() const noexcept {
  if (size_ == 0) return kNoPendingEvent;
  SimTime best = kNoPendingEvent;
  if (ringCount_ > 0) {
    // Every ring event lives in [cursor_, cursor_ + kBucketCount), and the
    // bucket at (t & kMask) holds exactly the events at time t within that
    // window — so the first occupied bucket in window order is the minimum.
    for (std::size_t off = 0; off < kBucketCount; ++off) {
      const SimTime t = cursor_ + static_cast<SimTime>(off);
      if (!buckets_[static_cast<std::size_t>(t) & kMask].empty()) {
        best = t;
        break;
      }
    }
  }
  if (!overflow_.empty() && overflow_.front().when < best) {
    best = overflow_.front().when;
  }
  return best;
}

bool Simulator::findNext(SimTime until) {
  if (size_ == 0) return false;
  for (;;) {
    if (!bucketFor(cursor_).empty()) return cursor_ <= until;
    if (cursor_ >= until) return false;
    if (ringCount_ == 0) {
      // Everything pending lives in the overflow tier: jump the window
      // straight to its head instead of walking empty buckets.
      cursor_ = std::min(until, overflow_.front().when);
    } else {
      ++cursor_;
    }
    promote();
  }
}

void Simulator::runUntil(SimTime until) {
  AVMON_DET_CHECK(detTag, "Simulator::runUntil");
  while (findNext(until)) {
    InlineAction action = bucketFor(cursor_).pop();
    --ringCount_;
    --size_;
    now_ = cursor_;
    ++executed_;
    action();
  }
  if (now_ < until) now_ = until;
}

bool Simulator::step() {
  AVMON_DET_CHECK(detTag, "Simulator::step");
  if (!findNext(std::numeric_limits<SimTime>::max())) return false;
  InlineAction action = bucketFor(cursor_).pop();
  --ringCount_;
  --size_;
  now_ = cursor_;
  ++executed_;
  action();
  return true;
}

}  // namespace avmon::sim
