// Small-buffer-optimized callable for the simulator's event queue.
//
// The event loop's hot cycle is schedule → store → fire → destroy, millions
// of times per run. std::function heap-allocates any capture larger than its
// ~16-byte SBO, which made every scheduled network delivery an allocation.
// InlineAction embeds captures up to kInlineCapacity bytes (sized so the
// largest hot-path closure — an RPC request leg carrying a sim::RpcRequest
// variant and its ticket — fits) directly in the event record; larger
// closures fall back to one heap allocation, so correctness never depends
// on the capture size.
//
// Move-only, like the events it carries: an action runs exactly once.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace avmon::sim {

class InlineAction {
 public:
  /// Inline capture capacity in bytes. At least 48 by contract (enough for
  /// a this-pointer plus several words of state); sized in practice for the
  /// network's RPC serve closure (this, sender id, target slot, a 48-byte
  /// request and a 16-byte ticket: 88 bytes), so steady-state scheduling
  /// never allocates. With the 8-byte ops pointer that fills the 96 bytes
  /// the buffer's 16-byte alignment rounds the record up to anyway.
  static constexpr std::size_t kInlineCapacity = 88;
  static_assert(kInlineCapacity >= 48, "contract: >= 48 bytes inline");

  InlineAction() noexcept = default;

  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineAction> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineAction(F&& f) {  // NOLINT(google-explicit-constructor): callable
    using Fn = std::decay_t<F>;
    if constexpr (fitsInline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &inlineOps<Fn>;
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
      ops_ = &heapOps<Fn>;
    }
  }

  InlineAction(InlineAction&& other) noexcept { moveFrom(other); }

  InlineAction& operator=(InlineAction&& other) noexcept {
    if (this != &other) {
      reset();
      moveFrom(other);
    }
    return *this;
  }

  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;

  ~InlineAction() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invokes the stored callable. Undefined if empty.
  void operator()() { ops_->invoke(storage_); }

  /// Destroys the stored callable, leaving the action empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  /// Whether a callable of type F would be stored inline (for tests).
  template <class F>
  static constexpr bool storedInline() noexcept {
    return fitsInline<std::decay_t<F>>();
  }

 private:
  struct Ops {
    void (*invoke)(unsigned char*);
    // Move-constructs into dst from src, then destroys src's callable.
    void (*relocate)(unsigned char* src, unsigned char* dst) noexcept;
    void (*destroy)(unsigned char*) noexcept;
  };

  template <class Fn>
  static constexpr bool fitsInline() noexcept {
    return sizeof(Fn) <= kInlineCapacity &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <class Fn>
  static constexpr Ops inlineOps{
      [](unsigned char* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); },
      [](unsigned char* src, unsigned char* dst) noexcept {
        Fn* f = std::launder(reinterpret_cast<Fn*>(src));
        ::new (static_cast<void*>(dst)) Fn(std::move(*f));
        f->~Fn();
      },
      [](unsigned char* s) noexcept {
        std::launder(reinterpret_cast<Fn*>(s))->~Fn();
      },
  };

  template <class Fn>
  static constexpr Ops heapOps{
      [](unsigned char* s) { (**reinterpret_cast<Fn**>(s))(); },
      [](unsigned char* src, unsigned char* dst) noexcept {
        *reinterpret_cast<Fn**>(dst) = *reinterpret_cast<Fn**>(src);
      },
      [](unsigned char* s) noexcept { delete *reinterpret_cast<Fn**>(s); },
  };

  void moveFrom(InlineAction& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(other.storage_, storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

// Each pending event takes one record in the simulator's slot pages; the
// capacity above spends alignment padding, not a larger record.
static_assert(sizeof(InlineAction) == 96, "an event record is 96 bytes");

}  // namespace avmon::sim
