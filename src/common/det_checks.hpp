// Debug-only shard-ownership sentinel (the dynamic half of the
// determinism guardrails; avmon_lint is the static half).
//
// The sharded simulator's bit-identical-across-shard-counts guarantee
// holds only if, while a window phase is running, every schedule/send/draw
// on shard-owned state (Simulator, Network, Rng) comes from the worker
// that owns that shard — or from a sanctioned barrier activity such as
// draining hand-off buffers into a destination shard. This header makes
// that ownership discipline assertable:
//
//   * ShardedSimulator tags each shard's Simulator and Network with
//     (domain, shard) at construction; objects derived from shard state
//     (per-sender network streams, node RNGs) inherit the tag via
//     AVMON_DET_BIND_LIKE.
//   * Every hot entry point carries an AVMON_DET_CHECK. The check passes
//     when the object is untagged (plain single-threaded use), when the
//     calling thread holds the matching shard scope, when it is inside a
//     sanctioned scope (barrier/router work), or when the object's domain
//     has no window phase in flight (setup, probes between runs).
//   * On violation it prints a "determinism sentinel" diagnostic and
//     aborts — loud enough for death tests and CI.
//
// Everything compiles away unless AVMON_DET_CHECKS is defined (the
// AVMON_DET_CHECKS=ON CMake option; CI enables it under TSan). With the
// checks off, the macros expand to nothing and the tagged classes keep
// their exact untagged layout and triviality.
#pragma once

#ifdef AVMON_DET_CHECKS

#include <atomic>
#include <cstdint>

namespace avmon::det {

/// One checking domain == one ShardedSimulator world. Per-instance (not
/// global) so concurrent worlds — e.g. under ParallelScenarioRunner —
/// check against their own phase flag only.
class Domain {
 public:
  void setInPhase(bool active) noexcept {
    inPhase_.store(active, std::memory_order_release);
  }
  bool inPhase() const noexcept {
    return inPhase_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> inPhase_{false};
};

/// Prints the diagnostic (always containing "determinism sentinel") and
/// aborts.
[[noreturn]] void sentinelFail(const char* what, std::uint32_t ownerShard);

namespace internal {
struct TlsContext {
  const Domain* domain = nullptr;
  std::uint32_t shard = 0;
  bool scoped = false;  // a ShardScope is active on this thread
  int sanction = 0;     // depth of SanctionScope nesting
};
TlsContext& tls() noexcept;
}  // namespace internal

/// Ownership tag embedded in Simulator/Network/Rng. Plain members (no
/// atomics): bindings are written during setup or by the owning worker
/// itself, with thread spawn/join providing the ordering — so tagged
/// classes stay trivially copyable if they were before, and copies
/// (e.g. per-sender streams rehashing inside a container) keep their
/// binding.
class OwnerTag {
 public:
  void bind(const Domain* domain, std::uint32_t shard) noexcept {
    shard_ = shard;
    domain_ = domain;
  }
  void bindLike(const OwnerTag& other) noexcept {
    bind(other.domain_, other.shard_);
  }
  void unbind() noexcept { domain_ = nullptr; }
  bool bound() const noexcept { return domain_ != nullptr; }

  void check(const char* what) const noexcept {
    if (domain_ == nullptr) return;  // untagged: plain simulator use
    const internal::TlsContext& ctx = internal::tls();
    if (ctx.sanction > 0) return;
    if (ctx.scoped) {
      if (ctx.domain == domain_ && ctx.shard == shard_) return;
      sentinelFail(what, shard_);
    }
    // No shard scope on this thread: legal only while the object's world
    // has no window phase in flight (setup, probing between runs).
    if (!domain_->inPhase()) return;
    sentinelFail(what, shard_);
  }

 private:
  const Domain* domain_ = nullptr;
  std::uint32_t shard_ = 0;
};

/// RAII: this thread owns `shard` of `domain` for the scope's lifetime.
class ShardScope {
 public:
  ShardScope(const Domain* domain, std::uint32_t shard) noexcept
      : saved_(internal::tls()) {
    internal::TlsContext& ctx = internal::tls();
    ctx.domain = domain;
    ctx.shard = shard;
    ctx.scoped = true;
  }
  ~ShardScope() { internal::tls() = saved_; }
  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;

 private:
  internal::TlsContext saved_;
};

/// RAII: everything inside is sanctioned regardless of ownership (escape
/// hatch for deliberate cross-shard work; currently unused by the core,
/// available to tests and future routers).
class SanctionScope {
 public:
  SanctionScope() noexcept { ++internal::tls().sanction; }
  ~SanctionScope() { --internal::tls().sanction; }
  SanctionScope(const SanctionScope&) = delete;
  SanctionScope& operator=(const SanctionScope&) = delete;
};

/// RAII: marks a window phase as in flight on `domain` (set by the
/// coordinator around the parallel phases).
class PhaseScope {
 public:
  explicit PhaseScope(Domain& domain) noexcept : domain_(domain) {
    domain_.setInPhase(true);
  }
  ~PhaseScope() { domain_.setInPhase(false); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Domain& domain_;
};

}  // namespace avmon::det

#define AVMON_DET_TAG(name) ::avmon::det::OwnerTag name
#define AVMON_DET_DOMAIN(name) ::avmon::det::Domain name
#define AVMON_DET_BIND(tag, domainPtr, shard) \
  (tag).bind((domainPtr), static_cast<std::uint32_t>(shard))
#define AVMON_DET_BIND_LIKE(tag, other) (tag).bindLike(other)
#define AVMON_DET_UNBIND(tag) (tag).unbind()
#define AVMON_DET_CHECK(tag, what) (tag).check(what)
#define AVMON_DET_SHARD_SCOPE(domainPtr, shard)          \
  ::avmon::det::ShardScope avmonDetShardScope {          \
    (domainPtr), static_cast<std::uint32_t>(shard)       \
  }
#define AVMON_DET_PHASE_SCOPE(domainRef) \
  ::avmon::det::PhaseScope avmonDetPhaseScope { (domainRef) }

#else  // !AVMON_DET_CHECKS

// With the sentinel compiled out every macro vanishes; tag/domain members
// expand to nothing (a stray ';' after the member macro is legal at class
// scope) and call-site macros to a void no-op.
#define AVMON_DET_TAG(name) static_assert(true, "")
#define AVMON_DET_DOMAIN(name) static_assert(true, "")
#define AVMON_DET_BIND(tag, domainPtr, shard) ((void)0)
#define AVMON_DET_BIND_LIKE(tag, other) ((void)0)
#define AVMON_DET_UNBIND(tag) ((void)0)
#define AVMON_DET_CHECK(tag, what) ((void)0)
#define AVMON_DET_SHARD_SCOPE(domainPtr, shard) ((void)0)
#define AVMON_DET_PHASE_SCOPE(domainRef) ((void)0)

#endif  // AVMON_DET_CHECKS
