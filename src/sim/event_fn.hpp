// Move-only small-buffer completions for the event kernel and every
// per-access interface.
//
// std::function heap-allocates any closure larger than its (typically 16B)
// inline buffer, which puts one malloc/free pair on the critical path of
// every scheduled event and every memory access. Callback<Args...> widens
// the inline buffer to 56 bytes and is move-only, so callables never need
// to be copyable and a move is a flat memcpy-sized relocation. A trivially
// copyable inline callable (the usual closure over `this` and a record
// pointer) has no relocate function at all: a move copies the buffer and a
// reset just forgets it, with no indirect call. EventFn is
// the argument-free case the scheduler stores; the memory path uses the
// typed forms (Callback<PhysAddr>, Callback<const WalkResult&>, ...).
//
// A continuation is type-erased only when it has to wait: parked in a
// pooled record, queued, or scheduled. Mmu::translate and
// MemoryBus::request take any callable and call it directly when the
// access completes in place (an inline or run-ahead TLB hit, a request on
// an idle channel), so that path builds, moves and calls no Callback.
//
// 56 bytes holds `this` plus a handful of words — the shape of every hot
// closure, which captures an owner and a pointer to a pooled record. It
// does NOT hold another Callback (64+ bytes with its two function
// pointers), so a closure that captures a closure always spills to the
// heap; per-access paths keep the continuation in the pooled record
// instead. Oversized or over-aligned callables still work, through a heap
// fallback; behavior is identical either way.
#pragma once

#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

namespace vmsls::sim {

template <typename... Args>
class Callback {
 public:
  /// Inline storage, sized so EventNode (16B header + vtable-free 16B ops +
  /// storage) stays within 96 bytes — 1.5 cache lines per pooled event.
  static constexpr std::size_t kInlineBytes = 56;
  static constexpr std::size_t kInlineAlign = alignof(void*);

  Callback() noexcept = default;
  Callback(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                        std::is_invocable_v<D&, Args...>>>
  Callback(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      invoke_ = &inline_invoke<D>;
      if constexpr (std::is_trivially_copyable_v<D> && std::is_trivially_destructible_v<D>) {
        // Moves copy the whole buffer: define the bytes past the callable.
        std::memset(storage_ + sizeof(D), 0, kInlineBytes - sizeof(D));
      } else {
        relocate_ = &inline_relocate<D>;
      }
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(f));
      invoke_ = &heap_invoke<D>;
      relocate_ = &heap_relocate<D>;
    }
  }

  Callback(Callback&& other) noexcept { move_from(other); }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  void operator()(Args... args) { invoke_(storage_, std::forward<Args>(args)...); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  /// Destroys the held callable (no-op when empty).
  void reset() noexcept {
    if (invoke_ != nullptr) {
      if (relocate_ != nullptr) relocate_(storage_, nullptr);
      invoke_ = nullptr;
      relocate_ = nullptr;
    }
  }

  template <typename D>
  static constexpr bool fits_inline() noexcept {
    return sizeof(D) <= kInlineBytes && alignof(D) <= kInlineAlign &&
           std::is_nothrow_move_constructible_v<D>;
  }

 private:
  // Relocate = move-construct into `dst` and destroy `src`; destroy-only
  // when `dst` is null. One pointer covers move, destroy, and heap free;
  // null for a trivially copyable inline callable.
  using Invoke = void (*)(void*, Args...);
  using Relocate = void (*)(void* src, void* dst) noexcept;

  template <typename D>
  static void inline_invoke(void* s, Args... args) {
    (*static_cast<D*>(s))(std::forward<Args>(args)...);
  }
  template <typename D>
  static void inline_relocate(void* src, void* dst) noexcept {
    D* f = static_cast<D*>(src);
    if (dst != nullptr) ::new (dst) D(std::move(*f));
    f->~D();
  }
  template <typename D>
  static void heap_invoke(void* s, Args... args) {
    (**static_cast<D**>(s))(std::forward<Args>(args)...);
  }
  template <typename D>
  static void heap_relocate(void* src, void* dst) noexcept {
    D** p = static_cast<D**>(src);
    if (dst != nullptr)
      *static_cast<D**>(dst) = *p;
    else
      delete *p;
  }

  void move_from(Callback& other) noexcept {
    invoke_ = other.invoke_;
    relocate_ = other.relocate_;
    if (invoke_ != nullptr) {
      if (relocate_ != nullptr)
        relocate_(other.storage_, storage_);
      else
        std::memcpy(storage_, other.storage_, kInlineBytes);
      other.invoke_ = nullptr;
      other.relocate_ = nullptr;
    }
  }

  Invoke invoke_ = nullptr;
  Relocate relocate_ = nullptr;
  alignas(kInlineAlign) unsigned char storage_[kInlineBytes];
};

/// The scheduler's event callback: a Callback taking no arguments.
using EventFn = Callback<>;

}  // namespace vmsls::sim
