// UniqueFunction: a move-only `void()` callable with small-buffer storage.
//
// The event queue keeps one per scheduled event in a slot that never moves,
// builds the callable there with Emplace and runs it in place (DESIGN.md
// §18). std::function is copyable, which forces every capture to be copyable
// and (for most captures) heap-allocates; this wrapper accepts move-only
// captures (Packet, unique_ptr, sockets) and keeps callables up to
// kInlineBytes inline, so the common scheduling path does not allocate.
#ifndef MSN_SRC_UTIL_FUNCTION_H_
#define MSN_SRC_UTIL_FUNCTION_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace msn {

class UniqueFunction {
 public:
  // Large enough for a handful of captured pointers plus a Packet-sized
  // handle; measured against the event-engine microbench before changing.
  static constexpr size_t kInlineBytes = 80;

  UniqueFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, UniqueFunction> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    Emplace(std::forward<F>(f));
  }

  UniqueFunction(UniqueFunction&& other) noexcept { MoveFrom(other); }

  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { Reset(); }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const { return ops_ != nullptr; }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  // Replaces the held callable with one constructed in place from `f`: a
  // single move (or copy, for an lvalue) of the capture.
  template <typename F>
  void Emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(!std::is_same_v<Fn, UniqueFunction>, "move-assign a UniqueFunction instead");
    Reset();
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
      ops_ = &kHeapOps<Fn>;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Moves the callable from `from` into raw `to` storage, then destroys the
    // moved-from object.
    void (*relocate)(void* from, void* to);
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* storage) { (*std::launder(reinterpret_cast<Fn*>(storage)))(); },
      [](void* from, void* to) {
        Fn* src = std::launder(reinterpret_cast<Fn*>(from));
        ::new (to) Fn(std::move(*src));
        src->~Fn();
      },
      [](void* storage) { std::launder(reinterpret_cast<Fn*>(storage))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* storage) { (**reinterpret_cast<Fn**>(storage))(); },
      [](void* from, void* to) {
        *reinterpret_cast<Fn**>(to) = *reinterpret_cast<Fn**>(from);
      },
      [](void* storage) { delete *reinterpret_cast<Fn**>(storage); },
  };

  void MoveFrom(UniqueFunction& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(other.storage_, storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes] = {};
  const Ops* ops_ = nullptr;
};

}  // namespace msn

#endif  // MSN_SRC_UTIL_FUNCTION_H_
