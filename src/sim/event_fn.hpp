// EventFn: a move-only callable with small-buffer optimisation, sized for
// the simulator's event closures.
//
// std::function is the wrong tool for a discrete-event hot path twice over:
// it requires copyability (forcing every captured Message to be copyable
// even though events fire exactly once), and libstdc++'s inline buffer is
// 16 bytes, so a delivery closure capturing a Message always heap-allocates.
// EventFn accepts move-only captures and inlines anything up to
// kInlineBytes (chosen to fit the largest closure SimNetwork schedules: a
// delivery carrying a SessionPush payload); larger or
// potentially-throwing-on-move callables fall back to the heap. The
// simulator builds each closure straight into its slab slot with emplace()
// and invokes it there, so a scheduled closure is moved exactly once.
#ifndef FASTCONS_SIM_EVENT_FN_HPP
#define FASTCONS_SIM_EVENT_FN_HPP

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace fastcons {

class EventFn {
 public:
  /// Inline capacity in bytes. Large enough for a simulated message
  /// delivery (SimNetwork's Delivery: network, receiver, slot, Message)
  /// without a heap allocation.
  static constexpr std::size_t kInlineBytes = 120;

  /// Whether a callable of type D is stored inline (no heap allocation).
  /// Inline storage additionally requires a noexcept move, because
  /// EventFn's own move is noexcept.
  template <typename D>
  static constexpr bool stores_inline =
      sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  EventFn() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventFn(F&& fn) {  // NOLINT(google-explicit-constructor): function-like
    construct(std::forward<F>(fn));
  }

  /// Replaces the wrapped callable with `fn`, constructed in place: one
  /// move (or copy) of `fn` and no intermediate EventFn. If constructing
  /// the callable throws, *this is left empty.
  template <typename F>
  void emplace(F&& fn) {
    using D = std::decay_t<F>;
    static_assert(!std::is_same_v<D, EventFn> &&
                      std::is_invocable_r_v<void, D&>,
                  "emplace a void() callable, not an EventFn");
    reset();
    construct(std::forward<F>(fn));
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  /// Invokes the wrapped callable. Precondition: engaged.
  void operator()() { vt_->invoke(storage_); }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(storage_);
      vt_ = nullptr;
    }
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void*) noexcept;
  };

  // Precondition: empty. Sets vt_ only once the callable exists, so a
  // throwing constructor leaves *this empty.
  template <typename F>
  void construct(F&& fn) {
    using D = std::decay_t<F>;
    if constexpr (stores_inline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      vt_ = &kInlineVt<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      vt_ = &kHeapVt<D>;
    }
  }

  template <typename D>
  static D* inline_ptr(void* s) noexcept {
    return std::launder(reinterpret_cast<D*>(s));
  }
  template <typename D>
  static D*& heap_ptr(void* s) noexcept {
    return *std::launder(reinterpret_cast<D**>(s));
  }

  template <typename D>
  static constexpr VTable kInlineVt{
      [](void* s) { (*inline_ptr<D>(s))(); },
      [](void* from, void* to) noexcept {
        D* f = inline_ptr<D>(from);
        ::new (to) D(std::move(*f));
        f->~D();
      },
      [](void* s) noexcept { inline_ptr<D>(s)->~D(); },
  };

  template <typename D>
  static constexpr VTable kHeapVt{
      [](void* s) { (*heap_ptr<D>(s))(); },
      [](void* from, void* to) noexcept {
        ::new (to) D*(heap_ptr<D>(from));
      },
      [](void* s) noexcept { delete heap_ptr<D>(s); },
  };

  void move_from(EventFn& other) noexcept {
    if (other.vt_ != nullptr) {
      other.vt_->relocate(other.storage_, storage_);
      vt_ = other.vt_;
      other.vt_ = nullptr;
    }
  }

  const VTable* vt_ = nullptr;
  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
};

}  // namespace fastcons

#endif  // FASTCONS_SIM_EVENT_FN_HPP
