// Deterministic discrete-event simulator — the substrate that replaces NS-2
// for this reproduction (DESIGN.md S1).
//
// Events are closures ordered by (time, insertion sequence); ties are broken
// by insertion order so runs are bit-for-bit reproducible.
//
// Layout: closures live in a slab with a free list, addressed by index from
// the heap entries; the priority queue is a flat 4-ary min-heap of 24-byte
// entries. The slab grows in fixed-size chunks that never move, so a
// closure is built directly in its slot (schedule_at forwards the callable
// there) and invoked in place: one move per scheduled closure, none of them
// a relocation. Cancellation is O(1) and allocation-free: it bumps the slot's
// generation counter, and the orphaned heap entry is discarded when it
// reaches the top (its recorded generation no longer matches). Handles carry
// (slot, generation), so a handle to a fired or cancelled event can never
// alias a later event that reuses the slot.
#ifndef FASTCONS_SIM_SIMULATOR_HPP
#define FASTCONS_SIM_SIMULATOR_HPP

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "sim/event_fn.hpp"

namespace fastcons {

/// Handle returned by schedule(); can cancel the event before it fires.
class TimerHandle {
 public:
  TimerHandle() = default;

  bool valid() const noexcept { return raw_ != 0; }

 private:
  friend class Simulator;
  TimerHandle(std::uint32_t slot, std::uint32_t generation) noexcept
      : raw_((static_cast<std::uint64_t>(generation) << 32) |
             (static_cast<std::uint64_t>(slot) + 1)) {}
  std::uint32_t slot() const noexcept {
    return static_cast<std::uint32_t>(raw_ & 0xffffffffu) - 1;
  }
  std::uint32_t generation() const noexcept {
    return static_cast<std::uint32_t>(raw_ >> 32);
  }
  std::uint64_t raw_ = 0;
};

/// Single-threaded event-driven simulator.
///
/// The time unit convention is set by the caller; all experiments in this
/// repository use 1.0 == one mean anti-entropy period (see common/types.hpp).
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Starts at 0.
  SimTime now() const noexcept { return now_; }

  /// Schedules `action`, any void() callable, at absolute time `when`;
  /// `when` must not be in the past. The callable is constructed straight
  /// into its slab slot. If that construction throws, the slot is released
  /// and nothing is scheduled. Returns a cancellation handle.
  template <typename F>
  TimerHandle schedule_at(SimTime when, F&& action) {
    check_schedulable(when);
    const std::uint32_t slot = acquire_slot();
    try {
      slot_at(slot).action.emplace(std::forward<F>(action));
    } catch (...) {
      release_slot(slot);
      throw;
    }
    return enqueue(when, slot);
  }

  /// Schedules `action` `delay` from now. `delay` must be >= 0.
  template <typename F>
  TimerHandle schedule_in(SimTime delay, F&& action) {
    FASTCONS_EXPECTS(delay >= 0.0);
    return schedule_at(now_ + delay, std::forward<F>(action));
  }

  /// Cancels a pending event. Safe to call on already-fired, cancelled, or
  /// default-constructed handles; returns whether the event was pending.
  bool cancel(TimerHandle handle) noexcept;

  /// Runs events until the queue drains or stop() is called. Returns the
  /// number of events executed.
  std::uint64_t run();

  /// Runs events with time <= `deadline`, then sets now() = deadline (if
  /// the queue drained earlier, time still advances to the deadline).
  std::uint64_t run_until(SimTime deadline);

  /// Executes at most one event. Returns false when the queue is empty.
  bool step();

  /// Requests run()/run_until() to return after the current event.
  void stop() noexcept { stop_requested_ = true; }

  /// Returns the simulator to its freshly-constructed logical state —
  /// time 0, empty queue, zeroed counters — while retaining the slab and
  /// heap storage, so a pooled simulator schedules its next trial's events
  /// without touching the allocator. Every pending event is discarded
  /// (closure destructors run) and every slot generation is bumped, so
  /// TimerHandles obtained before the reset can never cancel an event
  /// scheduled after it. Must not be called from inside an event (the
  /// running closure lives in the slab).
  void reset() noexcept;

  std::size_t pending_events() const noexcept { return live_; }

  /// Events executed over this simulator's lifetime.
  std::uint64_t events_executed() const noexcept { return executed_; }

  /// Events executed by every Simulator on the calling thread. perfbench
  /// samples this around each trial to measure events per CPU-second
  /// without threading a counter through every trial function.
  static std::uint64_t thread_events_executed() noexcept;

 private:
  static constexpr std::uint32_t kNoFree = 0xffffffffu;
  static constexpr std::uint32_t kChunkBits = 7;  // 128 slots per chunk
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkBits;

  struct Slot {
    EventFn action;
    // Bumped whenever the slot is released (fire or cancel); heap entries
    // and handles recording an older generation are dead.
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoFree;
  };

  struct HeapEntry {
    SimTime when;
    std::uint64_t seq : 40;  // insertion order for deterministic tie-breaking
    std::uint64_t slot : 24;
    std::uint32_t generation;
  };
  static_assert(sizeof(HeapEntry) <= 24);

  static bool entry_before(const HeapEntry& a, const HeapEntry& b) noexcept {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  void heap_push(const HeapEntry& entry);
  void heap_pop_min();
  /// Discards cancelled entries at the top; afterwards heap_ is empty or
  /// heap_[0] is live.
  void drop_dead_top();

  Slot& slot_at(std::uint32_t slot) noexcept {
    return chunks_[slot >> kChunkBits][slot & (kChunkSlots - 1)];
  }
  const Slot& slot_at(std::uint32_t slot) const noexcept {
    return chunks_[slot >> kChunkBits][slot & (kChunkSlots - 1)];
  }

  bool entry_live(const HeapEntry& e) const noexcept {
    return slot_at(static_cast<std::uint32_t>(e.slot)).generation ==
           e.generation;
  }

  void check_schedulable(SimTime when) const;
  /// Pops a free slot (or grows the slab); the slot's action is empty.
  std::uint32_t acquire_slot();
  /// Pushes the slot's heap entry; returns its handle.
  TimerHandle enqueue(SimTime when, std::uint32_t slot);
  /// Kills a pending slot: bumps its generation, destroys its action and
  /// returns it to the free list.
  void release_slot(std::uint32_t slot) noexcept;
  /// Destroys the slot's action and returns it to the free list (the
  /// generation was already bumped when its event fired).
  void recycle_slot(std::uint32_t slot) noexcept;

  // Slab chunks; their addresses are stable for the simulator's lifetime.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  // The slot whose action is running (kNoFree between events).
  std::uint32_t running_ = kNoFree;
  std::vector<HeapEntry> heap_;
  std::uint32_t free_head_ = kNoFree;
  std::size_t live_ = 0;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stop_requested_ = false;
};

}  // namespace fastcons

#endif  // FASTCONS_SIM_SIMULATOR_HPP
