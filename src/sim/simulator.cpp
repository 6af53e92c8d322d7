#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace fastcons {
namespace {

// Per-thread running total across all Simulator instances; the harness
// samples it around each trial (trials never share a thread mid-run).
thread_local std::uint64_t t_events_executed = 0;

}  // namespace

std::uint64_t Simulator::thread_events_executed() noexcept {
  return t_events_executed;
}

// --------------------------------------------------------------------------
// Slab

std::uint32_t Simulator::acquire_slot() {
  std::uint32_t slot;
  if (free_head_ != kNoFree) {
    slot = free_head_;
    free_head_ = slot_at(slot).next_free;
  } else {
    FASTCONS_EXPECTS(slot_count_ < (1u << 24));  // HeapEntry::slot width
    if (slot_count_ == chunks_.size() * kChunkSlots) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    }
    slot = slot_count_++;
  }
  ++live_;
  return slot;
}

void Simulator::release_slot(std::uint32_t slot) noexcept {
  ++slot_at(slot).generation;  // invalidates outstanding heap entries and handles
  --live_;
  recycle_slot(slot);
}

void Simulator::recycle_slot(std::uint32_t slot) noexcept {
  Slot& s = slot_at(slot);
  s.action.reset();
  s.next_free = free_head_;
  free_head_ = slot;
}

// --------------------------------------------------------------------------
// Flat 4-ary min-heap on (when, seq)

void Simulator::heap_push(const HeapEntry& entry) {
  // Hole insertion: walk the hole up, one store per level instead of a swap.
  heap_.push_back(entry);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!entry_before(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void Simulator::heap_pop_min() {
  const HeapEntry moved = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Sift the hole down, then drop `moved` in.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (entry_before(heap_[c], heap_[best])) best = c;
    }
    if (!entry_before(heap_[best], moved)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = moved;
}

void Simulator::drop_dead_top() {
  while (!heap_.empty() && !entry_live(heap_[0])) heap_pop_min();
}

// --------------------------------------------------------------------------
// Public interface

void Simulator::check_schedulable(SimTime when) const {
  FASTCONS_EXPECTS(when >= now_);
  FASTCONS_EXPECTS(next_seq_ < (1ull << 40));  // HeapEntry::seq width
}

TimerHandle Simulator::enqueue(SimTime when, std::uint32_t slot) {
  const std::uint32_t generation = slot_at(slot).generation;
  HeapEntry entry;
  entry.when = when;
  entry.seq = next_seq_++;
  entry.slot = slot;
  entry.generation = generation;
  heap_push(entry);
  return TimerHandle{slot, generation};
}

bool Simulator::cancel(TimerHandle handle) noexcept {
  if (!handle.valid()) return false;
  const std::uint32_t slot = handle.slot();
  if (slot >= slot_count_) return false;
  if (slot_at(slot).generation != handle.generation()) return false;
  release_slot(slot);  // the heap entry dies with the generation bump
  return true;
}

bool Simulator::step() {
  for (;;) {
    if (heap_.empty()) return false;
    const HeapEntry top = heap_[0];
    heap_pop_min();
    if (!entry_live(top)) continue;  // cancelled
    const auto slot = static_cast<std::uint32_t>(top.slot);
    Slot& fired = slot_at(slot);
    // The event is no longer pending: bump the generation first, so its
    // handle (even cancelled from inside the action) is dead. The closure
    // runs in place — chunks never move, and the slot stays off the free
    // list until the action returns, so nothing it schedules reuses it.
    ++fired.generation;
    --live_;
    now_ = top.when;
    ++executed_;
    ++t_events_executed;
    const std::uint32_t outer = running_;  // an enclosing event (nested run)
    running_ = slot;
    try {
      fired.action();
    } catch (...) {
      // The event still fired: its slot is freed before the error escapes.
      running_ = outer;
      recycle_slot(slot);
      throw;
    }
    running_ = outer;
    recycle_slot(slot);
    return true;
  }
}

std::uint64_t Simulator::run() {
  stop_requested_ = false;
  std::uint64_t executed = 0;
  while (!stop_requested_ && step()) ++executed;
  return executed;
}

void Simulator::reset() noexcept {
  heap_.clear();
  // Rebuild the free list over every retained slot, releasing pending
  // closures and invalidating outstanding handles via the generation bump.
  // Walking backwards leaves slot 0 at the head, matching the order a
  // fresh slab hands slots out in.
  FASTCONS_EXPECTS(running_ == kNoFree);
  free_head_ = kNoFree;
  for (std::uint32_t i = slot_count_; i-- > 0;) {
    Slot& slot = slot_at(i);
    slot.action.reset();
    ++slot.generation;
    slot.next_free = free_head_;
    free_head_ = i;
  }
  live_ = 0;
  now_ = 0.0;
  next_seq_ = 0;
  executed_ = 0;
  stop_requested_ = false;
}

std::uint64_t Simulator::run_until(SimTime deadline) {
  FASTCONS_EXPECTS(deadline >= now_);
  stop_requested_ = false;
  std::uint64_t executed = 0;
  while (!stop_requested_) {
    drop_dead_top();  // make the peek below see a live event
    if (heap_.empty() || heap_[0].when > deadline) break;
    step();
    ++executed;
  }
  if (now_ < deadline) now_ = deadline;
  return executed;
}

}  // namespace fastcons
