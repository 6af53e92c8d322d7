#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace fastcons {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3.0);
}

TEST(SimulatorTest, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::string log;
  sim.schedule_at(1.0, [&] { log += 'a'; });
  sim.schedule_at(1.0, [&] { log += 'b'; });
  sim.schedule_at(1.0, [&] { log += 'c'; });
  sim.run();
  EXPECT_EQ(log, "abc");
}

TEST(SimulatorTest, ScheduleInIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(2.0, [&] {
    sim.schedule_in(0.5, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 2.5);
}

TEST(SimulatorTest, NestedSchedulingDuringEvent) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    order.push_back(1);
    sim.schedule_in(0.0, [&] { order.push_back(2); });  // same time, later seq
  });
  sim.schedule_at(1.0, [&] { order.push_back(3); });
  sim.run();
  // The nested zero-delay event was inserted after event 3.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const TimerHandle h = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(h));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelTwiceReturnsFalse) {
  Simulator sim;
  const TimerHandle h = sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));
}

TEST(SimulatorTest, CancelDefaultHandleIsSafe) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(TimerHandle{}));
}

TEST(SimulatorTest, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const TimerHandle h = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(h));
}

TEST(SimulatorTest, RunUntilExecutesOnlyDueEvents) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(2.0, [&] { ++count; });
  sim.schedule_at(5.0, [&] { ++count; });
  EXPECT_EQ(sim.run_until(3.0), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 3.0);  // advances to the deadline
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, RunUntilAdvancesTimeOnEmptyQueue) {
  Simulator sim;
  sim.run_until(7.5);
  EXPECT_EQ(sim.now(), 7.5);
}

TEST(SimulatorTest, RunUntilBoundaryIsInclusive) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(2.0, [&] { fired = true; });
  sim.run_until(2.0);
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, StopInterruptsRun) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(static_cast<double>(i), [&] {
      ++count;
      if (count == 3) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(count, 3);
  // A fresh run resumes the remaining events.
  sim.run();
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, StepExecutesSingleEvent) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, CancelledEventsDoNotCountAsSteps) {
  Simulator sim;
  const TimerHandle h = sim.schedule_at(1.0, [] {});
  bool fired = false;
  sim.schedule_at(2.0, [&] { fired = true; });
  sim.cancel(h);
  EXPECT_TRUE(sim.step());  // skips the cancelled entry, runs the live one
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, ManyEventsKeepRelativeOrderStable) {
  Simulator sim;
  std::vector<int> order;
  // Same timestamp, 100 events: insertion order must be preserved exactly.
  for (int i = 0; i < 100; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, TimeNeverGoesBackwards) {
  Simulator sim;
  double last = -1.0;
  bool monotone = true;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(static_cast<double>(50 - i), [&] {
      if (sim.now() < last) monotone = false;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
}

// ---------------------------------------------------------------------------
// Slab/generation semantics: handles must stay dead across slot reuse.

TEST(SimulatorTest, StaleHandleCannotCancelSlotReuse) {
  Simulator sim;
  // Fire A, whose slot is then recycled for B. A's stale handle must not
  // cancel B.
  const TimerHandle a = sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.step());  // A fired; its slot returns to the free list
  bool b_fired = false;
  sim.schedule_at(2.0, [&] { b_fired = true; });
  EXPECT_FALSE(sim.cancel(a));  // stale generation: must be a no-op
  sim.run();
  EXPECT_TRUE(b_fired);
}

TEST(SimulatorTest, CancelledSlotReuseKeepsNewEventAlive) {
  Simulator sim;
  const TimerHandle a = sim.schedule_at(5.0, [] {});
  EXPECT_TRUE(sim.cancel(a));
  // The freed slot is reused immediately; the orphaned heap entry for A
  // must not fire or suppress B.
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  EXPECT_FALSE(sim.cancel(a));  // still stale after reuse
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, ManyCancellationsInterleavedWithReuse) {
  Simulator sim;
  std::vector<TimerHandle> handles;
  int fired = 0;
  for (int round = 0; round < 10; ++round) {
    handles.clear();
    for (int i = 0; i < 20; ++i) {
      handles.push_back(
          sim.schedule_in(1.0 + i, [&] { ++fired; }));
    }
    // Cancel every other event; the slots get reused next round.
    for (std::size_t i = 0; i < handles.size(); i += 2) {
      EXPECT_TRUE(sim.cancel(handles[i]));
      EXPECT_FALSE(sim.cancel(handles[i]));
    }
    sim.run();
  }
  EXPECT_EQ(fired, 10 * 10);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, CancelFromInsideEventIsSafe) {
  Simulator sim;
  bool victim_fired = false;
  const TimerHandle victim =
      sim.schedule_at(2.0, [&] { victim_fired = true; });
  sim.schedule_at(1.0, [&] { EXPECT_TRUE(sim.cancel(victim)); });
  sim.run();
  EXPECT_FALSE(victim_fired);
}

TEST(SimulatorTest, TieBreakSurvivesCancellationChurn) {
  // Determinism pin: interleaved schedule/cancel churn must not disturb
  // the (time, insertion-seq) order of the surviving events.
  Simulator sim;
  std::vector<int> order;
  std::vector<TimerHandle> doomed;
  for (int i = 0; i < 50; ++i) {
    doomed.push_back(sim.schedule_at(1.0, [] {}));
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  for (const TimerHandle h : doomed) sim.cancel(h);
  sim.run();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, EventsExecutedCounts) {
  Simulator sim;
  const std::uint64_t thread_before = Simulator::thread_events_executed();
  for (int i = 0; i < 5; ++i) sim.schedule_at(1.0, [] {});
  const TimerHandle h = sim.schedule_at(2.0, [] {});
  sim.cancel(h);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);  // cancelled events don't count
  EXPECT_EQ(Simulator::thread_events_executed() - thread_before, 5u);
}

TEST(SimulatorTest, MoveOnlyCaptureAndLargePayload) {
  // EventFn accepts move-only captures (std::function never could) and
  // falls back to the heap for captures beyond its inline buffer.
  Simulator sim;
  auto payload = std::make_unique<int>(41);
  int got = 0;
  sim.schedule_at(1.0, [p = std::move(payload), &got] { got = *p + 1; });
  struct Big {
    double data[40] = {};
  };
  double sum = -1.0;
  sim.schedule_at(2.0, [big = Big{}, &sum] { sum = big.data[0]; });
  sim.run();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(sum, 0.0);
}

/// A capture that counts how often it is move-constructed.
struct MoveCounter {
  explicit MoveCounter(int* count) : moves(count) {}
  MoveCounter(MoveCounter&& other) noexcept : moves(other.moves) { ++*moves; }
  MoveCounter(const MoveCounter&) = delete;
  MoveCounter& operator=(const MoveCounter&) = delete;
  MoveCounter& operator=(MoveCounter&&) = delete;
  ~MoveCounter() = default;
  int* moves;
};

TEST(SimulatorTest, ScheduledClosureIsMovedAtMostOnce) {
  // The closure is built straight into its slab slot and invoked there: the
  // single move is the one from the caller's temporary into the slot.
  Simulator sim;
  int moves = 0;
  int moves_at_invocation = -1;
  sim.schedule_at(0.5, [&sim, &moves, &moves_at_invocation] {
    sim.schedule_in(1.0, [c = MoveCounter(&moves), &moves_at_invocation] {
      moves_at_invocation = *c.moves;
    });
    // Scheduling more work before the delivery fires grows the slab; the
    // pending closure must not be relocated.
    for (int i = 0; i < 300; ++i) sim.schedule_in(0.5, [] {});
  });
  sim.run();
  EXPECT_LE(moves_at_invocation, 1);
}

TEST(SimulatorTest, OversizedClosureRunsThroughTheHeapPath) {
  struct Big {
    MoveCounter counter;
    std::array<double, 32> data;
    int* seen_moves;
    double* sum;
    void operator()() {
      *seen_moves = *counter.moves;
      *sum = data[0] + data[31];
    }
  };
  static_assert(sizeof(Big) > EventFn::kInlineBytes);
  static_assert(!EventFn::stores_inline<Big>);
  Simulator sim;
  int moves = 0;
  int seen_moves = -1;
  double sum = 0.0;
  std::array<double, 32> data{};
  data[0] = 1.5;
  data[31] = 2.0;
  sim.schedule_in(1.0, Big{MoveCounter(&moves), data, &seen_moves, &sum});
  sim.run();
  EXPECT_DOUBLE_EQ(sum, 3.5);
  EXPECT_LE(seen_moves, 1);
}

TEST(SimulatorTest, ThrowingCaptureSchedulesNothingAndFreesItsSlot) {
  // A capture whose move constructor throws (it falls to the heap path,
  // whose construction happens inside schedule_at).
  struct ThrowOnMove {
    explicit ThrowOnMove(const bool* flag) : armed(flag) {}
    ThrowOnMove(ThrowOnMove&& other) : armed(other.armed) {
      if (*armed) throw std::runtime_error("move failed");
    }
    ThrowOnMove(const ThrowOnMove&) = delete;
    ThrowOnMove& operator=(const ThrowOnMove&) = delete;
    ThrowOnMove& operator=(ThrowOnMove&&) = delete;
    ~ThrowOnMove() = default;
    const bool* armed;
  };
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&order] { order.push_back(1); });
  ASSERT_EQ(sim.pending_events(), 1u);
  bool armed = true;
  EXPECT_THROW(sim.schedule_at(2.0, [t = ThrowOnMove(&armed), &order] {
                 order.push_back(-1);
               }),
               std::runtime_error);
  EXPECT_EQ(sim.pending_events(), 1u);
  // The released slot is handed out again and behaves like any other.
  armed = false;
  const TimerHandle reused = sim.schedule_at(
      2.0, [t = ThrowOnMove(&armed), &order] { order.push_back(2); });
  sim.schedule_at(3.0, [&order] { order.push_back(3); });
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_TRUE(sim.cancel(reused));
  sim.schedule_at(2.5, [&order] { order.push_back(25); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 25, 3}));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, ThrowingEventStillFiresAndFreesItsSlot) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [] { throw std::runtime_error("event failed"); });
  sim.schedule_at(2.0, [&order] { order.push_back(2); });
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.schedule_at(3.0, [&order] { order.push_back(3); });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
  sim.reset();  // legal again once no event is running
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, EventCancellingItselfWhileRunningIsANoOp) {
  Simulator sim;
  TimerHandle self;
  bool cancelled = true;
  int fired = 0;
  self = sim.schedule_at(1.0, [&] {
    ++fired;
    cancelled = sim.cancel(self);  // already fired: nothing to cancel
    sim.schedule_in(1.0, [&fired] { ++fired; });
  });
  sim.run();
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, SelfReschedulingTimerPattern) {
  // The pattern run_workload uses for its read processes: a deque owns
  // the closure, scheduled events hold non-owning pointers (a shared_ptr
  // self-capture would be a leaky reference cycle).
  Simulator sim;
  std::deque<std::function<void()>> ticks;
  int fires = 0;
  std::function<void()>* tick = &ticks.emplace_back();
  *tick = [&sim, &fires, tick] {
    ++fires;
    if (fires < 5) sim.schedule_in(1.0, [tick] { (*tick)(); });
  };
  sim.schedule_at(0.5, [tick] { (*tick)(); });
  sim.run();
  EXPECT_EQ(fires, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 4.5);
}

}  // namespace
}  // namespace fastcons
