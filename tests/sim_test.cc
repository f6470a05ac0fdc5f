// Unit tests for src/sim: time types, event queue, simulator, periodic tasks.
#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"
#include "src/util/rng.h"

namespace msn {
namespace {

// --- Time & Duration -------------------------------------------------------------

TEST(TimeTest, DurationArithmetic) {
  const Duration a = Milliseconds(5);
  const Duration b = Microseconds(250);
  EXPECT_EQ((a + b).nanos(), 5250000);
  EXPECT_EQ((a - b).nanos(), 4750000);
  EXPECT_EQ((a * int64_t{3}).millis(), 15);
  EXPECT_EQ((a / 5).millis(), 1);
  EXPECT_EQ((a * 0.5).micros(), 2500);
}

TEST(TimeTest, Conversions) {
  EXPECT_DOUBLE_EQ(Seconds(2).ToSecondsF(), 2.0);
  EXPECT_DOUBLE_EQ(Milliseconds(7).ToMillisF(), 7.0);
  EXPECT_DOUBLE_EQ(MillisecondsF(7.39).ToMillisF(), 7.39);
  EXPECT_EQ(SecondsF(0.5).millis(), 500);
}

TEST(TimeTest, Comparisons) {
  EXPECT_LT(Milliseconds(1), Milliseconds(2));
  EXPECT_EQ(Time::Zero() + Seconds(1), Time::FromNanos(1000000000));
  EXPECT_EQ((Time::FromNanos(500) - Time::FromNanos(200)).nanos(), 300);
  EXPECT_LT(Time::Zero(), Time::Max());
}

TEST(TimeTest, ToStringAdaptiveUnits) {
  EXPECT_EQ(Nanoseconds(42).ToString(), "42ns");
  EXPECT_EQ(Microseconds(250).ToString(), "250.000us");
  EXPECT_EQ(MillisecondsF(7.39).ToString(), "7.390ms");
  EXPECT_EQ(Seconds(3).ToString(), "3.000s");
}

// --- EventQueue --------------------------------------------------------------------

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(Time::FromNanos(30), [&] { order.push_back(3); });
  q.Schedule(Time::FromNanos(10), [&] { order.push_back(1); });
  q.Schedule(Time::FromNanos(20), [&] { order.push_back(2); });
  while (!q.empty()) {
    q.PopNext().cb();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoForEqualTimestamps) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(Time::FromNanos(100), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    q.PopNext().cb();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  EventId id = q.Schedule(Time::FromNanos(10), [&] { fired = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // Second cancel is a no-op.
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelInvalidIdIsNoop) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(EventId()));
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  EventId early = q.Schedule(Time::FromNanos(5), [] {});
  q.Schedule(Time::FromNanos(50), [] {});
  q.Cancel(early);
  EXPECT_EQ(q.NextTime(), Time::FromNanos(50));
  EXPECT_EQ(q.size(), 1u);
}

// --- EventQueue same-time scheduling -----------------------------------------------

TEST(EventQueueTest, ScheduleAtDrainingTimeFiresAfterOlderSameTimeEvents) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(Time::FromNanos(10), [&] {
    order.push_back(0);
    // Scheduled while t=10 is draining: fires after every event that
    // predates the drain, and in schedule order among its own kind.
    q.Schedule(Time::FromNanos(10), [&] { order.push_back(2); });
    q.Schedule(Time::FromNanos(10), [&] { order.push_back(3); });
  });
  q.Schedule(Time::FromNanos(10), [&] { order.push_back(1); });
  while (!q.empty()) {
    q.PopNext().cb();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueTest, LaterTimestampsStayOrdered) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(Time::FromNanos(10), [&] {
    order.push_back(1);
    q.Schedule(Time::FromNanos(30), [&] { order.push_back(4); });
    q.Schedule(Time::FromNanos(20), [&] { order.push_back(2); });
  });
  q.Schedule(Time::FromNanos(20), [&] { order.push_back(3); });
  q.Schedule(Time::FromNanos(10), [&] { order.push_back(0); });
  while (!q.empty()) {
    q.PopNext().cb();
  }
  // t=10 events pop first even though one was scheduled after a t=20 event;
  // the two t=20 events keep schedule order.
  EXPECT_EQ(order, (std::vector<int>{1, 0, 3, 2, 4}));
}

TEST(EventQueueTest, CancelSameTimeEventMidDrain) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(Time::FromNanos(10), [&] {
    order.push_back(0);
    EventId doomed = q.Schedule(Time::FromNanos(10), [&] { order.push_back(99); });
    q.Schedule(Time::FromNanos(10), [&] { order.push_back(1); });
    EXPECT_TRUE(q.Cancel(doomed));
    EXPECT_FALSE(q.Cancel(doomed));
  });
  while (!q.empty()) {
    q.PopNext().cb();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueueTest, NextTimeSkipsCancelledSameTimeHead) {
  EventQueue q;
  q.Schedule(Time::FromNanos(10), [&] {
    EventId doomed = q.Schedule(Time::FromNanos(10), [] {});
    q.Cancel(doomed);
    // A cancelled head must not hide the queue's true next time.
    EXPECT_EQ(q.NextTime(), Time::Max());
    q.Schedule(Time::FromNanos(10), [] {});
    EXPECT_EQ(q.NextTime(), Time::FromNanos(10));
  });
  while (!q.empty()) {
    q.PopNext().cb();
  }
}

// A reserved sequence number places an event exactly where a Schedule call at
// reservation time would have: after same-time events scheduled before the
// reservation, before those scheduled after it, whenever it is spent.
TEST(EventQueueTest, ReservedSequenceFiresWhereScheduleWouldHave) {
  EventQueue q;
  std::vector<int> order;
  const Time t = Time::FromNanos(10);
  q.Schedule(t, [&] { order.push_back(0); });
  const uint64_t first = q.ReserveSequence(2);
  q.Schedule(t, [&] { order.push_back(3); });
  // Spent out of order and after later schedules: position is fixed by seq.
  q.ScheduleReserved(t, first + 1, [&] { order.push_back(2); });
  q.Schedule(t, [&] {
    order.push_back(4);
    // Spent while t is draining: (t, later reservation) still follows every
    // event scheduled before that reservation.
    const uint64_t late = q.ReserveSequence(1);
    q.Schedule(t, [&] { order.push_back(6); });
    q.ScheduleReserved(t, late, [&] { order.push_back(5); });
  });
  q.ScheduleReserved(t, first, [&] { order.push_back(1); });
  EXPECT_EQ(q.size(), 5u);
  while (!q.empty()) {
    q.PopNext().cb();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
  // Reservation never schedules anything; every spent number counts once.
  EXPECT_EQ(q.lane_stats().heap_scheduled, 7u);
}

// Burst-stress: drive the queue and a naive reference queue with an identical
// random schedule/cancel/burst workload and require identical fire orders.
// Callbacks re-schedule at the draining timestamp (same-time bursts) and at
// future times, reserve sequence numbers and spend them in later callbacks,
// and cancel random pending events. A cancel-heavy phase schedules a doomed
// batch larger than the rest of the queue and cancels all of it, some before
// the drain and the rest in chunks from callbacks, so the queue purges its
// cancelled items between pops.
TEST(EventQueueTest, BurstStressMatchesReferenceQueue) {
  for (const uint64_t seed : {1ull, 7ull, 1996ull}) {
    // Reference: (when, seq) pairs popped by scanning for the minimum.
    struct RefEvent {
      int64_t when;
      uint64_t seq;
      int tag;
      bool live = true;
    };
    std::vector<RefEvent> ref;
    uint64_t ref_seq = 0;
    // Reserved but not yet spent: (queue seq, reference seq).
    std::vector<std::pair<uint64_t, uint64_t>> reserved;
    int spent_reserved = 0;

    EventQueue q;
    Rng rng(seed);
    std::vector<std::pair<EventId, size_t>> cancellable;  // (id, ref index)
    std::vector<std::pair<EventId, size_t>> doomed;       // (id, ref index)
    int doomed_cancelled = 0;
    int purges_mid_drain = 0;
    std::vector<int> fired;
    std::vector<int> ref_fired;
    int next_tag = 0;

    std::function<void(int64_t, uint64_t, int)> fire = [&](int64_t when, uint64_t seq, int tag) {
      fired.push_back(tag);
      // Callbacks spawn same-time work (bursts) or future work, cancel
      // something pending, reserve sequence numbers, or spend one. The spawn
      // budget keeps the branching cascade finite.
      const double roll = rng.UniformDouble();
      if (next_tag >= 2000) {
        return;
      }
      if (roll < 0.28) {
        const int spawn = static_cast<int>(rng.UniformInt(uint64_t{1}, uint64_t{3}));
        for (int i = 0; i < spawn; ++i) {
          const int tag2 = next_tag++;
          const uint64_t seq2 = ref_seq++;
          q.Schedule(Time::FromNanos(when), [&fire, when, seq2, tag2] { fire(when, seq2, tag2); });
          ref.push_back(RefEvent{when, seq2, tag2});
        }
      } else if (roll < 0.56) {
        const int64_t later = when + static_cast<int64_t>(rng.UniformInt(uint64_t{1}, uint64_t{50}));
        const int tag2 = next_tag++;
        const uint64_t seq2 = ref_seq++;
        q.Schedule(Time::FromNanos(later), [&fire, later, seq2, tag2] { fire(later, seq2, tag2); });
        ref.push_back(RefEvent{later, seq2, tag2});
      } else if (roll < 0.70 && !cancellable.empty()) {
        const size_t pick = rng.UniformInt(0ull, cancellable.size() - 1);
        auto [id, ref_idx] = cancellable[pick];
        cancellable.erase(cancellable.begin() + static_cast<ptrdiff_t>(pick));
        if (q.Cancel(id)) {
          ref[ref_idx].live = false;
        }
      } else if (roll < 0.80) {
        const uint64_t n = rng.UniformInt(uint64_t{1}, uint64_t{3});
        const uint64_t first = q.ReserveSequence(n);
        for (uint64_t i = 0; i < n; ++i) {
          reserved.emplace_back(first + i, ref_seq++);
        }
      } else if (roll < 0.92 && !reserved.empty()) {
        const size_t pick = rng.UniformInt(0ull, reserved.size() - 1);
        const auto [q_seq, seq2] = reserved[pick];
        reserved.erase(reserved.begin() + static_cast<ptrdiff_t>(pick));
        // Any time from now on, as long as (time, seq) is not behind the
        // running event.
        int64_t later = when + static_cast<int64_t>(rng.UniformInt(uint64_t{0}, uint64_t{50}));
        if (later == when && seq2 < seq) {
          later = when + 1;
        }
        const int tag2 = next_tag++;
        EventId id = q.ScheduleReserved(Time::FromNanos(later), q_seq,
                                        [&fire, later, seq2, tag2] { fire(later, seq2, tag2); });
        ref.push_back(RefEvent{later, seq2, tag2});
        cancellable.emplace_back(id, ref.size() - 1);
        ++spent_reserved;
      } else if (roll < 0.97 && !doomed.empty()) {
        const size_t stored = q.heap_items();
        const uint64_t chunk = rng.UniformInt(uint64_t{5}, uint64_t{20});
        for (uint64_t i = 0; i < chunk && !doomed.empty(); ++i) {
          const auto [id, ref_idx] = doomed.back();
          doomed.pop_back();
          if (q.Cancel(id)) {
            ref[ref_idx].live = false;
            ++doomed_cancelled;
          }
        }
        purges_mid_drain += q.heap_items() < stored ? 1 : 0;
      }
    };

    for (int i = 0; i < 40; ++i) {
      const int64_t when = static_cast<int64_t>(rng.UniformInt(uint64_t{0}, uint64_t{100}));
      const int tag = next_tag++;
      const uint64_t seq = ref_seq++;
      EventId id =
          q.Schedule(Time::FromNanos(when), [&fire, when, seq, tag] { fire(when, seq, tag); });
      ref.push_back(RefEvent{when, seq, tag});
      cancellable.emplace_back(id, ref.size() - 1);
    }

    // Cancel-heavy phase: a doomed batch outnumbering everything else
    // pending, a third of it cancelled before the drain.
    const size_t pending_before_doomed = q.size();
    for (int i = 0; i < 300; ++i) {
      const int64_t when = static_cast<int64_t>(rng.UniformInt(uint64_t{0}, uint64_t{300}));
      const int tag = next_tag++;
      const uint64_t seq = ref_seq++;
      EventId id =
          q.Schedule(Time::FromNanos(when), [&fire, when, seq, tag] { fire(when, seq, tag); });
      ref.push_back(RefEvent{when, seq, tag});
      doomed.emplace_back(id, ref.size() - 1);
    }
    const size_t pending_at_phase = q.size();
    ASSERT_GT(pending_at_phase, 2 * pending_before_doomed);
    for (int i = 0; i < 100; ++i) {
      const size_t pick = rng.UniformInt(0ull, doomed.size() - 1);
      q.Cancel(doomed[pick].first);
      ref[doomed[pick].second].live = false;
      ++doomed_cancelled;
      doomed.erase(doomed.begin() + static_cast<ptrdiff_t>(pick));
    }

    int guard = 0;
    while (!q.empty() && guard++ < 10000) {
      q.PopNext().cb();
      ASSERT_LE(q.heap_items(), 2 * q.size()) << "seed " << seed;
    }
    ASSERT_LT(guard, 10000) << "runaway event cascade, seed " << seed;
    EXPECT_EQ(q.heap_items(), 0u) << "seed " << seed;

    // Drain the reference the slow, obviously-correct way.
    while (true) {
      size_t best = ref.size();
      for (size_t i = 0; i < ref.size(); ++i) {
        if (!ref[i].live) {
          continue;
        }
        if (best == ref.size() || ref[i].when < ref[best].when ||
            (ref[i].when == ref[best].when && ref[i].seq < ref[best].seq)) {
          best = i;
        }
      }
      if (best == ref.size()) {
        break;
      }
      ref[best].live = false;
      ref_fired.push_back(ref[best].tag);
    }

    EXPECT_EQ(fired, ref_fired) << "fire order diverged from reference, seed " << seed;
    EXPECT_GT(spent_reserved, 0) << "seed " << seed;
    EXPECT_GT(static_cast<size_t>(doomed_cancelled), pending_at_phase / 2) << "seed " << seed;
    EXPECT_GT(purges_mid_drain, 0) << "seed " << seed;
    // Every Schedule and ScheduleReserved goes through the heap; perfbench
    // reads this split.
    EXPECT_EQ(q.lane_stats().lane_scheduled, 0u) << "seed " << seed;
    EXPECT_EQ(q.lane_stats().heap_scheduled, ref.size()) << "seed " << seed;
  }
}

// Cancelled heap items never outnumber live events: a cancel or a pop that
// would tip the balance purges every cancelled item, and the survivors still
// pop in (time, sequence) order.
TEST(EventQueueTest, CancelledItemsNeverOutnumberLiveOnes) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.Schedule(Time::FromNanos(i / 4), [&order, i] { order.push_back(i); }));
  }
  // Cancel every event but each fifth: 800 cancels against 200 survivors.
  for (int i = 0; i < 1000; ++i) {
    if (i % 5 != 0) {
      ASSERT_TRUE(q.Cancel(ids[i]));
      ASSERT_LE(q.heap_items() - q.size(), q.size()) << "after cancel " << i;
    }
  }
  EXPECT_EQ(q.size(), 200u);
  EXPECT_LE(q.heap_items(), 400u);
  EXPECT_LT(q.heap_items(), 1000u);  // At least one purge ran.

  // Pops alone can tip the balance too: with cancelled items equal to live
  // ones, the next pop purges.
  EventQueue drained;
  std::vector<EventId> tail;
  for (int i = 0; i < 10; ++i) {
    EventId id = drained.Schedule(Time::FromNanos(i), [] {});
    if (i >= 5) {
      tail.push_back(id);
    }
  }
  for (EventId id : tail) {
    drained.Cancel(id);
  }
  EXPECT_EQ(drained.heap_items(), 10u);
  drained.PopNext();
  EXPECT_EQ(drained.size(), 4u);
  EXPECT_EQ(drained.heap_items(), 4u);

  while (!q.empty()) {
    q.PopNext().cb();
    ASSERT_LE(q.heap_items(), 2 * q.size());
  }
  EXPECT_EQ(q.heap_items(), 0u);
  ASSERT_EQ(order.size(), 200u);
  for (size_t k = 0; k < order.size(); ++k) {
    EXPECT_EQ(order[k], static_cast<int>(5 * k));
  }
}

// --- Simulator ------------------------------------------------------------------------

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  Time fired_at;
  sim.Schedule(Milliseconds(10), [&] { fired_at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(fired_at, Time::Zero() + Milliseconds(10));
  EXPECT_EQ(sim.Now(), Time::Zero() + Milliseconds(10));
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.Schedule(Milliseconds(5), [&] {
    sim.Schedule(Duration::FromNanos(-100), [&] {
      EXPECT_EQ(sim.Now(), Time::Zero() + Milliseconds(5));
    });
  });
  EXPECT_EQ(sim.Run(), 2u);
}

TEST(SimulatorTest, RunUntilAdvancesClockToDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Milliseconds(10), [&] { ++fired; });
  sim.Schedule(Milliseconds(100), [&] { ++fired; });
  sim.RunUntil(Time::Zero() + Milliseconds(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), Time::Zero() + Milliseconds(50));
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) {
      sim.Schedule(Milliseconds(1), recurse);
    }
  };
  sim.Schedule(Milliseconds(1), recurse);
  sim.Run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.Now(), Time::Zero() + Milliseconds(10));
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Milliseconds(1), [&] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(Milliseconds(2), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.HasPendingEvents());
}

TEST(SimulatorTest, CancelScheduledEvent) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.Schedule(Milliseconds(1), [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, DeterministicAcrossSameSeed) {
  auto run = [](uint64_t seed) {
    Simulator sim(seed);
    std::vector<uint64_t> values;
    for (int i = 0; i < 8; ++i) {
      values.push_back(sim.rng().NextU64());
    }
    return values;
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));
}

// --- PeriodicTask ------------------------------------------------------------------------

TEST(PeriodicTaskTest, FiresAtInterval) {
  Simulator sim;
  int fires = 0;
  PeriodicTask task(sim, Milliseconds(10), [&] { ++fires; });
  task.Start();
  sim.RunUntil(Time::Zero() + Milliseconds(95));
  EXPECT_EQ(fires, 9);  // t = 10, 20, ..., 90.
  task.Stop();
  sim.RunFor(Milliseconds(100));
  EXPECT_EQ(fires, 9);
}

TEST(PeriodicTaskTest, StopInsideCallback) {
  Simulator sim;
  int fires = 0;
  PeriodicTask task(sim, Milliseconds(5), [&] {
    if (++fires == 3) {
      task.Stop();
    }
  });
  task.Start();
  sim.RunFor(Seconds(1));
  EXPECT_EQ(fires, 3);
}

TEST(PeriodicTaskTest, DestructionCancelsPending) {
  Simulator sim;
  int fires = 0;
  {
    PeriodicTask task(sim, Milliseconds(5), [&] { ++fires; });
    task.Start();
    sim.RunFor(Milliseconds(12));
  }
  sim.RunFor(Seconds(1));
  EXPECT_EQ(fires, 2);
}

TEST(PeriodicTaskTest, StartIsIdempotent) {
  Simulator sim;
  int fires = 0;
  PeriodicTask task(sim, Milliseconds(10), [&] { ++fires; });
  task.Start();
  task.Start();
  sim.RunUntil(Time::Zero() + Milliseconds(25));
  EXPECT_EQ(fires, 2);
}

}  // namespace
}  // namespace msn
