// The discrete-event simulator driving every MosquitoNet experiment.
//
// Single-threaded: callbacks run to completion in timestamp order; each may
// schedule further events. All model randomness flows from the simulator's
// seeded Rng, so runs are reproducible bit-for-bit.
#ifndef MSN_SRC_SIM_SIMULATOR_H_
#define MSN_SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "src/sim/event_queue.h"
#include "src/sim/time.h"
#include "src/util/rng.h"

namespace msn {

class Simulator {
 public:
  explicit Simulator(uint64_t seed = 1);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time Now() const { return now_; }
  Rng& rng() { return rng_; }

  // Schedules `cb` to run `delay` after the current time (>= 0).
  EventId Schedule(Duration delay, EventQueue::Callback cb);
  EventId ScheduleAt(Time when, EventQueue::Callback cb);
  bool Cancel(EventId id) { return queue_.Cancel(id); }

  // Reserved sequence numbers (event_queue.h): ReserveSequence claims the
  // tie-break positions `n` ScheduleAt calls made now would take, and
  // ScheduleReserved later spends one at `when` (>= Now(), and not behind the
  // running event). Lets an owner keep a single pending event for a series
  // whose members must fire where separately scheduled events would have.
  uint64_t ReserveSequence(uint64_t n) { return queue_.ReserveSequence(n); }
  EventId ScheduleReserved(Time when, uint64_t seq, EventQueue::Callback cb);

  // Runs until the queue drains or Stop() is called. Returns the number of
  // events executed.
  uint64_t Run();
  // Runs events with timestamp <= deadline; the clock advances to `deadline`
  // even if the queue drains earlier (so periodic sampling windows line up).
  uint64_t RunUntil(Time deadline);
  uint64_t RunFor(Duration d) { return RunUntil(now_ + d); }

  // Makes Run()/RunUntil() return after the current callback finishes.
  void Stop() { stopped_ = true; }

  bool HasPendingEvents() const { return !queue_.empty(); }
  size_t pending_events() const { return queue_.size(); }
  // Event-heap items stored, cancelled ones included; at most twice
  // pending_events() (event_queue.h).
  size_t heap_items() const { return queue_.heap_items(); }
  uint64_t events_executed() const { return events_executed_; }

  // Earliest pending event's timestamp; Time::Max() when idle. The inline
  // datapath dispatch (DESIGN.md §18) uses this to prove that running a
  // zero-delay continuation immediately cannot jump ahead of any other
  // pending same-time event.
  Time NextEventTime() const { return queue_.NextTime(); }

  // Schedule count since construction (lane_scheduled is always 0); read by
  // perfbench/msn_perfbench.cc.
  const EventQueue::LaneStats& queue_lane_stats() const { return queue_.lane_stats(); }

 private:
  uint64_t RunInternal(Time deadline);

  Time now_ = Time::Zero();
  EventQueue queue_;
  Rng rng_;
  bool stopped_ = false;
  uint64_t events_executed_ = 0;
};

// Repeats a callback at a fixed interval until cancelled or its owner dies.
// Typical use: the probe traffic generators in the handoff experiments.
class PeriodicTask {
 public:
  PeriodicTask(Simulator& sim, Duration interval, std::function<void()> fn);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void Start();
  void Stop();
  bool running() const { return running_; }

 private:
  void Fire();

  Simulator& sim_;
  Duration interval_;
  std::function<void()> fn_;
  EventId pending_;
  bool running_ = false;
  // Guards against use-after-free when the task is destroyed from within fn_.
  std::shared_ptr<bool> alive_;
};

}  // namespace msn

#endif  // MSN_SRC_SIM_SIMULATOR_H_
