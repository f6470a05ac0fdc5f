#include "src/sim/simulator.h"

#include <utility>

#include "src/util/logging.h"

namespace msn {

Simulator::Simulator(uint64_t seed) : rng_(seed) {
  // Stamp log lines with this simulator's virtual clock. Last-constructed
  // wins, which matches how tools run scenarios (one live sim at a time).
  SetLogClock(
      [](void* ctx) { return static_cast<Simulator*>(ctx)->Now().ToSecondsF(); },
      this);
}

Simulator::~Simulator() {
  if (GetLogClockContext() == this) {
    SetLogClock(nullptr, nullptr);
  }
}

uint64_t Simulator::RunInternal(Time deadline) {
  stopped_ = false;
  uint64_t executed = 0;
  while (!stopped_ && queue_.RunNext(deadline, now_)) {
    ++executed;
    ++events_executed_;
  }
  return executed;
}

uint64_t Simulator::Run() { return RunInternal(Time::Max()); }

uint64_t Simulator::RunUntil(Time deadline) {
  const uint64_t executed = RunInternal(deadline);
  if (!stopped_ && now_ < deadline) {
    now_ = deadline;
  }
  return executed;
}

PeriodicTask::PeriodicTask(Simulator& sim, Duration interval, std::function<void()> fn)
    : sim_(sim), interval_(interval), fn_(std::move(fn)), alive_(std::make_shared<bool>(true)) {}

PeriodicTask::~PeriodicTask() {
  *alive_ = false;
  Stop();
}

void PeriodicTask::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  Fire();
}

void PeriodicTask::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  sim_.Cancel(pending_);
  pending_ = EventId();
}

void PeriodicTask::Fire() {
  std::weak_ptr<bool> alive = alive_;
  pending_ = sim_.Schedule(interval_, [this, alive] {
    auto guard = alive.lock();
    if (!guard || !*guard || !running_) {
      return;
    }
    fn_();
    // fn_ may have stopped or destroyed the task.
    guard = alive.lock();
    if (guard && *guard && running_) {
      Fire();
    }
  });
}

}  // namespace msn
