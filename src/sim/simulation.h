// Simulation driver: owns the clock/event queue and the root RNG.
//
// All simulator components hold a Simulation& and schedule work through it.
// The driver supports running until the queue drains or until a deadline,
// which is how experiments bound their simulated duration.
//
// One event queue runs every event in (time, lane, sequence) order (see
// src/sim/event_queue.h). The lane only orders events that share a
// timestamp; every scheduling call defaults to lane 0, and only a
// multi-socket Machine passes another (src/hv/machine.h).
//
// Thread confinement: a Simulation (and the whole object graph hanging off
// it — Machine, schedulers, workload models, RNG) is single-thread-confined
// *per run section*: exactly one thread may be inside RunUntil/RunUntilIdle
// at a time (a cell runs on one cell-pool worker, and a fleet advances its
// host Simulations one after another on that worker). There is
// deliberately no internal locking and no process-global mutable state —
// all counters (event sequence numbers, RNG streams) live inside the
// instance, and nothing below the experiment layer reads the host clock
// (docs/ARCHITECTURE.md, "Counters, not clocks"). The `running_` guard
// below turns reentrant (same-thread) misuse into a hard abort.

#ifndef AQLSCHED_SRC_SIM_SIMULATION_H_
#define AQLSCHED_SRC_SIM_SIMULATION_H_

#include <cstdint>
#include <utility>

#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace aql {

class Simulation {
 public:
  explicit Simulation(uint64_t seed = 1) : rng_(seed) {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Current simulated time (time of the last event run).
  TimeNs Now() const { return queue_.Now(); }

  EventQueue& queue() { return queue_; }
  Rng& rng() { return rng_; }

  // Schedules `cb` to run `delay` ns from now, in `lane`.
  EventId After(TimeNs delay, EventQueue::Callback cb, int lane = 0) {
    return queue_.ScheduleAt(queue_.Now() + delay, std::move(cb), lane);
  }

  // Schedules `cb` at an absolute timestamp, in `lane`.
  EventId At(TimeNs when, EventQueue::Callback cb, int lane = 0) {
    return queue_.ScheduleAt(when, std::move(cb), lane);
  }

  bool Cancel(EventId id) { return queue_.Cancel(id); }

  // Runs events until the queue is empty. Returns number of events run.
  // Not reentrant (see the thread-confinement note above).
  uint64_t RunUntilIdle();

  // Runs events with timestamp <= deadline. Returns number of events run.
  // Not reentrant (see the thread-confinement note above).
  uint64_t RunUntil(TimeNs deadline);

 private:
  EventQueue queue_;
  Rng rng_;
  // True while a run section is active. Plain (non-atomic) on purpose: a
  // second thread entering concurrently is already a contract violation,
  // and the unsynchronized flag is the first thing TSan flags for it.
  bool running_ = false;
};

}  // namespace aql

#endif  // AQLSCHED_SRC_SIM_SIMULATION_H_
