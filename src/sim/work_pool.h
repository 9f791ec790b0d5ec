// Worker pool for deterministic parallel fleet islands.
//
// A fleet advances each host's Simulation to the next cluster epoch
// boundary on this pool (src/fleet/fleet.cc). Island runs touch only
// host-local state, so *any* assignment of islands to threads produces the
// same bytes; the pool therefore hands out island indices through an
// atomic counter (dynamic load balancing, no deterministic schedule needed)
// and the coordinating thread participates as a worker.
//
// Synchronization protocol (ThreadSanitizer-checked by
// tests/fleet_parallel_test.cc and the CI TSan job):
//  * Run() publishes (task, n, busy, cursor) under the mutex and then bumps
//    the epoch with a release store; workers observe the bump either by an
//    acquire spin-read (hot path) or under the mutex (after the spin budget
//    expires), so the task publication happens-before every claim.
//  * Island indices are claimed via fetch_add on an atomic cursor: each
//    index is executed by exactly one thread per epoch.
//  * Workers check out by an acq_rel decrement of the busy counter; Run()
//    returns only once it reads zero (acquire), so all island writes
//    happen-before the coordinator's cross-island merge phase.
//
// Latency: workers and the coordinator spin briefly (with a CPU pause)
// before sleeping on the condition variables, so back-to-back epochs cost
// no syscalls. The spin budget is small enough that an idle pool parks in
// the kernel.
//
// wait_seconds() is the only host-clock reading in src/sim; nothing
// simulated depends on it.
//
// The pool is scoped to one run: threads start in the constructor and join
// in the destructor.

#ifndef AQLSCHED_SRC_SIM_WORK_POOL_H_
#define AQLSCHED_SRC_SIM_WORK_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace aql {

class WorkPool {
 public:
  // Spawns `threads - 1` workers (the calling thread is the last worker).
  // `threads <= 1` spawns nothing; Run() then executes inline.
  explicit WorkPool(int threads);
  ~WorkPool();

  WorkPool(const WorkPool&) = delete;
  WorkPool& operator=(const WorkPool&) = delete;

  // Executes task(i) for every i in [0, n) across the pool, including the
  // calling thread, and returns when all n calls have finished. Must only
  // be called from the thread that constructed the pool, one epoch at a
  // time. `task` must not touch state shared across indices.
  void Run(size_t n, const std::function<void(size_t)>& task);

  int threads() const { return static_cast<int>(workers_.size()) + 1; }

  // Host seconds the coordinator has spent blocked waiting for straggler
  // workers after finishing its own share of each Run(): the parallel-
  // efficiency loss a fleet cell reports as barrier_wait_seconds. One clock
  // pair per Run() that has to wait, none otherwise. Written by the
  // coordinating thread only, after all workers checked in, so reads
  // between Run() calls are race-free.
  double wait_seconds() const { return wait_seconds_; }

 private:
  void WorkerLoop();
  // Claims indices from the cursor until the current epoch is drained.
  void Drain();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  // Epoch counter: bumped (release, under mu_) by Run() to publish a new
  // batch; spin-read (acquire) by workers.
  std::atomic<uint64_t> epoch_{0};
  // Workers still draining the current epoch; zero (acquire-read) is the
  // barrier the coordinator waits on.
  std::atomic<size_t> busy_{0};
  std::atomic<bool> stop_{false};
  // Published under mu_ before the epoch bump; read by workers only after
  // observing the bump.
  size_t n_ = 0;
  const std::function<void(size_t)>* task_ = nullptr;
  // Claimed outside the mutex; reset before each epoch's bump.
  std::atomic<size_t> cursor_{0};
  // Spin budget in pause iterations. Zero when the hardware cannot host all
  // pool threads at once (a spinning waiter would then steal the timeslice
  // the working thread needs); such hosts fall straight through to the
  // condition variables. Does not affect bytes, only latency.
  int spin_iters_ = 0;
  double wait_seconds_ = 0.0;
};

}  // namespace aql

#endif  // AQLSCHED_SRC_SIM_WORK_POOL_H_
