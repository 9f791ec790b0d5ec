// Guest-level spin lock shared by the threads (vCPUs) of one VM.
//
// The lock models the virtualization pathologies of §3.2:
//  * lock-holder preemption — ownership persists while the holder's vCPU is
//    descheduled, so waiters spin for entire scheduler quanta;
//  * (optional FIFO mode) lock-waiter preemption — ownership is handed over
//    FIFO at release time (ticket-lock semantics); if the grantee's vCPU is
//    off-CPU the lock stays busy until the grantee runs again. FIFO handoff
//    convoys catastrophically under consolidation (the motivation for
//    Preemptable Ticket Spinlocks [39]); the default is an unfair
//    test-and-set lock, which matches fine-grained kernel/pthread locks.
//
// Metrics: hold durations (acquire->release including descheduled gaps) and
// contended acquisition waits (first failed attempt -> acquisition) — the
// "lock duration" curve of Fig. 2 (rightmost).

#ifndef AQLSCHED_SRC_WORKLOAD_SPIN_LOCK_H_
#define AQLSCHED_SRC_WORKLOAD_SPIN_LOCK_H_

#include <deque>
#include <unordered_map>
#include <vector>

#include "src/metrics/stats.h"
#include "src/sim/time.h"
#include "src/workload/workload.h"

namespace aql {

// Spin barrier shared by the threads of one VM: threads busy-wait until all
// parties arrive, then the barrier trips (generation advances) and spinning
// waiters are kicked. This models the phase/barrier synchronization of
// PARSEC-style parallel applications; a descheduled straggler stalls its
// whole VM for O(quantum), which is the dominant reason short quanta help
// ConSpin workloads.
class SpinBarrier {
 public:
  explicit SpinBarrier(int parties);

  // Registers `vcpu` at the barrier. Returns the generation it waits on: the
  // caller proceeds once generation() differs. If `vcpu` completes the
  // party, the barrier trips immediately (waiting spinners are kicked
  // through `host`).
  uint64_t Arrive(int vcpu, WorkloadHost* host);

  uint64_t generation() const { return generation_; }
  uint64_t trips() const { return trips_; }

 private:
  int parties_;
  int arrived_ = 0;
  uint64_t generation_ = 0;
  uint64_t trips_ = 0;
  std::vector<int> waiting_;
};

class SpinLock {
 public:
  // `fifo_handoff` selects ticket-lock semantics (see file comment).
  explicit SpinLock(bool fifo_handoff = false) : fifo_(fifo_handoff) {}

  // Attempts to take the lock for `vcpu` at `now`. On failure the vCPU is
  // recorded as a waiter (idempotent) and its wait clock starts.
  bool TryAcquire(int vcpu, TimeNs now);

  // True if ownership was handed to `vcpu` (FIFO mode) while it was off-CPU.
  bool IsHeldBy(int vcpu) const { return owner_ == vcpu; }

  // Releases the lock held by `vcpu`. FIFO mode: ownership transfers to the
  // queue head immediately and that vCPU is kicked. Unfair mode: the lock
  // becomes free and all spinning waiters are kicked to race for it.
  void Release(int vcpu, TimeNs now, WorkloadHost* host);

  bool ContendedBy(int vcpu) const;
  int owner() const { return owner_; }
  size_t waiters() const { return waiters_.size(); }

  const SampleStats& hold_us() const { return hold_us_; }
  const SampleStats& wait_us() const { return wait_us_; }
  uint64_t acquisitions() const { return acquisitions_; }
  uint64_t contended_acquisitions() const { return contended_; }
  void ResetMetrics();

 private:
  void Acquired(int vcpu, TimeNs now);

  bool fifo_;
  int owner_ = -1;
  TimeNs acquired_at_ = 0;
  std::deque<int> waiters_;
  std::unordered_map<int, TimeNs> wait_since_;
  SampleStats hold_us_;
  SampleStats wait_us_;
  uint64_t acquisitions_ = 0;
  uint64_t contended_ = 0;
};

}  // namespace aql

#endif  // AQLSCHED_SRC_WORKLOAD_SPIN_LOCK_H_
