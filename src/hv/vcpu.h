// Virtual CPU: the schedulable entity of the hypervisor substrate.
//
// A vCPU carries its Credit-scheduler state (credits, BOOST flag, the
// "consumed its whole previous quantum" bit that gates BOOST in the paper),
// its placement (home pCPU, pool, LLC footprint socket) and its PMU counters.
// The workload model attached to it is the guest program it executes.

#ifndef AQLSCHED_SRC_HV_VCPU_H_
#define AQLSCHED_SRC_HV_VCPU_H_

#include <memory>

#include "src/hw/pmu.h"
#include "src/sim/event_queue.h"
#include "src/sim/time.h"
#include "src/workload/workload.h"

namespace aql {

class Vm;
class RunQueue;

// Credit-scheduler priority classes, strongest first.
enum class Priority {
  kBoost = 0,
  kUnder = 1,
  kOver = 2,
};

enum class RunState {
  kBlocked,   // waiting for an event; not on any run queue
  kRunnable,  // on a run queue
  kRunning,   // currently on a pCPU
  kFinished,  // workload completed; permanently off-queue
};

class Vcpu {
 public:
  Vcpu(int id, Vm* vm, std::unique_ptr<WorkloadModel> workload);

  Vcpu(const Vcpu&) = delete;
  Vcpu& operator=(const Vcpu&) = delete;

  int id() const { return id_; }
  Vm* vm() const { return vm_; }
  WorkloadModel* workload() const { return workload_.get(); }

  // Effective priority: BOOST dominates; otherwise credit sign decides.
  Priority priority() const {
    if (boosted) {
      return Priority::kBoost;
    }
    return credits >= 0 ? Priority::kUnder : Priority::kOver;
  }

  // --- scheduling state (owned by Machine/CreditScheduler) ---
  RunState state = RunState::kBlocked;
  bool boosted = false;
  // True if the last descheduling happened because the quantum was fully
  // consumed; per the paper, such vCPUs are not BOOST-eligible on wake.
  bool consumed_full_quantum = false;
  // Credit balance in nanoseconds of entitlement (>= 0 -> UNDER).
  double credits = 0.0;
  // Runtime within the current accounting period.
  TimeNs period_runtime = 0;
  // Timestamp from which runtime has not yet been charged.
  TimeNs last_charge = 0;
  // Lifetime runtime (for fairness checks and reports).
  TimeNs total_runtime = 0;

  // --- placement ---
  int home_pcpu = -1;
  int pool = 0;
  // Socket where the LLC footprint currently lives (-1 = none yet).
  int footprint_socket = -1;
  // Per-vCPU quantum override (vSlicer-style); 0 = use pool quantum.
  TimeNs quantum_override = 0;
  // Fraction of MemProfile::remote_fraction still in effect: 1.0 = guest
  // pages where the guest pinned them; a controller's page migration decays
  // it toward its residual (Machine::SetRemoteAccessScale).
  double remote_access_scale = 1.0;

  // pCPU currently executing this vCPU (-1 when not running). Maintained by
  // the Machine dispatch path; makes kicks O(1).
  int running_pcpu = -1;

  // Pending self-wake timer event (kBlock with finite wake_at).
  EventId wake_event = kInvalidEventId;

  // --- adaptive step grain (owned by Machine::BeginStep) ---
  // LLC miss ratio at this vCPU's previous coalescable step start (-1
  // before the first), and how many base steps its next coarse step may
  // span. Both survive deschedules.
  double grain_miss_ratio = -1.0;
  int grain = 1;

  // --- run-queue linkage (owned by RunQueue) ---
  // Intrusive list pointers: a runnable vCPU sits on exactly one queue, so
  // enqueue/dequeue/removal are O(1) pointer splices with no allocation.
  Vcpu* rq_prev = nullptr;
  Vcpu* rq_next = nullptr;
  RunQueue* rq_owner = nullptr;  // queue currently holding this vCPU
  int rq_class = 0;              // priority class it was linked under

  // --- observability ---
  PmuCounters pmu;
  uint64_t dispatches = 0;
  uint64_t migrations = 0;

 private:
  int id_;
  Vm* vm_;
  std::unique_ptr<WorkloadModel> workload_;
};

}  // namespace aql

#endif  // AQLSCHED_SRC_HV_VCPU_H_
