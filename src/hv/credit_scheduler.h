// Credit scheduler: Xen's default VM scheduler, re-implemented per the
// paper's §2.1 description.
//
// Responsibilities:
//  * per-pCPU run queues with BOOST/UNDER/OVER priority classes;
//  * proportional-share credit accounting per accounting period (VM weights,
//    optional caps): vCPUs with negative credits enter OVER and lose BOOST
//    eligibility;
//  * CPU-pool configuration: each pool is a set of pCPUs sharing a quantum
//    length (the knob AQL_Sched turns);
//  * work placement: wake-time selection of the least-loaded pCPU in the
//    vCPU's pool and idle-time work stealing within a pool.
//
// The Machine owns dispatching (time, steps, preemption mechanics) and calls
// into this class for every policy decision.

#ifndef AQLSCHED_SRC_HV_CREDIT_SCHEDULER_H_
#define AQLSCHED_SRC_HV_CREDIT_SCHEDULER_H_

#include <vector>

#include "src/hv/cpu_pool.h"
#include "src/hv/run_queue.h"
#include "src/hv/vcpu.h"
#include "src/sim/time.h"

namespace aql {

// Credit accounting period (Xen: 30 ms).
inline constexpr TimeNs kAccountingPeriod = Ms(30);

struct CreditParams {
  // Quantum used by pools that do not override it (Xen: 30 ms).
  TimeNs default_quantum = Ms(30);
  // Enables the BOOST wake-up priority.
  bool boost_enabled = true;
};

class CreditScheduler {
 public:
  CreditScheduler(int num_pcpus, const CreditParams& params);

  const CreditParams& params() const { return params_; }
  int num_pcpus() const { return static_cast<int>(queues_.size()); }

  // --- pools ---

  // Replaces the pool configuration. Specs must partition the pCPUs.
  // (vCPU membership in specs is informational here; the Machine moves
  // vCPUs between queues.)
  void SetPools(const std::vector<PoolSpec>& pools);

  int NumPools() const { return static_cast<int>(pools_.size()); }
  int PoolOf(int pcpu) const;
  TimeNs PoolQuantum(int pool) const;
  const std::vector<int>& PoolPcpus(int pool) const;

  // Quantum to grant `v` when dispatched on `pcpu`: the pool quantum, unless
  // the vCPU carries a smaller per-vCPU override (vSlicer-style).
  TimeNs QuantumFor(int pcpu, const Vcpu& v) const;

  // Restricts work placement to socket-local pCPUs: with a filter installed
  // (`socket_of_pcpu[p]` = socket of pCPU p; empty disables), PickNext only
  // steals from same-socket pool peers and ChooseWakePcpu only considers
  // pool members on the waker's home socket, so a vCPU never leaves its home
  // socket except through an explicit re-homing (Machine::ApplyPoolPlan).
  // The multi-socket goldens encode this filter. Credit accounting stays
  // pool-wide.
  void SetSocketFilter(std::vector<int> socket_of_pcpu);

  // --- run queues ---

  void Enqueue(Vcpu* v, int pcpu, bool front = false);

  // Pops the best vCPU for `pcpu`: its own queue first, then steals from the
  // most eligible peer queue in the same pool. nullptr if nothing runnable.
  Vcpu* PickNext(int pcpu);

  // Removes `v` from whichever queue holds it; false if not queued.
  bool RemoveFromAnyQueue(Vcpu* v);

  RunQueue& queue(int pcpu);
  const RunQueue& queue(int pcpu) const;

  // Wake-time placement: an idle pCPU of the vCPU's pool if available
  // (`idle[p]` true = pCPU p idle), else the pool pCPU with the shortest
  // queue, preferring the vCPU's home pCPU on ties.
  int ChooseWakePcpu(const Vcpu& v, const std::vector<bool>& idle) const;

  // --- credit accounting ---

  // Runs one accounting period over all vCPUs: distributes credits per VM
  // weight (and cap) within each pool (Vcpu::pool), charges consumed
  // runtime, clamps credits to at most one period's fair share (so
  // long-blocked vCPUs cannot hoard entitlement), resets period runtimes and
  // re-buckets the queues.
  void AccountPeriod(const std::vector<Vcpu*>& vcpus);

 private:
  struct PoolState {
    std::vector<int> pcpus;
    TimeNs quantum;
  };

  // True when pCPUs a and b may exchange work (no filter, or same socket).
  bool SameSocket(int a, int b) const {
    return socket_of_.empty() ||
           socket_of_[static_cast<size_t>(a)] == socket_of_[static_cast<size_t>(b)];
  }

  CreditParams params_;
  std::vector<RunQueue> queues_;   // one per pCPU
  std::vector<int> pcpu_pool_;     // pCPU -> pool index
  std::vector<int> socket_of_;     // pCPU -> socket; empty = no filter
  std::vector<PoolState> pools_;
};

}  // namespace aql

#endif  // AQLSCHED_SRC_HV_CREDIT_SCHEDULER_H_
