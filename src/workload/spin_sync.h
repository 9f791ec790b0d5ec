// Spin-lock-synchronized concurrent workload (the paper's ConSpin type,
// modelled on kernbench/PARSEC).
//
// Each vCPU runs one thread cycling through: non-critical compute -> acquire
// the VM-shared spin lock -> critical section -> release. When the lock is
// busy the thread busy-waits (Step::kSpin), which is what the hypervisor's
// PLE detection counts and what burns whole quanta when the lock holder (or
// the FIFO grantee) has been preempted.
//
// Performance metric: mean wall-clock time per completed cycle over the
// measurement window (smaller is better) — the execution-time analogue used
// for PARSEC in the paper. The shared lock also records hold durations for
// the Fig. 2 lock-duration-vs-quantum curve.

#ifndef AQLSCHED_SRC_WORKLOAD_SPIN_SYNC_H_
#define AQLSCHED_SRC_WORKLOAD_SPIN_SYNC_H_

#include <memory>
#include <string>

#include "src/workload/spin_lock.h"
#include "src/workload/workload.h"

namespace aql {

struct SpinSyncConfig {
  std::string name = "spin_sync";
  // Non-critical computation per cycle (jittered +/- 20% per cycle).
  TimeNs compute = Us(500);
  // Critical-section length.
  TimeNs critical = Us(50);
  // Memory behaviour of the non-critical phase.
  MemProfile mem;
  // Barrier synchronization: all threads of the VM rendezvous every this
  // many cycles (0 disables). A descheduled straggler stalls the whole VM
  // for O(quantum) — the dominant quantum sensitivity of ConSpin workloads.
  int barrier_every = 120;
};

class SpinSyncModel : public WorkloadModel {
 public:
  // All threads (vCPUs) of one VM share `lock` and `barrier` (the barrier
  // may be null when SpinSyncConfig::barrier_every is 0).
  SpinSyncModel(const SpinSyncConfig& config, std::shared_ptr<SpinLock> lock,
                std::shared_ptr<SpinBarrier> barrier = nullptr);

  void OnAttach(WorkloadHost* host, int vcpu) override;
  Step NextStep(TimeNs now) override;
  void OnStepEnd(TimeNs now, const Step& step, TimeNs work_done, bool completed) override;
  std::string Name() const override { return config_.name; }
  PerfReport Report(TimeNs now) const override;
  void ResetMetrics(TimeNs now) override;

  uint64_t cycles() const { return cycles_window_; }
  const SpinLock& lock() const { return *lock_; }
  TimeNs spin_time_window() const { return spin_time_window_; }

 private:
  enum class Phase { kComputing, kAcquiring, kCritical, kBarrier };

  TimeNs SampleComputeLength();

  SpinSyncConfig config_;
  std::shared_ptr<SpinLock> lock_;
  std::shared_ptr<SpinBarrier> barrier_;
  Phase phase_ = Phase::kComputing;
  TimeNs remaining_ = 0;
  bool pending_block_ = false;
  int cycles_since_block_ = 0;
  int cycles_since_barrier_ = 0;
  uint64_t barrier_wait_gen_ = 0;
  TimeNs barrier_entered_at_ = 0;
  uint64_t cycles_window_ = 0;
  TimeNs spin_time_window_ = 0;
  TimeNs barrier_wait_window_ = 0;
  TimeNs window_start_ = 0;
};

}  // namespace aql

#endif  // AQLSCHED_SRC_WORKLOAD_SPIN_SYNC_H_
