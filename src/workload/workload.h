// Guest workload model interface.
//
// A WorkloadModel is the program running inside a vCPU. The hypervisor
// dispatcher drives it step by step: it asks for the next Step (compute /
// spin / block / finished), executes it for as long as the scheduler allows
// (quantum expiry and asynchronous kicks truncate steps), and reports back
// how much of the step actually ran. Memory behaviour of compute steps is
// described declaratively (working-set size + LLC reference rate); the
// machine translates that through the LLC model into stall time and PMU
// counters, so workload models stay independent of the hardware model.

#ifndef AQLSCHED_SRC_WORKLOAD_WORKLOAD_H_
#define AQLSCHED_SRC_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace aql {

// Memory behaviour of a compute step.
struct MemProfile {
  // Bytes the step touches uniformly (0 = register-only compute).
  uint64_t wss_bytes = 0;
  // LLC references (L2 misses) issued per nanosecond of pure work.
  double llc_refs_per_ns = 0.0;
  // Instructions retired per nanosecond of pure work.
  double instructions_per_ns = 2.0;
  // Fraction of DRAM accesses (LLC misses) served by a remote NUMA node,
  // modelling guest memory pinned far from where the vCPU runs. The machine
  // charges each remote access the topology's NUMA-distance penalty and
  // counts it in the PMU. Only meaningful on multi-socket topologies (a
  // single-socket machine has no remote node and the fraction is ignored).
  // The declared fraction describes the guest's own placement; hypervisor
  // page migration is modelled on top of it via the vCPU's remote-access
  // scale (Machine::SetRemoteAccessScale), which controllers decay when
  // they migrate pages toward the vCPU's node.
  double remote_fraction = 0.0;
};

// One schedulable unit of guest activity.
struct Step {
  enum class Kind {
    kCompute,   // run `work` ns of computation with `mem` behaviour
    kSpin,      // busy-wait (spin-lock); open-ended until kicked or preempted
    kBlock,     // no runnable work; sleep until event/wake_at
    kFinished,  // workload completed (a trace's `end` op)
  };

  Kind kind = Kind::kBlock;
  // kCompute only: the machine may run this step and the identical ones
  // after it as one coarse step while the vCPU's LLC miss ratio holds still
  // (Machine::BeginStep). Set it only where a step boundary carries no
  // behaviour: a plain CPU burner's back-to-back steps.
  bool coalescable = false;
  TimeNs work = 0;             // kCompute only: pure work, pre-stall
  MemProfile mem;              // kCompute only
  TimeNs wake_at = kTimeInfinite;  // kBlock only: absolute self-wake time

  static Step Compute(TimeNs work, const MemProfile& mem) {
    Step s;
    s.kind = Kind::kCompute;
    s.work = work;
    s.mem = mem;
    return s;
  }
  static Step Spin() {
    Step s;
    s.kind = Kind::kSpin;
    return s;
  }
  static Step Block(TimeNs wake_at = kTimeInfinite) {
    Step s;
    s.kind = Kind::kBlock;
    s.wake_at = wake_at;
    return s;
  }
  static Step Finished() {
    Step s;
    s.kind = Kind::kFinished;
    return s;
  }
};

// Services the machine provides to workload models. Implemented by hv::Machine.
class WorkloadHost {
 public:
  virtual ~WorkloadHost() = default;

  virtual TimeNs Now() const = 0;

  // Deterministic random stream for the model attached to `vcpu`. A
  // single-socket Machine hands every model one machine-wide stream, drawn
  // in event order; a multi-socket Machine keeps one stream per VM. Both
  // derive from the machine seed, so the draws are a function of the run.
  virtual Rng& WorkloadRng(int vcpu) = 0;

  // Schedules `OnTimer(tag)` on the model attached to `vcpu` at time `when`.
  // Timers fire regardless of the vCPU's scheduling state (they model
  // external stimuli such as network packet arrivals).
  virtual void ScheduleTimer(TimeNs when, int vcpu, int tag) = 0;

  // Raises an I/O event-channel notification towards `vcpu`: counted by the
  // PMU and, if the vCPU is blocked, wakes it (BOOST-eligible per Credit
  // semantics).
  virtual void NotifyIoEvent(int vcpu) = 0;

  // Forces re-evaluation of `vcpu`'s current step if it is running (used by
  // spin-lock release so a spinning waiter acquires immediately).
  virtual void KickVcpu(int vcpu) = 0;

  // Records `n` Pause-Loop-Exiting traps for `vcpu`. Used by workload models
  // for short in-guest kernel spins whose performance cost is negligible but
  // which the hypervisor's PLE monitoring observes (the ConSpin signal).
  virtual void CountPauseExits(int vcpu, uint64_t n) = 0;
};

// Summary of a workload's performance at the end of an experiment, keyed by
// metric name ("latency_mean_us", "throughput_per_s", ...). The canonical
// scalar used for the paper's "normalized performance" (smaller = better) is
// stored under kPrimaryMetric.
struct PerfReport {
  std::string workload_name;
  std::map<std::string, double> metrics;

  static constexpr const char* kPrimaryMetric = "primary_cost";

  double primary() const {
    auto it = metrics.find(kPrimaryMetric);
    return it == metrics.end() ? 0.0 : it->second;
  }
};

class WorkloadModel {
 public:
  virtual ~WorkloadModel() = default;

  // Called once when the model is attached to a vCPU. Models that generate
  // external stimuli (I/O arrivals) start their timers here.
  virtual void OnAttach(WorkloadHost* host, int vcpu) {
    host_ = host;
    vcpu_ = vcpu;
  }

  // Next unit of activity, given the vCPU is on a pCPU at `now`.
  virtual Step NextStep(TimeNs now) = 0;

  // The last step returned by NextStep ran. For compute steps, `work_done`
  // is pure work time executed (excluding cache stalls); `completed` tells
  // whether the step ran to its planned end or was truncated (preemption,
  // kick). For spin steps, `work_done` is the spin time.
  virtual void OnStepEnd(TimeNs now, const Step& step, TimeNs work_done,
                         bool completed) = 0;

  // Timer callback (see WorkloadHost::ScheduleTimer).
  virtual void OnTimer(TimeNs now, int tag) { (void)now; (void)tag; }

  // Human-readable name for reports.
  virtual std::string Name() const = 0;

  // Fills performance metrics measured over [measure_start, now].
  virtual PerfReport Report(TimeNs now) const = 0;

  // Resets metric accumulation (called at the end of warm-up).
  virtual void ResetMetrics(TimeNs now) = 0;

  // Durable progress that survives a machine teardown/rebuild (live
  // migration or crash recovery in the fleet layer, src/fleet/fleet.cc). A
  // model that checkpoints returns its last durable position from
  // SaveDurableState; the fleet injects it into the replacement model via
  // RestoreDurableState before the new machine starts. The default — no
  // durable state — means the replacement restarts cold, which is the
  // realistic fail-stop penalty for non-checkpointing guests.
  virtual bool HasDurableState() const { return false; }
  virtual double SaveDurableState() const { return 0.0; }
  virtual void RestoreDurableState(double state) { (void)state; }

 protected:
  WorkloadHost* host_ = nullptr;
  int vcpu_ = -1;
};

}  // namespace aql

#endif  // AQLSCHED_SRC_WORKLOAD_WORKLOAD_H_
