// The virtualized machine: topology + LLC model + Credit scheduler + VMs,
// driven by the discrete-event simulation.
//
// The Machine implements the dispatcher: it executes workload steps on
// pCPUs, truncating them at quantum expiry, credit-accounting boundaries and
// asynchronous kicks (I/O wake with BOOST, spin-lock handoff, pool
// reconfiguration). It translates declarative memory behaviour of compute
// steps through the LLC model into stall time and PMU counters.
//
// Adaptive step grain: a coalescable compute step (a plain CPU burner's) is
// run as one coarse step of k base steps while the vCPU's LLC miss ratio
// holds still, ending strictly before the next monitor period so that each
// period's PMU counts stay in that period. BeginStep documents the rule;
// SettleSteps ends coarse steps at a measurement edge.
//
// Scheduler policies (AQL_Sched and the baselines) attach as a
// SchedController invoked every monitoring period; they observe PMU state
// and reconfigure CPU pools through ApplyPoolPlan().
//
// Multi-socket machines: every vCPU has a home socket, and the machine runs
// on the one event queue of its Simulation, with these rules:
//  * Start() packs each VM onto one socket (least-loaded, lowest index on
//    ties) and gives each VM its own workload RNG stream.
//  * Wake placement and work stealing are socket-filtered
//    (CreditScheduler::SetSocketFilter), so a vCPU never leaves its home
//    socket except through ApplyPoolPlan, which flushes the LLC footprint
//    of a vCPU re-homed across sockets.
//  * Events that share a timestamp run in lane order (src/sim/
//    event_queue.h). Each socket's pCPU segment slots and its vCPUs' timers
//    and wakes use the socket's index as lane; credit accounting and the
//    controller's monitor period use the lane after every socket's. A
//    pending timer or wake keeps the lane it was scheduled in.
// A single-socket machine schedules everything in lane 0 and keeps the
// machine-wide RNG stream and round-robin placement.

#ifndef AQLSCHED_SRC_HV_MACHINE_H_
#define AQLSCHED_SRC_HV_MACHINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/hv/credit_scheduler.h"
#include "src/hv/vm.h"
#include "src/hw/llc_model.h"
#include "src/hw/topology.h"
#include "src/sim/simulation.h"
#include "src/workload/workload.h"

namespace aql {

class Machine;

// vTRS monitoring period (paper: 30 ms): the controller's callback cadence.
inline constexpr TimeNs kMonitorPeriod = Ms(30);

// Scheduling policy hook. Implementations: core::AqlController and the
// baselines (vTurbo, vSlicer, Microsliced); the native Xen configuration is
// simply "no controller".
class SchedController {
 public:
  virtual ~SchedController() = default;
  virtual std::string Name() const = 0;
  // Called once after Machine::Start().
  virtual void OnAttach(Machine& machine) { (void)machine; }
  // Called every monitoring period (kMonitorPeriod).
  virtual void OnMonitorPeriod(Machine& machine, TimeNs now) {
    (void)machine;
    (void)now;
  }
};

struct MachineConfig {
  Topology topology;
  HwParams hw;
  CreditParams credit;
  uint64_t seed = 42;
};

// Deterministic work counters of one machine: how often each layer of the
// engine ran, warm-up included (ResetAllMetrics leaves them alone). Like an
// event count they are a pure function of the spec — results, not timing —
// so they explain a cell's cost without reading the host clock
// (docs/BENCH_FORMAT.md, "Timing and work counters").
struct WorkCounters {
  uint64_t compute_steps = 0;    // compute steps begun
  uint64_t dispatches = 0;       // vCPUs put on a pCPU
  uint64_t llc_commits = 0;      // LlcModel::CommitAccesses calls
  uint64_t llc_evictions = 0;    // commits that ran the eviction walk
  uint64_t membus_updates = 0;   // MemBus::SetDemand calls that changed a demand
  uint64_t monitor_periods = 0;  // monitor-period callbacks

  WorkCounters& operator+=(const WorkCounters& other);
};

class Machine : public WorkloadHost {
 public:
  Machine(Simulation& sim, const MachineConfig& config);
  ~Machine() override;

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // --- construction (before Start) ---
  Vm* AddVm(const std::string& name, int weight = 256, int cap_percent = 0);
  Vcpu* AddVcpu(Vm* vm, std::unique_ptr<WorkloadModel> workload);
  void SetController(std::unique_ptr<SchedController> controller);

  // Places vCPUs, arms accounting/monitoring, starts dispatching.
  void Start();

  // --- WorkloadHost ---
  TimeNs Now() const override;
  Rng& WorkloadRng(int vcpu) override;
  void ScheduleTimer(TimeNs when, int vcpu, int tag) override;
  void NotifyIoEvent(int vcpu) override;
  void KickVcpu(int vcpu) override;
  void CountPauseExits(int vcpu, uint64_t n) override;

  // --- controller interface ---

  // Atomically reconfigures pools and vCPU placement. The plan must
  // partition pCPUs and cover every vCPU.
  void ApplyPoolPlan(const PoolPlan& plan);

  // Sets a per-vCPU quantum override (0 clears it). Used by vSlicer.
  void SetVcpuQuantum(int vcpu, TimeNs quantum);

  // Scales the fraction of the vCPU's DRAM accesses served remotely
  // (MemProfile::remote_fraction multiplier in [0, 1]). Controllers model
  // NUMA page migration with it: migrating a vCPU's guest pages toward its
  // node decays the scale from 1.0 (all pages where the guest pinned them)
  // toward a residual. 1.0 is exactly inert.
  void SetRemoteAccessScale(int vcpu, double scale);

  // Charges simulated controller bookkeeping cost (cf. paper §4.3). The
  // charge is *executed*, not just accounted: it occupies pCPU 0 for the
  // charged duration — served at the head of the next compute step there,
  // dilating its wall time like a memory stall and surviving truncation via
  // refund — so it shows up in pCPU-0 BusyTime, in the progress of whatever
  // runs there, and in end-to-end normalized performance. A zero charge is
  // exactly inert. The cumulative counter (controller_overhead()) is kept
  // for reporting.
  void ChargeControllerOverhead(TimeNs cost);

  // --- observability ---
  const Topology& topology() const { return config_.topology; }
  CreditScheduler& scheduler() { return sched_; }
  const CreditScheduler& scheduler() const { return sched_; }
  LlcModel& llc() { return llc_; }
  const MemBus& mem_bus() const { return mem_bus_; }

  const std::vector<Vcpu*>& vcpus() const { return vcpus_; }
  Vcpu* vcpu(int id) const;

  // Ends every coarse step in flight at Now(), pro-rated as a kick would,
  // and continues its vCPU, so that the workloads' metrics count all work
  // done up to Now(). Call it before reading Reports() at a measurement
  // edge, with an event planted at the edge so that Now() is the edge (as
  // RunScenario does). At a monitor-period boundary no coarse step is in
  // flight and it changes nothing.
  void SettleSteps();

  // Settles in-flight steps, then zeroes workload metrics and machine
  // counters; marks the start of the measurement window (call after
  // warm-up).
  void ResetAllMetrics();

  std::vector<PerfReport> Reports() const;

  TimeNs BusyTime(int pcpu) const;
  TimeNs measure_start() const { return measure_start_; }
  TimeNs controller_overhead() const { return controller_overhead_; }
  WorkCounters counters() const;

 private:
  struct PcpuState {
    Vcpu* current = nullptr;
    TimeNs quantum_end = 0;
    // In-flight step.
    Step step;
    TimeNs step_start = 0;
    TimeNs step_planned = 0;  // wall duration incl. stalls and switch cost
    TimeNs step_work = 0;     // pure-work portion of the plan
    uint64_t step_refs = 0;
    uint64_t step_misses = 0;
    uint64_t step_remote = 0;     // misses served by a remote NUMA node
    int step_grain = 1;           // base steps the in-flight compute step spans
    TimeNs pending_overhead = 0;  // context-switch cost charged to next step
    // Controller time this pCPU still owes (ChargeControllerOverhead lands
    // it on pCPU 0): served at the head of the next compute step as extra
    // wall time, so the charge occupies the pCPU instead of merely being
    // counted. step_debt is the portion taken by the in-flight step; the
    // unserved remainder is refunded on truncation so preemption cannot
    // evaporate the charge.
    TimeNs controller_debt = 0;
    TimeNs step_debt = 0;
    // One-outstanding-deadline timer slot for this pCPU's segment/quantum
    // events (registered once; arming/disarming is O(1) in the timer core).
    EventQueue::SlotId segment_slot = -1;
    // Socket of this pCPU, hoisted from Topology::SocketOf (hot path).
    int socket = 0;
    // Accounting.
    TimeNs busy = 0;
  };

  // The plan of a compute step of `work` pure work on `s` by `v`, with the
  // miss ratio sampled at its start.
  struct ComputePlan {
    TimeNs work = 0;
    TimeNs stall = 0;  // memory stalls, stretched by the bus factor
    uint64_t refs = 0;
    uint64_t misses = 0;
    uint64_t remote = 0;  // misses served by a remote NUMA node
    double demand = 0.0;  // memory-bus demand, bytes per ns
  };
  ComputePlan PlanCompute(const PcpuState& s, const Vcpu& v, const MemProfile& mem,
                          TimeNs work, double miss_ratio) const;

  // Dispatch path.
  void Resched(int pcpu);
  void TryDispatch(int pcpu);
  void Dispatch(int pcpu, Vcpu* v, bool switched);
  void BeginStep(int pcpu);
  void OnSegmentEnd(int pcpu);
  void EndStep(int pcpu, bool completed);
  void TruncateStep(int pcpu);
  void DescheduleCurrent(int pcpu);
  void PreemptCurrent(int pcpu, bool front);
  void BlockCurrent(int pcpu, TimeNs wake_at);
  void ChargeRuntime(int pcpu, Vcpu* v);
  void OnVcpuTimer(int vcpu_id, int tag, TimeNs now);

  // Wake path.
  void WakeImpl(Vcpu* v);
  void KickImpl(Vcpu* v);
  void MaybePreempt(int pcpu);
  // Fills and returns the idle flags the wake path feeds to ChooseWakePcpu
  // (allocation-free in steady state).
  const std::vector<bool>& IdleFlags();

  // Periodic events.
  void OnAccounting(TimeNs now);
  void OnMonitor(TimeNs now);

  // Home socket of `v` (0 on a single socket), which is also the event lane
  // of its timers and wakes.
  int HomeSocket(const Vcpu& v) const {
    return multi_socket_ ? pcpus_[static_cast<size_t>(v.home_pcpu)].socket : 0;
  }

  // Deferred-operation machinery: workload callbacks issued while the
  // machine is mid-operation are queued and drained at a consistent point.
  void Drain();
  template <typename F>
  void RunOrDefer(F&& f);

  Simulation& sim_;
  MachineConfig config_;
  LlcModel llc_;
  MemBus mem_bus_;
  CreditScheduler sched_;
  Rng workload_rng_;

  std::vector<std::unique_ptr<Vm>> vms_;
  std::vector<Vcpu*> vcpus_;  // by global id
  std::vector<PcpuState> pcpus_;
  std::unique_ptr<SchedController> controller_;

  bool started_ = false;
  // Multi-socket topology (set in the constructor, never changes).
  const bool multi_socket_;
  // Lane of credit accounting and monitor periods: after every socket's
  // lane on a multi-socket machine, 0 otherwise.
  const int machine_lane_;

  bool processing_ = false;
  std::vector<std::function<void()>> deferred_;

  // Multi-socket only: per-VM workload RNG streams (index = VM id).
  std::vector<Rng> vm_rngs_;

  // Wake-path idle-flag scratch.
  std::vector<bool> idle_scratch_;

  // The machine's own counters; counters() adds the LLC's and the bus's.
  WorkCounters counters_;

  // Time of the next monitor period, which is also the next accounting
  // period: a coarse step ends strictly before it.
  TimeNs next_monitor_ = 0;

  TimeNs measure_start_ = 0;
  TimeNs controller_overhead_ = 0;
};

}  // namespace aql

#endif  // AQLSCHED_SRC_HV_MACHINE_H_
