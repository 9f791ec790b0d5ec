#include "src/hv/machine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/hv/placement.h"
#include "src/sim/check.h"

namespace aql {
namespace {

// Direct cost of a context switch (register state, L1/TLB disturbance).
constexpr TimeNs kContextSwitchCost = 3 * kNsPerUs;
// One Pause-Loop-Exiting trap is recorded per this much busy-spin time.
constexpr TimeNs kPauseExitInterval = 10 * kNsPerUs;

// Adaptive step grain (BeginStep). A vCPU whose LLC miss ratio moved by at
// most kGrainEpsilon (absolute) since its previous coalescable step start
// doubles its grain, up to kMaxGrain base steps (12.8 ms of 200 us burner
// steps); any larger move resets it to one.
constexpr double kGrainEpsilon = 0.01;
constexpr int kMaxGrain = 64;
// The coarse-step cap reads one next time for both periodic chains.
static_assert(kAccountingPeriod == kMonitorPeriod);

}  // namespace

Machine::Machine(Simulation& sim, const MachineConfig& config)
    : sim_(sim),
      config_(config),
      llc_(config.topology.sockets, config.topology.llc_bytes, config.hw),
      mem_bus_(config.topology.sockets, config.topology.mem_bw_bytes_per_ns),
      sched_(config.topology.TotalPcpus(), config.credit),
      workload_rng_(config.seed ^ 0x5bd1e995u),
      pcpus_(static_cast<size_t>(config.topology.TotalPcpus())),
      multi_socket_(config.topology.sockets > 1),
      machine_lane_(multi_socket_ ? config.topology.sockets : 0) {
  for (size_t p = 0; p < pcpus_.size(); ++p) {
    pcpus_[p].socket = config_.topology.SocketOf(static_cast<int>(p));
  }
  if (multi_socket_) {
    std::vector<int> socket_of(pcpus_.size());
    for (size_t p = 0; p < pcpus_.size(); ++p) {
      socket_of[p] = pcpus_[p].socket;
    }
    sched_.SetSocketFilter(std::move(socket_of));
  }
  for (size_t p = 0; p < pcpus_.size(); ++p) {
    const int pcpu = static_cast<int>(p);
    // Slot registration consumes no sequence number, so the event order of a
    // run is unchanged vs. scheduling segment events dynamically. Each
    // pCPU's slot runs in its socket's lane.
    pcpus_[p].segment_slot = sim_.queue().RegisterSlot(
        [this, pcpu](TimeNs) { OnSegmentEnd(pcpu); }, pcpus_[p].socket);
  }
}

WorkCounters& WorkCounters::operator+=(const WorkCounters& other) {
  compute_steps += other.compute_steps;
  dispatches += other.dispatches;
  llc_commits += other.llc_commits;
  llc_evictions += other.llc_evictions;
  membus_updates += other.membus_updates;
  monitor_periods += other.monitor_periods;
  return *this;
}

Machine::~Machine() = default;

Vm* Machine::AddVm(const std::string& name, int weight, int cap_percent) {
  AQL_CHECK(!started_);
  vms_.push_back(
      std::make_unique<Vm>(static_cast<int>(vms_.size()), name, weight, cap_percent));
  return vms_.back().get();
}

Vcpu* Machine::AddVcpu(Vm* vm, std::unique_ptr<WorkloadModel> workload) {
  AQL_CHECK(!started_);
  AQL_CHECK(vm != nullptr);
  const int id = static_cast<int>(vcpus_.size());
  Vcpu* v = vm->AddVcpu(id, std::move(workload));
  vcpus_.push_back(v);
  return v;
}

void Machine::SetController(std::unique_ptr<SchedController> controller) {
  AQL_CHECK(!started_);
  controller_ = std::move(controller);
}

void Machine::Start() {
  AQL_CHECK(!started_);
  AQL_CHECK_MSG(!vcpus_.empty(), "machine has no vCPUs");
  started_ = true;
  processing_ = true;

  const int n_pcpus = config_.topology.TotalPcpus();
  std::vector<std::vector<Vcpu*>> per_pcpu(static_cast<size_t>(n_pcpus));
  if (multi_socket_) {
    // Per-VM deterministic RNG streams (a single socket keeps the single
    // machine-wide stream; see WorkloadRng).
    vm_rngs_.reserve(vms_.size());
    for (const std::unique_ptr<Vm>& vm : vms_) {
      vm_rngs_.emplace_back(
          Rng::DeriveSeed(config_.seed ^ 0x5bd1e995u, static_cast<uint64_t>(vm->id())));
    }
    // Placement packs each VM onto one socket (least-loaded, lowest index on
    // ties; round-robin within the socket), so wakes, kicks and spin
    // handoffs stay on one socket. Operators pin this way too: splitting a
    // VM across sockets is a known anti-pattern.
    const int sockets = config_.topology.sockets;
    std::vector<std::vector<int>> socket_pcpus;
    socket_pcpus.reserve(static_cast<size_t>(sockets));
    for (int s = 0; s < sockets; ++s) {
      socket_pcpus.push_back(config_.topology.PcpusOfSocket(s));
    }
    std::vector<int> load(static_cast<size_t>(sockets), 0);
    std::vector<size_t> cursor(static_cast<size_t>(sockets), 0);
    for (const std::unique_ptr<Vm>& vm : vms_) {
      int s = 0;
      for (int k = 1; k < sockets; ++k) {
        if (load[static_cast<size_t>(k)] < load[static_cast<size_t>(s)]) {
          s = k;
        }
      }
      for (const std::unique_ptr<Vcpu>& up : vm->vcpus()) {
        Vcpu* v = up.get();
        const std::vector<int>& sp = socket_pcpus[static_cast<size_t>(s)];
        v->home_pcpu = sp[cursor[static_cast<size_t>(s)] % sp.size()];
        ++cursor[static_cast<size_t>(s)];
        ++load[static_cast<size_t>(s)];
        v->pool = sched_.PoolOf(v->home_pcpu);
        per_pcpu[static_cast<size_t>(v->home_pcpu)].push_back(v);
      }
    }
    for (Vcpu* v : vcpus_) {
      v->workload()->OnAttach(this, v->id());
      v->state = RunState::kRunnable;
      v->last_charge = sim_.Now();
    }
  } else {
    // Round-robin initial placement across all pCPUs (single default pool):
    // vCPUs of one VM land on distinct pCPUs, as operators pin them.
    int next = 0;
    for (Vcpu* v : vcpus_) {
      v->home_pcpu = next;
      v->pool = sched_.PoolOf(next);
      per_pcpu[static_cast<size_t>(next)].push_back(v);
      next = (next + 1) % n_pcpus;
      v->workload()->OnAttach(this, v->id());
      v->state = RunState::kRunnable;
      v->last_charge = sim_.Now();
    }
  }
  // Enqueue each pCPU's vCPUs in seeded-shuffled order: real machines have
  // no phase alignment between the rotations of different pCPUs, and an
  // aligned start would artificially gang-schedule sibling vCPUs.
  Rng placement_rng(config_.seed ^ 0x9d2c5680u);
  for (auto& queue_vcpus : per_pcpu) {
    for (size_t i = queue_vcpus.size(); i > 1; --i) {
      const size_t j =
          static_cast<size_t>(placement_rng.UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(queue_vcpus[i - 1], queue_vcpus[j]);
    }
    for (Vcpu* v : queue_vcpus) {
      sched_.Enqueue(v, v->home_pcpu);
    }
  }
  for (int p = 0; p < n_pcpus; ++p) {
    TryDispatch(p);
  }

  // Periodic chains: accounting first, then monitoring, so that when both
  // fire at the same timestamp the credit state the controller sees is
  // already up to date (the event queue is FIFO within a lane). Both run in
  // the machine lane, after every socket's events at the same timestamp.
  sim_.After(
      kAccountingPeriod, [this](TimeNs now) { OnAccounting(now); }, machine_lane_);
  sim_.After(
      kMonitorPeriod, [this](TimeNs now) { OnMonitor(now); }, machine_lane_);
  next_monitor_ = sim_.Now() + kMonitorPeriod;

  processing_ = false;
  Drain();

  if (controller_ != nullptr) {
    controller_->OnAttach(*this);
  }
}

// ---------------------------------------------------------------------------
// WorkloadHost

TimeNs Machine::Now() const { return sim_.Now(); }

Rng& Machine::WorkloadRng(int vcpu_id) {
  if (!multi_socket_) {
    return workload_rng_;
  }
  return vm_rngs_[static_cast<size_t>(vcpu(vcpu_id)->vm()->id())];
}

void Machine::OnVcpuTimer(int vcpu_id, int tag, TimeNs now) {
  Vcpu* v = vcpus_[static_cast<size_t>(vcpu_id)];
  if (v->state == RunState::kFinished) {
    return;
  }
  processing_ = true;
  v->workload()->OnTimer(now, tag);
  processing_ = false;
  Drain();
}

void Machine::ScheduleTimer(TimeNs when, int vcpu_id, int tag) {
  AQL_CHECK(vcpu_id >= 0 && vcpu_id < static_cast<int>(vcpus_.size()));
  // Capture (this, id, tag): 16 trivially-copyable bytes, which fits the
  // std::function small-buffer — timer arrivals stay allocation-free.
  sim_.At(when, [this, vcpu_id, tag](TimeNs now) { OnVcpuTimer(vcpu_id, tag, now); },
          HomeSocket(*vcpus_[static_cast<size_t>(vcpu_id)]));
}

void Machine::NotifyIoEvent(int vcpu_id) {
  Vcpu* v = vcpu(vcpu_id);
  v->pmu.io_events += 1;
  RunOrDefer([this, v] { WakeImpl(v); });
}

void Machine::KickVcpu(int vcpu_id) {
  Vcpu* v = vcpu(vcpu_id);
  RunOrDefer([this, v] { KickImpl(v); });
}

void Machine::CountPauseExits(int vcpu_id, uint64_t n) {
  vcpu(vcpu_id)->pmu.pause_exits += n;
}

// ---------------------------------------------------------------------------
// Dispatch path

void Machine::Resched(int pcpu) {
  if (pcpus_[static_cast<size_t>(pcpu)].current == nullptr) {
    TryDispatch(pcpu);
  }
}

void Machine::TryDispatch(int pcpu) {
  PcpuState& s = pcpus_[static_cast<size_t>(pcpu)];
  AQL_CHECK(s.current == nullptr);
  Vcpu* v = sched_.PickNext(pcpu);
  if (v == nullptr) {
    return;  // idle
  }
  Dispatch(pcpu, v, /*switched=*/true);
}

void Machine::Dispatch(int pcpu, Vcpu* v, bool switched) {
  PcpuState& s = pcpus_[static_cast<size_t>(pcpu)];
  AQL_CHECK(s.current == nullptr);
  AQL_CHECK(v->state == RunState::kRunnable);
  const TimeNs now = sim_.Now();

  v->state = RunState::kRunning;
  v->last_charge = now;
  v->dispatches += 1;
  v->running_pcpu = pcpu;
  s.current = v;
  ++counters_.dispatches;
  s.quantum_end = now + sched_.QuantumFor(pcpu, *v);
  s.pending_overhead = switched ? kContextSwitchCost : 0;

  // Dispatch stays on the home socket (wakes and steals are socket-
  // filtered) and ApplyPoolPlan flushes the footprint of a vCPU re-homed
  // across sockets, so any footprint is already on this socket.
  const int socket = s.socket;
  AQL_CHECK(v->footprint_socket < 0 || v->footprint_socket == socket);
  v->footprint_socket = socket;
  llc_.SetRunning(socket, v->id(), true);

  BeginStep(pcpu);
}

void Machine::BeginStep(int pcpu) {
  PcpuState& s = pcpus_[static_cast<size_t>(pcpu)];
  Vcpu* v = s.current;
  AQL_CHECK(v != nullptr);
  const TimeNs now = sim_.Now();

  // Copied field by field: a whole-Step copy reads `kind` and `work` with one
  // 16-byte load, which the CPU cannot forward from the callee's separate
  // 4- and 8-byte stores, and stalls on every step.
  const Step next = v->workload()->NextStep(now);
  s.step.kind = next.kind;
  s.step.coalescable = next.coalescable;
  s.step.work = next.work;
  s.step.mem = next.mem;
  s.step.wake_at = next.wake_at;
  s.step_start = now;
  s.step_refs = 0;
  s.step_misses = 0;
  s.step_remote = 0;
  s.step_work = 0;
  s.step_grain = 1;
  // Invariant: this pCPU's bus demand is already 0 here. Demand is only set
  // by the kCompute branch below, and every executing step ends through
  // EndStep, which clears it — so the defensive re-clear this used to do was
  // a no-op on every path.

  switch (s.step.kind) {
    case Step::Kind::kCompute: {
      ++counters_.compute_steps;
      const MemProfile& mem = s.step.mem;
      const TimeNs work = std::max<TimeNs>(s.step.work, 1);
      const double miss_ratio = llc_.MissRatio(s.socket, v->id(), mem.wss_bytes);
      ComputePlan plan = PlanCompute(s, *v, mem, work, miss_ratio);
      // Context-switch cost and outstanding controller debt are served at
      // the head of the step: the controller borrows the pCPU before guest
      // work resumes.
      const TimeNs head = s.pending_overhead + s.controller_debt;
      if (s.step.coalescable) {
        // Adaptive grain: while the miss ratio holds still, run up to
        // v->grain base steps as one, each planned exactly as the base step
        // just planned. The coarse step must end strictly before the next
        // monitor period, so each period's PMU counts land in that period;
        // on a single socket the monitor runs before a segment end that ties
        // with it. Quantum expiry, kicks and pool plans truncate and
        // pro-rate it as they do a base step.
        v->grain = std::abs(miss_ratio - v->grain_miss_ratio) <= kGrainEpsilon
                       ? std::min(2 * v->grain, kMaxGrain)
                       : 1;
        v->grain_miss_ratio = miss_ratio;
        const TimeNs room = next_monitor_ - 1 - now - head;
        int k = room > 0 ? static_cast<int>(std::min<TimeNs>(
                               v->grain, room / (plan.work + plan.stall)))
                         : 1;
        if (k >= 2) {
          plan = PlanCompute(s, *v, mem, k * work, miss_ratio);
          if (plan.work + plan.stall > room) {  // truncation made k overshoot
            --k;
            plan = PlanCompute(s, *v, mem, k * work, miss_ratio);
          }
          AQL_CHECK(plan.work + plan.stall <= room);
          s.step.work = plan.work;
          s.step_grain = k;
        }
      }
      mem_bus_.SetDemand(s.socket, pcpu, plan.demand);
      s.step_work = plan.work;
      s.step_refs = plan.refs;
      s.step_misses = plan.misses;
      s.step_remote = plan.remote;
      s.step_debt = s.controller_debt;
      s.controller_debt = 0;
      s.step_planned = plan.work + plan.stall + head;
      s.pending_overhead = 0;
      const TimeNs end = std::min(now + s.step_planned, s.quantum_end);
      sim_.queue().ArmSlot(s.segment_slot, std::max(end, now + 1));
      break;
    }
    case Step::Kind::kSpin: {
      s.step_planned = kTimeInfinite;
      const TimeNs end = std::max(s.quantum_end, now + 1);
      sim_.queue().ArmSlot(s.segment_slot, end);
      break;
    }
    case Step::Kind::kBlock: {
      BlockCurrent(pcpu, s.step.wake_at);
      break;
    }
    case Step::Kind::kFinished: {
      ChargeRuntime(pcpu, v);
      v->state = RunState::kFinished;
      v->boosted = false;
      v->running_pcpu = -1;
      llc_.SetRunning(s.socket, v->id(), false);
      llc_.Remove(s.socket, v->id());
      s.current = nullptr;
      TryDispatch(pcpu);
      break;
    }
  }
}

Machine::ComputePlan Machine::PlanCompute(const PcpuState& s, const Vcpu& v,
                                          const MemProfile& mem, TimeNs work,
                                          double miss_ratio) const {
  ComputePlan p;
  p.work = work;
  const double refs_d = static_cast<double>(work) * mem.llc_refs_per_ns;
  p.refs = static_cast<uint64_t>(refs_d);
  p.misses = mem.wss_bytes == 0 ? 0 : static_cast<uint64_t>(refs_d * miss_ratio);
  // NUMA: misses against remotely-pinned memory pay the distance penalty on
  // top of the local DRAM access. The vCPU's remote-access scale models
  // hypervisor page migration (1.0 until a controller migrates the guest's
  // pages toward the vCPU's node; the multiply is exact at 1.0, so an
  // inactive controller changes nothing).
  p.remote = multi_socket_
                 ? static_cast<uint64_t>(static_cast<double>(p.misses) *
                                         std::clamp(mem.remote_fraction, 0.0, 1.0) *
                                         v.remote_access_scale)
                 : 0;
  const TimeNs stall = static_cast<TimeNs>(p.misses) * kLlcMissPenalty +
                       static_cast<TimeNs>(p.remote) * kRemoteMissExtra;
  // Memory-bus contention: when the socket's co-running fetch demand exceeds
  // the controller bandwidth, memory stalls stretch. The factor is sampled
  // once at step start (steps are at most one quantum long).
  p.demand = stall > 0
                 ? static_cast<double>(p.misses) * static_cast<double>(kCacheLineBytes) /
                       static_cast<double>(work + stall)
                 : 0.0;
  p.stall = static_cast<TimeNs>(static_cast<double>(stall) *
                                mem_bus_.StallFactor(s.socket, p.demand));
  return p;
}

void Machine::OnSegmentEnd(int pcpu) {
  PcpuState& s = pcpus_[static_cast<size_t>(pcpu)];
  AQL_CHECK(s.current != nullptr);
  const TimeNs now = sim_.Now();
  const TimeNs elapsed = now - s.step_start;

  processing_ = true;
  const bool completed =
      s.step.kind == Step::Kind::kCompute && elapsed >= s.step_planned;
  EndStep(pcpu, completed);

  if (now >= s.quantum_end) {
    PreemptCurrent(pcpu, /*front=*/false);
  } else {
    BeginStep(pcpu);
  }
  processing_ = false;
  Drain();
}

void Machine::EndStep(int pcpu, bool completed) {
  PcpuState& s = pcpus_[static_cast<size_t>(pcpu)];
  Vcpu* v = s.current;
  AQL_CHECK(v != nullptr);
  const TimeNs now = sim_.Now();
  const TimeNs elapsed = now - s.step_start;

  switch (s.step.kind) {
    case Step::Kind::kCompute: {
      // Controller debt runs before guest work; whatever the step did not
      // serve goes back to the pCPU's debt so truncation (quantum expiry,
      // kicks) cannot evaporate the charge. Guest progress is pro-rated
      // over the guest portion of the plan only.
      const TimeNs debt_served = std::min(elapsed, s.step_debt);
      s.controller_debt += s.step_debt - debt_served;
      const TimeNs guest_elapsed = elapsed - debt_served;
      const TimeNs guest_planned = s.step_planned - s.step_debt;
      s.step_debt = 0;
      // A completed step keeps its planned counts. (Each was truncated from a
      // double or is far below 2^53, so the pro-rating below would return it
      // unchanged at a fraction of 1.)
      TimeNs work_done = s.step_work;
      uint64_t refs = s.step_refs;
      uint64_t misses = s.step_misses;
      uint64_t remote = s.step_remote;
      if (!completed && guest_planned > 0) {
        const double frac = std::clamp(
            static_cast<double>(guest_elapsed) / static_cast<double>(guest_planned), 0.0,
            1.0);
        work_done = static_cast<TimeNs>(static_cast<double>(s.step_work) * frac);
        refs = static_cast<uint64_t>(static_cast<double>(s.step_refs) * frac);
        misses = static_cast<uint64_t>(static_cast<double>(s.step_misses) * frac);
        remote = static_cast<uint64_t>(static_cast<double>(s.step_remote) * frac);
      }
      v->pmu.instructions += static_cast<uint64_t>(
          static_cast<double>(work_done) * s.step.mem.instructions_per_ns);
      v->pmu.llc_references += refs;
      v->pmu.llc_misses += misses;
      v->pmu.remote_accesses += remote;
      if (misses > 0) {
        ++counters_.llc_commits;
        llc_.CommitAccesses(s.socket, v->id(), s.step.mem.wss_bytes, misses);
      }
      v->workload()->OnStepEnd(now, s.step, work_done, completed);
      break;
    }
    case Step::Kind::kSpin: {
      const TimeNs spin_time = elapsed;
      if (spin_time > 0) {
        const uint64_t exits =
            std::max<uint64_t>(1, static_cast<uint64_t>(spin_time / kPauseExitInterval));
        v->pmu.pause_exits += exits;
      }
      v->workload()->OnStepEnd(now, s.step, spin_time, /*completed=*/false);
      break;
    }
    case Step::Kind::kBlock:
    case Step::Kind::kFinished:
      AQL_CHECK_MSG(false, "EndStep on non-executing step");
  }
  // The step no longer occupies the memory bus (the pCPU may go idle next).
  mem_bus_.SetDemand(s.socket, pcpu, 0.0);
}

void Machine::TruncateStep(int pcpu) {
  PcpuState& s = pcpus_[static_cast<size_t>(pcpu)];
  AQL_CHECK(s.current != nullptr);
  AQL_CHECK_MSG(sim_.queue().SlotArmed(s.segment_slot),
                "no in-flight segment to truncate");
  sim_.queue().DisarmSlot(s.segment_slot);
  EndStep(pcpu, /*completed=*/false);
}

void Machine::ChargeRuntime(int pcpu, Vcpu* v) {
  const TimeNs now = sim_.Now();
  const TimeNs dt = now - v->last_charge;
  AQL_CHECK(dt >= 0);
  v->period_runtime += dt;
  v->total_runtime += dt;
  v->last_charge = now;
  pcpus_[static_cast<size_t>(pcpu)].busy += dt;
}

void Machine::DescheduleCurrent(int pcpu) {
  PcpuState& s = pcpus_[static_cast<size_t>(pcpu)];
  Vcpu* v = s.current;
  AQL_CHECK(v != nullptr);
  const TimeNs now = sim_.Now();
  v->consumed_full_quantum = now >= s.quantum_end;
  v->boosted = false;
  ChargeRuntime(pcpu, v);
  llc_.SetRunning(s.socket, v->id(), false);
  v->running_pcpu = -1;
  s.current = nullptr;
}

void Machine::PreemptCurrent(int pcpu, bool front) {
  PcpuState& s = pcpus_[static_cast<size_t>(pcpu)];
  Vcpu* v = s.current;
  AQL_CHECK(v != nullptr);
  DescheduleCurrent(pcpu);
  v->state = RunState::kRunnable;
  // Re-enqueue on the home pCPU (load balance is anchored there); fall back
  // to the local queue if the home moved to another pool.
  int target = pcpu;
  if (v->home_pcpu >= 0 && sched_.PoolOf(v->home_pcpu) == v->pool) {
    target = v->home_pcpu;
  }
  sched_.Enqueue(v, target, front);
  Vcpu* next = sched_.PickNext(pcpu);
  if (next == nullptr) {
    return;  // v went home and nothing else is runnable here
  }
  Dispatch(pcpu, next, /*switched=*/next != v);
  if (target != pcpu) {
    Resched(target);
  }
}

void Machine::BlockCurrent(int pcpu, TimeNs wake_at) {
  PcpuState& s = pcpus_[static_cast<size_t>(pcpu)];
  Vcpu* v = s.current;
  AQL_CHECK(v != nullptr);
  DescheduleCurrent(pcpu);
  v->state = RunState::kBlocked;
  if (wake_at < kTimeInfinite) {
    AQL_CHECK(wake_at >= sim_.Now());
    v->wake_event = sim_.At(
        wake_at,
        [this, v](TimeNs) {
          v->wake_event = kInvalidEventId;
          processing_ = true;
          WakeImpl(v);
          processing_ = false;
          Drain();
        },
        HomeSocket(*v));
  }
  TryDispatch(pcpu);
}

// ---------------------------------------------------------------------------
// Wake path

const std::vector<bool>& Machine::IdleFlags() {
  idle_scratch_.assign(pcpus_.size(), false);
  for (size_t p = 0; p < pcpus_.size(); ++p) {
    if (pcpus_[p].current == nullptr) {
      idle_scratch_[p] = true;
    }
  }
  return idle_scratch_;
}

void Machine::WakeImpl(Vcpu* v) {
  if (v->state != RunState::kBlocked) {
    return;  // already runnable/running: the event was delivered to the model
  }
  if (v->wake_event != kInvalidEventId) {
    sim_.Cancel(v->wake_event);
    v->wake_event = kInvalidEventId;
  }
  // BOOST: only wake-ups of vCPUs that did not consume their whole previous
  // quantum and are in UNDER are boosted (paper §3.4 / Xen semantics).
  v->boosted =
      config_.credit.boost_enabled && !v->consumed_full_quantum && v->credits >= 0;
  v->state = RunState::kRunnable;
  const int target = sched_.ChooseWakePcpu(*v, IdleFlags());
  sched_.Enqueue(v, target);
  MaybePreempt(target);
}

void Machine::KickImpl(Vcpu* v) {
  if (v->state != RunState::kRunning) {
    return;  // will observe the new state at its next dispatch/step
  }
  const int pcpu = v->running_pcpu;
  AQL_CHECK_MSG(pcpu >= 0, "running vCPU not found on any pCPU");
  AQL_CHECK(pcpus_[static_cast<size_t>(pcpu)].current == v);
  TruncateStep(pcpu);
  BeginStep(pcpu);
}

void Machine::MaybePreempt(int pcpu) {
  PcpuState& s = pcpus_[static_cast<size_t>(pcpu)];
  if (s.current == nullptr) {
    TryDispatch(pcpu);
    return;
  }
  RunQueue& q = sched_.queue(pcpu);
  if (q.Empty()) {
    return;
  }
  if (q.BestPriority() < s.current->priority()) {
    TruncateStep(pcpu);
    Vcpu* v = s.current;
    DescheduleCurrent(pcpu);
    v->state = RunState::kRunnable;
    sched_.Enqueue(v, pcpu, /*front=*/true);
    TryDispatch(pcpu);
  }
}

// ---------------------------------------------------------------------------
// Periodic events

void Machine::OnAccounting(TimeNs now) {
  (void)now;
  processing_ = true;
  // Charge the running vCPUs so the period runtime is complete.
  for (size_t p = 0; p < pcpus_.size(); ++p) {
    if (pcpus_[p].current != nullptr) {
      ChargeRuntime(static_cast<int>(p), pcpus_[p].current);
    }
  }
  sched_.AccountPeriod(vcpus_);
  // Note: running vCPUs are deliberately not preempted here even if their
  // priority dropped below a waiter's — the configured quantum stays
  // authoritative (otherwise every accounting period would act as a hidden
  // 30 ms slice). Priority takes effect at the next dispatch decision;
  // BOOST wake-ups still preempt immediately.
  sim_.After(
      kAccountingPeriod, [this](TimeNs t) { OnAccounting(t); }, machine_lane_);
  processing_ = false;
  Drain();
}

void Machine::OnMonitor(TimeNs now) {
  ++counters_.monitor_periods;
  if (controller_ != nullptr) {
    controller_->OnMonitorPeriod(*this, now);
  }
  sim_.After(
      kMonitorPeriod, [this](TimeNs t) { OnMonitor(t); }, machine_lane_);
  next_monitor_ = now + kMonitorPeriod;
}

// ---------------------------------------------------------------------------
// Controller interface

void Machine::ApplyPoolPlan(const PoolPlan& plan) {
  std::vector<int> ids;
  ids.reserve(vcpus_.size());
  for (const Vcpu* v : vcpus_) {
    ids.push_back(v->id());
  }
  const std::string err = plan.Validate(config_.topology.TotalPcpus(), ids);
  AQL_CHECK_MSG(err.empty(), err.c_str());

  processing_ = true;
  sched_.SetPools(plan.pools);

  // Re-home vCPUs per the placement layer's assignment (each pool's members
  // dealt round-robin over its pCPUs).
  for (const HomeAssignment& a : AssignHomes(plan)) {
    Vcpu* v = vcpu(a.vcpu);
    v->pool = a.pool;
    v->home_pcpu = a.home_pcpu;
    if (v->state == RunState::kRunnable) {
      const bool removed = sched_.RemoveFromAnyQueue(v);
      AQL_CHECK(removed);
      sched_.Enqueue(v, v->home_pcpu);
    }
  }

  // Preempt vCPUs running on pCPUs that moved to a different pool, and
  // re-home the ones running away from their (balance-anchoring) home pCPU
  // so the plan's fairness takes effect immediately.
  for (size_t p = 0; p < pcpus_.size(); ++p) {
    Vcpu* cur = pcpus_[p].current;
    if (cur == nullptr) {
      continue;
    }
    const bool wrong_pool = sched_.PoolOf(static_cast<int>(p)) != cur->pool;
    const bool away_from_home = cur->home_pcpu != static_cast<int>(p);
    if (wrong_pool || away_from_home) {
      TruncateStep(static_cast<int>(p));
      DescheduleCurrent(static_cast<int>(p));
      cur->state = RunState::kRunnable;
      cur->migrations += 1;
      sched_.Enqueue(cur, cur->home_pcpu);
    }
  }

  // A vCPU re-homed across sockets loses its LLC footprint on the old
  // socket. Every other footprint is already on its vCPU's home socket,
  // because dispatch never leaves the home socket.
  if (multi_socket_) {
    for (Vcpu* v : vcpus_) {
      if (v->footprint_socket >= 0 && v->footprint_socket != HomeSocket(*v)) {
        llc_.Remove(v->footprint_socket, v->id());
        v->footprint_socket = -1;
        v->migrations += 1;
      }
    }
  }

  // Fill any idle pCPUs.
  for (size_t p = 0; p < pcpus_.size(); ++p) {
    if (pcpus_[p].current == nullptr) {
      TryDispatch(static_cast<int>(p));
    }
  }
  processing_ = false;
  Drain();
}

void Machine::SetVcpuQuantum(int vcpu_id, TimeNs quantum) {
  AQL_CHECK(quantum >= 0);
  vcpu(vcpu_id)->quantum_override = quantum;
}

void Machine::SetRemoteAccessScale(int vcpu_id, double scale) {
  AQL_CHECK(scale >= 0.0 && scale <= 1.0);
  vcpu(vcpu_id)->remote_access_scale = scale;
}

void Machine::ChargeControllerOverhead(TimeNs cost) {
  AQL_CHECK(cost >= 0);
  if (cost == 0) {
    return;  // exactly inert: zero-charge AQL stays bit-identical to Xen
  }
  controller_overhead_ += cost;
  // Execution, not just accounting: the charge occupies pCPU 0. The debt is
  // served at the head of the next compute step there as extra wall time
  // (the same dilation mechanism as memory stalls), which lands it in
  // BusyTime, in the victim vCPU's runtime/credits, and in lost progress;
  // EndStep refunds any unserved remainder on truncation, so preemption
  // cannot evaporate the charge. Landing at the next step boundary (steps
  // are sub-quantum) keeps the zero-charge trajectory untouched and the
  // executed cost exactly attributable.
  pcpus_[0].controller_debt += cost;
}

// ---------------------------------------------------------------------------
// Observability

Vcpu* Machine::vcpu(int id) const {
  AQL_CHECK(id >= 0 && id < static_cast<int>(vcpus_.size()));
  return vcpus_[static_cast<size_t>(id)];
}

void Machine::SettleSteps() {
  AQL_CHECK(!processing_);
  const TimeNs now = sim_.Now();
  processing_ = true;
  for (size_t p = 0; p < pcpus_.size(); ++p) {
    // A coarse step that began at `now` has nothing to settle.
    if (pcpus_[p].current != nullptr && pcpus_[p].step_grain > 1 &&
        pcpus_[p].step_start < now) {
      TruncateStep(static_cast<int>(p));
      BeginStep(static_cast<int>(p));
    }
  }
  processing_ = false;
  Drain();
}

void Machine::ResetAllMetrics() {
  SettleSteps();
  const TimeNs now = sim_.Now();
  // Flush partial runtimes so post-reset accounting starts clean.
  for (size_t p = 0; p < pcpus_.size(); ++p) {
    if (pcpus_[p].current != nullptr) {
      ChargeRuntime(static_cast<int>(p), pcpus_[p].current);
    }
    pcpus_[p].busy = 0;
  }
  for (Vcpu* v : vcpus_) {
    v->total_runtime = 0;
    v->dispatches = 0;
    v->migrations = 0;
    v->workload()->ResetMetrics(now);
  }
  controller_overhead_ = 0;
  measure_start_ = now;
}

std::vector<PerfReport> Machine::Reports() const {
  std::vector<PerfReport> out;
  out.reserve(vcpus_.size());
  for (const Vcpu* v : vcpus_) {
    PerfReport r = v->workload()->Report(sim_.Now());
    r.metrics["vcpu_runtime_s"] = ToSec(v->total_runtime);
    r.metrics["vcpu_dispatches"] = static_cast<double>(v->dispatches);
    out.push_back(std::move(r));
  }
  return out;
}

TimeNs Machine::BusyTime(int pcpu) const {
  AQL_CHECK(pcpu >= 0 && pcpu < static_cast<int>(pcpus_.size()));
  return pcpus_[static_cast<size_t>(pcpu)].busy;
}

WorkCounters Machine::counters() const {
  WorkCounters c = counters_;
  c.llc_evictions = llc_.evictions();
  c.membus_updates = mem_bus_.updates();
  return c;
}

// ---------------------------------------------------------------------------
// Deferred-operation machinery

void Machine::Drain() {
  AQL_CHECK(!processing_);
  // Hold the guard while draining: operations triggered from inside a
  // drained callback (e.g. a spin-lock handoff kicked from OnStepEnd) are
  // themselves deferred into the next batch instead of interleaving with a
  // half-finished dispatch operation.
  processing_ = true;
  // Index loop instead of batch-swapping vectors: operations deferred from
  // inside a drained callback append behind the cursor and run in the same
  // FIFO order as the old batch scheme, but the vector's capacity survives
  // across drains (no per-drain allocation). Move each callback out before
  // invoking it — the push_back it may trigger can reallocate the vector.
  for (size_t i = 0; i < deferred_.size(); ++i) {
    std::function<void()> f = std::move(deferred_[i]);
    f();
  }
  deferred_.clear();
  processing_ = false;
}

template <typename F>
void Machine::RunOrDefer(F&& f) {
  if (processing_) {
    deferred_.push_back(std::forward<F>(f));
    return;
  }
  processing_ = true;
  f();
  processing_ = false;
  Drain();
}

}  // namespace aql
