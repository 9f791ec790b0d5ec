#include "src/fleet/fleet.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/sim/check.h"
#include "src/sim/rng.h"
#include "src/workload/catalog.h"

namespace aql {

uint64_t FleetHostSeed(uint64_t base_seed, int host, uint64_t rebuild) {
  // Two derivation stages: host index first, then the rebuild generation, so
  // a rebuilt machine never replays the stream its predecessor consumed.
  return Rng::DeriveSeed(
      Rng::DeriveSeed(base_seed, 0xf1ee70000ULL + static_cast<uint64_t>(host)), rebuild);
}

namespace {

// Time-weighted per-vCPU report accumulation across host rebuilds. A vCPU
// that lived through exactly one segment keeps its PerfReport verbatim — no
// round-trip through the weighted mean — which preserves bit-identity with
// the single-Machine runner.
struct VcpuAccum {
  std::vector<std::pair<double, PerfReport>> segments;
};

struct VmState {
  VmSpec spec;
  int host = -1;  // -1 while crashed and waiting in the recovery queue
  bool llc_trasher = false;
  bool mem_heavy = false;
  bool io = false;
  std::vector<VcpuAccum> accum;  // one per vCPU of the VM
  // In-window time this VM spent crashed (between a host failure and its
  // re-placement). Feeds the availability metric.
  TimeNs downtime = 0;
  // Durable per-vCPU progress carried across teardowns ((saved, value) per
  // vCPU): checkpointing workloads resume from here after a rebuild instead
  // of restarting cold (WorkloadModel::SaveDurableState).
  std::vector<std::pair<bool, double>> durable;
};

struct HostState {
  std::unique_ptr<Simulation> sim;
  std::unique_ptr<Machine> machine;
  std::vector<int> vms;  // fleet VM indices in placement order
  TimeNs build_time = 0;
  uint64_t rebuilds = 0;  // generations built so far
  bool draining = false;
  bool offline = false;
  // Crashed and rebooting: no machine, not a placement target. Clears at
  // the first boundary >= down_until.
  bool down = false;
  TimeNs down_until = 0;
  // Degradation shape of every build from the brownout on (HostShape), and
  // the boundary the brownout struck at (capacity counts from there).
  double bw_scale = 1.0;
  int pcpu_drop = 0;
  TimeNs degraded_at = 0;
  FleetHostStats stats;
  int64_t busy = 0;        // measured busy ns across segments
  TimeNs overhead = 0;     // measured controller overhead across segments
};

// Counts `vm` as a resident of `view`: the one rule HostViews and Place
// share.
void CountResident(FleetHostView& view, const VmState& vm) {
  view.vcpus += vm.spec.vcpus;
  if (vm.llc_trasher) {
    ++view.trashers;
  }
  if (vm.mem_heavy) {
    view.mem_heavy_vcpus += vm.spec.vcpus;
  }
}

// Transfer bandwidth when the host topology models no DRAM bus
// (Topology::mem_bw_bytes_per_ns == 0).
constexpr double kFallbackBwBytesPerNs = 1.2;

// Which books an executed charge lands in.
enum class ChargeKind { kMigration, kFault };

class FleetRun {
 public:
  explicit FleetRun(const FleetSpec& spec)
      : spec_(spec),
        cfg_(spec.config),
        t_warm_(spec.warmup),
        t_end_(spec.warmup + spec.measure) {}

  FleetResult Run();

 private:
  void InitVms();
  void PlaceVms();
  // The template topology in `host`'s degradation shape: reduced DRAM
  // bandwidth and/or fewer cores per socket (never below one).
  Topology HostShape(const HostState& host) const;
  void BuildHost(int h, TimeNs now);
  // Calls fn(vm, k, id) for vCPU k of every VM of `host`'s current build;
  // `id` is its host-local vCPU id (Machine assigns ids densely, in VM-list
  // order).
  template <typename Fn>
  void ForEachVcpu(const HostState& host, Fn fn) {
    int id = 0;
    for (const int vm_index : host.vms) {
      VmState& vm = vms_[static_cast<size_t>(vm_index)];
      for (int k = 0; k < vm.spec.vcpus; ++k) {
        fn(vm, k, id++);
      }
    }
  }
  void SnapshotHost(HostState& host, TimeNs seg_end);
  // Snapshot + destroy a host's machine. Must run while the host's VM list
  // still describes the build that produced the counters — i.e. BEFORE
  // Rehost rewrites the lists.
  void TeardownHost(int h, TimeNs now);
  std::vector<FleetHostView> HostViews() const;
  FleetVmView VmView(int vm) const;
  // Asks the policy for `vm`'s host, checks that the target accepts VMs and
  // books the VM into `views`, so the next decision sees it.
  int Place(int vm, std::vector<FleetHostView>& views);
  // Executes `charge` on host h's machine (Machine::ChargeControllerOverhead)
  // and books it. A machineless host has no vCPUs to dilate, so its charge
  // stays byte accounting only.
  void ExecuteCharge(int h, TimeNs charge, ChargeKind kind);
  // Moves each VM of `moves` to `to` (`from` == -1: a crashed VM leaving the
  // recovery queue): tears down every touched host, rewrites the VM lists,
  // then rebuilds the touched hosts in index order and executes each one's
  // `charge`, or retires a host the moves emptied.
  void Rehost(const std::vector<FleetMigration>& moves, const std::vector<TimeNs>& charge,
              ChargeKind kind, TimeNs now);
  // Validates moves, books their transfer on both ends and re-hosts them.
  void ApplyMoves(const std::vector<FleetMigration>& moves, TimeNs now);
  // Fault-aware funnel in front of ApplyMoves: with migration failures
  // enabled, draws a verdict per move, books aborted-transfer waste on both
  // ends and schedules retries; forwards the surviving moves.
  void AttemptMoves(const std::vector<FleetMigration>& moves, TimeNs now);
  // Dirty-page bytes of one live migration of `vm`.
  static uint64_t MigrationBytes(const VmState& vm);
  // Transfer time of `bytes` at the host template's DRAM bandwidth.
  TimeNs TransferTime(uint64_t bytes) const;
  // Capacity over the measured window, in pCPU-ns: the template's pCPUs
  // until a brownout (clamped to the window), the shrunken shape after it.
  int64_t CapacityNs(const HostState& host) const;
  bool ProcessDrains(TimeNs now);
  void ProcessRebalance(TimeNs now);
  // Boundary fault pipeline: reboots, degradations, crashes, then recovery
  // placement of queued VMs. Runs at epoch boundaries only.
  void ProcessFaults(TimeNs now);
  void ProcessRecovery(TimeNs now);
  void ProcessRetries(TimeNs now);
  void Finalize(FleetResult& out);

  struct RecoveryEntry {
    int vm = -1;
    TimeNs crash_time = 0;
  };
  struct RetryState {
    FleetMigration move;
    int attempts = 0;  // failed attempts so far
    TimeNs next_attempt = 0;
  };

  const FleetSpec& spec_;
  const FleetConfig& cfg_;
  const TimeNs t_warm_;
  const TimeNs t_end_;
  std::vector<VmState> vms_;
  std::vector<HostState> hosts_;
  std::unique_ptr<ClusterScheduler> scheduler_;
  std::unique_ptr<FaultInjector> injector_;  // null when the plan is inert
  std::vector<RecoveryEntry> recovery_;      // crashed VMs, crash order
  std::map<int, RetryState> retries_;        // by VM index (fixed order)
  FleetResult result_;
};

void FleetRun::InitVms() {
  vms_.reserve(spec_.vms.size());
  for (const VmSpec& vs : spec_.vms) {
    AQL_CHECK(vs.vcpus >= 1);
    VmState state;
    state.spec = vs;
    const VcpuType type = FindApp(vs.app).expected_type;
    state.llc_trasher = type == VcpuType::kLlco;
    state.mem_heavy = type == VcpuType::kLlco || type == VcpuType::kMemBw;
    state.io = type == VcpuType::kIoInt;
    state.accum.resize(static_cast<size_t>(vs.vcpus));
    state.durable.resize(static_cast<size_t>(vs.vcpus), {false, 0.0});
    vms_.push_back(std::move(state));
  }
}

void FleetRun::PlaceVms() {
  const bool declared = !cfg_.declared_hosts.empty();
  AQL_CHECK_MSG(!declared || cfg_.declared_hosts.size() == vms_.size(),
                "declared_hosts must name a host per VM");
  // Admission in VM order; each decision sees the placements made so far.
  std::vector<FleetHostView> views = HostViews();
  for (size_t i = 0; i < vms_.size(); ++i) {
    const int h = declared ? cfg_.declared_hosts[i] : Place(static_cast<int>(i), views);
    AQL_CHECK(h >= 0 && h < cfg_.hosts);
    vms_[i].host = h;
    hosts_[static_cast<size_t>(h)].vms.push_back(static_cast<int>(i));
  }
}

Topology FleetRun::HostShape(const HostState& host) const {
  Topology t = spec_.host_template.topology;
  t.mem_bw_bytes_per_ns *= host.bw_scale;
  t.cores_per_socket = std::max(1, t.cores_per_socket - host.pcpu_drop);
  return t;
}

void FleetRun::BuildHost(int h, TimeNs now) {
  HostState& host = hosts_[static_cast<size_t>(h)];
  AQL_CHECK(!host.vms.empty());
  MachineConfig mc = spec_.host_template;
  mc.seed = FleetHostSeed(spec_.host_template.seed, h, host.rebuilds);
  mc.topology = HostShape(host);
  host.sim = std::make_unique<Simulation>(mc.seed);
  host.machine = std::make_unique<Machine>(*host.sim, mc);
  std::vector<int> io_vcpus;
  int position = 0;
  for (const int vm_index : host.vms) {
    const VmState& vs = vms_[static_cast<size_t>(vm_index)];
    Vm* vm = host.machine->AddVm("vm" + std::to_string(position) + "_" + vs.spec.app,
                                 vs.spec.weight, vs.spec.cap_percent);
    AppOptions app_options;
    app_options.fifo_lock = vs.spec.fifo_lock;
    auto models = MakeApp(vs.spec.app, vs.spec.vcpus, app_options);
    // Checkpointing workloads resume from their last durable snapshot
    // instead of restarting cold (the caches still restart cold — only the
    // guest's own progress survives).
    for (size_t k = 0; k < models.size(); ++k) {
      if (k < vs.durable.size() && vs.durable[k].first) {
        models[k]->RestoreDurableState(vs.durable[k].second);
      }
    }
    for (auto& model : models) {
      Vcpu* v = host.machine->AddVcpu(vm, std::move(model));
      if (vs.io) {
        io_vcpus.push_back(v->id());
      }
    }
    ++position;
  }
  if (spec_.controller_factory) {
    auto controller = spec_.controller_factory(io_vcpus);
    if (controller != nullptr) {
      host.machine->SetController(std::move(controller));
    }
  }
  host.machine->Start();
  // The same window sentinels the single-Machine runner plants, in host-
  // local time: they pin the clock to the exact warm-up/end boundaries so
  // ResetAllMetrics and the final Reports() read at the right instants.
  if (now < t_warm_) {
    host.sim->At(t_warm_ - now, [](TimeNs) {});
  }
  host.sim->At(t_end_ - now, [](TimeNs) {});
  host.build_time = now;
  ++host.rebuilds;
}

void FleetRun::SnapshotHost(HostState& host, TimeNs seg_end) {
  if (host.machine == nullptr || seg_end <= t_warm_) {
    return;  // offline, or a segment that ended inside warm-up
  }
  // The machine's counters cover [max(build, warm-up end), seg_end]: a
  // machine built before the warm-up boundary was reset there.
  const TimeNs seg_start = std::max(host.build_time, t_warm_);
  const double weight = static_cast<double>(seg_end - seg_start);
  if (weight <= 0) {
    return;
  }
  host.machine->SettleSteps();
  std::vector<PerfReport> reports = host.machine->Reports();
  ForEachVcpu(host, [&](VmState& vm, int k, int id) {
    vm.accum[static_cast<size_t>(k)].segments.emplace_back(
        weight, std::move(reports[static_cast<size_t>(id)]));
  });
  // The pCPUs of the machine being read: a brownout shrinks the shape
  // before it tears the old machine down.
  for (int p = 0; p < host.machine->topology().TotalPcpus(); ++p) {
    host.busy += host.machine->BusyTime(p);
  }
  host.overhead += host.machine->controller_overhead();
}

void FleetRun::TeardownHost(int h, TimeNs now) {
  HostState& host = hosts_[static_cast<size_t>(h)];
  SnapshotHost(host, now);
  if (host.machine != nullptr) {
    // Save durable workload progress (checkpointing models) before the
    // machine goes away; the next build restores it.
    ForEachVcpu(host, [&](VmState& vm, int k, int id) {
      const WorkloadModel* model = host.machine->vcpu(id)->workload();
      if (model->HasDurableState()) {
        vm.durable[static_cast<size_t>(k)] = {true, model->SaveDurableState()};
      }
    });
    result_.counters += host.machine->counters();
  }
  host.machine.reset();
  host.sim.reset();
}

std::vector<FleetHostView> FleetRun::HostViews() const {
  std::vector<FleetHostView> out(static_cast<size_t>(cfg_.hosts));
  for (int h = 0; h < cfg_.hosts; ++h) {
    const HostState& host = hosts_[static_cast<size_t>(h)];
    FleetHostView& view = out[static_cast<size_t>(h)];
    view.host = h;
    // A crashed host mid-reboot is never a placement target either.
    view.draining = host.draining || host.offline || host.down;
    for (const int vm_index : host.vms) {
      CountResident(view, vms_[static_cast<size_t>(vm_index)]);
    }
  }
  return out;
}

FleetVmView FleetRun::VmView(int vm) const {
  const VmState& state = vms_[static_cast<size_t>(vm)];
  FleetVmView view;
  view.vm = vm;
  view.host = state.host;
  view.vcpus = state.spec.vcpus;
  view.llc_trasher = state.llc_trasher;
  view.mem_heavy = state.mem_heavy;
  return view;
}

int FleetRun::Place(int vm, std::vector<FleetHostView>& views) {
  const int target = scheduler_->Place(VmView(vm), views);
  AQL_CHECK(target >= 0 && target < cfg_.hosts);
  FleetHostView& tv = views[static_cast<size_t>(target)];
  AQL_CHECK(!tv.draining);
  CountResident(tv, vms_[static_cast<size_t>(vm)]);
  return target;
}

void FleetRun::ExecuteCharge(int h, TimeNs charge, ChargeKind kind) {
  HostState& host = hosts_[static_cast<size_t>(h)];
  if (charge <= 0 || host.machine == nullptr) {
    return;
  }
  host.machine->ChargeControllerOverhead(charge);
  if (kind == ChargeKind::kMigration) {
    host.stats.migration_charge += charge;
    result_.migration_charge += charge;
  } else {
    host.stats.fault_charge += charge;
    result_.fault_charge += charge;
  }
}

void FleetRun::Rehost(const std::vector<FleetMigration>& moves,
                      const std::vector<TimeNs>& charge, ChargeKind kind, TimeNs now) {
  std::vector<bool> touched(static_cast<size_t>(cfg_.hosts), false);
  for (const FleetMigration& m : moves) {
    if (m.from >= 0) {
      touched[static_cast<size_t>(m.from)] = true;
    }
    touched[static_cast<size_t>(m.to)] = true;
  }
  for (int h = 0; h < cfg_.hosts; ++h) {
    if (touched[static_cast<size_t>(h)]) {
      TeardownHost(h, now);
    }
  }
  for (const FleetMigration& m : moves) {
    if (m.from >= 0) {
      std::vector<int>& src = hosts_[static_cast<size_t>(m.from)].vms;
      src.erase(std::find(src.begin(), src.end(), m.vm));
    }
    hosts_[static_cast<size_t>(m.to)].vms.push_back(m.vm);
    vms_[static_cast<size_t>(m.vm)].host = m.to;
  }
  for (int h = 0; h < cfg_.hosts; ++h) {
    if (!touched[static_cast<size_t>(h)]) {
      continue;
    }
    HostState& host = hosts_[static_cast<size_t>(h)];
    if (host.vms.empty()) {
      // Fully evacuated. The final outgoing charge has no vCPUs left to
      // dilate, so it is not executed anywhere (the destination side of each
      // move still executes its half); the byte accounting is complete.
      host.offline = true;
      host.stats.drained = true;
      continue;
    }
    BuildHost(h, now);
    ExecuteCharge(h, charge[static_cast<size_t>(h)], kind);
  }
}

int64_t FleetRun::CapacityNs(const HostState& host) const {
  const TimeNs shrink =
      host.stats.degraded ? std::clamp(host.degraded_at, t_warm_, t_end_) : t_end_;
  return spec_.host_template.topology.TotalPcpus() * (shrink - t_warm_) +
         HostShape(host).TotalPcpus() * (t_end_ - shrink);
}

uint64_t FleetRun::MigrationBytes(const VmState& vm) {
  return static_cast<uint64_t>(vm.spec.vcpus) * kMigrationDirtyPagesPerVcpu *
         kMigrationPageBytes;
}

TimeNs FleetRun::TransferTime(uint64_t bytes) const {
  const double template_bw = spec_.host_template.topology.mem_bw_bytes_per_ns;
  const double bw = template_bw > 0 ? template_bw : kFallbackBwBytesPerNs;
  return static_cast<TimeNs>(static_cast<double>(bytes) / bw);
}

void FleetRun::ApplyMoves(const std::vector<FleetMigration>& moves, TimeNs now) {
  if (moves.empty()) {
    return;
  }
  // A VM may appear at most once per batch: Rehost erases exactly one VM
  // list entry per move, so a duplicate would corrupt the source host's
  // list (erase of end()).
  for (size_t i = 0; i < moves.size(); ++i) {
    for (size_t j = i + 1; j < moves.size(); ++j) {
      AQL_CHECK_MSG(moves[i].vm != moves[j].vm, "duplicate VM in migration batch");
    }
  }
  std::vector<TimeNs> charge(static_cast<size_t>(cfg_.hosts), 0);
  for (const FleetMigration& m : moves) {
    const VmState& vm = vms_[static_cast<size_t>(m.vm)];
    AQL_CHECK(vm.host == m.from && m.from != m.to);
    const uint64_t bytes = MigrationBytes(vm);
    const TimeNs cost = TransferTime(bytes);
    HostState& src = hosts_[static_cast<size_t>(m.from)];
    HostState& dst = hosts_[static_cast<size_t>(m.to)];
    ++src.stats.migrations_out;
    src.stats.migration_bytes_out += bytes;
    ++dst.stats.migrations_in;
    dst.stats.migration_bytes_in += bytes;
    charge[static_cast<size_t>(m.from)] += cost;
    charge[static_cast<size_t>(m.to)] += cost;
    ++result_.migrations;
    result_.migration_bytes += bytes;
  }
  Rehost(moves, charge, ChargeKind::kMigration, now);
}

void FleetRun::AttemptMoves(const std::vector<FleetMigration>& moves, TimeNs now) {
  const bool may_fail = injector_ != nullptr && cfg_.fault.migration_failure_prob > 0.0;
  std::vector<FleetMigration> granted;
  granted.reserve(moves.size());
  for (const FleetMigration& m : moves) {
    if (!may_fail || !injector_->MigrationAttemptFails()) {
      granted.push_back(m);
      retries_.erase(m.vm);  // a retried move that finally went through
      continue;
    }
    // Aborted mid-copy: the VM never moves and neither machine is rebuilt,
    // but the partial transfer wasted real bandwidth on both ends — charged
    // as executed occupancy, same contract as a successful migration.
    const uint64_t bytes = MigrationBytes(vms_[static_cast<size_t>(m.vm)]);
    const uint64_t wasted =
        static_cast<uint64_t>(cfg_.fault.abort_fraction * static_cast<double>(bytes));
    const TimeNs waste_cost = TransferTime(wasted);
    HostState& src = hosts_[static_cast<size_t>(m.from)];
    HostState& dst = hosts_[static_cast<size_t>(m.to)];
    ++src.stats.migration_failures;
    src.stats.aborted_bytes_out += wasted;
    dst.stats.aborted_bytes_in += wasted;
    ++result_.migration_failures;
    result_.aborted_bytes += wasted;
    ExecuteCharge(m.from, waste_cost, ChargeKind::kFault);
    ExecuteCharge(m.to, waste_cost, ChargeKind::kFault);
    RetryState& rs = retries_[m.vm];
    rs.move = m;
    ++rs.attempts;
    if (rs.attempts > cfg_.fault.max_retries) {
      retries_.erase(m.vm);
      ++result_.migrations_abandoned;  // the scheduler must re-propose
      continue;
    }
    ++result_.migration_retries;
    rs.next_attempt =
        now + (cfg_.fault.backoff ? cfg_.fault.backoff_base << (rs.attempts - 1) : 0);
  }
  ApplyMoves(granted, now);
}

void FleetRun::ProcessFaults(TimeNs now) {
  const FleetFaultPlan& plan = cfg_.fault;
  // Reboots: a crashed host returns to service empty (its VMs were re-placed
  // or still wait in the recovery queue) at the first boundary past
  // down_until, becoming a valid placement target again.
  for (HostState& host : hosts_) {
    if (host.down && now >= host.down_until) {
      host.down = false;
    }
  }
  // Degradations: the host survives but its machine shrinks — a brownout,
  // not a crash. Rebuild in place with the degraded topology (caches go
  // cold; durable progress and all accounting survive via the snapshot).
  for (const int h : injector_->DegradationsAt(now)) {
    HostState& host = hosts_[static_cast<size_t>(h)];
    if (host.down || host.offline || host.stats.degraded) {
      continue;  // not up, or already took its one brownout
    }
    host.bw_scale = plan.degraded_bw_scale;
    host.pcpu_drop = plan.degraded_pcpu_drop;
    host.degraded_at = now;
    host.stats.degraded = true;
    ++result_.degraded_hosts;
    if (host.machine != nullptr) {
      TeardownHost(h, now);
      BuildHost(h, now);
    }
  }
  // Fail-stop crashes: everything executed before the crash instant was
  // real work and stays in the books (the teardown snapshot captures it);
  // the VMs enter the recovery queue.
  for (const int h : injector_->CrashesAt(now)) {
    HostState& host = hosts_[static_cast<size_t>(h)];
    if (host.down || host.offline) {
      continue;  // already dead
    }
    ++host.stats.crashes;
    ++result_.crashes;
    host.down = true;
    host.down_until = now + plan.host_reboot;
    if (host.machine != nullptr) {
      TeardownHost(h, now);
    }
    for (const int vm_index : host.vms) {
      vms_[static_cast<size_t>(vm_index)].host = -1;
      // A pending retry whose source just lost the VM is moot.
      retries_.erase(vm_index);
      recovery_.push_back(RecoveryEntry{vm_index, now});
    }
    host.vms.clear();
  }
  ProcessRecovery(now);
}

// With fault injection, crashes can leave every host draining/down at once;
// the placement policies AQL_CHECK on that, so each scheduling path bails
// out for the boundary instead (faults queue, drains/rebalances wait).
bool AnyEligibleHost(const std::vector<FleetHostView>& views) {
  for (const FleetHostView& v : views) {
    if (!v.draining) {
      return true;
    }
  }
  return false;
}

void FleetRun::ProcessRecovery(TimeNs now) {
  if (recovery_.empty()) {
    return;
  }
  std::vector<FleetHostView> views = HostViews();
  if (!AnyEligibleHost(views)) {
    return;  // whole fleet down or draining: keep queueing
  }
  std::vector<TimeNs> charge(static_cast<size_t>(cfg_.hosts), 0);
  std::vector<FleetMigration> placed;  // from -1, in decision order
  std::vector<RecoveryEntry> waiting;
  for (const RecoveryEntry& e : recovery_) {
    if (now < e.crash_time + cfg_.fault.vm_restart_delay) {
      waiting.push_back(e);  // detection/re-fetch delay not over yet
      continue;
    }
    VmState& vm = vms_[static_cast<size_t>(e.vm)];
    const int target = Place(e.vm, views);
    placed.push_back(FleetMigration{e.vm, -1, target});
    // Downtime is the in-window overlap of the crash-to-restart interval.
    const TimeNs lo = std::max(e.crash_time, t_warm_);
    const TimeNs hi = std::min(now, t_end_);
    if (hi > lo) {
      vm.downtime += hi - lo;
    }
    charge[static_cast<size_t>(target)] +=
        static_cast<TimeNs>(vm.spec.vcpus) * cfg_.fault.restart_charge_per_vcpu;
    ++hosts_[static_cast<size_t>(target)].stats.restarts_in;
    ++result_.vm_restarts;
  }
  recovery_ = std::move(waiting);
  // The landing hosts execute the re-provisioning charge.
  Rehost(placed, charge, ChargeKind::kFault, now);
}

void FleetRun::ProcessRetries(TimeNs now) {
  if (retries_.empty()) {
    return;
  }
  std::vector<FleetMigration> due;
  std::vector<int> drop;
  for (const auto& [vm_index, rs] : retries_) {
    if (now < rs.next_attempt) {
      continue;  // still backing off
    }
    const HostState& dst = hosts_[static_cast<size_t>(rs.move.to)];
    if (vms_[static_cast<size_t>(vm_index)].host != rs.move.from || dst.draining ||
        dst.offline || dst.down) {
      // The source no longer holds the VM or the destination can no longer
      // accept: abandon — the scheduler is free to re-propose.
      drop.push_back(vm_index);
      continue;
    }
    due.push_back(rs.move);
  }
  for (const int vm_index : drop) {
    retries_.erase(vm_index);
    ++result_.migrations_abandoned;
  }
  AttemptMoves(due, now);
}

bool FleetRun::ProcessDrains(TimeNs now) {
  if (!cfg_.drain.Active()) {
    return false;
  }
  for (size_t k = 0; k < cfg_.drain.hosts.size(); ++k) {
    const TimeNs due = cfg_.drain.start + static_cast<TimeNs>(k) * cfg_.drain.interval;
    if (now >= due) {
      const int h = cfg_.drain.hosts[k];
      AQL_CHECK(h >= 0 && h < cfg_.hosts);
      hosts_[static_cast<size_t>(h)].draining = true;
    }
  }
  std::vector<FleetMigration> moves;
  std::vector<FleetHostView> views = HostViews();
  if (!AnyEligibleHost(views)) {
    return false;  // nowhere to evacuate to this boundary
  }
  for (const int h : cfg_.drain.hosts) {
    HostState& src = hosts_[static_cast<size_t>(h)];
    if (!src.draining || src.offline || src.vms.empty()) {
      continue;
    }
    const int batch = cfg_.drain.batch_per_epoch < 1
                          ? static_cast<int>(src.vms.size())
                          : cfg_.drain.batch_per_epoch;
    int taken = 0;
    for (size_t n = 0; n < src.vms.size() && taken < batch; ++n) {
      const int vm_index = src.vms[n];
      if (retries_.count(vm_index) != 0) {
        continue;  // already mid-move, waiting out its retry backoff
      }
      ++taken;
      // Place never returns a draining host, so never the source.
      moves.push_back(FleetMigration{vm_index, h, Place(vm_index, views)});
    }
  }
  AttemptMoves(moves, now);
  return !moves.empty();
}

void FleetRun::ProcessRebalance(TimeNs now) {
  if (cfg_.max_migrations_per_epoch <= 0) {
    return;
  }
  std::vector<FleetHostView> views = HostViews();
  if (!AnyEligibleHost(views)) {
    return;  // whole fleet down or draining this boundary
  }
  std::vector<FleetVmView> vm_views;
  vm_views.reserve(vms_.size());
  for (size_t i = 0; i < vms_.size(); ++i) {
    vm_views.push_back(VmView(static_cast<int>(i)));
  }
  std::vector<FleetMigration> proposed = scheduler_->Rebalance(views, vm_views);
  std::vector<FleetMigration> moves;
  for (const FleetMigration& m : proposed) {
    if (static_cast<int>(moves.size()) >= cfg_.max_migrations_per_epoch) {
      break;
    }
    AQL_CHECK(m.vm >= 0 && m.vm < static_cast<int>(vms_.size()));
    AQL_CHECK(m.to >= 0 && m.to < cfg_.hosts);
    const HostState& dst = hosts_[static_cast<size_t>(m.to)];
    if (vms_[static_cast<size_t>(m.vm)].host != m.from || m.from == m.to ||
        dst.draining || dst.offline || dst.down ||
        retries_.count(m.vm) != 0) {
      continue;  // stale, ineligible, or the VM is already mid-move
    }
    if (std::any_of(moves.begin(), moves.end(),
                    [&m](const FleetMigration& q) { return q.vm == m.vm; })) {
      continue;  // a policy proposed the VM twice this round: keep the first
    }
    moves.push_back(m);
  }
  AttemptMoves(moves, now);
}

void FleetRun::Finalize(FleetResult& out) {
  // VMs still waiting in the recovery queue at the end of the run were down
  // from their crash to the window edge.
  for (const RecoveryEntry& e : recovery_) {
    const TimeNs lo = std::max(e.crash_time, t_warm_);
    if (t_end_ > lo) {
      vms_[static_cast<size_t>(e.vm)].downtime += t_end_ - lo;
    }
  }
  std::vector<PerfReport> finalized;
  for (const VmState& vm : vms_) {
    for (const VcpuAccum& accum : vm.accum) {
      if (accum.segments.empty()) {
        // Only a crash can leave a vCPU with no measured segment (it spent
        // the whole window down); it contributes downtime, not perf.
        AQL_CHECK_MSG(injector_ != nullptr, "vCPU measured no segment");
        continue;
      }
      if (accum.segments.size() == 1) {
        finalized.push_back(accum.segments[0].second);
        continue;
      }
      PerfReport merged;
      merged.workload_name = accum.segments[0].second.workload_name;
      std::map<std::string, std::pair<double, double>> acc;  // key -> (w, w*v)
      for (const auto& [weight, report] : accum.segments) {
        for (const auto& [key, value] : report.metrics) {
          acc[key].first += weight;
          acc[key].second += weight * value;
        }
      }
      for (const auto& [key, wv] : acc) {
        merged.metrics[key] = wv.second / wv.first;
      }
      finalized.push_back(std::move(merged));
    }
  }
  out.app_groups = GroupReports(finalized);
  if (injector_ != nullptr) {
    // Per-application downtime/availability (vCPU-weighted). Every catalog
    // model reports under its app name, so keying by it lands the
    // annotation on the groups GroupReports produced.
    struct DownAcc {
      int64_t down_vcpu_ns = 0;
      int vcpus = 0;
    };
    std::map<std::string, DownAcc> down_by_app;
    for (const VmState& vm : vms_) {
      DownAcc& acc = down_by_app[vm.spec.app];
      acc.down_vcpu_ns += static_cast<int64_t>(vm.downtime) * vm.spec.vcpus;
      acc.vcpus += vm.spec.vcpus;
    }
    const double window = static_cast<double>(t_end_ - t_warm_);
    for (GroupPerf& g : out.app_groups) {
      const auto it = down_by_app.find(g.name);
      if (it == down_by_app.end() || it->second.vcpus == 0 || window <= 0) {
        continue;
      }
      const double down = static_cast<double>(it->second.down_vcpu_ns);
      g.metrics["downtime_ms"] = down / 1e6;
      g.metrics["availability"] =
          1.0 - down / (window * static_cast<double>(it->second.vcpus));
    }
  }

  out.measure_window = t_end_ - t_warm_;
  int64_t busy = 0;
  int64_t capacity = 0;  // pCPU-ns over the window, fleet-wide
  out.hosts.resize(static_cast<size_t>(cfg_.hosts));
  for (int h = 0; h < cfg_.hosts; ++h) {
    HostState& host = hosts_[static_cast<size_t>(h)];
    busy += host.busy;
    out.controller_overhead += host.overhead;
    out.events_processed += host.stats.events;
    if (host.machine != nullptr) {
      out.counters += host.machine->counters();
    }
    // Capacity counts drained and crashed hosts too: losing a host costs
    // the fleet its capacity, which is what the utilization figure should
    // show.
    const int64_t host_capacity = CapacityNs(host);
    capacity += host_capacity;
    host.stats.cpu_utilization =
        static_cast<double>(host.busy) / static_cast<double>(host_capacity);
    for (const int vm_index : host.vms) {
      host.stats.vcpus += vms_[static_cast<size_t>(vm_index)].spec.vcpus;
    }
    out.hosts[static_cast<size_t>(h)] = host.stats;
  }
  out.cpu_utilization =
      capacity > 0 ? static_cast<double>(busy) / static_cast<double>(capacity) : 0.0;
  int64_t down_vcpu_ns = 0;
  for (const VmState& vm : vms_) {
    out.vcpus_total += vm.spec.vcpus;
    out.downtime_total += vm.downtime;
    down_vcpu_ns += static_cast<int64_t>(vm.downtime) * vm.spec.vcpus;
  }
  if (injector_ != nullptr && out.vcpus_total > 0 && out.measure_window > 0) {
    out.availability = 1.0 - static_cast<double>(down_vcpu_ns) /
                                 (static_cast<double>(out.measure_window) *
                                  static_cast<double>(out.vcpus_total));
  }
}

FleetResult FleetRun::Run() {
  AQL_CHECK_MSG(cfg_.hosts >= 1, "fleet needs at least one host");
  AQL_CHECK(cfg_.epoch > 0);
  AQL_CHECK(!spec_.vms.empty());
  hosts_.resize(static_cast<size_t>(cfg_.hosts));
  scheduler_ = MakeClusterScheduler(cfg_.policy);
  InitVms();
  PlaceVms();
  for (int h = 0; h < cfg_.hosts; ++h) {
    // Hosts that received no VMs stay machineless until a migration arrives.
    if (!hosts_[static_cast<size_t>(h)].vms.empty()) {
      BuildHost(h, 0);
    }
  }

  // Boundary grid: the epoch multiples plus the exact window edges. Epoch
  // boundaries only split RunUntil calls — no event lands there unless a
  // sentinel or workload put one — so a migration-free fleet replays the
  // single-Machine event stream exactly.
  std::vector<TimeNs> boundaries;
  for (TimeNs t = cfg_.epoch; t < t_end_; t += cfg_.epoch) {
    boundaries.push_back(t);
  }
  boundaries.push_back(t_warm_);
  boundaries.push_back(t_end_);
  std::sort(boundaries.begin(), boundaries.end());
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()), boundaries.end());

  // The fault schedule is pre-drawn over the boundary grid before any host
  // runs: a pure function of (spec, seed), never of execution.
  if (cfg_.fault.Active()) {
    injector_ = std::make_unique<FaultInjector>(cfg_.fault, spec_.host_template.seed,
                                                cfg_.hosts, boundaries);
  }

  // Each epoch advances every host to the boundary in index order; then the
  // cross-host work — metric resets, faults, drains, rebalances,
  // migrations — runs in a fixed order.
  for (const TimeNs b : boundaries) {
    for (HostState& host : hosts_) {
      if (host.machine != nullptr) {
        host.stats.events += host.sim->RunUntil(b - host.build_time);
      }
    }
    ++result_.epochs;
    if (b == t_warm_) {
      for (HostState& host : hosts_) {
        if (host.machine != nullptr) {
          host.machine->ResetAllMetrics();
        }
      }
    }
    if (b == t_end_) {
      break;
    }
    // Fault pipeline first: reboots, degradations, crashes and recovery
    // re-placements all happen before this boundary's scheduling decisions,
    // so the scheduler always sees the post-fault fleet.
    if (injector_ != nullptr) {
      ProcessFaults(b);
      ProcessRetries(b);
    }
    // Cluster control: drain epochs take the whole migration budget;
    // rebalance runs otherwise. Decisions happen during warm-up too — a real
    // placer does not wait for anyone's measurement window.
    if (!ProcessDrains(b)) {
      ProcessRebalance(b);
    }
  }

  for (HostState& host : hosts_) {
    SnapshotHost(host, t_end_);
  }
  Finalize(result_);
  return std::move(result_);
}

}  // namespace

FleetResult RunFleet(const FleetSpec& spec) { return FleetRun(spec).Run(); }

}  // namespace aql
