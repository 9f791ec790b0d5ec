#include "src/fleet/fleet.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/sim/work_pool.h"
#include "src/sim/check.h"
#include "src/sim/rng.h"
#include "src/workload/catalog.h"

namespace aql {

uint64_t FleetHostSeed(uint64_t base_seed, int host, uint64_t rebuild) {
  // Two derivation stages: host index first, then the rebuild generation, so
  // a rebuilt machine never replays the stream its predecessor consumed.
  return Rng::DeriveSeed(Rng::DeriveSeed(base_seed, 0xf1ee70000ULL + static_cast<uint64_t>(host)),
                         rebuild);
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
  FleetVmSpec spec;
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
  // Parallel to `vms`: (first host-local vCPU id, count) of each VM in the
  // current build. Machine assigns ids sequentially, so ranges are dense.
  std::vector<std::pair<int, int>> ranges;
  TimeNs build_time = 0;
  uint64_t rebuilds = 0;  // generations built so far
  bool draining = false;
  bool offline = false;
  // Crashed and rebooting: no machine, not a placement target. Clears at
  // the first boundary >= down_until.
  bool down = false;
  TimeNs down_until = 0;
  // Degradation shape of every build from the brownout on.
  double bw_scale = 1.0;
  int pcpu_drop = 0;
  // Effective pCPU count of the current shape (== the template's until a
  // degradation shrinks it). Views, utilization and capacity all read this.
  int pcpus = 0;
  FleetHostStats stats;
  int64_t busy = 0;        // measured busy ns across segments
  TimeNs overhead = 0;     // measured controller overhead across segments
  // Per-island wall-clock attribution sink (FleetSpec::profile != nullptr
  // only). Private to this host so concurrent islands never share a sink;
  // the coordinator sums all sinks after the run. Lives in HostState (not
  // the Machine) so it survives migration rebuilds.
  SimPhaseProfile profile;
};

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
  void BuildHost(int h, TimeNs now);
  void SnapshotHost(HostState& host, TimeNs seg_end);
  // Snapshot + destroy a host's machine. Must run while the host's VM list
  // and ranges still describe the build that produced the counters — i.e.
  // BEFORE ApplyMoves rewrites the lists.
  void TeardownHost(int h, TimeNs now);
  // Rebuild a torn-down host around its (possibly rewritten) VM list, or
  // retire it if the list emptied; executes the migration charge.
  void RelaunchHost(int h, TimeNs now, TimeNs charge);
  std::vector<FleetHostView> HostViews() const;
  std::vector<FleetVmView> VmViews() const;
  // Applies validated moves: updates VM lists, charges both ends, rebuilds
  // every affected host once.
  void ApplyMoves(const std::vector<FleetMigration>& moves, TimeNs now);
  // Fault-aware funnel in front of ApplyMoves: with migration failures
  // enabled, draws a verdict per move, books aborted-transfer waste on both
  // ends and schedules retries; forwards the surviving moves. With no
  // injector (or a zero failure probability) it is a plain passthrough.
  void AttemptMoves(const std::vector<FleetMigration>& moves, TimeNs now);
  // Dirty-page transfer bandwidth of the host template.
  double MigrationBandwidth() const;
  // Effective pCPU count of `host`'s shape without building a machine.
  int EffectivePcpus(const HostState& host) const;
  bool ProcessDrains(TimeNs now);
  void ProcessRebalance(TimeNs now);
  // Boundary fault pipeline: reboots, degradations, crashes, then recovery
  // placement of queued VMs. Coordinator thread only.
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
  for (const FleetVmSpec& vs : spec_.vms) {
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
  if (!cfg_.declared_hosts.empty()) {
    AQL_CHECK_MSG(cfg_.declared_hosts.size() == vms_.size(),
                  "declared_hosts must name a host per VM");
    for (size_t i = 0; i < vms_.size(); ++i) {
      const int h = cfg_.declared_hosts[i];
      AQL_CHECK(h >= 0 && h < cfg_.hosts);
      vms_[i].host = h;
      hosts_[static_cast<size_t>(h)].vms.push_back(static_cast<int>(i));
    }
    return;
  }
  // Admission in VM order; each decision sees the placements made so far.
  for (size_t i = 0; i < vms_.size(); ++i) {
    FleetVmView view;
    view.vm = static_cast<int>(i);
    view.vcpus = vms_[i].spec.vcpus;
    view.llc_trasher = vms_[i].llc_trasher;
    view.mem_heavy = vms_[i].mem_heavy;
    const int h = scheduler_->Place(view, HostViews());
    AQL_CHECK(h >= 0 && h < cfg_.hosts);
    vms_[i].host = h;
    hosts_[static_cast<size_t>(h)].vms.push_back(static_cast<int>(i));
  }
}

void FleetRun::BuildHost(int h, TimeNs now) {
  HostState& host = hosts_[static_cast<size_t>(h)];
  AQL_CHECK(!host.vms.empty());
  MachineConfig mc = spec_.host_template;
  mc.seed = FleetHostSeed(spec_.host_template.seed, h, host.rebuilds);
  // Degradation shapes every build from the brownout on: reduced DRAM
  // bandwidth and/or fewer cores per socket (never below one).
  if (host.bw_scale != 1.0) {
    mc.topology.mem_bw_bytes_per_ns *= host.bw_scale;
  }
  if (host.pcpu_drop > 0) {
    mc.topology.cores_per_socket =
        std::max(1, mc.topology.cores_per_socket - host.pcpu_drop);
  }
  host.pcpus = mc.topology.TotalPcpus();
  host.sim = std::make_unique<Simulation>(mc.seed);
  host.machine = std::make_unique<Machine>(*host.sim, mc);
  host.ranges.clear();
  std::vector<int> io_vcpus;
  int cursor = 0;
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
    host.ranges.emplace_back(cursor, vs.spec.vcpus);
    cursor += vs.spec.vcpus;
    ++position;
  }
  if (spec_.controller_factory) {
    auto controller = spec_.controller_factory(io_vcpus);
    if (controller != nullptr) {
      host.machine->SetController(std::move(controller));
    }
  }
  if (spec_.profile != nullptr) {
    host.machine->SetProfile(&host.profile);
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
  std::vector<PerfReport> reports = host.machine->Reports();
  for (size_t i = 0; i < host.vms.size(); ++i) {
    VmState& vs = vms_[static_cast<size_t>(host.vms[i])];
    const auto [first, count] = host.ranges[i];
    for (int k = 0; k < count; ++k) {
      vs.accum[static_cast<size_t>(k)].segments.emplace_back(
          weight, std::move(reports[static_cast<size_t>(first + k)]));
    }
  }
  for (int p = 0; p < host.pcpus; ++p) {
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
    for (size_t i = 0; i < host.vms.size(); ++i) {
      VmState& vs = vms_[static_cast<size_t>(host.vms[i])];
      const auto [first, count] = host.ranges[i];
      for (int k = 0; k < count; ++k) {
        const WorkloadModel* model = host.machine->vcpu(first + k)->workload();
        if (model->HasDurableState()) {
          vs.durable[static_cast<size_t>(k)] = {true, model->SaveDurableState()};
        }
      }
    }
  }
  host.machine.reset();
  host.sim.reset();
}

void FleetRun::RelaunchHost(int h, TimeNs now, TimeNs charge) {
  HostState& host = hosts_[static_cast<size_t>(h)];
  if (host.vms.empty()) {
    // Fully evacuated. The final outgoing charge has no vCPUs left to
    // dilate, so it is not executed anywhere (the destination side of each
    // move still executes its half); the byte accounting above is complete.
    host.offline = true;
    host.stats.drained = true;
    return;
  }
  BuildHost(h, now);
  if (charge > 0) {
    host.machine->ChargeControllerOverhead(charge);
    host.stats.migration_charge += charge;
    result_.migration_charge += charge;
  }
}

std::vector<FleetHostView> FleetRun::HostViews() const {
  std::vector<FleetHostView> out(static_cast<size_t>(cfg_.hosts));
  for (int h = 0; h < cfg_.hosts; ++h) {
    const HostState& host = hosts_[static_cast<size_t>(h)];
    FleetHostView& view = out[static_cast<size_t>(h)];
    view.host = h;
    view.pcpus = host.pcpus;
    // A crashed host mid-reboot is never a placement target either.
    view.draining = host.draining || host.offline || host.down;
    for (const int vm_index : host.vms) {
      const VmState& vs = vms_[static_cast<size_t>(vm_index)];
      view.vcpus += vs.spec.vcpus;
      if (vs.llc_trasher) {
        ++view.trashers;
      }
      if (vs.mem_heavy) {
        view.mem_heavy_vcpus += vs.spec.vcpus;
      }
    }
    if (host.machine != nullptr) {
      const int sockets = spec_.host_template.topology.sockets;
      for (int s = 0; s < sockets; ++s) {
        view.bus_demand += host.machine->mem_bus().TotalDemand(s);
        view.llc_occupancy += host.machine->llc().TotalOccupancy(s);
      }
    }
  }
  return out;
}

std::vector<FleetVmView> FleetRun::VmViews() const {
  std::vector<FleetVmView> out(vms_.size());
  for (size_t i = 0; i < vms_.size(); ++i) {
    FleetVmView& view = out[i];
    view.vm = static_cast<int>(i);
    view.host = vms_[i].host;
    view.vcpus = vms_[i].spec.vcpus;
    view.llc_trasher = vms_[i].llc_trasher;
    view.mem_heavy = vms_[i].mem_heavy;
    if (vms_[i].host < 0) {
      continue;  // crashed, waiting in the recovery queue: occupies nothing
    }
    const HostState& host = hosts_[static_cast<size_t>(vms_[i].host)];
    if (host.machine != nullptr) {
      // Locate the VM's vCPU range in the host's current build.
      for (size_t j = 0; j < host.vms.size(); ++j) {
        if (host.vms[j] != static_cast<int>(i)) {
          continue;
        }
        const auto [first, count] = host.ranges[j];
        const int sockets = spec_.host_template.topology.sockets;
        for (int k = 0; k < count; ++k) {
          for (int s = 0; s < sockets; ++s) {
            view.llc_occupancy += host.machine->llc().Occupancy(s, first + k);
          }
        }
        break;
      }
    }
  }
  return out;
}

double FleetRun::MigrationBandwidth() const {
  return spec_.host_template.topology.mem_bw_bytes_per_ns > 0
             ? spec_.host_template.topology.mem_bw_bytes_per_ns
             : cfg_.migration.fallback_bw_bytes_per_ns;
}

int FleetRun::EffectivePcpus(const HostState& host) const {
  Topology t = spec_.host_template.topology;
  if (host.pcpu_drop > 0) {
    t.cores_per_socket = std::max(1, t.cores_per_socket - host.pcpu_drop);
  }
  return t.TotalPcpus();
}

void FleetRun::ApplyMoves(const std::vector<FleetMigration>& moves, TimeNs now) {
  if (moves.empty()) {
    return;
  }
  std::vector<TimeNs> charge(static_cast<size_t>(cfg_.hosts), 0);
  std::vector<bool> touched(static_cast<size_t>(cfg_.hosts), false);
  const double bw = MigrationBandwidth();
  // A VM may appear at most once per batch: pass 3 erases exactly one VM
  // list entry per move, so a duplicate would corrupt the source host's
  // list (erase of end()).
  for (size_t i = 0; i < moves.size(); ++i) {
    for (size_t j = i + 1; j < moves.size(); ++j) {
      AQL_CHECK_MSG(moves[i].vm != moves[j].vm, "duplicate VM in migration batch");
    }
  }
  // Pass 1: validate moves, accumulate per-end byte/charge accounting.
  for (const FleetMigration& m : moves) {
    const VmState& vm = vms_[static_cast<size_t>(m.vm)];
    AQL_CHECK(vm.host == m.from && m.from != m.to);
    const uint64_t bytes = static_cast<uint64_t>(vm.spec.vcpus) *
                           cfg_.migration.dirty_pages_per_vcpu * cfg_.migration.page_bytes;
    const TimeNs cost = static_cast<TimeNs>(static_cast<double>(bytes) / bw);
    HostState& src = hosts_[static_cast<size_t>(m.from)];
    HostState& dst = hosts_[static_cast<size_t>(m.to)];
    ++src.stats.migrations_out;
    src.stats.migration_bytes_out += bytes;
    ++dst.stats.migrations_in;
    dst.stats.migration_bytes_in += bytes;
    charge[static_cast<size_t>(m.from)] += cost;
    charge[static_cast<size_t>(m.to)] += cost;
    touched[static_cast<size_t>(m.from)] = true;
    touched[static_cast<size_t>(m.to)] = true;
    ++result_.migrations;
    result_.migration_bytes += bytes;
  }
  // Pass 2: snapshot + tear down every touched host while its VM list and
  // ranges still describe the machine whose counters we are reading.
  for (int h = 0; h < cfg_.hosts; ++h) {
    if (touched[static_cast<size_t>(h)]) {
      TeardownHost(h, now);
    }
  }
  // Pass 3: rewrite the VM lists.
  for (const FleetMigration& m : moves) {
    HostState& src = hosts_[static_cast<size_t>(m.from)];
    src.vms.erase(std::find(src.vms.begin(), src.vms.end(), m.vm));
    hosts_[static_cast<size_t>(m.to)].vms.push_back(m.vm);
    vms_[static_cast<size_t>(m.vm)].host = m.to;
  }
  // Pass 4: bring the touched hosts back up (or retire the emptied ones),
  // executing each end's dirty-page transfer charge.
  for (int h = 0; h < cfg_.hosts; ++h) {
    if (touched[static_cast<size_t>(h)]) {
      RelaunchHost(h, now, charge[static_cast<size_t>(h)]);
    }
  }
}

void FleetRun::AttemptMoves(const std::vector<FleetMigration>& moves, TimeNs now) {
  if (injector_ == nullptr || cfg_.fault.migration_failure_prob <= 0.0) {
    ApplyMoves(moves, now);
    return;
  }
  const double bw = MigrationBandwidth();
  std::vector<FleetMigration> granted;
  granted.reserve(moves.size());
  for (const FleetMigration& m : moves) {
    if (!injector_->MigrationAttemptFails()) {
      granted.push_back(m);
      retries_.erase(m.vm);  // a retried move that finally went through
      continue;
    }
    // Aborted mid-copy: the VM never moves and neither machine is rebuilt,
    // but the partial transfer wasted real bandwidth on both ends — charged
    // as executed occupancy, same contract as a successful migration.
    const VmState& vm = vms_[static_cast<size_t>(m.vm)];
    const uint64_t bytes = static_cast<uint64_t>(vm.spec.vcpus) *
                           cfg_.migration.dirty_pages_per_vcpu * cfg_.migration.page_bytes;
    const uint64_t wasted =
        static_cast<uint64_t>(cfg_.fault.abort_fraction * static_cast<double>(bytes));
    const TimeNs waste_cost = static_cast<TimeNs>(static_cast<double>(wasted) / bw);
    HostState& src = hosts_[static_cast<size_t>(m.from)];
    HostState& dst = hosts_[static_cast<size_t>(m.to)];
    ++src.stats.migration_failures;
    src.stats.aborted_bytes_out += wasted;
    dst.stats.aborted_bytes_in += wasted;
    ++result_.migration_failures;
    result_.aborted_bytes += wasted;
    if (waste_cost > 0) {
      // A machineless end (an empty destination) has no vCPUs to dilate;
      // like the drained-host exception, its half stays byte accounting.
      if (src.machine != nullptr) {
        src.machine->ChargeControllerOverhead(waste_cost);
        src.stats.fault_charge += waste_cost;
        result_.fault_charge += waste_cost;
      }
      if (dst.machine != nullptr) {
        dst.machine->ChargeControllerOverhead(waste_cost);
        dst.stats.fault_charge += waste_cost;
        result_.fault_charge += waste_cost;
      }
    }
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
    host.stats.degraded = true;
    ++result_.degraded_hosts;
    if (host.machine != nullptr) {
      TeardownHost(h, now);
      BuildHost(h, now);
    } else {
      host.pcpus = EffectivePcpus(host);
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
    host.ranges.clear();
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
  std::vector<bool> touched(static_cast<size_t>(cfg_.hosts), false);
  std::vector<std::pair<int, int>> placed;  // (vm, target) in decision order
  std::vector<RecoveryEntry> waiting;
  for (const RecoveryEntry& e : recovery_) {
    if (now < e.crash_time + cfg_.fault.vm_restart_delay) {
      waiting.push_back(e);  // detection/re-fetch delay not over yet
      continue;
    }
    VmState& vm = vms_[static_cast<size_t>(e.vm)];
    FleetVmView view;
    view.vm = e.vm;
    view.host = -1;
    view.vcpus = vm.spec.vcpus;
    view.llc_trasher = vm.llc_trasher;
    view.mem_heavy = vm.mem_heavy;
    const int target = scheduler_->Place(view, views);
    AQL_CHECK(target >= 0 && target < cfg_.hosts);
    AQL_CHECK(!views[static_cast<size_t>(target)].draining);
    placed.emplace_back(e.vm, target);
    // Downtime is the in-window overlap of the crash-to-restart interval.
    const TimeNs lo = std::max(e.crash_time, t_warm_);
    const TimeNs hi = std::min(now, t_end_);
    if (hi > lo) {
      vm.downtime += hi - lo;
    }
    charge[static_cast<size_t>(target)] +=
        static_cast<TimeNs>(vm.spec.vcpus) * cfg_.fault.restart_charge_per_vcpu;
    touched[static_cast<size_t>(target)] = true;
    // Keep the views current so consecutive restarts spread out.
    FleetHostView& tv = views[static_cast<size_t>(target)];
    tv.vcpus += view.vcpus;
    if (view.llc_trasher) {
      ++tv.trashers;
    }
    if (view.mem_heavy) {
      tv.mem_heavy_vcpus += view.vcpus;
    }
  }
  recovery_ = std::move(waiting);
  if (placed.empty()) {
    return;
  }
  // Same shape as ApplyMoves: snapshot + tear down every receiving host
  // while lists still describe the old build, rewrite lists, then rebuild
  // with the executed re-provisioning charge.
  for (int h = 0; h < cfg_.hosts; ++h) {
    if (touched[static_cast<size_t>(h)]) {
      TeardownHost(h, now);
    }
  }
  for (const auto& [vm_index, target] : placed) {
    hosts_[static_cast<size_t>(target)].vms.push_back(vm_index);
    vms_[static_cast<size_t>(vm_index)].host = target;
    ++hosts_[static_cast<size_t>(target)].stats.restarts_in;
    ++result_.vm_restarts;
  }
  for (int h = 0; h < cfg_.hosts; ++h) {
    if (!touched[static_cast<size_t>(h)]) {
      continue;
    }
    HostState& host = hosts_[static_cast<size_t>(h)];
    BuildHost(h, now);
    const TimeNs c = charge[static_cast<size_t>(h)];
    if (c > 0) {
      host.machine->ChargeControllerOverhead(c);
      host.stats.fault_charge += c;
      result_.fault_charge += c;
    }
  }
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
      FleetVmView view;
      view.vm = vm_index;
      view.host = h;
      view.vcpus = vms_[static_cast<size_t>(vm_index)].spec.vcpus;
      view.llc_trasher = vms_[static_cast<size_t>(vm_index)].llc_trasher;
      view.mem_heavy = vms_[static_cast<size_t>(vm_index)].mem_heavy;
      const int target = scheduler_->Place(view, views);
      AQL_CHECK(target != h && !views[static_cast<size_t>(target)].draining);
      moves.push_back(FleetMigration{vm_index, h, target});
      // Keep the views current so consecutive evacuations spread out.
      FleetHostView& tv = views[static_cast<size_t>(target)];
      tv.vcpus += view.vcpus;
      if (view.llc_trasher) {
        ++tv.trashers;
      }
      if (view.mem_heavy) {
        tv.mem_heavy_vcpus += view.vcpus;
      }
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
  std::vector<FleetMigration> proposed = scheduler_->Rebalance(views, VmViews());
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
    // Per-application downtime/availability (vCPU-weighted). Keyed by the
    // report name so the annotation lands on the same groups GroupReports
    // produced; a VM that never measured a segment falls back to its
    // catalog app name.
    struct DownAcc {
      int64_t down_vcpu_ns = 0;
      int vcpus = 0;
    };
    std::map<std::string, DownAcc> down_by_app;
    for (const VmState& vm : vms_) {
      std::string name = vm.spec.app;
      for (const VcpuAccum& accum : vm.accum) {
        if (!accum.segments.empty()) {
          name = accum.segments[0].second.workload_name;
          break;
        }
      }
      DownAcc& acc = down_by_app[name];
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
  int pcpus_total = 0;
  out.hosts.resize(static_cast<size_t>(cfg_.hosts));
  for (int h = 0; h < cfg_.hosts; ++h) {
    HostState& host = hosts_[static_cast<size_t>(h)];
    busy += host.busy;
    pcpus_total += host.pcpus;
    out.controller_overhead += host.overhead;
    out.events_processed += host.stats.events;
    host.stats.cpu_utilization =
        static_cast<double>(host.busy) /
        (static_cast<double>(out.measure_window) * static_cast<double>(host.pcpus));
    for (const int vm_index : host.vms) {
      host.stats.vcpus += vms_[static_cast<size_t>(vm_index)].spec.vcpus;
    }
    out.hosts[static_cast<size_t>(h)] = host.stats;
  }
  // Capacity counts drained hosts too: evacuating a host costs the fleet its
  // capacity, which is exactly what the utilization figure should show.
  // Degraded hosts count at their shrunken shape.
  const double capacity =
      static_cast<double>(out.measure_window) * static_cast<double>(pcpus_total);
  out.cpu_utilization = capacity > 0 ? static_cast<double>(busy) / capacity : 0.0;
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
  for (HostState& host : hosts_) {
    host.pcpus = spec_.host_template.topology.TotalPcpus();
  }
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

  // The fault schedule is pre-drawn over the boundary grid before any
  // island executes: a pure function of (spec, seed), never of execution.
  if (cfg_.fault.Active()) {
    injector_ = std::make_unique<FaultInjector>(cfg_.fault, spec_.host_template.seed,
                                                cfg_.hosts, boundaries);
  }

  // Island phase + barrier protocol. Advancing a host island to the
  // boundary touches exclusively host-local state (its Simulation, Machine,
  // stats), so the pool may hand islands to worker threads in any order and
  // still produce the sequential loop's exact bytes. With island_threads <=
  // 1 (or one host) the pool spawns nothing and this IS the sequential
  // loop, island index order included. Everything below the barrier —
  // metric resets, drains, rebalances, migrations — runs on this
  // (coordinating) thread only.
  WorkPool pool(std::min(spec_.island_threads, cfg_.hosts));
  if (spec_.profile != nullptr) {
    // Coordinator wait at the fleet's island barriers (--profile's
    // barrier_wait phase; hosts have no pool of their own, so this is the
    // only barrier in a fleet run).
    pool.set_wait_profile(&spec_.profile->barrier_wait_seconds);
  }
  const auto advance_island = [this](TimeNs b) {
    return [this, b](size_t h) {
      HostState& host = hosts_[h];
      if (host.machine != nullptr) {
        host.stats.events += host.sim->RunUntil(b - host.build_time);
      }
    };
  };

  for (const TimeNs b : boundaries) {
    pool.Run(hosts_.size(), advance_island(b));
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
  if (spec_.profile != nullptr) {
    // Merge the per-island attribution sinks in host index order. Wall-clock
    // data only — it rides with the timing fields, never in stable JSON.
    for (const HostState& host : hosts_) {
      spec_.profile->event_core.seconds += host.profile.event_core.seconds;
      spec_.profile->event_core.events += host.profile.event_core.events;
      spec_.profile->llc_seconds += host.profile.llc_seconds;
      spec_.profile->scheduler_seconds += host.profile.scheduler_seconds;
    }
  }
  Finalize(result_);
  return std::move(result_);
}

}  // namespace

FleetResult RunFleet(const FleetSpec& spec) { return FleetRun(spec).Run(); }

}  // namespace aql
