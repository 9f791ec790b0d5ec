#include "src/experiment/runner.h"

#include <chrono>
#include <memory>
#include <utility>

#include "src/baselines/microsliced.h"
#include "src/baselines/vslicer.h"
#include "src/baselines/vturbo.h"
#include "src/sim/check.h"
#include "src/workload/catalog.h"
#include "src/workload/source.h"

namespace aql {

double ScenarioResult::GroupPrimary(const std::string& group) const {
  return FindGroup(groups, group).primary;
}

double ScenarioResult::AggregateCost() const {
  double weighted = 0.0;
  double vcpus = 0.0;
  for (const GroupPerf& g : groups) {
    if (g.name == "fleet" || g.name.rfind("host", 0) == 0) {
      continue;  // bookkeeping groups named by RunFleetScenario
    }
    weighted += g.primary * g.vcpus;
    vcpus += g.vcpus;
  }
  return vcpus > 0 ? weighted / vcpus : 0.0;
}

namespace {

// Builds the per-host controller a PolicySpec describes; shared by the
// single-machine path (inline) and the fleet path (as a factory invoked per
// host build). Returns nullptr for native Xen.
std::unique_ptr<SchedController> MakeController(const PolicySpec& policy,
                                                const std::vector<int>& io_vcpus,
                                                const RunOptions& options) {
  switch (policy.kind) {
    case PolicySpec::Kind::kXen:
      return nullptr;
    case PolicySpec::Kind::kAql: {
      auto ctl = std::make_unique<AqlController>(policy.aql);
      if (options.trace) {
        ctl->set_trace_hook(options.trace);
      }
      return ctl;
    }
    case PolicySpec::Kind::kMicrosliced:
      return std::make_unique<MicroslicedController>(policy.small_quantum);
    case PolicySpec::Kind::kVSlicer:
      return std::make_unique<VSlicerController>(io_vcpus, policy.small_quantum);
    case PolicySpec::Kind::kVTurbo:
      return std::make_unique<VTurboController>(io_vcpus, policy.turbo_pcpus,
                                                policy.small_quantum);
  }
  return nullptr;
}

// Fleet dispatch: maps the FleetResult into the ScenarioResult shape the
// sweep/JSON/merge/cache layers already understand. Groups carry three
// tiers, in order: per-application fleet aggregates (so renderers address
// them exactly like single-machine cells), one "hostN" group per host with
// the per-host metrics schema of docs/BENCH_FORMAT.md, and one "fleet"
// summary group.
ScenarioResult RunFleetScenario(const ScenarioSpec& spec, const PolicySpec& policy,
                                const RunOptions& options) {
  // Trace replay is single-machine only: fleet VMs migrate between hosts and
  // would need per-host stream re-attachment semantics the format does not
  // define.
  AQL_CHECK_MSG(spec.trace_path.empty(),
                "trace-driven scenarios cannot run on a fleet");

  const auto wall_start = std::chrono::steady_clock::now();

  MachineConfig mc = spec.machine;
  if (policy.kind == PolicySpec::Kind::kXen) {
    mc.credit.default_quantum = policy.xen_quantum;
  }

  FleetSpec fleet;
  fleet.host_template = mc;
  fleet.config = spec.fleet;
  fleet.warmup = spec.warmup;
  fleet.measure = spec.measure;
  fleet.vms = spec.vms;
  // Per-host controllers are rebuilt with the host on every migration
  // (detection state restarts cold, like the caches — the realistic
  // post-migration penalty).
  RunOptions host_options = options;
  host_options.trace = nullptr;  // cursor traces are single-machine only
  fleet.controller_factory = [&policy, &host_options](const std::vector<int>& io_vcpus) {
    return MakeController(policy, io_vcpus, host_options);
  };

  const auto sim_wall_start = std::chrono::steady_clock::now();
  FleetResult fr = RunFleet(fleet);
  const auto sim_wall_end = std::chrono::steady_clock::now();

  ScenarioResult result;
  result.scenario = spec.name;
  result.policy = policy.Label();
  result.groups = std::move(fr.app_groups);
  result.measure_window = fr.measure_window;
  result.cpu_utilization = fr.cpu_utilization;
  result.controller_overhead = fr.controller_overhead;
  result.events_processed = fr.events_processed;
  result.counters = fr.counters;
  result.fleet_epochs = fr.epochs;

  int drained_hosts = 0;
  for (size_t h = 0; h < fr.hosts.size(); ++h) {
    const FleetHostStats& hs = fr.hosts[h];
    GroupPerf g;
    g.name = "host" + std::to_string(h);
    g.vcpus = hs.vcpus;
    g.metrics["cpu_utilization"] = hs.cpu_utilization;
    g.metrics["events"] = static_cast<double>(hs.events);
    g.metrics["migrations_in"] = static_cast<double>(hs.migrations_in);
    g.metrics["migrations_out"] = static_cast<double>(hs.migrations_out);
    g.metrics["migration_bytes_in"] = static_cast<double>(hs.migration_bytes_in);
    g.metrics["migration_bytes_out"] = static_cast<double>(hs.migration_bytes_out);
    g.metrics["migration_charge_ms"] = ToMs(hs.migration_charge);
    g.metrics["drained"] = hs.drained ? 1.0 : 0.0;
    // Fault metrics exist only when the spec enables fault injection, so
    // fault-free runs (and the committed fleet goldens) stay byte-identical.
    if (spec.fleet.fault.Active()) {
      g.metrics["crashes"] = static_cast<double>(hs.crashes);
      g.metrics["degraded"] = hs.degraded ? 1.0 : 0.0;
      g.metrics["restarts_in"] = static_cast<double>(hs.restarts_in);
      g.metrics["migration_failures"] = static_cast<double>(hs.migration_failures);
      g.metrics["aborted_bytes_in"] = static_cast<double>(hs.aborted_bytes_in);
      g.metrics["aborted_bytes_out"] = static_cast<double>(hs.aborted_bytes_out);
      g.metrics["fault_charge_ms"] = ToMs(hs.fault_charge);
    }
    if (hs.drained) {
      ++drained_hosts;
    }
    result.groups.push_back(std::move(g));
  }
  GroupPerf fleet_group;
  fleet_group.name = "fleet";
  fleet_group.vcpus = fr.vcpus_total;
  fleet_group.metrics["hosts"] = static_cast<double>(fr.hosts.size());
  fleet_group.metrics["drained_hosts"] = static_cast<double>(drained_hosts);
  fleet_group.metrics["migrations"] = static_cast<double>(fr.migrations);
  fleet_group.metrics["migration_bytes"] = static_cast<double>(fr.migration_bytes);
  fleet_group.metrics["migration_charge_ms"] = ToMs(fr.migration_charge);
  if (spec.fleet.fault.Active()) {
    fleet_group.metrics["crashes"] = static_cast<double>(fr.crashes);
    fleet_group.metrics["vm_restarts"] = static_cast<double>(fr.vm_restarts);
    fleet_group.metrics["downtime_ms"] = ToMs(fr.downtime_total);
    fleet_group.metrics["availability"] = fr.availability;
    fleet_group.metrics["migration_failures"] =
        static_cast<double>(fr.migration_failures);
    fleet_group.metrics["migration_retries"] = static_cast<double>(fr.migration_retries);
    fleet_group.metrics["migrations_abandoned"] =
        static_cast<double>(fr.migrations_abandoned);
    fleet_group.metrics["aborted_bytes"] = static_cast<double>(fr.aborted_bytes);
    fleet_group.metrics["fault_charge_ms"] = ToMs(fr.fault_charge);
    fleet_group.metrics["degraded_hosts"] = static_cast<double>(fr.degraded_hosts);
  }
  result.groups.push_back(std::move(fleet_group));

  result.profile["sim_seconds"] =
      std::chrono::duration<double>(sim_wall_end - sim_wall_start).count();

  const auto wall_end = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  return result;
}

}  // namespace

ScenarioResult RunScenario(const ScenarioSpec& spec, const PolicySpec& policy,
                           const RunOptions& options) {
  if (spec.fleet.hosts > 0) {
    return RunFleetScenario(spec, policy, options);
  }

  const auto wall_start = std::chrono::steady_clock::now();

  MachineConfig mc = spec.machine;
  if (policy.kind == PolicySpec::Kind::kXen) {
    mc.credit.default_quantum = policy.xen_quantum;
  }

  Simulation sim(mc.seed);
  Machine machine(sim, mc);

  // Build VMs through the workload-source layer and remember which vCPUs
  // belong to I/O applications (the manual configuration vSlicer/vTurbo
  // require).
  std::vector<int> io_vcpus;
  int vm_index = 0;
  int trace_vms = 0;
  for (const VmSpec& vs : spec.vms) {
    Vm* vm = machine.AddVm("vm" + std::to_string(vm_index++) + "_" + vs.app, vs.weight,
                           vs.cap_percent);
    WorkloadSourceSpec source_spec;
    if (vs.app == kTraceAppName) {
      AQL_CHECK_MSG(!spec.trace_path.empty(),
                    "trace VM requires ScenarioSpec::trace_path");
      AQL_CHECK_MSG(++trace_vms == 1, "at most one trace VM per scenario");
      source_spec.trace_path = spec.trace_path;
    } else {
      source_spec.app = vs.app;
      source_spec.vcpus = vs.vcpus;
      source_spec.options.fifo_lock = vs.fifo_lock;
    }
    std::string source_error;
    auto source = MakeWorkloadSource(source_spec, &source_error);
    AQL_CHECK_MSG(source != nullptr, source_error.c_str());
    AQL_CHECK_MSG(source->Streams() == vs.vcpus,
                  "VmSpec::vcpus must equal the source's stream count");
    auto models = source->MakeModels();
    for (int s = 0; s < source->Streams(); ++s) {
      Vcpu* v = machine.AddVcpu(vm, std::move(models[static_cast<size_t>(s)]));
      if (source->StreamHasIo(s)) {
        io_vcpus.push_back(v->id());
      }
    }
  }

  AqlController* aql_controller = nullptr;
  std::unique_ptr<SchedController> controller = MakeController(policy, io_vcpus, options);
  if (controller != nullptr) {
    if (policy.kind == PolicySpec::Kind::kAql) {
      aql_controller = static_cast<AqlController*>(controller.get());
    }
    machine.SetController(std::move(controller));
  }

  const auto sim_wall_start = std::chrono::steady_clock::now();
  machine.Start();

  // Sentinel events align the clock exactly with the window boundaries.
  const TimeNs t_warm = sim.Now() + spec.warmup;
  const TimeNs t_end = t_warm + spec.measure;
  sim.At(t_warm, [](TimeNs) {});
  sim.At(t_end, [](TimeNs) {});

  uint64_t events = sim.RunUntil(t_warm);
  machine.ResetAllMetrics();
  events += sim.RunUntil(t_end);
  const auto sim_wall_end = std::chrono::steady_clock::now();

  ScenarioResult result;
  result.scenario = spec.name;
  result.policy = policy.Label();
  result.reports = machine.Reports();
  result.groups = GroupReports(result.reports);
  result.measure_window = t_end - machine.measure_start();
  result.events_processed = events;
  result.controller_overhead = machine.controller_overhead();
  result.counters = machine.counters();

  TimeNs busy = 0;
  for (int p = 0; p < mc.topology.TotalPcpus(); ++p) {
    busy += machine.BusyTime(p);
  }
  const double capacity = static_cast<double>(result.measure_window) *
                          static_cast<double>(mc.topology.TotalPcpus());
  result.cpu_utilization = capacity > 0 ? static_cast<double>(busy) / capacity : 0.0;

  if (aql_controller != nullptr) {
    for (const Vcpu* v : machine.vcpus()) {
      result.detected_types[v->id()] = aql_controller->TypeOf(v->id());
    }
    for (const PoolSpec& p : aql_controller->current_plan().pools) {
      ScenarioResult::PoolInfo info;
      info.label = p.label;
      info.quantum = p.quantum;
      info.pcpus = p.pcpus;
      info.vcpus = p.vcpus;
      result.pools.push_back(std::move(info));
    }
    result.plan_applications = aql_controller->plan_applications();
  }

  result.profile["sim_seconds"] =
      std::chrono::duration<double>(sim_wall_end - sim_wall_start).count();

  const auto wall_end = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  return result;
}

}  // namespace aql
