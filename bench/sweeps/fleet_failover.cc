// Fleet failover sweep: cluster-policy ablation under deterministic fault
// injection (src/fleet/fault_injector.h).
//
// A mixed population (LLC trashers, cache-sensitive work, bandwidth
// streamers and checkpointing HPC jobs) is policy-placed across the fleet,
// then hosts crash, migrations abort mid-transfer and hosts degrade on the
// injector's pre-drawn schedule. The ablation crosses the three cluster
// policies with two fault intensities and the retry-backoff switch; the
// `failover/control` cell runs the identical scenario with a zero-fault
// plan, so the committed golden pins the bit-identity contract (a control
// cell must match the same fleet built without the fault subsystem —
// tests/fleet_fault_test.cc asserts the stronger form).

#include <string>
#include <vector>

#include "src/experiment/registry.h"
#include "src/metrics/table.h"

namespace aql {
namespace {

const char* const kPolicies[] = {"naive", "mem_pressure", "cache_aware"};
const char* const kIntensities[] = {"low", "high"};
const char* const kBackoffs[] = {"bk", "nobk"};

ClusterPolicy PolicyOf(const std::string& tag) {
  if (tag == "naive") {
    return ClusterPolicy::kNaive;
  }
  if (tag == "mem_pressure") {
    return ClusterPolicy::kMemPressure;
  }
  return ClusterPolicy::kCacheAware;
}

// The ablated fault plans. Rates are per host per simulated second, so the
// quick golden (shorter windows, fewer hosts) sees proportionally fewer
// faults — what matters there is schedule determinism, not drama.
FleetFaultPlan PlanOf(const std::string& intensity, bool backoff, TimeNs epoch) {
  FleetFaultPlan plan;
  plan.crash_rate_per_host_per_sec = intensity == "high" ? 0.25 : 0.10;
  plan.migration_failure_prob = intensity == "high" ? 0.5 : 0.25;
  if (intensity == "high") {
    plan.degrade_rate_per_host_per_sec = 0.08;
    plan.degraded_bw_scale = 0.6;
    plan.degraded_pcpu_drop = 1;
  }
  plan.backoff = backoff;
  // 1.5 epochs in either mode, so a backed-off retry skips a boundary that
  // an immediate retry catches — a base at or below the epoch would make
  // the bk/nobk cells indistinguishable (retries only fire at boundaries).
  plan.backoff_base = epoch + epoch / 2;
  return plan;
}

std::vector<VmSpec> MixedVms(int hosts) {
  // Four VMs per host drawn from a repeating 8-app cycle: trashers and
  // streamers to provoke rebalancing (and therefore migration failures),
  // cache-sensitive work to make placement matter, and checkpointing HPC
  // jobs whose durable state exercises crash recovery.
  static const char* const kMix[] = {"libquantum", "bzip2",  "checkpoint_restart",
                                     "hmmer",      "stream_triad", "bzip2",
                                     "hmmer",      "checkpoint_restart"};
  std::vector<VmSpec> vms;
  const int count = hosts * 4;
  for (int i = 0; i < count; ++i) {
    vms.push_back(VmSpec{kMix[i % 8], 1});
  }
  return vms;
}

std::vector<SweepCell> Build(const SweepOptions& opts) {
  const int hosts = opts.quick ? 6 : 16;
  const TimeNs epoch = opts.quick ? Ms(100) : Ms(250);
  const std::vector<VmSpec> vms = MixedVms(hosts);

  std::vector<SweepCell> cells;
  auto add = [&](const std::string& id, ClusterPolicy cluster,
                 const FleetFaultPlan& plan) {
    SweepCell cell;
    // Id scheme: failover/<policy>/<intensity>/<bk|nobk> plus the control
    // cell. Ids are --cell/diff keys; keep them stable
    // (docs/BENCH_FORMAT.md, "Cell-ID stability rules").
    cell.id = id;
    cell.scenario =
        FleetScenario("failover/" + std::to_string(hosts) + "h", hosts, vms, cluster);
    cell.scenario.warmup = opts.Warmup(Sec(1));
    cell.scenario.measure = opts.Measure(Sec(4));
    cell.scenario.fleet.epoch = epoch;
    cell.scenario.fleet.max_migrations_per_epoch = opts.quick ? 4 : 8;
    cell.scenario.fleet.fault = plan;
    cell.policy = PolicySpec::Xen();
    cells.push_back(std::move(cell));
  };

  // Zero-fault control: same fleet, default (inert) plan. Its committed
  // golden bytes pin the "fault subsystem off = fault subsystem absent"
  // contract at the sweep level.
  add("failover/control", ClusterPolicy::kCacheAware, FleetFaultPlan{});
  for (const char* policy : kPolicies) {
    for (const char* intensity : kIntensities) {
      for (const char* backoff : kBackoffs) {
        add("failover/" + std::string(policy) + "/" + intensity + "/" + backoff,
            PolicyOf(policy),
            PlanOf(intensity, backoff == std::string("bk"), epoch));
      }
    }
  }

  return cells;
}

void Render(SweepContext& ctx) {
  TextTable table({"policy", "intensity", "backoff", "agg cost", "avail", "crashes",
                   "restarts", "mig fail", "retries", "abandoned"});
  for (const char* policy : kPolicies) {
    for (const char* intensity : kIntensities) {
      for (const char* backoff : kBackoffs) {
        const std::string id =
            "failover/" + std::string(policy) + "/" + intensity + "/" + backoff;
        const ScenarioResult& r = ctx.Result(id);
        const GroupPerf& fleet = FindGroup(r.groups, "fleet");
        const double cost = r.AggregateCost();
        table.AddRow({policy, intensity, backoff, TextTable::Num(cost, 3),
                      TextTable::Num(fleet.Metric("availability"), 4),
                      TextTable::Num(fleet.Metric("crashes"), 0),
                      TextTable::Num(fleet.Metric("vm_restarts"), 0),
                      TextTable::Num(fleet.Metric("migration_failures"), 0),
                      TextTable::Num(fleet.Metric("migration_retries"), 0),
                      TextTable::Num(fleet.Metric("migrations_abandoned"), 0)});
        const std::string key = std::string(policy) + "_" + intensity + "_" + backoff;
        ctx.Summary("failover_cost_" + key, cost);
        ctx.Summary("failover_availability_" + key, fleet.Metric("availability"));
        ctx.Summary("failover_crashes_" + key, fleet.Metric("crashes"));
      }
    }
  }
  ctx.AddTable(
      "Fleet failover: cluster-policy ablation under fault injection "
      "(availability is vCPU-time not lost to crash recovery)",
      table);

  const double control_cost = ctx.Result("failover/control").AggregateCost();
  ctx.Summary("failover_cost_control", control_cost);
  ctx.Print("zero-fault control agg cost: " + std::to_string(control_cost) + "\n");
}

SweepSpec Spec() {
  SweepSpec spec;
  spec.name = "fleet_failover";
  spec.description =
      "Fleet: fault-injection ablation (policy x intensity x backoff) plus "
      "zero-fault control";
  spec.build = Build;
  spec.render = Render;
  return spec;
}

AQL_REGISTER_SWEEP(Spec);

}  // namespace
}  // namespace aql
