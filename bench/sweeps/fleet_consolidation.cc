// Fleet consolidation sweep: packing density vs. aggregate normalized
// performance.
//
// A fixed VM population (FleetWorkloadMix: 3/8 cache/bandwidth-destructive)
// is spread over progressively fewer hosts — the consolidation decision
// every capacity planner faces — with AQL running per host. The aggregate
// vCPU-weighted cost of the dense packings, normalized to the sparse one,
// is the price of density under contention. The sparse quick cell runs 100
// hosts (the CI-scale fleet cell); full mode tops out at 1024 hosts /
// 4096 VMs per cell (12k+ simulated vCPUs across the ladder).

#include <string>
#include <vector>

#include "src/experiment/registry.h"
#include "src/metrics/table.h"

namespace aql {
namespace {

struct Rung {
  const char* tag;
  int quick_hosts;
  int full_hosts;
};

// Density ladder, sparse to dense (quick: 256 VMs; full: 4096 VMs).
const Rung kLadder[] = {
    {"sparse", 100, 1024},
    {"mid", 32, 512},
    {"dense", 16, 256},
};

std::vector<SweepCell> Build(const SweepOptions& opts) {
  const int vm_count = opts.quick ? 256 : 4096;
  const std::vector<VmSpec> vms = FleetWorkloadMix(vm_count);
  std::vector<SweepCell> cells;
  for (const Rung& rung : kLadder) {
    const int hosts = opts.quick ? rung.quick_hosts : rung.full_hosts;
    SweepCell cell;
    // Id scheme: consolidation/<density-tag> — stable across quick/full so
    // --cell probes and diffs line up (docs/BENCH_FORMAT.md).
    cell.id = "consolidation/" + std::string(rung.tag);
    cell.scenario = FleetScenario("consolidation/" + std::to_string(hosts) + "h", hosts,
                                  vms, ClusterPolicy::kNaive);
    cell.scenario.warmup = opts.Warmup(Sec(1));
    cell.scenario.measure = opts.Measure(Sec(4));
    cell.scenario.fleet.epoch = Ms(250);  // no rebalancing: coarse grid is fine
    cell.policy = PolicySpec::Aql();
    cells.push_back(std::move(cell));
  }
  return cells;
}

void Render(SweepContext& ctx) {
  TextTable table({"packing", "hosts", "vcpus/pcpu", "agg cost", "vs sparse",
                   "fleet util"});
  const double sparse_cost = ctx.Result("consolidation/sparse").AggregateCost();
  for (const Rung& rung : kLadder) {
    const ScenarioResult& r = ctx.Result("consolidation/" + std::string(rung.tag));
    const double cost = r.AggregateCost();
    const double penalty = sparse_cost > 0 ? cost / sparse_cost : 0.0;
    const GroupPerf& fleet = FindGroup(r.groups, "fleet");
    const double hosts = fleet.Metric("hosts");
    const double density =
        hosts > 0 ? static_cast<double>(fleet.vcpus) / (hosts * 4.0) : 0.0;
    table.AddRow({rung.tag, TextTable::Num(hosts, 0), TextTable::Num(density, 2),
                  TextTable::Num(cost, 3), TextTable::Num(penalty, 3),
                  TextTable::Num(r.cpu_utilization, 3)});
    ctx.Summary("consolidation_cost_" + std::string(rung.tag), cost);
    ctx.Summary("consolidation_penalty_" + std::string(rung.tag), penalty);
  }
  ctx.AddTable(
      "Fleet consolidation: aggregate cost of packing one VM population onto "
      "fewer hosts (vs sparse > 1 is the density penalty)",
      table);
}

SweepSpec Spec() {
  SweepSpec spec;
  spec.name = "fleet_consolidation";
  spec.description =
      "Fleet: packing-density ladder (100+ hosts) under per-host AQL";
  spec.build = Build;
  spec.render = Render;
  return spec;
}

AQL_REGISTER_SWEEP(Spec);

}  // namespace
}  // namespace aql
