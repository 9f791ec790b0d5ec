// Fleet drain sweep: rolling-upgrade evacuation under load.
//
// A quarter of the fleet (an upgrade batch) drains host by host on a fixed
// cadence while the whole population keeps running at 1.5x overcommit. Each
// evacuated VM pays the dirty-page transfer and restarts cold on its target;
// the survivors absorb the displaced load. The ablation compares naive
// placement+targeting (least-populated host) against cache-aware
// (trasher-segregating) placement+targeting. Segregation is not a free
// lunch here: under 1.5x overcommit it concentrates the cache-sensitive
// population on few hosts, so this sweep measures what evacuating into a
// loaded fleet actually costs each philosophy rather than crowning either.

#include <string>
#include <vector>

#include "src/experiment/registry.h"
#include "src/metrics/table.h"

namespace aql {
namespace {

const char* const kTags[] = {"naive", "cache_aware"};

std::vector<SweepCell> Build(const SweepOptions& opts) {
  const int hosts = opts.quick ? 12 : 128;
  const std::vector<VmSpec> vms = FleetWorkloadMix(6 * hosts);  // 1.5x overcommit
  const TimeNs warmup = opts.Warmup(Sec(1));
  const TimeNs measure = opts.Measure(Sec(4));

  std::vector<SweepCell> cells;
  for (const char* tag : kTags) {
    SweepCell cell;
    // Id scheme: drain/<tag> (docs/BENCH_FORMAT.md, "Cell-ID stability").
    cell.id = "drain/" + std::string(tag);
    const ClusterPolicy cluster = std::string(tag) == "naive"
                                      ? ClusterPolicy::kNaive
                                      : ClusterPolicy::kCacheAware;
    cell.scenario =
        FleetScenario("drain/" + std::to_string(hosts) + "h", hosts, vms, cluster);
    cell.scenario.warmup = warmup;
    cell.scenario.measure = measure;
    cell.scenario.fleet.epoch = opts.quick ? Ms(50) : Ms(125);
    // The drain IS the experiment: rebalancing stays off so every migration
    // is an evacuation (cells differ in initial placement and targeting).
    cell.scenario.fleet.max_migrations_per_epoch = 0;
    for (int h = 0; h < hosts / 4; ++h) {
      cell.scenario.fleet.drain.hosts.push_back(h);
    }
    // Rolling cadence: first host right after warm-up, the rest staggered
    // through the first half of the measurement window.
    cell.scenario.fleet.drain.start = warmup + measure / 8;
    cell.scenario.fleet.drain.interval = (measure / 2) / (hosts / 4);
    cell.scenario.fleet.drain.batch_per_epoch = opts.quick ? 4 : 8;
    cell.policy = PolicySpec::Xen();
    cells.push_back(std::move(cell));
  }
  return cells;
}

void Render(SweepContext& ctx) {
  TextTable table({"evacuation policy", "agg cost", "drained", "migrations",
                   "migration GiB", "fleet util"});
  for (const char* tag : kTags) {
    const ScenarioResult& r = ctx.Result("drain/" + std::string(tag));
    const double cost = r.AggregateCost();
    const GroupPerf& fleet = FindGroup(r.groups, "fleet");
    const double gib = fleet.Metric("migration_bytes") / (1024.0 * 1024.0 * 1024.0);
    table.AddRow({tag, TextTable::Num(cost, 3),
                  TextTable::Num(fleet.Metric("drained_hosts"), 0),
                  TextTable::Num(fleet.Metric("migrations"), 0), TextTable::Num(gib, 2),
                  TextTable::Num(r.cpu_utilization, 3)});
    ctx.Summary("drain_cost_" + std::string(tag), cost);
    ctx.Summary("drain_migrations_" + std::string(tag), fleet.Metric("migrations"));
    ctx.Summary("drain_drained_hosts_" + std::string(tag),
                fleet.Metric("drained_hosts"));
  }
  ctx.AddTable(
      "Fleet drain: rolling-upgrade evacuation under load "
      "(naive vs cache-aware placement+targeting at 1.5x overcommit)",
      table);
}

SweepSpec Spec() {
  SweepSpec spec;
  spec.name = "fleet_drain";
  spec.description =
      "Fleet: rolling-upgrade host evacuation under load (evacuation-target "
      "ablation)";
  spec.build = Build;
  spec.render = Render;
  return spec;
}

AQL_REGISTER_SWEEP(Spec);

}  // namespace
}  // namespace aql
