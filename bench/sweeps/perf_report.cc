// perf_report: wall-time probe over representative full-mode cells.
//
// The sweep exists for the performance trajectory, not for a paper figure:
// its cells are a cross-section of the engine's hot paths — an LLC-trasher
// validation rig (eviction-dominated), an LoLCF rig (event-core-dominated),
// the S5 colocation mix under Xen and AQL (dispatch + controller), and the
// 4-socket complex case (large vCPU count, NUMA terms). Cell results are
// deterministic like any sweep's (and byte-stable under --stable-json); the
// interesting output is the per-cell wall times in the JSON `timing`
// section, which CI's perf-smoke job and scripts/bench_diff.py --walls
// track across commits. Combine with --profile for the per-cell phase
// breakdown of where the time goes.

#include <string>
#include <vector>

#include "src/experiment/registry.h"
#include "src/metrics/table.h"

namespace aql {
namespace {

std::vector<SweepCell> Build(const SweepOptions& opts) {
  std::vector<SweepCell> cells;

  // Id scheme: <rig>/<policy>. Ids are --cell/diff keys; keep them
  // stable (docs/BENCH_FORMAT.md, "Cell-ID stability rules").
  auto add = [&](const std::string& id, ScenarioSpec scenario, const PolicySpec& policy) {
    SweepCell cell;
    cell.id = id;
    cell.scenario = std::move(scenario);
    cell.scenario.warmup = opts.Warmup(cell.scenario.warmup);
    cell.scenario.measure = opts.Measure(cell.scenario.measure);
    cell.policy = policy;
    cells.push_back(std::move(cell));
  };

  // Eviction-dominated: mcf is the catalog's LLCO trasher; its validation
  // rig keeps the socket LLC permanently overflowing.
  add("trasher/xen", ValidationRig("mcf"), PolicySpec::Xen());
  // Event-core-dominated: hmmer is LoLCF (near-zero LLC traffic), so the
  // cell is almost pure dispatch/timer machinery.
  add("lolcf/xen", ValidationRig("hmmer"), PolicySpec::Xen());
  // The paper's S5 colocation mix: all workload kinds, under both the
  // baseline and the controller (adds vTRS + clustering work).
  add("s5/xen", ColocationScenario(5), PolicySpec::Xen());
  add("s5/aql", ColocationScenario(5), PolicySpec::Aql());
  // Scale probe: 48 vCPUs over 3 sockets with the NUMA terms active.
  add("complex/aql", FourSocketScenario(), PolicySpec::Aql());
  // Fleet hot path: 64 single-socket islands under the cache-aware
  // rebalancer — the loop --island-threads parallelizes, so this is the row
  // CI's sequential-vs-parallel probes read their walls from.
  ScenarioSpec fleet = FleetScenario("perf_fleet", /*hosts=*/64, FleetWorkloadMix(256),
                                     ClusterPolicy::kCacheAware);
  fleet.warmup = Sec(1);
  fleet.measure = Sec(4);
  add("fleet/cacheaware", fleet, PolicySpec::Xen());

  return cells;
}

void Render(SweepContext& ctx) {
  TextTable table({"cell", "events", "sim events/s", "wall s"});
  uint64_t events_total = 0;
  double wall_total = 0;
  for (const CellResult& cell : ctx.cells()) {
    const ScenarioResult& r = cell.result;
    events_total += r.events_processed;
    wall_total += r.wall_seconds;
    const double rate =
        r.wall_seconds > 0 ? static_cast<double>(r.events_processed) / r.wall_seconds : 0;
    table.AddRow({cell.cell.id, std::to_string(r.events_processed),
                  TextTable::Num(rate, 0), TextTable::Num(r.wall_seconds, 3)});
    // Per-cell walls for the trajectory (timing section: wall-clock data
    // never enters the deterministic result sections).
    ctx.Timing("wall_" + cell.cell.id + "_seconds", r.wall_seconds);
  }
  // Event counts are simulation results: deterministic, trackable as a
  // summary metric (a change means the engine's behavior changed).
  ctx.Summary("events_total", static_cast<double>(events_total));
  ctx.Timing("events_per_second",
             wall_total > 0 ? static_cast<double>(events_total) / wall_total : 0);
  // Printed for humans only: the table carries wall-clock columns, so it
  // must stay out of the JSON `tables` section (that section is part of the
  // deterministic --stable-json byte stream).
  ctx.Print("perf_report: representative cells (wall-clock columns; "
            "see JSON timing section)\n" +
            table.ToString() + "\n");
}

SweepSpec Spec() {
  SweepSpec spec;
  spec.name = "perf_report";
  spec.description = "Engine wall-time probe over representative hot-path cells";
  spec.build = Build;
  spec.render = Render;
  return spec;
}

AQL_REGISTER_SWEEP(Spec);

}  // namespace
}  // namespace aql
