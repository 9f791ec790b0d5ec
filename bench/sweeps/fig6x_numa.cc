// Fig. 6x sweep: NUMA placement effectiveness on the dual-socket rig.
//
// Every NumaRemote application of the extended catalog runs in its
// validation rig under native Xen (30 ms), AQL with the NUMA placement
// response disabled (ablation — the pre-placement controller, which was
// slightly *worse* than Xen on these profiles), and full AQL. The placement
// response — page migration decaying the remote-access fraction plus
// socket-stickiness through src/hv/placement.h — must close that gap:
// effectiveness (Xen cost / AQL cost) >= 1.

#include <string>
#include <vector>

#include "src/experiment/registry.h"
#include "src/metrics/table.h"
#include "src/workload/catalog.h"

namespace aql {
namespace {

std::vector<SweepCell> Build(const SweepOptions& opts) {
  std::vector<SweepCell> cells;
  auto add = [&cells, &opts](const std::string& app, const std::string& tag,
                             const PolicySpec& policy) {
    SweepCell cell;
    // Id scheme: numa/<app>/<policy-variant>. Ids are --cell/diff
    // keys; keep them stable (docs/BENCH_FORMAT.md, "Cell-ID stability
    // rules").
    cell.id = "numa/" + app + "/" + tag;
    cell.scenario = ExtendedValidationRig(app);
    cell.scenario.warmup = opts.Warmup(Sec(1));
    cell.scenario.measure = opts.Measure(Sec(5));
    cell.policy = policy;
    cells.push_back(std::move(cell));
  };
  for (const std::string& app : AppsOfType(VcpuType::kNumaRemote)) {
    add(app, "xen", PolicySpec::Xen());
    PolicySpec no_placement = PolicySpec::Aql();
    no_placement.aql.numa_placement = false;
    add(app, "aql_nopl", no_placement);
    add(app, "aql", PolicySpec::Aql());
  }
  return cells;
}

void Render(SweepContext& ctx) {
  TextTable table({"application", "Xen(30ms)", "AQL no-placement", "AQL_Sched",
                   "eff (no-pl)", "eff (full)"});
  double sum_eff = 0;
  double sum_eff_nopl = 0;
  int n = 0;
  for (const std::string& app : AppsOfType(VcpuType::kNumaRemote)) {
    const double xen = ctx.Primary("numa/" + app + "/xen", app);
    const double nopl = ctx.Primary("numa/" + app + "/aql_nopl", app);
    const double aql = ctx.Primary("numa/" + app + "/aql", app);
    // Effectiveness: Xen cost over AQL cost — >= 1 means AQL at least
    // matches Xen on the profile.
    const double eff = aql > 0 ? xen / aql : 0.0;
    const double eff_nopl = nopl > 0 ? xen / nopl : 0.0;
    sum_eff += eff;
    sum_eff_nopl += eff_nopl;
    ++n;
    table.AddRow({app, TextTable::Num(xen, 3), TextTable::Num(nopl, 3),
                  TextTable::Num(aql, 3), TextTable::Num(eff_nopl, 3),
                  TextTable::Num(eff, 3)});
    ctx.Summary("numa_effectiveness_" + app, eff);
    ctx.Summary("numa_effectiveness_nopl_" + app, eff_nopl);
  }
  ctx.AddTable(
      "Fig. 6x: NumaRemote effectiveness vs Xen on the dual-socket rig "
      "(>= 1 means AQL wins; the placement response closes the no-placement gap)",
      table);
  ctx.Summary("numa_mean_effectiveness", sum_eff / n);
  ctx.Summary("numa_mean_effectiveness_nopl", sum_eff_nopl / n);
}

SweepSpec Spec() {
  SweepSpec spec;
  spec.name = "fig6x_numa";
  spec.description =
      "Fig. 6x: NUMA placement response effectiveness on NumaRemote profiles";
  spec.build = Build;
  spec.render = Render;
  return spec;
}

AQL_REGISTER_SWEEP(Spec);

}  // namespace
}  // namespace aql
