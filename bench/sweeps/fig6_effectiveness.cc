// Fig. 6 sweep: AQL_Sched effectiveness vs the default Xen scheduler.
//
// Left: colocation scenarios S1-S5 (Table 4) on the single-socket machine —
// per-application performance under AQL_Sched normalized to Xen (30 ms);
// values < 1 mean AQL wins, LoLCF/LLCO are expected around 1.0
// (quantum-agnostic).
//
// Right: the 4-socket complex case of §3.5 (48 vCPUs: 12 IOInt+,
// 7 ConSpin-, 17 LLCF, 12 LLCO on 3 application sockets), including the
// clusters AQL formed.

#include <string>
#include <vector>

#include "src/experiment/registry.h"
#include "src/metrics/table.h"
#include "src/workload/catalog.h"

namespace aql {
namespace {

std::vector<SweepCell> Build(const SweepOptions& opts) {
  std::vector<SweepCell> cells;
  auto add = [&cells, &opts](const std::string& tag, ScenarioSpec scenario,
                             PolicySpec policy) {
    SweepCell cell;
    // Id scheme: <scenario>/<policy> tags built by the callers below. Ids
    // are --cell/diff keys; keep them stable (docs/BENCH_FORMAT.md,
    // "Cell-ID stability rules").
    cell.id = tag;
    cell.scenario = std::move(scenario);
    cell.scenario.warmup = opts.Warmup(cell.scenario.warmup);
    cell.scenario.measure = opts.Measure(Sec(10));
    cell.policy = policy;
    cells.push_back(std::move(cell));
  };
  for (int s = 1; s <= 5; ++s) {
    add("S" + std::to_string(s) + "/xen", ColocationScenario(s), PolicySpec::Xen());
    add("S" + std::to_string(s) + "/aql", ColocationScenario(s), PolicySpec::Aql());
  }
  add("four_socket/xen", FourSocketScenario(), PolicySpec::Xen());
  add("four_socket/aql", FourSocketScenario(), PolicySpec::Aql());
  return cells;
}

void Render(SweepContext& ctx) {
  TextTable left({"scenario", "application", "type", "Xen(30ms)", "AQL_Sched",
                  "normalized"});
  double norm_sum = 0;
  int norm_count = 0;
  for (int s = 1; s <= 5; ++s) {
    const std::string tag = "S" + std::to_string(s);
    const ScenarioResult& xen = ctx.Result(tag + "/xen");
    const ScenarioResult& aql = ctx.Result(tag + "/aql");
    for (const GroupPerf& g : xen.groups) {
      const GroupPerf& a = FindGroup(aql.groups, g.name);
      const double norm = NormalizedPerf(a, g);
      norm_sum += norm;
      ++norm_count;
      left.AddRow({tag, g.name, VcpuTypeName(FindApp(g.name).expected_type),
                   TextTable::Num(g.primary, 2), TextTable::Num(a.primary, 2),
                   TextTable::Num(norm, 2)});
    }
  }
  ctx.AddTable(
      "Fig. 6 (left): S1-S5 on the single-socket machine "
      "(normalized to Xen 30ms; smaller is better)",
      left);
  ctx.Summary("single_socket_mean_normalized",
              norm_sum / static_cast<double>(norm_count));

  const ScenarioResult& xen4 = ctx.Result("four_socket/xen");
  const ScenarioResult& aql4 = ctx.Result("four_socket/aql");
  TextTable right({"application", "role", "Xen(30ms)", "AQL_Sched", "normalized"});
  // §3.5's role variants for the two apps whose profile goes beyond the
  // plain type (IOInt that also trashes the LLC, ConSpin below one vCPU per
  // thread); everything else is labeled by its expected type.
  auto role = [](const std::string& app) -> std::string {
    if (app == "specweb_trasher") {
      return "IOInt+";
    }
    if (app == "facesim") {
      return "ConSpin-";
    }
    return VcpuTypeName(FindApp(app).expected_type);
  };
  int i = 0;
  double norm4_sum = 0;
  for (const GroupPerf& g : xen4.groups) {
    const GroupPerf& a = FindGroup(aql4.groups, g.name);
    const double norm = NormalizedPerf(a, g);
    norm4_sum += norm;
    ++i;
    right.AddRow({g.name, role(g.name), TextTable::Num(g.primary, 2),
                  TextTable::Num(a.primary, 2), TextTable::Num(norm, 2)});
  }
  ctx.AddTable("Fig. 6 (right): the 4-socket complex case (§3.5)", right);
  ctx.Summary("four_socket_mean_normalized", norm4_sum / static_cast<double>(i));

  ctx.Print("clusters formed by AQL_Sched (cf. Fig. 3):\n");
  std::string labels;
  for (const auto& pool : aql4.pools) {
    ctx.Print("  " + pool.label + "\n");
    labels += labels.empty() ? pool.label : ", " + pool.label;
  }
  ctx.Print("\n");
  ctx.Note("four_socket_pools", labels);
}

SweepSpec Spec() {
  SweepSpec spec;
  spec.name = "fig6_effectiveness";
  spec.description = "Fig. 6: AQL_Sched vs Xen on S1-S5 and the 4-socket complex case";
  spec.build = Build;
  spec.render = Render;
  return spec;
}

AQL_REGISTER_SWEEP(Spec);

}  // namespace
}  // namespace aql
