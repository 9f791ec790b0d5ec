// Fig. 8 + Table 6 sweep: AQL_Sched against vTurbo, vSlicer and Microsliced
// on scenario S5, normalized to the default Xen scheduler.
//
// Following §4.2, the baselines have no online recognition: their I/O vCPU
// sets are configured manually (the runner passes the ground-truth IOInt
// vCPUs) and both vTurbo and Microsliced use a 1 ms quantum.

#include <string>
#include <vector>

#include "src/experiment/registry.h"
#include "src/metrics/table.h"
#include "src/workload/catalog.h"

namespace aql {
namespace {

struct Contender {
  const char* tag;
  const char* column;
};

constexpr Contender kContenders[] = {
    {"vturbo", "vTurbo"},
    {"microsliced", "Microsliced"},
    {"vslicer", "vSlicer"},
    {"aql", "AQL_Sched"},
};

PolicySpec PolicyFor(const std::string& tag) {
  if (tag == "vturbo") {
    return PolicySpec::VTurbo();
  }
  if (tag == "microsliced") {
    return PolicySpec::Microsliced();
  }
  if (tag == "vslicer") {
    return PolicySpec::VSlicer();
  }
  return PolicySpec::Aql();
}

std::vector<SweepCell> Build(const SweepOptions& opts) {
  std::vector<SweepCell> cells;
  auto add = [&cells, &opts](const std::string& tag, PolicySpec policy) {
    SweepCell cell;
    // Id scheme: the scheduler tag (xen/aql/…). Ids are --cell/diff
    // keys; keep them stable (docs/BENCH_FORMAT.md, "Cell-ID stability
    // rules").
    cell.id = tag;
    cell.scenario = ColocationScenario(5);
    cell.scenario.warmup = opts.Warmup(cell.scenario.warmup);
    cell.scenario.measure = opts.Measure(Sec(10));
    cell.policy = std::move(policy);
    cells.push_back(std::move(cell));
  };
  add("xen", PolicySpec::Xen());
  for (const Contender& c : kContenders) {
    add(c.tag, PolicyFor(c.tag));
  }
  return cells;
}

void Render(SweepContext& ctx) {
  const ScenarioResult& xen = ctx.Result("xen");
  std::vector<std::string> header = {"application", "type"};
  for (const Contender& c : kContenders) {
    header.push_back(c.column);
  }
  TextTable table(header);
  for (const GroupPerf& g : xen.groups) {
    std::vector<std::string> row = {g.name, VcpuTypeName(FindApp(g.name).expected_type)};
    for (const Contender& c : kContenders) {
      row.push_back(
          TextTable::Num(NormalizedPerf(FindGroup(ctx.Result(c.tag).groups, g.name), g),
                         2));
    }
    table.AddRow(row);
  }
  ctx.AddTable(
      "Fig. 8: comparison with existing approaches on S5 "
      "(normalized to Xen 30ms; smaller is better)",
      table);

  for (const Contender& c : kContenders) {
    double sum = 0;
    int count = 0;
    for (const GroupPerf& g : xen.groups) {
      sum += NormalizedPerf(FindGroup(ctx.Result(c.tag).groups, g.name), g);
      ++count;
    }
    ctx.Summary(std::string(c.tag) + "_mean_normalized",
                sum / static_cast<double>(count));
  }

  TextTable table6({"solution", "dynamic type recognition", "handled types", "overhead",
                    "hardware modification"});
  table6.AddRow({"vTurbo", "not supported", "IO", "no overhead", "no"});
  table6.AddRow({"vSlicer", "not supported", "IO", "no overhead", "no"});
  table6.AddRow({"Microsliced", "not supported", "IO, spin-lock",
                 "overhead for CPU burn", "yes"});
  table6.AddRow({"Xen BOOST", "supported", "IO", "no overhead", "no"});
  table6.AddRow({"AQL_Sched", "supported", "IO, spin-lock, CPU burn", "no overhead",
                 "no"});
  ctx.AddTable("Table 6: qualitative comparison with existing solutions", table6);
}

SweepSpec Spec() {
  SweepSpec spec;
  spec.name = "fig8_comparison";
  spec.description = "Fig. 8/Table 6: AQL_Sched vs vTurbo, vSlicer, Microsliced on S5";
  spec.build = Build;
  spec.render = Render;
  return spec;
}

AQL_REGISTER_SWEEP(Spec);

}  // namespace
}  // namespace aql
