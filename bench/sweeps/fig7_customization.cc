// Fig. 7 sweep: the benefit of the quantum-length customization step.
//
// The 4-socket complex case runs with clustering active but the per-pool
// quantum customization replaced by a fixed quantum — small (1 ms), medium
// (30 ms) or large (90 ms) — and is compared against full AQL_Sched.
// Following the paper, values are normalized over full AQL (clustering +
// customization): bars above 1.0 mean the customization step was providing
// that much improvement.

#include <string>
#include <vector>

#include "src/core/aql_controller.h"
#include "src/experiment/registry.h"
#include "src/metrics/table.h"

namespace aql {
namespace {

// Clustering-only AQL: the two-level clustering runs, but every pool is
// forced to the same fixed quantum.
PolicySpec ClusteringOnly(TimeNs quantum) {
  PolicySpec p = PolicySpec::Aql();
  for (VcpuType t : kAllVcpuTypes) {
    p.aql.calibration.best_quantum[static_cast<int>(t)] = quantum;
  }
  p.aql.calibration.default_quantum = quantum;
  return p;
}

struct Variant {
  const char* tag;
  const char* column;
  TimeNs quantum;  // 0 = full AQL
};

constexpr Variant kVariants[] = {
    {"full", "", 0},
    {"small", "small (1ms)", Ms(1)},
    {"medium", "medium (30ms)", Ms(30)},
    {"large", "large (90ms)", Ms(90)},
};

std::vector<SweepCell> Build(const SweepOptions& opts) {
  std::vector<SweepCell> cells;
  for (const Variant& v : kVariants) {
    SweepCell cell;
    // Id scheme: the variant tag (full/small/…). Ids are --cell/diff
    // keys; keep them stable (docs/BENCH_FORMAT.md, "Cell-ID stability
    // rules").
    cell.id = v.tag;
    cell.scenario = FourSocketScenario();
    cell.scenario.warmup = opts.Warmup(cell.scenario.warmup);
    cell.scenario.measure = opts.Measure(Sec(10));
    cell.policy = v.quantum == 0 ? PolicySpec::Aql() : ClusteringOnly(v.quantum);
    cells.push_back(std::move(cell));
  }
  return cells;
}

void Render(SweepContext& ctx) {
  const ScenarioResult& full = ctx.Result("full");
  std::vector<std::string> header = {"application"};
  for (const Variant& v : kVariants) {
    if (v.quantum != 0) {
      header.push_back(v.column);
    }
  }
  TextTable table(header);
  double worst = 1.0;
  for (const GroupPerf& g : full.groups) {
    std::vector<std::string> row = {g.name};
    for (const Variant& v : kVariants) {
      if (v.quantum == 0) {
        continue;
      }
      const double ratio =
          FindGroup(ctx.Result(v.tag).groups, g.name).primary / g.primary;
      worst = ratio > worst ? ratio : worst;
      row.push_back(TextTable::Num(ratio, 2));
    }
    table.AddRow(row);
  }
  ctx.AddTable(
      "Fig. 7: clustering-only with a fixed quantum, normalized over full "
      "AQL_Sched (values > 1 mean the quantum customization step helps)",
      table);
  ctx.Summary("worst_fixed_quantum_ratio", worst);
}

SweepSpec Spec() {
  SweepSpec spec;
  spec.name = "fig7_customization";
  spec.description = "Fig. 7: value of per-pool quantum customization vs fixed quanta";
  spec.build = Build;
  spec.render = Render;
  return spec;
}

AQL_REGISTER_SWEEP(Spec);

}  // namespace
}  // namespace aql
