// Table 5 sweep: the clusters AQL_Sched forms for each colocation scenario
// S1-S5, with per-cluster application membership (by detected type), pool
// quantum and pCPU count.

#include <map>
#include <string>
#include <vector>

#include "src/experiment/registry.h"
#include "src/metrics/table.h"

namespace aql {
namespace {

std::vector<SweepCell> Build(const SweepOptions& opts) {
  std::vector<SweepCell> cells;
  for (int s = 1; s <= 5; ++s) {
    SweepCell cell;
    // Id scheme: S<index> (Table 4 scenario). Ids are --cell/diff
    // keys; keep them stable (docs/BENCH_FORMAT.md, "Cell-ID stability
    // rules").
    cell.id = "S" + std::to_string(s);
    cell.scenario = ColocationScenario(s);
    cell.scenario.warmup = opts.Warmup(cell.scenario.warmup);
    cell.scenario.measure = opts.Measure(Sec(6));
    cell.policy = PolicySpec::Aql();
    cells.push_back(std::move(cell));
  }
  return cells;
}

void Render(SweepContext& ctx) {
  TextTable table({"scenario", "cluster", "quantum", "#pCPUs", "members (type x count)"});
  int total_pools = 0;
  for (int s = 1; s <= 5; ++s) {
    const std::string tag = "S" + std::to_string(s);
    const ScenarioResult& r = ctx.Result(tag);
    for (const ScenarioResult::PoolInfo& pool : r.pools) {
      ++total_pools;
      std::map<std::string, int> members;
      for (int vid : pool.vcpus) {
        ++members[VcpuTypeName(r.detected_types.at(vid))];
      }
      std::string member_str;
      for (const auto& [type, count] : members) {
        if (!member_str.empty()) {
          member_str += ", ";
        }
        member_str += std::to_string(count) + " " + type;
      }
      table.AddRow({tag, pool.label, TextTable::Num(ToMs(pool.quantum), 0) + "ms",
                    std::to_string(pool.pcpus.size()), member_str});
    }
  }
  ctx.AddTable("Table 5: clustering applied to scenarios S1-S5", table);
  ctx.Summary("total_pools", total_pools);
}

SweepSpec Spec() {
  SweepSpec spec;
  spec.name = "table5_clusters";
  spec.description = "Table 5: CPU pools AQL_Sched builds for S1-S5";
  spec.build = Build;
  spec.render = Render;
  return spec;
}

AQL_REGISTER_SWEEP(Spec);

}  // namespace
}  // namespace aql
