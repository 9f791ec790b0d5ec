// Quickstart: build a virtualized 4-pCPU machine, colocate a latency-
// critical web VM with CPU-bound neighbours, and compare native Xen Credit
// scheduling against AQL_Sched.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "src/experiment/runner.h"
#include "src/experiment/scenarios.h"
#include "src/metrics/table.h"

int main() {
  using namespace aql;

  // Scenario S5 from the paper's Table 4: a web server (IOInt), a spin-lock
  // parallel app (ConSpin), and three CPU-burn profiles share 4 pCPUs with
  // 4 vCPUs per pCPU.
  ScenarioSpec spec = ColocationScenario(5);
  spec.warmup = Sec(2);
  spec.measure = Sec(6);

  std::printf("Running '%s' under native Xen Credit (30 ms quantum)...\n",
              spec.name.c_str());
  ScenarioResult xen = RunScenario(spec, PolicySpec::Xen());

  std::printf("Running '%s' under AQL_Sched...\n\n", spec.name.c_str());
  ScenarioResult aql = RunScenario(spec, PolicySpec::Aql());

  TextTable table(
      {"application", "metric", "Xen", "AQL_Sched", "normalized (<1 better)"});
  for (const GroupPerf& g : xen.groups) {
    const GroupPerf& a = FindGroup(aql.groups, g.name);
    const bool is_latency = g.metrics.count("latency_mean_us") != 0;
    table.AddRow({g.name, is_latency ? "mean latency (us)" : "cost per unit work",
                  TextTable::Num(g.primary, 3), TextTable::Num(a.primary, 3),
                  TextTable::Num(NormalizedPerf(a, g), 3)});
  }
  std::printf("%s\n", table.ToString().c_str());

  std::printf("AQL detected types and pools:\n");
  for (const auto& pool : aql.pools) {
    std::printf("  pool %s\n", pool.label.c_str());
  }
  std::printf("controller overhead: %.4f%% of machine capacity\n",
              100.0 * static_cast<double>(aql.controller_overhead) /
                  (static_cast<double>(aql.measure_window) * 4));
  return 0;
}
