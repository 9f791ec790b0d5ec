// Writing a custom scheduling policy against the public API.
//
// This example implements a miniature controller from scratch — a static
// "pin I/O VMs to a fast pool" policy — to show the extension surface:
// derive from SchedController, observe PMU state, and reconfigure pools
// through Machine::ApplyPoolPlan(). It is then compared against the built-in
// AQL_Sched controller on the same workload.
//
//   ./build/examples/custom_policy

#include <cstdio>
#include <memory>

#include "src/experiment/runner.h"
#include "src/experiment/scenarios.h"
#include "src/hv/machine.h"
#include "src/metrics/report.h"
#include "src/metrics/table.h"
#include "src/sim/simulation.h"
#include "src/workload/catalog.h"

namespace {

using namespace aql;

// A deliberately simple policy: once, at attach time, split the machine into
// a 1 ms pool for vCPUs that have raised I/O events and a 90 ms pool for the
// rest. No sliding windows, no rebalancing — the point is the API shape.
class StaticSplitController : public SchedController {
 public:
  std::string Name() const override { return "StaticSplit"; }

  void OnMonitorPeriod(Machine& machine, TimeNs now) override {
    (void)now;
    if (applied_ || machine.Now() < Ms(200)) {
      return;  // give the PMU counters a little history first
    }
    applied_ = true;

    PoolPlan plan;
    PoolSpec fast{"fast^1ms", {0}, Ms(1), {}};
    PoolSpec slow{"slow^90ms", {}, Ms(90), {}};
    for (int p = 1; p < machine.topology().TotalPcpus(); ++p) {
      slow.pcpus.push_back(p);
    }
    for (const Vcpu* v : machine.vcpus()) {
      if (v->pmu.io_events > 0) {
        fast.vcpus.push_back(v->id());
      } else {
        slow.vcpus.push_back(v->id());
      }
    }
    plan.pools = {fast, slow};
    machine.ApplyPoolPlan(plan);
  }

 private:
  bool applied_ = false;
};

ScenarioResult RunWithCustomPolicy(const ScenarioSpec& spec) {
  // Equivalent of experiment::RunScenario, spelled out against the raw API so
  // the full lifecycle is visible.
  Simulation sim(spec.machine.seed);
  Machine machine(sim, spec.machine);
  for (const VmSpec& vs : spec.vms) {
    Vm* vm = machine.AddVm(vs.app, vs.weight, vs.cap_percent);
    for (auto& model : MakeApp(vs.app, vs.vcpus)) {
      machine.AddVcpu(vm, std::move(model));
    }
  }
  machine.SetController(std::make_unique<StaticSplitController>());
  machine.Start();
  // Sentinel events put the clock on the window edges, where
  // ResetAllMetrics and SettleSteps act.
  sim.At(spec.warmup, [](TimeNs) {});
  sim.At(spec.warmup + spec.measure, [](TimeNs) {});
  sim.RunUntil(spec.warmup);
  machine.ResetAllMetrics();
  sim.RunUntil(spec.warmup + spec.measure);
  machine.SettleSteps();

  ScenarioResult result;
  result.scenario = spec.name;
  result.policy = "StaticSplit";
  result.reports = machine.Reports();
  result.groups = GroupReports(result.reports);
  return result;
}

}  // namespace

int main() {
  ScenarioSpec spec = ColocationScenario(5);
  spec.name = "custom_policy";
  spec.warmup = Sec(2);
  spec.measure = Sec(8);

  ScenarioResult xen = RunScenario(spec, PolicySpec::Xen());
  ScenarioResult custom = RunWithCustomPolicy(spec);
  ScenarioResult aql = RunScenario(spec, PolicySpec::Aql());

  TextTable table({"application", "Xen(30ms)", "StaticSplit", "AQL_Sched"});
  for (const GroupPerf& g : xen.groups) {
    table.AddRow({g.name, "1.00",
                  TextTable::Num(NormalizedPerf(FindGroup(custom.groups, g.name), g), 2),
                  TextTable::Num(NormalizedPerf(FindGroup(aql.groups, g.name), g), 2)});
  }
  std::printf("Custom policy vs built-ins on S5 (normalized to Xen; smaller is "
              "better)\n%s\n",
              table.ToString().c_str());
  std::printf("The static split helps I/O but cannot adapt to type changes or\n"
              "balance fairness; AQL_Sched's dynamic recognition + clustering does.\n");
  return 0;
}
