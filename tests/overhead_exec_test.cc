// Tests for the executed controller-overhead charge: a nonzero
// ChargeControllerOverhead occupies pCPU 0 (BusyTime, lost progress) while a
// zero charge leaves AQL bit-identical to Xen on homogeneous workloads — the
// accounting-vs-execution contract of docs/ARCHITECTURE.md.

#include <memory>

#include <gtest/gtest.h>

#include "src/experiment/runner.h"
#include "src/hv/machine.h"
#include "src/workload/cpu_burn.h"
#include "src/workload/io_server.h"

namespace aql {
namespace {

MachineConfig OneCpuConfig() {
  MachineConfig mc;
  mc.topology = MakeI73770Topology(1);
  mc.seed = 7;
  return mc;
}

TEST(OverheadExecutionTest, ChargeDelaysGuestProgress) {
  Simulation sim(7);
  Machine m(sim, OneCpuConfig());
  Vm* vm = m.AddVm("vm");
  CpuBurnConfig cfg;
  cfg.name = "solo";
  Vcpu* v = m.AddVcpu(vm, std::make_unique<CpuBurnModel>(cfg));
  m.Start();
  sim.RunUntil(Ms(10));
  m.ChargeControllerOverhead(Ms(5));
  sim.At(Ms(100), [](TimeNs) {});  // puts the clock on 100 ms
  sim.RunUntil(Ms(100));
  // 100 ms is off the monitor grid: credit the coarse step in flight.
  m.SettleSteps();
  auto* model = static_cast<CpuBurnModel*>(v->workload());
  // The lone vCPU owns the pCPU: 100 ms wall minus the 5 ms the controller
  // occupied and the 3 us first context switch.
  EXPECT_LE(model->work_done_total(), Ms(95));
  EXPECT_GE(model->work_done_total(), Ms(94));
  EXPECT_EQ(m.controller_overhead(), Ms(5));
}

TEST(OverheadExecutionTest, ChargeAppearsInPcpu0BusyTime) {
  // A mostly-idle I/O server: busy time is far below wall time, so the
  // executed charge is visible as extra pCPU-0 busy time.
  auto run = [](TimeNs charge) {
    Simulation sim(7);
    Machine m(sim, OneCpuConfig());
    Vm* vm = m.AddVm("vm");
    IoServerConfig io;
    io.name = "io";
    io.arrival_rate_hz = 100;
    io.service_work = Us(50);
    m.AddVcpu(vm, std::make_unique<IoServerModel>(io));
    m.Start();
    sim.RunUntil(Ms(50));
    if (charge > 0) {
      m.ChargeControllerOverhead(charge);
    }
    sim.RunUntil(Ms(500));
    // The server is blocked between requests at this point, so its runtime
    // (including the served charge) has been flushed into BusyTime.
    return m.BusyTime(0);
  };
  const TimeNs base = run(0);
  const TimeNs charged = run(Ms(20));
  EXPECT_LT(base, Ms(100));  // sanity: the server really is mostly idle
  // The 20 ms charge is served on pCPU 0 and lands in its busy time.
  EXPECT_NEAR(static_cast<double>(charged - base), static_cast<double>(Ms(20)),
              static_cast<double>(Ms(1)));
}

// The homogeneous probe of the overhead sweep, at test-sized windows.
ScenarioSpec HomogeneousSpec() {
  ScenarioSpec spec;
  spec.name = "homogeneous";
  spec.machine = SingleSocketMachine(4, 42);
  spec.vms = {{"hmmer", 8}, {"gobmk", 8}};
  spec.warmup = Ms(300);
  spec.measure = Ms(700);
  return spec;
}

double TotalWork(const ScenarioResult& r) {
  double w = 0;
  for (const GroupPerf& g : r.groups) {
    w += g.Metric("work_done_s") * g.vcpus;
  }
  return w;
}

TEST(OverheadExecutionTest, ZeroChargeIsBitIdenticalToXen) {
  const ScenarioResult xen = RunScenario(HomogeneousSpec(), PolicySpec::Xen());
  PolicySpec aql = PolicySpec::Aql();
  aql.aql.per_element_overhead = 0;
  const ScenarioResult res = RunScenario(HomogeneousSpec(), aql);
  ASSERT_EQ(res.reports.size(), xen.reports.size());
  for (size_t i = 0; i < res.reports.size(); ++i) {
    EXPECT_EQ(res.reports[i].metrics, xen.reports[i].metrics) << "vCPU " << i;
  }
  EXPECT_EQ(res.events_processed, xen.events_processed);
  EXPECT_EQ(res.cpu_utilization, xen.cpu_utilization);
  EXPECT_EQ(res.controller_overhead, 0);
}

TEST(OverheadExecutionTest, NonzeroChargeBreaksBitIdentityAndCostsWork) {
  const ScenarioResult xen = RunScenario(HomogeneousSpec(), PolicySpec::Xen());
  PolicySpec aql = PolicySpec::Aql();
  aql.aql.per_element_overhead = 30 * kNsPerUs;
  const ScenarioResult res = RunScenario(HomogeneousSpec(), aql);
  EXPECT_GT(res.controller_overhead, 0);
  // The executed charge strictly costs machine throughput.
  EXPECT_LT(TotalWork(res), TotalWork(xen));
}

}  // namespace
}  // namespace aql
