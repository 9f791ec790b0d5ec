// Tests for the AQL controller: monitoring, decision cadence, plan
// hysteresis, overhead accounting and the trace hook; plus the baseline
// controllers' pool configurations.

#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/microsliced.h"
#include "src/baselines/vslicer.h"
#include "src/baselines/vturbo.h"
#include "src/core/aql_controller.h"
#include "src/workload/catalog.h"

namespace aql {
namespace {

struct Rig {
  explicit Rig(std::unique_ptr<SchedController> controller, int pcpus = 4) : sim(5) {
    MachineConfig mc;
    mc.topology = MakeI73770Topology(pcpus);
    mc.seed = 5;
    machine = std::make_unique<Machine>(sim, mc);
    Vm* web = machine->AddVm("web");
    for (auto& model : MakeApp("SPECweb2009", 4)) {
      machine->AddVcpu(web, std::move(model));
    }
    Vm* batch = machine->AddVm("batch");
    for (auto& model : MakeApp("bzip2", 4)) {
      machine->AddVcpu(batch, std::move(model));
    }
    Vm* light = machine->AddVm("light");
    for (auto& model : MakeApp("hmmer", 4)) {
      machine->AddVcpu(light, std::move(model));
    }
    Vm* stream = machine->AddVm("stream");
    for (auto& model : MakeApp("libquantum", 4)) {
      machine->AddVcpu(stream, std::move(model));
    }
    machine->SetController(std::move(controller));
    machine->Start();
  }

  Simulation sim;
  std::unique_ptr<Machine> machine;
};

TEST(AqlControllerTest, DecidesEveryNWindows) {
  auto ctl = std::make_unique<AqlController>();
  AqlController* aql = ctl.get();
  Rig rig(std::move(ctl));
  const TimeNs window = kVtrsWindow * kMonitorPeriod;  // 4 x 30 ms
  rig.sim.RunUntil(window + Ms(5));
  EXPECT_EQ(aql->decisions(), 1u);
  rig.sim.RunUntil(2 * window + Ms(5));
  EXPECT_EQ(aql->decisions(), 2u);
}

TEST(AqlControllerTest, SkipsUnchangedPlans) {
  auto ctl = std::make_unique<AqlController>();
  AqlController* aql = ctl.get();
  Rig rig(std::move(ctl));
  rig.sim.RunUntil(Sec(4));
  EXPECT_GE(aql->decisions(), 30u);
  // A stationary workload should converge: far fewer applications than
  // decisions.
  EXPECT_LE(aql->plan_applications(), aql->decisions() / 4);
}

TEST(AqlControllerTest, ChargesOverheadPerDecision) {
  auto ctl = std::make_unique<AqlController>();
  AqlController* aql = ctl.get();
  Rig rig(std::move(ctl));
  rig.sim.RunUntil(Sec(1));
  const TimeNs expected_per_decision = 16 * AqlConfig{}.per_element_overhead;
  EXPECT_EQ(rig.machine->controller_overhead(),
            static_cast<TimeNs>(aql->decisions()) * expected_per_decision);
}

TEST(AqlControllerTest, TraceHookSeesEveryObservedVcpu) {
  auto ctl = std::make_unique<AqlController>();
  std::set<int> seen;
  ctl->set_trace_hook([&seen](TimeNs, int vcpu, const CursorSet&, const CursorSet&) {
    seen.insert(vcpu);
  });
  Rig rig(std::move(ctl));
  rig.sim.RunUntil(Sec(2));
  EXPECT_EQ(seen.size(), 16u);
}

TEST(AqlControllerTest, ClassifiesTheRigCorrectly) {
  auto ctl = std::make_unique<AqlController>();
  AqlController* aql = ctl.get();
  Rig rig(std::move(ctl));
  rig.sim.RunUntil(Sec(4));
  for (int v = 0; v < 4; ++v) {
    EXPECT_EQ(aql->TypeOf(v), VcpuType::kIoInt) << v;
  }
  for (int v = 4; v < 8; ++v) {
    EXPECT_EQ(aql->TypeOf(v), VcpuType::kLlcf) << v;
  }
  for (int v = 8; v < 12; ++v) {
    EXPECT_EQ(aql->TypeOf(v), VcpuType::kLoLcf) << v;
  }
  for (int v = 12; v < 16; ++v) {
    EXPECT_EQ(aql->TypeOf(v), VcpuType::kLlco) << v;
  }
}

TEST(BaselineTest, MicroslicedSetsOneShortQuantumPool) {
  Rig rig(std::make_unique<MicroslicedController>(Ms(1)));
  EXPECT_EQ(rig.machine->scheduler().NumPools(), 1);
  EXPECT_EQ(rig.machine->scheduler().PoolQuantum(0), Ms(1));
}

TEST(BaselineTest, VslicerOverridesIoVcpuQuanta) {
  Rig rig(std::make_unique<VSlicerController>(std::vector<int>{0, 1, 2, 3}, Ms(1)));
  for (int v = 0; v < 4; ++v) {
    EXPECT_EQ(rig.machine->vcpu(v)->quantum_override, Ms(1));
  }
  EXPECT_EQ(rig.machine->vcpu(4)->quantum_override, 0);
  // Pools untouched: vSlicer shares pCPUs.
  EXPECT_EQ(rig.machine->scheduler().NumPools(), 1);
}

TEST(BaselineTest, VturboDedicatesTurboPool) {
  Rig rig(std::make_unique<VTurboController>(std::vector<int>{0, 1, 2, 3}, Ms(1)));
  CreditScheduler& sched = rig.machine->scheduler();
  ASSERT_EQ(sched.NumPools(), 2);
  EXPECT_EQ(sched.PoolOf(0), 0);
  EXPECT_EQ(sched.PoolQuantum(0), Ms(1));
  EXPECT_EQ(sched.PoolQuantum(1), Ms(30));
  // I/O vCPUs are confined to the turbo pool.
  rig.sim.RunUntil(Sec(1));
  for (int v = 0; v < 4; ++v) {
    EXPECT_EQ(rig.machine->vcpu(v)->pool, 0) << v;
  }
  for (int v = 4; v < 16; ++v) {
    EXPECT_EQ(rig.machine->vcpu(v)->pool, 1) << v;
  }
}

}  // namespace
}  // namespace aql
