// End-to-end integration tests: the full AQL pipeline (vTRS -> clustering ->
// pool reconfiguration) on the paper's scenarios, plus baseline controllers.
//
// These tests assert the *qualitative* reproduction targets: who wins,
// roughly by how much, and structural properties of the clustering —
// absolute numbers are simulator-dependent.

#include <gtest/gtest.h>

#include "src/experiment/runner.h"
#include "src/experiment/scenarios.h"

namespace aql {
namespace {

TEST(IntegrationTest, HeteroIoPrefersSmallQuantum) {
  ScenarioSpec spec = CalibrationRig("wordpress", 4);
  spec.measure = Sec(6);
  const double at1 = RunScenario(spec, PolicySpec::Xen(Ms(1))).GroupPrimary("wordpress");
  const double at30 =
      RunScenario(spec, PolicySpec::Xen(Ms(30))).GroupPrimary("wordpress");
  const double at90 =
      RunScenario(spec, PolicySpec::Xen(Ms(90))).GroupPrimary("wordpress");
  EXPECT_LT(at1, at30 * 0.8);
  EXPECT_GT(at90, at30 * 1.3);
}

TEST(IntegrationTest, PureIoIsQuantumAgnostic) {
  ScenarioSpec spec = CalibrationRig("pure_io", 4);
  spec.measure = Sec(6);
  const double at1 = RunScenario(spec, PolicySpec::Xen(Ms(1))).GroupPrimary("pure_io");
  const double at90 = RunScenario(spec, PolicySpec::Xen(Ms(90))).GroupPrimary("pure_io");
  EXPECT_NEAR(at1 / at90, 1.0, 0.15);
}

TEST(IntegrationTest, LlcfPrefersLargeQuantum) {
  ScenarioSpec spec = CalibrationRig("llcf_list", 4);
  spec.measure = Sec(8);
  const double at1 = RunScenario(spec, PolicySpec::Xen(Ms(1))).GroupPrimary("llcf_list");
  const double at90 =
      RunScenario(spec, PolicySpec::Xen(Ms(90))).GroupPrimary("llcf_list");
  EXPECT_GT(at1, at90 * 1.1);
}

TEST(IntegrationTest, AgnosticTypesUnaffectedByQuantum) {
  for (const char* app : {"lolcf_list", "llco_list"}) {
    ScenarioSpec spec = CalibrationRig(app, 4);
    spec.measure = Sec(6);
    const double at1 = RunScenario(spec, PolicySpec::Xen(Ms(1))).GroupPrimary(app);
    const double at90 = RunScenario(spec, PolicySpec::Xen(Ms(90))).GroupPrimary(app);
    EXPECT_NEAR(at1 / at90, 1.0, 0.1) << app;
  }
}

TEST(IntegrationTest, AqlRecognizesS5Types) {
  ScenarioSpec spec = ColocationScenario(5);
  spec.measure = Sec(4);
  ScenarioResult r = RunScenario(spec, PolicySpec::Aql());
  // vCPUs 0-3: SPECweb (IOInt); 4-7: facesim (ConSpin); 8-11: bzip2 (LLCF);
  // 12-13: libquantum (LLCO); 14-15: hmmer (LoLCF).
  for (int v = 0; v < 4; ++v) {
    EXPECT_EQ(r.detected_types.at(v), VcpuType::kIoInt) << v;
  }
  for (int v = 4; v < 8; ++v) {
    EXPECT_EQ(r.detected_types.at(v), VcpuType::kConSpin) << v;
  }
  for (int v = 8; v < 12; ++v) {
    EXPECT_EQ(r.detected_types.at(v), VcpuType::kLlcf) << v;
  }
  for (int v = 12; v < 14; ++v) {
    EXPECT_EQ(r.detected_types.at(v), VcpuType::kLlco) << v;
  }
  for (int v = 14; v < 16; ++v) {
    EXPECT_EQ(r.detected_types.at(v), VcpuType::kLoLcf) << v;
  }
}

TEST(IntegrationTest, AqlFormsTwoPoolsOnS5) {
  ScenarioSpec spec = ColocationScenario(5);
  spec.measure = Sec(4);
  ScenarioResult r = RunScenario(spec, PolicySpec::Aql());
  // Table 5 / S5: a 1ms cluster (IOInt + ConSpin + ballast) and a 90ms
  // cluster (LLCF + ballast).
  ASSERT_EQ(r.pools.size(), 2u);
  EXPECT_NE(r.pools[0].label.find("1ms"), std::string::npos);
  EXPECT_NE(r.pools[1].label.find("90ms"), std::string::npos);
}

TEST(IntegrationTest, AqlBeatsXenOnS5Io) {
  ScenarioSpec spec = ColocationScenario(5);
  spec.measure = Sec(8);
  ScenarioResult xen = RunScenario(spec, PolicySpec::Xen());
  ScenarioResult aql = RunScenario(spec, PolicySpec::Aql());
  // The headline result: latency-critical and LLC-friendly applications both
  // improve; quantum-agnostic ones stay within noise.
  EXPECT_LT(aql.GroupPrimary("SPECweb2009"), 0.8 * xen.GroupPrimary("SPECweb2009"));
  EXPECT_LT(aql.GroupPrimary("bzip2"), 1.0 * xen.GroupPrimary("bzip2"));
  EXPECT_NEAR(aql.GroupPrimary("hmmer") / xen.GroupPrimary("hmmer"), 1.0, 0.1);
  EXPECT_NEAR(aql.GroupPrimary("libquantum") / xen.GroupPrimary("libquantum"), 1.0, 0.1);
}

TEST(IntegrationTest, MicroslicedHelpsIoHurtsLlcf) {
  ScenarioSpec spec = ColocationScenario(5);
  spec.measure = Sec(8);
  ScenarioResult xen = RunScenario(spec, PolicySpec::Xen());
  ScenarioResult micro = RunScenario(spec, PolicySpec::Microsliced());
  EXPECT_LT(micro.GroupPrimary("SPECweb2009"), 0.8 * xen.GroupPrimary("SPECweb2009"));
  EXPECT_GT(micro.GroupPrimary("bzip2"), 1.0 * xen.GroupPrimary("bzip2"));
}

TEST(IntegrationTest, VturboHelpsIoOnly) {
  ScenarioSpec spec = ColocationScenario(5);
  spec.measure = Sec(8);
  ScenarioResult xen = RunScenario(spec, PolicySpec::Xen());
  ScenarioResult vturbo = RunScenario(spec, PolicySpec::VTurbo());
  EXPECT_LT(vturbo.GroupPrimary("SPECweb2009"), 0.8 * xen.GroupPrimary("SPECweb2009"));
  // LLCF sees no benefit (but no large harm either).
  EXPECT_NEAR(vturbo.GroupPrimary("bzip2") / xen.GroupPrimary("bzip2"), 1.0, 0.15);
}

TEST(IntegrationTest, AqlOverheadNegligibleOnHomogeneousLoad) {
  ScenarioSpec spec;
  spec.machine = SingleSocketMachine(4);
  spec.name = "overhead";
  spec.vms = {{"hmmer", 8}, {"gobmk", 8}};
  spec.measure = Sec(8);
  ScenarioResult xen = RunScenario(spec, PolicySpec::Xen());
  ScenarioResult aql = RunScenario(spec, PolicySpec::Aql());
  // Paper §4.3: < 1% degradation.
  EXPECT_NEAR(aql.GroupPrimary("hmmer") / xen.GroupPrimary("hmmer"), 1.0, 0.01);
  EXPECT_NEAR(aql.GroupPrimary("gobmk") / xen.GroupPrimary("gobmk"), 1.0, 0.01);
}

TEST(IntegrationTest, FourSocketPlanIsBalanced) {
  ScenarioSpec spec = FourSocketScenario();
  spec.measure = Sec(4);
  ScenarioResult r = RunScenario(spec, PolicySpec::Aql());
  EXPECT_GE(r.pools.size(), 3u);  // at least one pool per socket
  EXPECT_NEAR(r.cpu_utilization, 1.0, 0.05);
}

TEST(IntegrationTest, DeterministicGivenSeed) {
  ScenarioSpec spec = ColocationScenario(2);
  spec.measure = Sec(3);
  ScenarioResult a = RunScenario(spec, PolicySpec::Aql());
  ScenarioResult b = RunScenario(spec, PolicySpec::Aql());
  EXPECT_DOUBLE_EQ(a.GroupPrimary("SPECweb2009"), b.GroupPrimary("SPECweb2009"));
  EXPECT_DOUBLE_EQ(a.GroupPrimary("bzip2"), b.GroupPrimary("bzip2"));
  EXPECT_EQ(a.events_processed, b.events_processed);
}

TEST(IntegrationTest, ScenarioBuildersSane) {
  for (int s = 1; s <= 5; ++s) {
    const ScenarioSpec spec = ColocationScenario(s);
    int vcpus = 0;
    for (const VmSpec& vm : spec.vms) {
      vcpus += vm.vcpus;
    }
    EXPECT_EQ(vcpus, 16) << "S" << s;
  }
  const ScenarioSpec four = FourSocketScenario();
  int vcpus = 0;
  for (const VmSpec& vm : four.vms) {
    vcpus += vm.vcpus;
  }
  EXPECT_EQ(vcpus, 48);
  EXPECT_EQ(four.machine.topology.TotalPcpus(), 12);
}

}  // namespace
}  // namespace aql
