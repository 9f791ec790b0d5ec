#include "src/experiment/scenarios.h"

#include "src/sim/check.h"
#include "src/workload/catalog.h"

namespace aql {

std::string PolicySpec::Label() const {
  switch (kind) {
    case Kind::kXen: {
      const int64_t ms = static_cast<int64_t>(ToMs(xen_quantum));
      return "Xen(" + std::to_string(ms) + "ms)";
    }
    case Kind::kAql:
      return "AQL_Sched";
    case Kind::kMicrosliced:
      return "Microsliced";
    case Kind::kVSlicer:
      return "vSlicer";
    case Kind::kVTurbo:
      return "vTurbo";
  }
  return "?";
}

PolicySpec PolicySpec::Xen(TimeNs quantum) {
  PolicySpec p;
  p.kind = Kind::kXen;
  p.xen_quantum = quantum;
  return p;
}

PolicySpec PolicySpec::Aql() {
  PolicySpec p;
  p.kind = Kind::kAql;
  return p;
}

PolicySpec PolicySpec::Microsliced(TimeNs quantum) {
  PolicySpec p;
  p.kind = Kind::kMicrosliced;
  p.small_quantum = quantum;
  return p;
}

PolicySpec PolicySpec::VSlicer(TimeNs quantum) {
  PolicySpec p;
  p.kind = Kind::kVSlicer;
  p.small_quantum = quantum;
  return p;
}

PolicySpec PolicySpec::VTurbo(TimeNs quantum) {
  PolicySpec p;
  p.kind = Kind::kVTurbo;
  p.small_quantum = quantum;
  return p;
}

MachineConfig SingleSocketMachine(int pcpus, uint64_t seed) {
  MachineConfig mc;
  mc.topology = MakeI73770Topology(pcpus);
  mc.seed = seed;
  return mc;
}

MachineConfig MultiSocketMachine(uint64_t seed) {
  MachineConfig mc;
  mc.topology = MakeE54603Topology();
  // The paper pins dom0 to a dedicated socket; we model the three remaining
  // application sockets.
  mc.topology.sockets = 3;
  mc.seed = seed;
  return mc;
}

MachineConfig DualSocketNumaMachine(uint64_t seed) {
  MachineConfig mc;
  mc.topology = MakeE54603Topology();
  mc.topology.sockets = 2;
  mc.seed = seed;
  return mc;
}

const char* DisturberApp(int i) {
  switch (i % 3) {
    case 0:
      return "llco_list";
    case 1:
      return "llcf_list2";
    default:
      return "lolcf_list";
  }
}

namespace {

int BaselineVcpus(const std::string& app) {
  // ConSpin applications are multi-threaded (kernbench -j4).
  return FindApp(app).expected_type == VcpuType::kConSpin ? 4 : 1;
}

}  // namespace

ScenarioSpec CalibrationRig(const std::string& app, int vcpus_per_pcpu, uint64_t seed) {
  AQL_CHECK(vcpus_per_pcpu >= 1);
  ScenarioSpec spec;
  const int pcpus = 4;
  spec.machine = SingleSocketMachine(pcpus, seed);
  spec.name = "calibration/" + app + "/x" + std::to_string(vcpus_per_pcpu);

  const int baseline = BaselineVcpus(app);
  const int total = pcpus * vcpus_per_pcpu;
  AQL_CHECK(baseline <= total);
  spec.vms.push_back(VmSpec{app, baseline});
  int remaining = total - baseline;
  int i = 0;
  while (remaining > 0) {
    spec.vms.push_back(VmSpec{DisturberApp(i), 1});
    ++i;
    --remaining;
  }
  return spec;
}

ScenarioSpec ValidationRig(const std::string& app, uint64_t seed) {
  ScenarioSpec spec = CalibrationRig(app, 4, seed);
  spec.name = "validation/" + app;
  return spec;
}

ScenarioSpec ExtendedValidationRig(const std::string& app, uint64_t seed) {
  const AppProfile& profile = FindApp(app);
  if (!profile.extended) {
    return ValidationRig(app, seed);
  }
  // All extended profiles share one rig: the dual-socket E5 machine. The
  // memory-bus and NUMA terms are intrinsic to that machine model (its
  // topology preset carries the bandwidth, the Machine always applies the
  // SLIT penalty on multi-socket), so no per-app hardware special-casing.
  ScenarioSpec spec;
  spec.machine = DualSocketNumaMachine(seed);
  spec.name = "xval/" + app;
  const int pcpus = spec.machine.topology.TotalPcpus();
  const int baseline = BaselineVcpus(app);
  const int total = pcpus * 4;
  AQL_CHECK(baseline <= total);
  spec.vms.push_back(VmSpec{app, baseline});
  for (int i = 0; i < total - baseline; ++i) {
    spec.vms.push_back(VmSpec{DisturberApp(i), 1});
  }
  return spec;
}

ScenarioSpec ColocationScenario(int index, uint64_t seed) {
  ScenarioSpec spec;
  spec.machine = SingleSocketMachine(4, seed);
  spec.name = "S" + std::to_string(index);
  switch (index) {
    case 1:
      // 5 ConSpin (fluidanimate), 5 LLCF (bzip2), 6 LoLCF (hmmer).
      spec.vms = {{"fluidanimate", 5}, {"bzip2", 5}, {"hmmer", 6}};
      break;
    case 2:
      // 5 IOInt (SPECweb2009), 5 LLCF (bzip2), 6 LLCO (libquantum).
      spec.vms = {{"SPECweb2009", 5}, {"bzip2", 5}, {"libquantum", 6}};
      break;
    case 3:
      // 5 LLCF (bzip2), 5 LLCO (libquantum), 6 LoLCF (hmmer).
      spec.vms = {{"bzip2", 5}, {"libquantum", 5}, {"hmmer", 6}};
      break;
    case 4:
      // 4 IOInt, 4 ConSpin (facesim), 4 LLCF (bzip2), 4 LLCO (libquantum).
      // (Table 4 lists "hmmer" for the LLCO slot, which is inconsistent with
      // Table 3's typing; we use libquantum per the scenario's type column.)
      spec.vms = {{"SPECweb2009", 4}, {"facesim", 4}, {"bzip2", 4}, {"libquantum", 4}};
      break;
    case 5:
      // 4 IOInt, 4 ConSpin, 4 LLCF, 2 LLCO, 2 LoLCF.
      spec.vms = {{"SPECweb2009", 4},
                  {"facesim", 4},
                  {"bzip2", 4},
                  {"libquantum", 2},
                  {"hmmer", 2}};
      break;
    default:
      AQL_CHECK_MSG(false, "scenario index must be 1..5");
  }
  return spec;
}

MachineConfig FleetHostMachine(uint64_t seed) {
  MachineConfig mc;
  mc.topology = MakeE54603Topology();
  mc.topology.sockets = 1;
  mc.seed = seed;
  return mc;
}

std::vector<VmSpec> FleetWorkloadMix(int vms) {
  AQL_CHECK(vms >= 1);
  // 8-VM cycle: 2 LLCO + 1 MemBw (the destructive 3/8 the aware policies
  // must segregate or spread) + 3 LLCF + 2 LoLCF.
  static const char* kCycle[8] = {"libquantum", "bzip2",  "hmmer", "stream_triad",
                                  "libquantum", "bzip2",  "hmmer", "bzip2"};
  std::vector<VmSpec> out;
  out.reserve(static_cast<size_t>(vms));
  for (int i = 0; i < vms; ++i) {
    out.push_back(VmSpec{kCycle[i % 8], 1});
  }
  return out;
}

ScenarioSpec FleetScenario(const std::string& name, int hosts,
                           const std::vector<VmSpec>& vms, ClusterPolicy policy,
                           uint64_t seed) {
  AQL_CHECK(hosts >= 1);
  ScenarioSpec spec;
  spec.name = name;
  spec.machine = FleetHostMachine(seed);
  spec.vms = vms;
  spec.fleet.hosts = hosts;
  spec.fleet.policy = policy;
  return spec;
}

ScenarioSpec FourSocketScenario(uint64_t seed) {
  ScenarioSpec spec;
  spec.machine = MultiSocketMachine(seed);
  spec.name = "four_socket";
  // 48 vCPUs over 12 usable pCPUs: 12 IOInt+, 7 ConSpin-, 17 LLCF, 12 LLCO.
  spec.vms = {{"specweb_trasher", 12}, {"facesim", 7}, {"bzip2", 17}, {"libquantum", 12}};
  return spec;
}

}  // namespace aql
