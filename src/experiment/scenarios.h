// Experiment scenario descriptions and builders shared by benches, examples
// and integration tests: the calibration rigs of §3.4, the colocation
// scenarios S1–S5 of Table 4, and the 4-socket complex case of §3.5/Fig. 3.

#ifndef AQLSCHED_SRC_EXPERIMENT_SCENARIOS_H_
#define AQLSCHED_SRC_EXPERIMENT_SCENARIOS_H_

#include <string>
#include <vector>

#include "src/core/aql_controller.h"
#include "src/fleet/fleet.h"
#include "src/hv/machine.h"

namespace aql {

// The reserved VmSpec::app name of a trace-driven VM (workload-source
// "trace" backend): its vCPUs replay ScenarioSpec::trace_path instead of a
// catalog application. VmSpec itself is declared in src/fleet/fleet.h.
inline constexpr const char* kTraceAppName = "trace";

struct ScenarioSpec {
  std::string name;
  MachineConfig machine;
  std::vector<VmSpec> vms;
  TimeNs warmup = Sec(2);
  TimeNs measure = Sec(8);
  // Fleet-scale scenarios (src/fleet): when fleet.hosts > 0, `machine` is
  // the per-host template, `vms` is the fleet-wide VM population, and the
  // runner dispatches to RunFleet instead of building one Machine.
  FleetConfig fleet;
  // Trace-driven scenarios: the JSON-lines trace (docs/TRACE_FORMAT.md)
  // replayed by the VM whose app is kTraceAppName. Enters the scenario
  // JSON. Single-machine scenarios only.
  std::string trace_path;
};

// Scheduling policy under test.
struct PolicySpec {
  enum class Kind { kXen, kAql, kMicrosliced, kVSlicer, kVTurbo };

  Kind kind = Kind::kXen;
  // kXen: the fixed quantum (30 ms = native Xen; other values regenerate the
  // calibration sweeps).
  TimeNs xen_quantum = Ms(30);
  // kMicrosliced / kVSlicer / kVTurbo: the short quantum.
  TimeNs small_quantum = Ms(1);
  // kVTurbo: number of dedicated turbo pCPUs.
  int turbo_pcpus = 1;
  // kAql configuration.
  AqlConfig aql;

  std::string Label() const;

  static PolicySpec Xen(TimeNs quantum = Ms(30));
  static PolicySpec Aql();
  static PolicySpec Microsliced(TimeNs quantum = Ms(1));
  static PolicySpec VSlicer(TimeNs quantum = Ms(1));
  static PolicySpec VTurbo(int turbo_pcpus = 1, TimeNs quantum = Ms(1));
};

// Default single-socket experimental machine (Table 2, 4 of the i7-3770's
// cores as in the paper's experiments).
MachineConfig SingleSocketMachine(int pcpus = 4, uint64_t seed = 42);

// Multi-socket machine of §3.5: E5-4603 with one socket reserved for dom0,
// leaving 3 usable sockets x 4 pCPUs.
MachineConfig MultiSocketMachine(uint64_t seed = 42);

// Two E5-4603 sockets (8 pCPUs) — the rig for the extended memory profiles.
// The NUMA distance and memory-bus contention terms are intrinsic to the
// machine model (the E5 topology preset carries its DRAM bandwidth).
MachineConfig DualSocketNumaMachine(uint64_t seed = 42);

// Disturber mix of the calibration/validation rigs ("various workload
// types"), by `i` mod 3: streaming, LLC-friendly (reused working sets create
// legitimate capacity contention) and low-level-cache-friendly CPU burners.
const char* DisturberApp(int i);

// §3.4.1 calibration rig: a baseline VM running `app` colocated with
// disturber VMs so that every pCPU runs `vcpus_per_pcpu` vCPUs. ConSpin
// applications get 4 baseline vCPUs (kernbench -j4), others one.
ScenarioSpec CalibrationRig(const std::string& app, int vcpus_per_pcpu, uint64_t seed = 42);

// Fig. 5 / Table 3 validation rig: `app` colocated at 4 vCPUs per pCPU.
ScenarioSpec ValidationRig(const std::string& app, uint64_t seed = 42);

// Validation rig for the 8-type extended catalog (table3x). Paper
// applications get the unmodified ValidationRig, so their cells are the
// paper's Table 3 runs. Extended applications all run on the dual-socket NUMA
// machine (still 4 vCPUs per pCPU), whose memory-bus and NUMA terms are
// part of the machine model itself.
ScenarioSpec ExtendedValidationRig(const std::string& app, uint64_t seed = 42);

// Table 4 colocation scenarios S1..S5 (index 1-based).
ScenarioSpec ColocationScenario(int index, uint64_t seed = 42);

// §3.5 complex case: 48 vCPUs (12 IOInt+, 7 ConSpin-, 17 LLCF, 12 LLCO)
// on 3 usable sockets.
ScenarioSpec FourSocketScenario(uint64_t seed = 42);

// Fleet host template: one E5-4603 socket (4 pCPUs) with the preset's DRAM
// bandwidth modeled — the smallest host that exercises both contention terms
// the cluster policies balance (LLC trashing and MemBus pressure).
MachineConfig FleetHostMachine(uint64_t seed = 42);

// Deterministic fleet VM population: `vms` single-vCPU VMs cycling through a
// representative mix (2 LLCO : 1 MemBw : 2 LLCF : 2 LoLCF : 1 LLCF), i.e.
// 3/8 of the population is cache- or bandwidth-destructive.
std::vector<VmSpec> FleetWorkloadMix(int vms);

// Fleet-scale scenario: `vms` placed across `hosts` FleetHostMachine hosts
// by `policy` (see ScenarioSpec::fleet for the drain/skew knobs callers may
// set afterwards).
ScenarioSpec FleetScenario(const std::string& name, int hosts,
                           const std::vector<VmSpec>& vms, ClusterPolicy policy,
                           uint64_t seed = 42);

}  // namespace aql

#endif  // AQLSCHED_SRC_EXPERIMENT_SCENARIOS_H_
