// Fleet-scale simulation: N Machine instances stepped in one deterministic
// event order under a datacenter-level ClusterScheduler, with a live-
// migration cost model.
//
// Determinism contract (tests/fleet_test.cc; prose in docs/ARCHITECTURE.md
// "Parallelism"):
//  * Each host owns its Simulation + Machine. Between epoch boundaries a
//    host's event stream is a pure function of its own state: no cross-host
//    reads, no shared counters, no shared RNG.
//  * Hosts advance to each epoch boundary in index order on one thread, and
//    every cross-host effect (drain/rebalance proposals, migrations, fleet
//    bookkeeping) is applied between boundaries in a fixed order, so a
//    fleet is a pure function of (spec, seed).
//  * Per-host RNG streams derive from the declared seed via FleetHostSeed
//    (host index + rebuild generation), never from execution order.
//  * A 1-host fleet with no migrations runs the exact event stream of the
//    equivalent single-Machine scenario: same sentinels, same reset point,
//    same event count (epoch boundaries only split RunUntil calls, which
//    does not reorder or add events).
//
// One path per job: admission, drain evacuation and crash recovery pick a
// host through one Place (policy decision, target check, resident booking);
// migration and recovery re-host VMs through one Rehost (tear down the
// touched hosts, rewrite their VM lists, rebuild them in index order,
// execute each host's charge).
//
// Live migration: moving a VM rebuilds the source and destination machines
// at the epoch boundary with their new VM sets (fresh RNG generation, cold
// caches — the realistic post-migration warm-up penalty) and charges the
// dirty-page transfer (vcpus x kMigrationDirtyPagesPerVcpu x
// kMigrationPageBytes, at the host template's DRAM bandwidth) through
// Machine::ChargeControllerOverhead on BOTH ends — *executed* occupancy,
// not a counter bump. The one exception is a fully drained host: its final
// outgoing charge has no remaining vCPUs to dilate, so it is recorded in
// the stats only.
//
// Metrics across rebuilds: per-vCPU PerfReports are snapshotted before every
// teardown and combined time-weighted over the measured window; a vCPU that
// lived in one segment keeps its raw report values bit-for-bit (no wash
// through a weighted mean), which is what makes the 1-host equivalence hold
// to the byte.
//
// Faults: FleetConfig::fault enables the deterministic fault subsystem
// (src/fleet/fault_injector.h) — fail-stop host crashes with scheduler-
// driven VM recovery, mid-copy migration aborts with retry/backoff, and
// host degradation. All fault effects are applied at epoch boundaries, in
// fixed order, from pre-drawn schedules, so they inherit the byte-identity
// contract above. An inactive plan (the
// default) leaves every code path and RNG stream untouched.
//
// Counters: each host's Machine counts its own work (WorkCounters); the
// coordinator adds a build's counters when it tears the machine down and
// the survivors' at the end, so the sums cover every build. A fleet run
// reads no host clock.

#ifndef AQLSCHED_SRC_FLEET_FLEET_H_
#define AQLSCHED_SRC_FLEET_FLEET_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/fleet/cluster_scheduler.h"
#include "src/fleet/fault_injector.h"
#include "src/hv/machine.h"
#include "src/metrics/report.h"
#include "src/sim/time.h"

namespace aql {

// One VM running `vcpus` instances of catalog application `app` (ConSpin
// applications share the VM's spin lock), or — in a single-machine scenario,
// when `app` is kTraceAppName (src/experiment/scenarios.h) — the scenario's
// trace file (`vcpus` must equal its stream count).
struct VmSpec {
  std::string app;
  int vcpus = 1;
  int weight = 256;
  int cap_percent = 0;
  // ConSpin applications only: use a FIFO ticket lock (ablation 4).
  bool fifo_lock = false;
};

// Dirty-page transfer of one live migration: pages re-sent per vCPU of the
// moving VM (pre-copy rounds folded in), at kMigrationPageBytes each.
inline constexpr uint64_t kMigrationDirtyPagesPerVcpu = 16384;  // 64 MiB
inline constexpr uint64_t kMigrationPageBytes = 4096;

// Rolling-upgrade evacuation: hosts[k] starts draining at
// `start + k * interval` (simulation time); a draining host moves up to
// `batch_per_epoch` VMs per epoch until empty, then goes offline.
struct FleetDrainPlan {
  std::vector<int> hosts;
  TimeNs start = 0;
  TimeNs interval = 0;
  int batch_per_epoch = 4;

  bool Active() const { return !hosts.empty(); }
};

struct FleetConfig {
  // Number of hosts; 0 means "not a fleet scenario" (the experiment layer's
  // dispatch switch).
  int hosts = 0;
  ClusterPolicy policy = ClusterPolicy::kNaive;
  // Cluster control interval: observation, rebalance and drain decisions
  // happen on this grid (plus the warm-up and end boundaries).
  TimeNs epoch = Ms(500);
  // Rebalance migrations applied per epoch (drains are capped separately by
  // FleetDrainPlan::batch_per_epoch).
  int max_migrations_per_epoch = 1;
  FleetDrainPlan drain;
  // Optional per-VM initial host (size == number of VMs): overrides the
  // policy's admission placement — the lever for deliberately skewed
  // layouts (fleet_hotspot). Empty = the policy places.
  std::vector<int> declared_hosts;
  // Deterministic fault model (src/fleet/fault_injector.h). The default is
  // inert: a zero-fault plan leaves the run bit-identical to a fleet built
  // without the fault subsystem (tests/fleet_fault_test.cc).
  FleetFaultPlan fault;
};

struct FleetSpec {
  // Per-host machine template. `seed` is the fleet's declared base seed;
  // each host build derives its own stream via FleetHostSeed.
  MachineConfig host_template;
  std::vector<VmSpec> vms;
  FleetConfig config;
  TimeNs warmup = Sec(2);
  TimeNs measure = Sec(8);
  // Builds the per-host SchedController (nullptr = native Xen). Called for
  // every host (re)build with the host-local vCPU ids of IOInt
  // applications — the manual configuration vSlicer/vTurbo need.
  std::function<std::unique_ptr<SchedController>(const std::vector<int>& io_vcpus)>
      controller_factory;
};

struct FleetHostStats {
  // Measured busy / capacity, in pCPU-ns over the window: the template's
  // pCPUs until a brownout, the shrunken count after it.
  double cpu_utilization = 0.0;
  int vcpus = 0;                 // resident vCPUs at the end of the run
  uint64_t events = 0;           // across all of the host's builds
  int migrations_in = 0;
  int migrations_out = 0;
  uint64_t migration_bytes_in = 0;
  uint64_t migration_bytes_out = 0;
  // Executed dirty-page transfer occupancy charged on this host (both
  // directions land on the machine that exists after the boundary).
  TimeNs migration_charge = 0;
  bool drained = false;
  // --- fault bookkeeping (all zero unless FleetConfig::fault is active) ---
  int crashes = 0;             // fail-stop events suffered by this host
  bool degraded = false;       // brownout applied (at most one per run)
  int restarts_in = 0;         // crashed VMs re-placed onto this host
  int migration_failures = 0;  // outgoing transfers that aborted mid-copy
  uint64_t aborted_bytes_out = 0;
  uint64_t aborted_bytes_in = 0;
  // Executed fault occupancy on this host: wasted transfer halves plus
  // restart re-provisioning charges (same execution contract as
  // migration_charge).
  TimeNs fault_charge = 0;
};

struct FleetResult {
  // Fleet-wide per-application groups (GroupReports over the time-weighted
  // per-vCPU reports, in VM/vCPU order).
  std::vector<GroupPerf> app_groups;
  std::vector<FleetHostStats> hosts;  // by host index
  TimeNs measure_window = 0;
  // Fleet-wide busy / summed host capacity (drained and crashed hosts
  // included, brownouts counted from their instant).
  double cpu_utilization = 0.0;
  TimeNs controller_overhead = 0;  // summed over hosts, measured window
  uint64_t events_processed = 0;   // summed over hosts, warm-up included
  int migrations = 0;              // completed VM moves (rebalance + drain)
  uint64_t migration_bytes = 0;    // dirty-page bytes transferred
  TimeNs migration_charge = 0;     // executed occupancy charged fleet-wide
  int vcpus_total = 0;
  // Machine work counters summed over every host build, torn-down ones
  // included, and the epoch boundaries run (warm-up included, like
  // events_processed).
  WorkCounters counters;
  uint64_t epochs = 0;
  // --- fault bookkeeping (all zero/1.0 unless FleetConfig::fault is
  // active; see docs/ARCHITECTURE.md "Fault model & recovery contract") ---
  int crashes = 0;                // fail-stop host crashes
  int vm_restarts = 0;            // crashed VMs re-placed by the scheduler
  TimeNs downtime_total = 0;      // summed per-VM in-window downtime
  double availability = 1.0;      // vCPU-weighted 1 - downtime / window
  int migration_failures = 0;     // aborted transfer attempts
  int migration_retries = 0;      // retry attempts scheduled after aborts
  int migrations_abandoned = 0;   // moves dropped after the retry cap
  uint64_t aborted_bytes = 0;     // wasted dirty-page bytes (per end)
  TimeNs fault_charge = 0;        // executed fault occupancy fleet-wide
  int degraded_hosts = 0;
};

// Seed of host `host`'s `rebuild`-th machine build (generation 0 is the
// initial build). Exposed so tests can construct the equivalent
// single-Machine scenario.
uint64_t FleetHostSeed(uint64_t base_seed, int host, uint64_t rebuild);

FleetResult RunFleet(const FleetSpec& spec);

}  // namespace aql

#endif  // AQLSCHED_SRC_FLEET_FLEET_H_
