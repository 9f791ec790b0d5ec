// Datacenter-level VM placement policies for the fleet simulation
// (src/fleet/fleet.h): where a VM lands at admission and which VMs are
// live-migrated between hosts at epoch boundaries.
//
// The three policies mirror the spectrum the per-host layer already models:
//  * naive        — round-robin spread by vCPU count, never rebalances; the
//                   baseline every consolidation study starts from.
//  * mem_pressure — balances per-host memory-bus pressure (the MemBus demand
//                   the machine model turns into stall stretching); moves the
//                   heaviest bandwidth consumer off the most pressured host.
//  * cache_aware  — segregates LLC trashers (LLCO profiles that stream over
//                   an LLC-overflowing working set) so no host accumulates
//                   more than its share of cache-destructive neighbours —
//                   src/hv/placement's trasher segregation one level up.
//
// Determinism contract: policies see observations in flat vectors ordered by
// host / VM index (never hash order), and break every tie toward the lowest
// index, so a decision is a pure function of the observation vectors.

#ifndef AQLSCHED_SRC_FLEET_CLUSTER_SCHEDULER_H_
#define AQLSCHED_SRC_FLEET_CLUSTER_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace aql {

enum class ClusterPolicy { kNaive, kMemPressure, kCacheAware };

const char* ClusterPolicyName(ClusterPolicy policy);

// Per-VM view at decision time. The static classification comes from the
// catalog's expected type (the stand-in for PMU-attributed per-VM counters a
// production placer would sample).
struct FleetVmView {
  int vm = 0;    // fleet-wide VM index
  int host = -1; // current host, -1 while unplaced
  int vcpus = 1;
  // Expected LLCO: streams over an LLC-overflowing working set and evicts
  // every co-resident footprint (the cache-aware policy's target).
  bool llc_trasher = false;
  // Expected LLCO or MemBw: saturates the socket's DRAM bandwidth (the
  // mem-pressure policy's target).
  bool mem_heavy = false;
};

// Per-host view at decision time.
struct FleetHostView {
  int host = 0;
  int vcpus = 0;       // vCPUs currently placed
  bool draining = false;  // evacuating or already offline: never a target
  int trashers = 0;    // placed llc_trasher VMs
  int mem_heavy_vcpus = 0;  // vCPUs of placed mem_heavy VMs
  // Unfilled: the fleet reads no machine or host shape when it builds views,
  // and no policy reads these three. Declared only because perfbench's
  // PlaceMicro sets them.
  int pcpus = 0;
  double bus_demand = 0.0;
  uint64_t llc_occupancy = 0;
};

struct FleetMigration {
  int vm = 0;
  int from = 0;
  int to = 0;
};

class ClusterScheduler {
 public:
  virtual ~ClusterScheduler() = default;

  // Host for `vm` at admission, drain evacuation and crash recovery. `hosts`
  // reflects placements already made; draining hosts must not be returned.
  virtual int Place(const FleetVmView& vm, const std::vector<FleetHostView>& hosts) = 0;

  // Epoch rebalance: migrations to apply, most urgent first. The fleet
  // truncates the list to its per-epoch cap, so policies may propose freely.
  virtual std::vector<FleetMigration> Rebalance(const std::vector<FleetHostView>& hosts,
                                                const std::vector<FleetVmView>& vms) {
    (void)hosts;
    (void)vms;
    return {};
  }
};

std::unique_ptr<ClusterScheduler> MakeClusterScheduler(ClusterPolicy policy);

}  // namespace aql

#endif  // AQLSCHED_SRC_FLEET_CLUSTER_SCHEDULER_H_
