// Two-level vCPU clustering (§3.5, Algorithms 1 and 2).
//
// Level 1 spreads vCPUs across sockets: trashing vCPUs (LLCO-leaning per the
// window-averaged cursors) are segregated from non-trashing ones as much as
// fairness allows, vCPUs of a VM are kept together (NUMA), and LoLCF vCPUs
// head the non-trashing list so that LLCF vCPUs land away from trashers.
//
// Level 2 groups each socket's vCPUs by quantum-length compatibility (QLC):
// one cluster per calibrated quantum, with the quantum-agnostic types
// (LoLCF/LLCO) used as ballast to round cluster sizes up to multiples of
// k = vCPUs-per-pCPU. pCPUs are then dealt out cluster by cluster; vCPUs
// left over where clusters do not fill a whole pCPU are pooled into a
// default-quantum cluster (the paper's C^dq).
//
// The output is a PoolPlan the Machine applies directly.

#ifndef AQLSCHED_SRC_CORE_CLUSTERING_H_
#define AQLSCHED_SRC_CORE_CLUSTERING_H_

#include <string>
#include <vector>

#include "src/core/calibration.h"
#include "src/core/cursors.h"
#include "src/hv/cpu_pool.h"
#include "src/hv/placement.h"
#include "src/hw/topology.h"

namespace aql {

// Classification snapshot for one vCPU, as produced by vTRS.
struct VcpuClass {
  int vcpu = -1;
  int vm = -1;
  VcpuType type = VcpuType::kLoLcf;
  CursorSet avg;
};

// Level-1 output: vCPU ids per socket.
struct SocketAssignment {
  std::vector<std::vector<int>> per_socket;
};

// Algorithm 1: distribute vCPUs over `sockets` sockets.
SocketAssignment FirstLevelClustering(const std::vector<VcpuClass>& vcpus, int sockets);

// Algorithm 2 applied to one socket; `pcpus` are the socket's pCPU ids.
// Produces one PoolSpec per cluster formed on the socket.
std::vector<PoolSpec> SecondLevelClustering(const std::vector<VcpuClass>& socket_vcpus,
                                            const std::vector<int>& pcpus,
                                            const CalibrationTable& calibration,
                                            const std::string& label_prefix);

// Full pipeline: Algorithm 1, then the placement layer's NUMA stickiness
// pass (vCPUs with migrated pages stay on their memory node, swapping with
// the cheapest partner — src/hv/placement.h), then Algorithm 2 per socket.
// Without pinned hints (all single-socket plans trivially) the stickiness
// pass changes nothing.
PoolPlan BuildTwoLevelPlan(const std::vector<VcpuClass>& vcpus, const Topology& topology,
                           const CalibrationTable& calibration,
                           const std::vector<PlacementHint>& hints = {});

}  // namespace aql

#endif  // AQLSCHED_SRC_CORE_CLUSTERING_H_
