// vCPU placement: the layer between the scheduling policy (which decides
// grouping and quantum lengths) and the Machine (which executes pool plans).
//
// Three responsibilities:
//  1. Home assignment — extracted from Machine::ApplyPoolPlan: deal each
//     pool's vCPUs round-robin over the pool's pCPUs, in spec order. The
//     Machine executes exactly this assignment, so policies can reason
//     about where a plan puts every vCPU without applying it.
//  2. Socket-aware plan shaping — a stickiness pass over a first-level
//     (per-socket) assignment: vCPUs whose guest pages have been migrated
//     toward a NUMA node are kept on that node, swapping with the
//     cheapest-to-move resident so per-socket counts (the fairness unit of
//     Algorithm 1) are preserved. Single-socket assignments are trivially
//     untouched.
//  3. Migration cost model — the estimated cost of moving a vCPU's working
//     set across sockets, used to pick swap partners (and available to
//     policies weighing a migration against its benefit).
//
// Everything here is pure and deterministic: same inputs, same placement.

#ifndef AQLSCHED_SRC_HV_PLACEMENT_H_
#define AQLSCHED_SRC_HV_PLACEMENT_H_

#include <cstdint>
#include <vector>

#include "src/core/vcpu_type.h"
#include "src/hv/cpu_pool.h"
#include "src/hw/topology.h"

namespace aql {

// Per-vCPU placement facts the policy layer feeds the placement pass.
struct PlacementHint {
  int vcpu = -1;
  VcpuType type = VcpuType::kLoLcf;
  // Socket currently holding the vCPU's LLC footprint (and, for pinned
  // vCPUs, its migrated guest pages); -1 = none yet.
  int socket = -1;
  // Resident LLC occupancy in bytes — the migration cost model's input.
  uint64_t footprint_bytes = 0;
  // True once the controller has migrated (or is migrating) the vCPU's
  // guest pages toward `socket`: placement keeps the vCPU there.
  bool pinned = false;
};

// (1) The home assignment Machine::ApplyPoolPlan executes for `plan`:
// pool-major, each pool's vCPUs dealt round-robin over its pCPUs.
struct HomeAssignment {
  int vcpu = -1;
  int pool = 0;
  int home_pcpu = -1;
};
std::vector<HomeAssignment> AssignHomes(const PoolPlan& plan);

// (3) Cost of moving a vCPU across sockets: every resident line must be
// re-fetched on the destination socket, paying the DRAM penalty plus the
// SLIT surcharge while the line still lives on the old node. Zero on
// single-socket topologies or for empty footprints.
TimeNs CrossSocketMigrationCost(const Topology& topology, uint64_t footprint_bytes);

// (2) Socket-stickiness pass over a first-level assignment (vCPU ids per
// socket). For every pinned hint dealt to a socket other than its memory
// node, swap it with the cheapest-to-move vCPU on that node (never another
// vCPU pinned there), preserving per-socket counts. vCPUs without hints
// never initiate moves and are treated as free (zero-footprint) partners.
void ApplyNumaStickiness(std::vector<std::vector<int>>& per_socket,
                         const std::vector<PlacementHint>& hints,
                         const Topology& topology);

}  // namespace aql

#endif  // AQLSCHED_SRC_HV_PLACEMENT_H_
