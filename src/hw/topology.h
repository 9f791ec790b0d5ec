// Hardware platform description: sockets, cores, cache sizes, and timing
// parameters used by the cache/contention model.
//
// Presets mirror the paper's two experimental machines (Table 2 i7-3770 and
// the 4-socket Xeon E5-4603 used for the multi-socket evaluation).

#ifndef AQLSCHED_SRC_HW_TOPOLOGY_H_
#define AQLSCHED_SRC_HW_TOPOLOGY_H_

#include <cstdint>
#include <vector>

#include "src/sim/time.h"

namespace aql {

// Platform constants shared by the machine, the LLC model and the placement
// cost model.
//
// Extra stall charged per LLC miss (DRAM access), on top of nominal work.
inline constexpr TimeNs kLlcMissPenalty = 80;
// Cache line size in bytes.
inline constexpr uint64_t kCacheLineBytes = 64;
// Extra stall per LLC miss served by a remote NUMA node: the E5-4603's SLIT
// distances are 10 local and 21 remote (all remote nodes are equidistant on
// its ring), so a remote access costs 21/10 times the local DRAM penalty,
// 88 ns on top of it.
inline constexpr TimeNs kRemoteMissExtra =
    static_cast<TimeNs>(static_cast<double>(kLlcMissPenalty) * (21.0 / 10.0 - 1.0));

// The LLC model's knobs that the ablation sweep varies.
struct HwParams {
  // Recency protection: eviction weight applied to the occupancy of vCPUs
  // currently running on the socket (their lines are hot under LRU, so
  // trashers evict them far more slowly than descheduled footprints).
  double running_eviction_weight = 0.15;
  // Thrash-resistant insertion (DIP/RRIP-style): the fraction of a
  // streaming workload's fetched lines (WSS > LLC) that are actually
  // inserted with enough priority to evict re-used working sets.
  double stream_insertion_fraction = 0.3;
};

// Physical machine layout. pCPUs are numbered globally, socket-major:
// pCPU p lives on socket p / cores_per_socket.
struct Topology {
  int sockets = 1;
  int cores_per_socket = 4;
  uint64_t llc_bytes = 8ull * 1024 * 1024;
  // Per-socket DRAM bandwidth the memory controller sustains, in bytes per
  // nanosecond. This is a property of the machine, not of a scenario: the
  // Machine always instantiates the MemBus contention term from it, and the
  // term is inert by construction at 0 (infinite bandwidth). The i7-3770
  // preset keeps 0 — the paper's single-socket calibration predates the
  // term — while the E5-4603 preset carries its measured bandwidth.
  double mem_bw_bytes_per_ns = 0.0;

  int TotalPcpus() const { return sockets * cores_per_socket; }
  int SocketOf(int pcpu) const;
  // pCPU ids belonging to `socket`.
  std::vector<int> PcpusOfSocket(int socket) const;
};

// Table 2 machine: Intel i7-3770, one socket, 8 MB LLC. The paper's
// single-socket experiments use 4 of its cores; pass `cores` accordingly.
Topology MakeI73770Topology(int cores = 4);

// Multi-socket evaluation machine: Xeon E5-4603, 4 sockets x 4 cores.
Topology MakeE54603Topology();

}  // namespace aql

#endif  // AQLSCHED_SRC_HW_TOPOLOGY_H_
