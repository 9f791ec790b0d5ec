// Per-vCPU Performance Monitoring Unit counters.
//
// This is the simulated equivalent of the perfctr-xen counters the paper's
// vTRS consumes: instructions retired, LLC references, LLC misses — plus the
// two hypervisor-visible event counters (I/O event-channel notifications and
// Pause-Loop-Exiting traps) and the uncore remote-node DRAM access counter
// (OFFCORE_RESPONSE.*.REMOTE_DRAM equivalent) feeding the NUMA-remote cursor.

#ifndef AQLSCHED_SRC_HW_PMU_H_
#define AQLSCHED_SRC_HW_PMU_H_

#include <cstdint>

namespace aql {

struct PmuCounters {
  uint64_t instructions = 0;
  uint64_t llc_references = 0;
  uint64_t llc_misses = 0;
  // LLC misses served by a remote NUMA node's memory controller.
  uint64_t remote_accesses = 0;
  uint64_t io_events = 0;
  uint64_t pause_exits = 0;

  PmuCounters operator-(const PmuCounters& rhs) const;
  PmuCounters& operator+=(const PmuCounters& rhs);
};

}  // namespace aql

#endif  // AQLSCHED_SRC_HW_PMU_H_
