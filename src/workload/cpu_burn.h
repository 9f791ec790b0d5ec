// CPU-burn workload: always-runnable computation over a configurable memory
// footprint. This single model covers every compute-bound type — the
// distinction is purely parametric:
//   LoLCF      : wss fits L1/L2, near-zero LLC reference rate;
//   LLCF       : wss fits the LLC, high reference rate, low warm miss ratio;
//   LLCO       : wss overflows the LLC ("trashing"), permanently high miss
//                ratio;
//   MemBw      : a streaming kernel (STREAM-style, no reuse) whose reference
//                rate saturates the socket's DRAM bandwidth (high MPKI);
//   NumaRemote : the same streaming pattern against memory pinned to a
//                remote NUMA node (remote_fraction > 0, moderate rate).
//
// A plain burner runs back-to-back 200 µs steps, marked coalescable: while
// its LLC miss ratio holds still the machine runs several as one coarse step
// (Machine::BeginStep). A streaming kernel alternates a 180 µs streaming
// burst with a 20 µs register-only loop-overhead gap (index arithmetic
// between sweeps), which stay steps of their own, so its LLC pressure
// has the on/off micro-structure of real streaming kernels while staying
// memory-dominated; a truncated burst resumes streaming at the next dispatch.
//
// Performance metric: slowdown = wall-time per unit of pure work over the
// measurement window (smaller is better), matching the paper's normalized
// execution time. Streaming kernels also report the demanded fetch volume
// per second (`demand_gb_per_s`) — the bandwidth view of the same number.

#ifndef AQLSCHED_SRC_WORKLOAD_CPU_BURN_H_
#define AQLSCHED_SRC_WORKLOAD_CPU_BURN_H_

#include <string>

#include "src/workload/workload.h"

namespace aql {

struct CpuBurnConfig {
  std::string name = "cpu_burn";
  MemProfile mem;
  // Streaming kernel: bursts over `mem` (which must have a working set and a
  // reference rate) separated by register-only gaps.
  bool stream = false;
};

class CpuBurnModel : public WorkloadModel {
 public:
  explicit CpuBurnModel(const CpuBurnConfig& config);

  Step NextStep(TimeNs now) override;
  void OnStepEnd(TimeNs now, const Step& step, TimeNs work_done, bool completed) override;
  std::string Name() const override { return config_.name; }
  PerfReport Report(TimeNs now) const override;
  void ResetMetrics(TimeNs now) override;

  TimeNs work_done_total() const { return done_total_; }

 private:
  CpuBurnConfig config_;
  bool in_gap_ = false;  // streaming only: the next step is the loop gap
  TimeNs done_total_ = 0;
  TimeNs done_window_ = 0;
  TimeNs window_start_ = 0;
};

}  // namespace aql

#endif  // AQLSCHED_SRC_WORKLOAD_CPU_BURN_H_
