// CPU-burn workload: always-runnable computation over a configurable memory
// footprint. This single model covers the paper's three CPU-burn sub-types —
// the distinction is purely parametric:
//   LoLCF : wss fits L1/L2, near-zero LLC reference rate;
//   LLCF  : wss fits the LLC, high reference rate, low warm miss ratio;
//   LLCO  : wss overflows the LLC ("trashing"), permanently high miss ratio.
//
// Performance metric: slowdown = wall-time per unit of pure work over the
// measurement window (smaller is better), matching the paper's normalized
// execution time. With `total_work` set, the model finishes after that much
// pure work and additionally reports the completion time.

#ifndef AQLSCHED_SRC_WORKLOAD_CPU_BURN_H_
#define AQLSCHED_SRC_WORKLOAD_CPU_BURN_H_

#include <string>

#include "src/workload/workload.h"

namespace aql {

struct CpuBurnConfig {
  std::string name = "cpu_burn";
  MemProfile mem;
  // Step granularity: one compute step of this pure-work size at a time.
  TimeNs phase = Us(200);
  // Total pure work; 0 = run forever (steady-state throughput mode).
  TimeNs total_work = 0;
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
  bool finished() const { return finished_; }

 private:
  CpuBurnConfig config_;
  TimeNs done_total_ = 0;
  TimeNs done_window_ = 0;
  TimeNs window_start_ = 0;
  bool finished_ = false;
  TimeNs finish_time_ = 0;
};

}  // namespace aql

#endif  // AQLSCHED_SRC_WORKLOAD_CPU_BURN_H_
