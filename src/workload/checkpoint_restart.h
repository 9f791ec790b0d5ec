// Daly-style checkpoint/restart workload: long-running HPC computation that
// pauses after every 80 ms of useful work to write a checkpoint (2 ms of
// pure work streaming through a 16 MiB buffer), then resumes. The checkpointed
// position is the model's durable state (WorkloadModel::SaveDurableState):
// when the fleet layer rebuilds the machine — live migration or crash
// recovery — the replacement model resumes from the last completed
// checkpoint instead of restarting cold, losing only the work since that
// checkpoint. Without a failure process the checkpoint bursts are pure
// overhead, which is exactly Daly's trade-off.
//
// Performance metric mirrors CpuBurn: slowdown = wall time per unit of
// *useful* work over the measurement window (checkpoint write-out does not
// count as useful), so the checkpoint duty cycle shows up as cost even on a
// healthy host.

#ifndef AQLSCHED_SRC_WORKLOAD_CHECKPOINT_RESTART_H_
#define AQLSCHED_SRC_WORKLOAD_CHECKPOINT_RESTART_H_

#include <string>

#include "src/workload/workload.h"

namespace aql {

struct CheckpointRestartConfig {
  std::string name = "checkpoint_restart";
  // Compute-phase memory behaviour (the solver itself).
  MemProfile mem;
};

class CheckpointRestartModel : public WorkloadModel {
 public:
  explicit CheckpointRestartModel(const CheckpointRestartConfig& config);

  Step NextStep(TimeNs now) override;
  void OnStepEnd(TimeNs now, const Step& step, TimeNs work_done, bool completed) override;
  std::string Name() const override { return config_.name; }
  PerfReport Report(TimeNs now) const override;
  void ResetMetrics(TimeNs now) override;

  // Durable state: the useful-work position of the last completed
  // checkpoint. A restored model resumes exactly there (the in-flight
  // interval and any half-written checkpoint are lost).
  bool HasDurableState() const override { return true; }
  double SaveDurableState() const override { return static_cast<double>(checkpointed_); }
  void RestoreDurableState(double state) override;

 private:
  CheckpointRestartConfig config_;
  TimeNs useful_total_ = 0;   // useful work done, restored position included
  TimeNs checkpointed_ = 0;   // useful position of the last durable checkpoint
  TimeNs since_ckpt_ = 0;     // useful work since the last checkpoint started
  bool in_ckpt_ = false;      // currently writing a checkpoint
  TimeNs ckpt_remaining_ = 0;
  TimeNs pending_value_ = 0;  // position the in-flight checkpoint will pin
  TimeNs useful_window_ = 0;
  int checkpoints_window_ = 0;
  TimeNs window_start_ = 0;
};

}  // namespace aql

#endif  // AQLSCHED_SRC_WORKLOAD_CHECKPOINT_RESTART_H_
