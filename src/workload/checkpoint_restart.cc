#include "src/workload/checkpoint_restart.h"

#include <algorithm>

namespace aql {
namespace {
// Step granularity, as in CpuBurn.
constexpr TimeNs kPhase = Us(200);
// Useful work between checkpoints (Daly's tau).
constexpr TimeNs kCheckpointInterval = Ms(80);
// Pure work per checkpoint write-out (Daly's delta).
constexpr TimeNs kCheckpointWork = Ms(2);

// Checkpoint write-out burst: streaming through a larger buffer.
const MemProfile kCheckpointMem = [] {
  MemProfile m;
  m.wss_bytes = 16 * 1024 * 1024;
  m.llc_refs_per_ns = 0.020;
  return m;
}();
}  // namespace

CheckpointRestartModel::CheckpointRestartModel(const CheckpointRestartConfig& config)
    : config_(config) {}

Step CheckpointRestartModel::NextStep(TimeNs now) {
  (void)now;
  if (in_ckpt_) {
    return Step::Compute(std::min(kPhase, ckpt_remaining_), kCheckpointMem);
  }
  const TimeNs until_ckpt = kCheckpointInterval - since_ckpt_;
  return Step::Compute(std::min(kPhase, until_ckpt), config_.mem);
}

void CheckpointRestartModel::OnStepEnd(TimeNs now, const Step& step, TimeNs work_done,
                                       bool completed) {
  (void)now;
  (void)step;
  (void)completed;
  if (in_ckpt_) {
    ckpt_remaining_ -= work_done;
    if (ckpt_remaining_ <= 0) {
      // Checkpoint durable: the position captured when it started is now
      // safe against teardown.
      in_ckpt_ = false;
      ckpt_remaining_ = 0;
      checkpointed_ = pending_value_;
      ++checkpoints_window_;
    }
    return;
  }
  useful_total_ += work_done;
  useful_window_ += work_done;
  since_ckpt_ += work_done;
  if (since_ckpt_ >= kCheckpointInterval) {
    since_ckpt_ = 0;
    in_ckpt_ = true;
    ckpt_remaining_ = kCheckpointWork;
    pending_value_ = useful_total_;
  }
}

PerfReport CheckpointRestartModel::Report(TimeNs now) const {
  PerfReport r;
  r.workload_name = config_.name;
  const TimeNs elapsed = now - window_start_;
  const double work = static_cast<double>(useful_window_);
  // Slowdown over *useful* work: the checkpoint duty cycle is overhead.
  const double slowdown = work > 0 ? static_cast<double>(elapsed) / work : 0.0;
  r.metrics[PerfReport::kPrimaryMetric] = slowdown;
  r.metrics["slowdown"] = slowdown;
  r.metrics["work_done_s"] = ToSec(useful_window_);
  r.metrics["checkpoints"] = static_cast<double>(checkpoints_window_);
  // Work at risk right now: everything since the last durable checkpoint.
  r.metrics["durable_lag_ms"] = static_cast<double>(useful_total_ - checkpointed_) / 1e6;
  return r;
}

void CheckpointRestartModel::ResetMetrics(TimeNs now) {
  useful_window_ = 0;
  checkpoints_window_ = 0;
  window_start_ = now;
}

void CheckpointRestartModel::RestoreDurableState(double state) {
  // Resume from the last durable checkpoint: the interval in flight at
  // teardown (and any half-written checkpoint) is gone.
  checkpointed_ = static_cast<TimeNs>(state);
  useful_total_ = checkpointed_;
  since_ckpt_ = 0;
  in_ckpt_ = false;
  ckpt_remaining_ = 0;
  pending_value_ = checkpointed_;
}

}  // namespace aql
