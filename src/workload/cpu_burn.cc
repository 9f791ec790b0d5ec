#include "src/workload/cpu_burn.h"

#include "src/sim/check.h"

namespace aql {
namespace {
// Step granularity of a plain burner: one compute step of this pure-work
// size at a time.
constexpr TimeNs kPhase = Us(200);
// Streaming kernels: pure work of one streaming burst, and of the
// register-only loop-overhead gap that follows each completed burst.
constexpr TimeNs kBurst = Us(180);
constexpr TimeNs kGap = Us(20);
}  // namespace

CpuBurnModel::CpuBurnModel(const CpuBurnConfig& config) : config_(config) {
  if (config_.stream) {
    AQL_CHECK(config_.mem.wss_bytes > 0);
    AQL_CHECK(config_.mem.llc_refs_per_ns > 0);
  }
}

Step CpuBurnModel::NextStep(TimeNs now) {
  (void)now;
  if (!config_.stream) {
    return Step::Compute(kPhase, config_.mem);
  }
  if (in_gap_) {
    // Loop overhead between sweeps: register-only, no LLC references.
    MemProfile overhead;
    overhead.instructions_per_ns = config_.mem.instructions_per_ns;
    return Step::Compute(kGap, overhead);
  }
  return Step::Compute(kBurst, config_.mem);
}

void CpuBurnModel::OnStepEnd(TimeNs now, const Step& step, TimeNs work_done,
                             bool completed) {
  (void)now;
  done_total_ += work_done;
  done_window_ += work_done;
  // Only a completed streaming burst earns its gap; truncated bursts resume
  // streaming at the next dispatch.
  in_gap_ = config_.stream && step.mem.wss_bytes > 0 && completed;
}

PerfReport CpuBurnModel::Report(TimeNs now) const {
  PerfReport r;
  r.workload_name = config_.name;
  const TimeNs elapsed = now - window_start_;
  const double work = static_cast<double>(done_window_);
  // Slowdown: wall time needed per unit of pure work (>= 1 / cpu share).
  const double slowdown = work > 0 ? static_cast<double>(elapsed) / work : 0.0;
  r.metrics[PerfReport::kPrimaryMetric] = slowdown;
  r.metrics["slowdown"] = slowdown;
  r.metrics["work_done_s"] = ToSec(done_window_);
  if (config_.stream) {
    // Demanded fetch bandwidth over the window: the streaming portion of the
    // pure work times the reference rate, one line per reference (no reuse).
    const double stream_share =
        static_cast<double>(kBurst) / static_cast<double>(kBurst + kGap);
    const double bytes = work * stream_share * config_.mem.llc_refs_per_ns * 64.0;
    r.metrics["demand_gb_per_s"] =
        elapsed > 0 ? bytes / static_cast<double>(elapsed) : 0.0;
  }
  return r;
}

void CpuBurnModel::ResetMetrics(TimeNs now) {
  done_window_ = 0;
  window_start_ = now;
}

}  // namespace aql
