#include "src/workload/spin_sync.h"

#include <algorithm>
#include <utility>

#include "src/sim/check.h"

namespace aql {
namespace {
// Step granularity for the non-critical phase.
constexpr TimeNs kPhase = Us(200);
// Short in-guest kernel spin-lock activity per cycle, surfaced as PLE traps
// (the steady detection signal; its CPU cost is negligible and is folded
// into `compute`).
constexpr uint64_t kKernelSpinExitsPerCycle = 1;
// Periodic short blocking I/O (page cache writeback, logging): every
// kIoBlockEvery cycles the thread sleeps kIoBlockNs. Besides being realistic
// for kernbench/PARSEC, this continuously perturbs the vCPUs' run-queue
// phases; without it barrier stragglers self-synchronize into a gang and the
// quantum sensitivity disappears.
constexpr int kIoBlockEvery = 50;
constexpr TimeNs kIoBlockNs = Us(500);

// Memory behaviour inside the critical section: light.
const MemProfile kCriticalMem = [] {
  MemProfile m;
  m.wss_bytes = 64 * 1024;
  m.llc_refs_per_ns = 0.0002;
  return m;
}();
}  // namespace

SpinSyncModel::SpinSyncModel(const SpinSyncConfig& config, std::shared_ptr<SpinLock> lock,
                             std::shared_ptr<SpinBarrier> barrier)
    : config_(config), lock_(std::move(lock)), barrier_(std::move(barrier)) {
  AQL_CHECK(lock_ != nullptr);
  AQL_CHECK(config_.compute > 0);
  AQL_CHECK(config_.critical > 0);
  if (config_.barrier_every > 0) {
    AQL_CHECK_MSG(barrier_ != nullptr, "barrier_every set but no barrier provided");
  }
}

void SpinSyncModel::OnAttach(WorkloadHost* host, int vcpu) {
  WorkloadModel::OnAttach(host, vcpu);
  // Random initial offset so the VM's threads do not run in lockstep.
  remaining_ = 1 + static_cast<TimeNs>(host->WorkloadRng(vcpu).NextDouble() *
                                       static_cast<double>(config_.compute));
}

TimeNs SpinSyncModel::SampleComputeLength() {
  const double jitter = host_->WorkloadRng(vcpu_).Uniform(0.8, 1.2);
  return std::max<TimeNs>(
      1, static_cast<TimeNs>(static_cast<double>(config_.compute) * jitter));
}

Step SpinSyncModel::NextStep(TimeNs now) {
  if (pending_block_) {
    pending_block_ = false;
    return Step::Block(now + kIoBlockNs);
  }
  if (phase_ == Phase::kBarrier) {
    if (barrier_->generation() == barrier_wait_gen_) {
      return Step::Spin();
    }
    // Barrier tripped while we were spinning or descheduled.
    barrier_wait_window_ += now - barrier_entered_at_;
    phase_ = Phase::kComputing;
    remaining_ = SampleComputeLength();
  }
  if (phase_ == Phase::kAcquiring) {
    if (lock_->TryAcquire(vcpu_, now)) {
      phase_ = Phase::kCritical;
      remaining_ = config_.critical;
    } else {
      return Step::Spin();
    }
  }
  if (phase_ == Phase::kCritical) {
    return Step::Compute(std::min(remaining_, kPhase), kCriticalMem);
  }
  AQL_CHECK(phase_ == Phase::kComputing);
  return Step::Compute(std::min(remaining_, kPhase), config_.mem);
}

void SpinSyncModel::OnStepEnd(TimeNs now, const Step& step, TimeNs work_done,
                              bool completed) {
  (void)completed;
  if (step.kind == Step::Kind::kSpin) {
    spin_time_window_ += work_done;
    return;
  }
  AQL_CHECK(step.kind == Step::Kind::kCompute);
  remaining_ -= work_done;
  if (remaining_ > 0) {
    return;
  }
  if (phase_ == Phase::kComputing) {
    phase_ = Phase::kAcquiring;
    return;
  }
  AQL_CHECK(phase_ == Phase::kCritical);
  lock_->Release(vcpu_, now, host_);
  ++cycles_window_;
  ++cycles_since_barrier_;
  host_->CountPauseExits(vcpu_, kKernelSpinExitsPerCycle);
  if (++cycles_since_block_ >= kIoBlockEvery) {
    cycles_since_block_ = 0;
    pending_block_ = true;
  }
  if (config_.barrier_every > 0 && cycles_since_barrier_ >= config_.barrier_every) {
    cycles_since_barrier_ = 0;
    barrier_entered_at_ = now;
    const uint64_t gen = barrier_->Arrive(vcpu_, host_);
    if (barrier_->generation() != gen) {
      // We were the last party: proceed without waiting.
      phase_ = Phase::kComputing;
      remaining_ = SampleComputeLength();
      return;
    }
    phase_ = Phase::kBarrier;
    barrier_wait_gen_ = gen;
    return;
  }
  phase_ = Phase::kComputing;
  remaining_ = SampleComputeLength();
}

PerfReport SpinSyncModel::Report(TimeNs now) const {
  PerfReport r;
  r.workload_name = config_.name;
  const double elapsed = static_cast<double>(now - window_start_);
  const double per_cycle =
      cycles_window_ > 0 ? elapsed / static_cast<double>(cycles_window_) : 0.0;
  r.metrics[PerfReport::kPrimaryMetric] = per_cycle;
  r.metrics["cycle_time_ns"] = per_cycle;
  r.metrics["cycles"] = static_cast<double>(cycles_window_);
  r.metrics["spin_time_ms"] = ToMs(spin_time_window_);
  r.metrics["barrier_wait_ms"] = ToMs(barrier_wait_window_);
  r.metrics["lock_hold_mean_us"] = lock_->hold_us().mean();
  r.metrics["lock_hold_p95_us"] = lock_->hold_us().Percentile(95);
  r.metrics["lock_wait_mean_us"] = lock_->wait_us().mean();
  return r;
}

void SpinSyncModel::ResetMetrics(TimeNs now) {
  cycles_window_ = 0;
  spin_time_window_ = 0;
  barrier_wait_window_ = 0;
  window_start_ = now;
  lock_->ResetMetrics();
}

}  // namespace aql
