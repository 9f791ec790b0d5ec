#include "src/workload/io_server.h"

#include <algorithm>

#include "src/sim/check.h"

namespace aql {
namespace {
// Step granularity for request processing and background computation.
constexpr TimeNs kPhase = Us(100);
// Arrivals beyond this backlog are dropped (overload guard).
constexpr size_t kMaxQueue = 4096;
// Bursty servers: phase durations.
constexpr TimeNs kOnDuration = Ms(75);
constexpr TimeNs kOffDuration = Ms(75);
// Diurnal servers: one day/night cycle (simulated seconds stand in for
// hours: several cycles fit a full measure window and one a quick one), and
// the flash-crowd spike of every kFlashEvery.
constexpr TimeNs kDayNightPeriod = Sec(2);
constexpr double kFlashMultiplier = 3.0;
constexpr TimeNs kFlashEvery = Sec(1);
constexpr TimeNs kFlashDuration = Ms(200);

constexpr int kPhaseFlipTimer = 0;
// Arrival timers are tagged with the ON-phase generation that scheduled
// them; a steady server stays at generation 0.
constexpr int kArrivalTagBase = 1;

int ArrivalTag(uint64_t generation) {
  return kArrivalTagBase + static_cast<int>(generation & 0x3fffffffu);
}

// Triangle wave in [-1, 1] with period 1 over the fractional phase: rises
// from 0 to 1 over the first quarter, falls to -1 through the third, returns
// to 0. Exact double arithmetic (no libm) keeps it bit-identical across
// platforms.
double Triangle(double phase) {
  phase -= static_cast<double>(static_cast<int64_t>(phase));  // frac, [0, 1)
  if (phase < 0.25) {
    return 4.0 * phase;
  }
  if (phase < 0.75) {
    return 2.0 - 4.0 * phase;
  }
  return 4.0 * phase - 4.0;
}
}  // namespace

IoServerModel::IoServerModel(const IoServerConfig& config) : config_(config) {
  AQL_CHECK(config_.arrival_rate_hz > 0);
  AQL_CHECK(config_.service_work > 0);
  AQL_CHECK(config_.day_night_amplitude >= 0.0 && config_.day_night_amplitude < 1.0);
}

void IoServerModel::OnAttach(WorkloadHost* host, int vcpu) {
  WorkloadModel::OnAttach(host, vcpu);
  ScheduleNextArrival(host->Now());
  // A steady server schedules no flip: every timer takes an event sequence
  // number.
  if (config_.bursty) {
    SchedulePhaseFlip(host->Now());
  }
}

double IoServerModel::RateAt(TimeNs now) const {
  double rate = config_.arrival_rate_hz;
  if (config_.day_night_amplitude == 0.0 && !config_.flash_crowds) {
    return rate;
  }
  if (config_.day_night_amplitude > 0.0) {
    const double phase = static_cast<double>(now) / static_cast<double>(kDayNightPeriod);
    rate *= 1.0 + config_.day_night_amplitude * Triangle(phase);
  }
  if (config_.flash_crowds && now % kFlashEvery < kFlashDuration) {
    rate *= kFlashMultiplier;
  }
  return std::max(rate, 1.0);
}

void IoServerModel::ScheduleNextArrival(TimeNs now) {
  const TimeNs mean = static_cast<TimeNs>(1e9 / RateAt(now));
  const TimeNs gap = host_->WorkloadRng(vcpu_).ExponentialNs(mean);
  host_->ScheduleTimer(now + gap, vcpu_, ArrivalTag(generation_));
}

void IoServerModel::SchedulePhaseFlip(TimeNs now) {
  host_->ScheduleTimer(now + (on_ ? kOnDuration : kOffDuration), vcpu_, kPhaseFlipTimer);
}

void IoServerModel::OnTimer(TimeNs now, int tag) {
  if (tag == kPhaseFlipTimer) {
    on_ = !on_;
    if (on_) {
      ++generation_;
      ScheduleNextArrival(now);
    }
    SchedulePhaseFlip(now);
    return;
  }
  if (!on_ || tag != ArrivalTag(generation_)) {
    return;  // stale arrival from a previous ON phase
  }
  if (queue_.size() >= kMaxQueue) {
    ++dropped_;
  } else {
    queue_.push_back(now);
    // Interrupt towards the guest; wakes (and possibly BOOSTs) the vCPU.
    host_->NotifyIoEvent(vcpu_);
  }
  ScheduleNextArrival(now);
}

Step IoServerModel::NextStep(TimeNs now) {
  (void)now;
  if (queue_.empty()) {
    in_request_ = false;
    if (config_.background_burn) {
      return Step::Compute(kPhase, config_.mem);
    }
    return Step::Block();
  }
  in_request_ = true;
  if (current_remaining_ <= 0) {
    current_remaining_ = config_.service_work + config_.cgi_work;
  }
  const TimeNs chunk = std::min(current_remaining_, kPhase);
  return Step::Compute(chunk, config_.mem);
}

void IoServerModel::OnStepEnd(TimeNs now, const Step& step, TimeNs work_done,
                              bool completed) {
  (void)step;
  (void)completed;
  if (!in_request_) {
    return;  // background computation; requests are untouched
  }
  current_remaining_ -= work_done;
  if (current_remaining_ <= 0 && !queue_.empty()) {
    const TimeNs arrival = queue_.front();
    queue_.pop_front();
    ++completed_;
    latency_us_.Add(ToUs(now - arrival));
    current_remaining_ = 0;
  }
}

PerfReport IoServerModel::Report(TimeNs now) const {
  PerfReport r;
  r.workload_name = config_.name;
  const double mean_lat = latency_us_.mean();
  r.metrics[PerfReport::kPrimaryMetric] = mean_lat;
  r.metrics["latency_mean_us"] = mean_lat;
  r.metrics["latency_p95_us"] = latency_us_.Percentile(95);
  r.metrics["latency_p99_us"] = latency_us_.Percentile(99);
  const double window_s = ToSec(now - window_start_);
  r.metrics["throughput_per_s"] =
      window_s > 0 ? static_cast<double>(completed_) / window_s : 0.0;
  r.metrics["dropped"] = static_cast<double>(dropped_);
  if (config_.bursty) {
    r.metrics["on_fraction"] = static_cast<double>(kOnDuration) /
                               static_cast<double>(kOnDuration + kOffDuration);
  }
  return r;
}

void IoServerModel::ResetMetrics(TimeNs now) {
  latency_us_.Reset();
  completed_ = 0;
  dropped_ = 0;
  window_start_ = now;
}

}  // namespace aql
