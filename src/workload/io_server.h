// I/O server workload: network/disk request service inside a vCPU.
//
// Requests arrive as an open-loop Poisson process (modelling external
// clients). Each arrival raises an event-channel notification towards the
// vCPU — if the vCPU is blocked this is the BOOST wake-up path. Serving a
// request costs `service_work` of CPU plus optionally `cgi_work`
// (the paper's "heterogeneous" web workload whose CGI scripts consume enough
// CPU that the vCPU exhausts its quantum and loses BOOST eligibility).
//
// A bursty server (the BurstyIo type) alternates 75 ms ON and OFF phases,
// starting ON; requests arrive only during ON. Phases of ~2.5 vTRS
// monitoring periods (30 ms, n = 4) guarantee every full vTRS window sees
// both a saturated and a silent I/O period, the I/O-cursor dispersion that
// defines the type. Its catalog entries also burn in the background when
// idle, so the hypervisor keeps observing them through quiet periods.
//
// A diurnal server modulates the arrival rate with a day/night curve and,
// optionally, flash crowds:
//
//   rate(t) = base * (1 + amplitude * tri(t / 2 s)) * flash(t)
//
// where tri() is a piecewise-linear triangle wave in [-1, 1] (exact double
// arithmetic, no libm, so the sampled arrival gaps are bit-identical on every
// platform) and flash(t) is 3 for the first 200 ms of every simulated
// second, else 1. The modulation is an inhomogeneous-Poisson approximation:
// each gap is sampled exponentially at the rate in effect when it is
// scheduled. A bursty server keeps its ON/OFF micro-structure at every point
// of the curve as long as base * (1 - amplitude) keeps several arrivals per
// monitoring period.
//
// Performance metric: mean request latency (arrival -> completion), the
// paper's SPECweb/SPECmail measure. Smaller is better.

#ifndef AQLSCHED_SRC_WORKLOAD_IO_SERVER_H_
#define AQLSCHED_SRC_WORKLOAD_IO_SERVER_H_

#include <deque>
#include <string>

#include "src/metrics/stats.h"
#include "src/workload/workload.h"

namespace aql {

struct IoServerConfig {
  std::string name = "io_server";
  // Mean request arrival rate (Poisson), per second: the rate during ON
  // phases, and the mid-curve rate of a diurnal server.
  double arrival_rate_hz = 500.0;
  // Pure-CPU cost of handling the I/O part of one request.
  TimeNs service_work = Us(150);
  // Additional per-request computation (0 = pure I/O workload).
  TimeNs cgi_work = 0;
  // Heterogeneous mode: when no request is pending, the vCPU runs background
  // computation (in-guest batch scripts) instead of blocking. This is what
  // makes the workload consume whole quanta and lose BOOST eligibility —
  // the paper's "heterogeneous workload" pathology (§3.4.2, Fig. 2b).
  bool background_burn = false;
  // Memory behaviour while serving (applies to service + CGI work).
  MemProfile mem;
  // Alternate 75 ms ON and OFF phases (see the file comment).
  bool bursty = false;
  // Peak-to-mean swing of the day/night curve, in [0, 1); 0 = flat.
  double day_night_amplitude = 0.0;
  // Triple the rate for 200 ms of every simulated second.
  bool flash_crowds = false;
};

class IoServerModel : public WorkloadModel {
 public:
  explicit IoServerModel(const IoServerConfig& config);

  void OnAttach(WorkloadHost* host, int vcpu) override;
  Step NextStep(TimeNs now) override;
  void OnStepEnd(TimeNs now, const Step& step, TimeNs work_done, bool completed) override;
  void OnTimer(TimeNs now, int tag) override;
  std::string Name() const override { return config_.name; }
  PerfReport Report(TimeNs now) const override;
  void ResetMetrics(TimeNs now) override;

  // The arrival rate in effect at `now`. A modulated (diurnal) rate is
  // floored at 1 req/s so sampled gaps stay finite; a steady one is not.
  double RateAt(TimeNs now) const;

  bool in_on_phase() const { return on_; }
  uint64_t completed_requests() const { return completed_; }
  uint64_t dropped_requests() const { return dropped_; }
  const SampleStats& latency_us() const { return latency_us_; }

 private:
  void ScheduleNextArrival(TimeNs now);
  void SchedulePhaseFlip(TimeNs now);

  IoServerConfig config_;
  bool on_ = true;
  // Arrival timers outlive phase flips; each carries the ON-phase generation
  // that scheduled it, so stale ones are ignored.
  uint64_t generation_ = 0;
  std::deque<TimeNs> queue_;  // arrival timestamps, FIFO
  TimeNs current_remaining_ = 0;
  bool in_request_ = false;
  uint64_t completed_ = 0;
  uint64_t dropped_ = 0;
  SampleStats latency_us_;
  TimeNs window_start_ = 0;
};

}  // namespace aql

#endif  // AQLSCHED_SRC_WORKLOAD_IO_SERVER_H_
