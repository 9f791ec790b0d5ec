// Tests for the I/O server model (steady, bursty and diurnal), driven
// through the shared fake WorkloadHost.

#include <cstddef>

#include <gtest/gtest.h>

#include "src/workload/io_server.h"
#include "tests/fake_host.h"

namespace aql {
namespace {

IoServerConfig IoConfig() {
  IoServerConfig c;
  c.name = "io";
  c.arrival_rate_hz = 100;
  c.service_work = Us(100);
  return c;
}

TEST(IoServerTest, SchedulesFirstArrivalOnAttach) {
  FakeHost host;
  IoServerModel m(IoConfig());
  m.OnAttach(&host, 3);
  // One arrival and no phase-flip timer: every timer takes an event-queue
  // sequence number. A steady server's arrivals carry tag 1.
  ASSERT_EQ(host.timers.size(), 1u);
  EXPECT_EQ(host.timers[0].vcpu, 3);
  EXPECT_EQ(host.timers[0].tag, 1);
  EXPECT_GT(host.timers[0].when, 0);
}

TEST(IoServerTest, BlocksWithoutWork) {
  FakeHost host;
  IoServerModel m(IoConfig());
  m.OnAttach(&host, 0);
  EXPECT_EQ(m.NextStep(0).kind, Step::Kind::kBlock);
}

TEST(IoServerTest, ArrivalRaisesIoEventAndQueuesWork) {
  FakeHost host;
  IoServerModel m(IoConfig());
  m.OnAttach(&host, 0);
  host.FireNextTimer(m);
  EXPECT_EQ(host.io_events.size(), 1u);
  EXPECT_EQ(host.timers.size(), 1u);  // next arrival scheduled
  const Step s = m.NextStep(host.now);
  EXPECT_EQ(s.kind, Step::Kind::kCompute);
  EXPECT_EQ(s.work, Us(100));
}

TEST(IoServerTest, LatencyMeasuredFromArrivalToCompletion) {
  FakeHost host;
  IoServerModel m(IoConfig());
  m.OnAttach(&host, 0);
  host.FireNextTimer(m);
  const TimeNs arrival = host.now;
  // Serve the request 1 ms later.
  const Step s = m.NextStep(arrival + Ms(1));
  m.OnStepEnd(arrival + Ms(1) + s.work, s, s.work, true);
  EXPECT_EQ(m.completed_requests(), 1u);
  EXPECT_NEAR(m.latency_us().mean(), ToUs(Ms(1) + s.work), 0.01);
}

TEST(IoServerTest, CgiWorkExtendsRequest) {
  FakeHost host;
  IoServerConfig cfg = IoConfig();
  cfg.cgi_work = Us(300);
  IoServerModel m(cfg);
  m.OnAttach(&host, 0);
  host.FireNextTimer(m);
  // 400us of total work in 100us phases: four compute steps.
  TimeNs now = host.now;
  for (int i = 0; i < 4; ++i) {
    const Step s = m.NextStep(now);
    ASSERT_EQ(s.kind, Step::Kind::kCompute);
    now += s.work;
    m.OnStepEnd(now, s, s.work, true);
  }
  EXPECT_EQ(m.completed_requests(), 1u);
  EXPECT_EQ(m.NextStep(now).kind, Step::Kind::kBlock);
}

TEST(IoServerTest, BackgroundBurnInsteadOfBlocking) {
  FakeHost host;
  IoServerConfig cfg = IoConfig();
  cfg.background_burn = true;
  IoServerModel m(cfg);
  m.OnAttach(&host, 0);
  // No request pending: computes anyway (heterogeneous mode).
  const Step s = m.NextStep(0);
  EXPECT_EQ(s.kind, Step::Kind::kCompute);
  // Background work never completes a request.
  m.OnStepEnd(s.work, s, s.work, true);
  EXPECT_EQ(m.completed_requests(), 0u);
}

TEST(IoServerTest, BackgroundStepDoesNotCorruptRequestAccounting) {
  FakeHost host;
  IoServerConfig cfg = IoConfig();
  cfg.background_burn = true;
  IoServerModel m(cfg);
  m.OnAttach(&host, 0);
  // Start a background step; a request arrives mid-step.
  const Step bg = m.NextStep(0);
  host.FireNextTimer(m);
  m.OnStepEnd(host.now + Us(50), bg, Us(50), false);
  EXPECT_EQ(m.completed_requests(), 0u);  // arrival not mis-credited
  // The request is then served in full.
  const Step s = m.NextStep(host.now + Us(50));
  m.OnStepEnd(host.now + Us(50) + s.work, s, s.work, true);
  EXPECT_EQ(m.completed_requests(), 1u);
}

TEST(IoServerTest, OverloadDropsBeyondQueueCap) {
  FakeHost host;
  IoServerModel m(IoConfig());
  m.OnAttach(&host, 0);
  // Nothing is served, so the backlog fills to its 4096-request cap.
  constexpr size_t kQueueCap = 4096;
  for (size_t i = 0; i < kQueueCap + 3; ++i) {
    host.FireNextTimer(m);
  }
  EXPECT_EQ(m.dropped_requests(), 3u);
  EXPECT_EQ(host.io_events.size(), kQueueCap);  // dropped arrivals raise no event
}

TEST(IoServerTest, ReportCarriesPercentiles) {
  FakeHost host;
  IoServerModel m(IoConfig());
  m.OnAttach(&host, 0);
  for (int i = 0; i < 20; ++i) {
    host.FireNextTimer(m);
    const Step s = m.NextStep(host.now);
    m.OnStepEnd(host.now + s.work, s, s.work, true);
  }
  const PerfReport r = m.Report(host.now);
  EXPECT_EQ(r.workload_name, "io");
  EXPECT_GT(r.metrics.at("latency_p95_us"), 0.0);
  EXPECT_GT(r.metrics.at("throughput_per_s"), 0.0);
  EXPECT_DOUBLE_EQ(r.primary(), r.metrics.at("latency_mean_us"));
}

TEST(IoServerTest, ResetClearsWindow) {
  FakeHost host;
  IoServerModel m(IoConfig());
  m.OnAttach(&host, 0);
  host.FireNextTimer(m);
  const Step s = m.NextStep(host.now);
  m.OnStepEnd(host.now + s.work, s, s.work, true);
  ASSERT_EQ(m.completed_requests(), 1u);
  m.ResetMetrics(host.now);
  EXPECT_EQ(m.completed_requests(), 0u);
  EXPECT_EQ(m.latency_us().count(), 0u);
}

TEST(IoServerTest, RateFollowsTheDayNightCurveAndFlashCrowds) {
  IoServerConfig cfg = IoConfig();
  cfg.arrival_rate_hz = 400;
  cfg.day_night_amplitude = 0.5;
  const IoServerModel diurnal(cfg);
  // A 2 s triangle wave: the mean at t = 0, the peak a quarter period in,
  // the trough at three quarters, and the next day repeats it.
  EXPECT_DOUBLE_EQ(diurnal.RateAt(0), 400.0);
  EXPECT_DOUBLE_EQ(diurnal.RateAt(Ms(500)), 600.0);
  EXPECT_DOUBLE_EQ(diurnal.RateAt(Ms(1500)), 200.0);
  EXPECT_DOUBLE_EQ(diurnal.RateAt(Sec(2)), 400.0);
  EXPECT_DOUBLE_EQ(diurnal.RateAt(Sec(2) + Ms(500)), 600.0);

  // Flash crowds triple the rate for the first 200 ms of every second.
  cfg.flash_crowds = true;
  const IoServerModel flash(cfg);
  EXPECT_DOUBLE_EQ(flash.RateAt(Ms(100)), 3.0 * diurnal.RateAt(Ms(100)));
  EXPECT_DOUBLE_EQ(flash.RateAt(Sec(1) + Ms(150)),
                   3.0 * diurnal.RateAt(Sec(1) + Ms(150)));
  EXPECT_DOUBLE_EQ(flash.RateAt(Ms(200)), diurnal.RateAt(Ms(200)));
  EXPECT_DOUBLE_EQ(flash.RateAt(Ms(500)), diurnal.RateAt(Ms(500)));
}

TEST(IoServerTest, OnlyAModulatedRateIsFloored) {
  IoServerConfig cfg = IoConfig();
  cfg.arrival_rate_hz = 0.0001;
  EXPECT_DOUBLE_EQ(IoServerModel(cfg).RateAt(Ms(500)), 0.0001);
  cfg.day_night_amplitude = 0.5;
  EXPECT_DOUBLE_EQ(IoServerModel(cfg).RateAt(Ms(500)), 1.0);
}

IoServerConfig BurstyConfig() {
  IoServerConfig c;
  c.name = "bursty";
  c.arrival_rate_hz = 400;
  c.service_work = Us(150);
  c.background_burn = true;
  c.bursty = true;
  return c;
}

TEST(IoServerTest, BurstyStartsOnWithArrivalAndFlipScheduled) {
  FakeHost host;
  IoServerModel m(BurstyConfig());
  m.OnAttach(&host, 0);
  EXPECT_TRUE(m.in_on_phase());
  ASSERT_EQ(host.timers.size(), 2u);  // first arrival + phase flip
  EXPECT_EQ(host.timers[0].tag, 1);
  EXPECT_EQ(host.timers[1].tag, 0);
  EXPECT_EQ(host.timers[1].when, Ms(75));
}

TEST(IoServerTest, BurstyOnPhaseArrivalRaisesIoEvent) {
  FakeHost host;
  IoServerModel m(BurstyConfig());
  m.OnAttach(&host, 7);
  // The first arrival (mean 2.5 ms) fires before the 75 ms flip.
  host.FireNextTimer(m);
  ASSERT_EQ(host.io_events.size(), 1u);
  EXPECT_EQ(host.io_events[0], 7);
  const Step s = m.NextStep(host.now);
  ASSERT_EQ(s.kind, Step::Kind::kCompute);
  // Serve the whole request: 150us in 100us phases.
  TimeNs now = host.now;
  m.OnStepEnd(now += s.work, s, s.work, true);
  const Step s2 = m.NextStep(now);
  m.OnStepEnd(now += s2.work, s2, s2.work, true);
  EXPECT_EQ(m.completed_requests(), 1u);
  EXPECT_GT(m.latency_us().mean(), 0.0);
}

TEST(IoServerTest, BurstyOffPhaseSilencesArrivalsButKeepsComputing) {
  FakeHost host;
  IoServerModel m(BurstyConfig());
  m.OnAttach(&host, 0);
  // Fast-forward to the phase flip: drop pending arrival timers by firing
  // everything up to and including the flip at 75 ms.
  while (m.in_on_phase()) {
    host.FireNextTimer(m);
  }
  EXPECT_EQ(host.now, Ms(75));
  const size_t events_at_flip = host.io_events.size();
  // Stale arrivals scheduled in the ON phase are discarded.
  while (!host.timers.empty() && host.timers.size() > 1) {
    host.FireNextTimer(m);
    if (host.now >= Ms(150)) {
      break;
    }
  }
  EXPECT_EQ(host.io_events.size(), events_at_flip);
  // The vCPU never blocks: background computation keeps it observable.
  EXPECT_EQ(m.NextStep(host.now).kind, Step::Kind::kCompute);
}

TEST(IoServerTest, BurstyPhaseCycleReturnsToOn) {
  FakeHost host;
  IoServerModel m(BurstyConfig());
  m.OnAttach(&host, 0);
  while (m.in_on_phase()) {
    host.FireNextTimer(m);  // consume ON arrivals until the 75 ms flip
  }
  // Only the next flip timer remains scheduled during OFF (plus stale
  // arrivals); fire until the phase turns on again.
  while (!m.in_on_phase()) {
    host.FireNextTimer(m);
  }
  EXPECT_EQ(host.now, Ms(150));
  // A fresh arrival chain is scheduled for the new ON phase.
  EXPECT_FALSE(host.timers.empty());
}

}  // namespace
}  // namespace aql
