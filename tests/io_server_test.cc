// Focused unit tests for the I/O server workload model, driven through a
// fake WorkloadHost (no Machine involved).

#include <vector>

#include <gtest/gtest.h>

#include "src/workload/io_server.h"

namespace aql {
namespace {

class FakeHost : public WorkloadHost {
 public:
  TimeNs Now() const override { return now; }
  Rng& WorkloadRng(int) override { return rng; }
  void ScheduleTimer(TimeNs when, int vcpu, int tag) override {
    timers.push_back({when, vcpu, tag});
  }
  void NotifyIoEvent(int vcpu) override { io_events.push_back(vcpu); }
  void KickVcpu(int vcpu) override { kicks.push_back(vcpu); }
  void CountPauseExits(int vcpu, uint64_t n) override { pause_exits += n * (vcpu >= 0); }

  struct Timer {
    TimeNs when;
    int vcpu;
    int tag;
  };
  TimeNs now = 0;
  Rng rng{1};
  std::vector<Timer> timers;
  std::vector<int> io_events;
  std::vector<int> kicks;
  uint64_t pause_exits = 0;

  // Fires the oldest pending timer into `model`.
  void FireTimer(WorkloadModel& model) {
    ASSERT_FALSE(timers.empty());
    Timer t = timers.front();
    timers.erase(timers.begin());
    now = t.when;
    model.OnTimer(now, t.tag);
  }
};

IoServerConfig Config() {
  IoServerConfig c;
  c.name = "io";
  c.arrival_rate_hz = 100;
  c.service_work = Us(100);
  c.phase = Us(100);
  return c;
}

TEST(IoServerTest, SchedulesFirstArrivalOnAttach) {
  FakeHost host;
  IoServerModel m(Config());
  m.OnAttach(&host, 3);
  ASSERT_EQ(host.timers.size(), 1u);
  EXPECT_EQ(host.timers[0].vcpu, 3);
  EXPECT_GT(host.timers[0].when, 0);
}

TEST(IoServerTest, BlocksWithoutWork) {
  FakeHost host;
  IoServerModel m(Config());
  m.OnAttach(&host, 0);
  EXPECT_EQ(m.NextStep(0).kind, Step::Kind::kBlock);
}

TEST(IoServerTest, ArrivalRaisesIoEventAndQueuesWork) {
  FakeHost host;
  IoServerModel m(Config());
  m.OnAttach(&host, 0);
  host.FireTimer(m);
  EXPECT_EQ(host.io_events.size(), 1u);
  EXPECT_EQ(host.timers.size(), 1u);  // next arrival scheduled
  const Step s = m.NextStep(host.now);
  EXPECT_EQ(s.kind, Step::Kind::kCompute);
  EXPECT_EQ(s.work, Us(100));
}

TEST(IoServerTest, LatencyMeasuredFromArrivalToCompletion) {
  FakeHost host;
  IoServerModel m(Config());
  m.OnAttach(&host, 0);
  host.FireTimer(m);
  const TimeNs arrival = host.now;
  // Serve the request 1 ms later.
  const Step s = m.NextStep(arrival + Ms(1));
  m.OnStepEnd(arrival + Ms(1) + s.work, s, s.work, true);
  EXPECT_EQ(m.completed_requests(), 1u);
  EXPECT_NEAR(m.latency_us().mean(), ToUs(Ms(1) + s.work), 0.01);
}

TEST(IoServerTest, CgiWorkExtendsRequest) {
  FakeHost host;
  IoServerConfig cfg = Config();
  cfg.cgi_work = Us(300);
  IoServerModel m(cfg);
  m.OnAttach(&host, 0);
  host.FireTimer(m);
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
  IoServerConfig cfg = Config();
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
  IoServerConfig cfg = Config();
  cfg.background_burn = true;
  IoServerModel m(cfg);
  m.OnAttach(&host, 0);
  // Start a background step; a request arrives mid-step.
  const Step bg = m.NextStep(0);
  host.FireTimer(m);
  m.OnStepEnd(host.now + Us(50), bg, Us(50), false);
  EXPECT_EQ(m.completed_requests(), 0u);  // arrival not mis-credited
  // The request is then served in full.
  const Step s = m.NextStep(host.now + Us(50));
  m.OnStepEnd(host.now + Us(50) + s.work, s, s.work, true);
  EXPECT_EQ(m.completed_requests(), 1u);
}

TEST(IoServerTest, OverloadDropsBeyondQueueCap) {
  FakeHost host;
  IoServerConfig cfg = Config();
  cfg.max_queue = 2;
  IoServerModel m(cfg);
  m.OnAttach(&host, 0);
  for (int i = 0; i < 5; ++i) {
    host.FireTimer(m);
  }
  EXPECT_EQ(m.dropped_requests(), 3u);
  EXPECT_EQ(host.io_events.size(), 2u);  // dropped arrivals raise no event
}

TEST(IoServerTest, ReportCarriesPercentiles) {
  FakeHost host;
  IoServerModel m(Config());
  m.OnAttach(&host, 0);
  for (int i = 0; i < 20; ++i) {
    host.FireTimer(m);
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
  IoServerModel m(Config());
  m.OnAttach(&host, 0);
  host.FireTimer(m);
  const Step s = m.NextStep(host.now);
  m.OnStepEnd(host.now + s.work, s, s.work, true);
  ASSERT_EQ(m.completed_requests(), 1u);
  m.ResetMetrics(host.now);
  EXPECT_EQ(m.completed_requests(), 0u);
  EXPECT_EQ(m.latency_us().count(), 0u);
}

}  // namespace
}  // namespace aql
