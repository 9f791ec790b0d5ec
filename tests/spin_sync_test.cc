// Tests for the spin-sync model (lock cycles, barriers, periodic I/O
// blocks), driven through the shared fake WorkloadHost.

#include <memory>

#include <gtest/gtest.h>

#include "src/workload/spin_lock.h"
#include "src/workload/spin_sync.h"
#include "tests/fake_host.h"

namespace aql {
namespace {

SpinSyncConfig SpinConfig(int barrier_every = 0) {
  SpinSyncConfig c;
  c.name = "spin";
  c.compute = Us(100);
  c.critical = Us(10);
  c.barrier_every = barrier_every;
  return c;
}

TEST(SpinSyncTest, FullCycleUncontended) {
  FakeHost host;
  auto lock = std::make_shared<SpinLock>();
  SpinSyncModel m(SpinConfig(), lock);
  m.OnAttach(&host, 0);

  // compute phase, then CS, then release.
  while (m.cycles() == 0) {
    const Step s = m.NextStep(host.now);
    ASSERT_EQ(s.kind, Step::Kind::kCompute);
    host.now += s.work;
    m.OnStepEnd(host.now, s, s.work, true);
  }
  EXPECT_EQ(m.cycles(), 1u);
  EXPECT_EQ(lock->owner(), -1);
  EXPECT_EQ(lock->acquisitions(), 1u);
  EXPECT_EQ(host.pause_exits, 1u);  // kernel-spin detection signal per cycle
}

TEST(SpinSyncTest, SpinsWhileLockHeldElsewhere) {
  FakeHost host;
  auto lock = std::make_shared<SpinLock>();
  SpinSyncModel m(SpinConfig(), lock);
  m.OnAttach(&host, 0);
  lock->TryAcquire(/*vcpu=*/99, 0);  // someone else holds it

  // Walk through the compute phase to the acquire point.
  Step s = m.NextStep(host.now);
  while (s.kind == Step::Kind::kCompute) {
    host.now += s.work;
    m.OnStepEnd(host.now, s, s.work, true);
    s = m.NextStep(host.now);
  }
  ASSERT_EQ(s.kind, Step::Kind::kSpin);
  // Spin for a while (truncated by the scheduler).
  host.now += Us(50);
  m.OnStepEnd(host.now, s, Us(50), false);
  EXPECT_EQ(m.spin_time_window(), Us(50));

  // Holder releases: the waiter was registered and gets kicked.
  lock->Release(99, host.now, &host);
  EXPECT_EQ(host.kicks.size(), 1u);
  // Next step acquires and enters the critical section.
  const Step cs = m.NextStep(host.now);
  EXPECT_EQ(cs.kind, Step::Kind::kCompute);
  EXPECT_EQ(lock->owner(), 0);
}

TEST(SpinSyncTest, BarrierLastArrivalReleasesSpinners) {
  FakeHost host;
  auto lock = std::make_shared<SpinLock>();
  auto barrier = std::make_shared<SpinBarrier>(2);
  SpinSyncConfig cfg = SpinConfig(/*barrier_every=*/1);
  SpinSyncModel a(cfg, lock, barrier);
  SpinSyncModel b(cfg, lock, barrier);
  a.OnAttach(&host, 0);
  b.OnAttach(&host, 1);

  // Thread a completes one cycle and arrives at the barrier.
  while (a.cycles() == 0) {
    const Step s = a.NextStep(host.now);
    ASSERT_EQ(s.kind, Step::Kind::kCompute);
    host.now += s.work;
    a.OnStepEnd(host.now, s, s.work, true);
  }
  // It now spins at the barrier.
  const Step spin = a.NextStep(host.now);
  ASSERT_EQ(spin.kind, Step::Kind::kSpin);
  host.now += Us(20);
  a.OnStepEnd(host.now, spin, Us(20), false);

  // Thread b completes its cycle: barrier trips, a is kicked.
  while (b.cycles() == 0) {
    const Step s = b.NextStep(host.now);
    ASSERT_EQ(s.kind, Step::Kind::kCompute);
    host.now += s.work;
    b.OnStepEnd(host.now, s, s.work, true);
  }
  EXPECT_EQ(barrier->trips(), 1u);
  EXPECT_FALSE(host.kicks.empty());
  // Both proceed with computing.
  EXPECT_EQ(a.NextStep(host.now).kind, Step::Kind::kCompute);
  EXPECT_EQ(b.NextStep(host.now).kind, Step::Kind::kCompute);
  // a's barrier wait was recorded.
  const PerfReport r = a.Report(host.now);
  EXPECT_GT(r.metrics.at("barrier_wait_ms"), 0.0);
}

TEST(SpinSyncTest, PeriodicIoBlockPerturbsSchedule) {
  FakeHost host;
  auto lock = std::make_shared<SpinLock>();
  SpinSyncModel m(SpinConfig(), lock);
  m.OnAttach(&host, 0);

  // Every 50 cycles the thread sleeps 500 us.
  int blocks = 0;
  for (int guard = 0; guard < 1000 && m.cycles() < 100; ++guard) {
    const Step s = m.NextStep(host.now);
    if (s.kind == Step::Kind::kBlock) {
      ++blocks;
      EXPECT_EQ(s.wake_at, host.now + Us(500));
      host.now = s.wake_at;
      continue;
    }
    ASSERT_EQ(s.kind, Step::Kind::kCompute);
    host.now += s.work;
    m.OnStepEnd(host.now, s, s.work, true);
  }
  EXPECT_EQ(m.cycles(), 100u);
  // One block after cycle 50; the one pending after cycle 100 has not been
  // consumed yet when the loop exits.
  EXPECT_EQ(blocks, 1);
  EXPECT_EQ(m.NextStep(host.now).kind, Step::Kind::kBlock);
}

TEST(SpinSyncTest, CycleTimeMetric) {
  FakeHost host;
  auto lock = std::make_shared<SpinLock>();
  SpinSyncModel m(SpinConfig(), lock);
  m.OnAttach(&host, 0);
  m.ResetMetrics(host.now);
  while (m.cycles() < 4) {
    const Step s = m.NextStep(host.now);
    ASSERT_EQ(s.kind, Step::Kind::kCompute);
    host.now += s.work;
    m.OnStepEnd(host.now, s, s.work, true);
  }
  const PerfReport r = m.Report(host.now);
  EXPECT_DOUBLE_EQ(r.metrics.at("cycles"), 4.0);
  EXPECT_NEAR(r.primary(), static_cast<double>(host.now) / 4.0, 1.0);
}

}  // namespace
}  // namespace aql
