// Tests for the workload models: CPU burn, I/O server, memory streaming,
// bursty I/O, spin lock/barrier, spin-sync, and the application catalog.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/calibration.h"
#include "src/workload/bursty_io.h"
#include "src/workload/catalog.h"
#include "src/workload/cpu_burn.h"
#include "src/workload/io_server.h"
#include "src/workload/mem_stream.h"
#include "src/workload/spin_lock.h"
#include "src/workload/spin_sync.h"

namespace aql {
namespace {

// Minimal host for models that schedule timers (bursty I/O).
class FakeHost : public WorkloadHost {
 public:
  TimeNs Now() const override { return now; }
  Rng& WorkloadRng(int) override { return rng; }
  void ScheduleTimer(TimeNs when, int vcpu, int tag) override {
    timers.push_back({when, vcpu, tag});
  }
  void NotifyIoEvent(int vcpu) override { io_events.push_back(vcpu); }
  void KickVcpu(int) override {}
  void CountPauseExits(int, uint64_t) override {}

  struct Timer {
    TimeNs when;
    int vcpu;
    int tag;
  };
  // Fires the earliest pending timer into `model`.
  void FireNextTimer(WorkloadModel& model) {
    ASSERT_FALSE(timers.empty());
    size_t best = 0;
    for (size_t i = 1; i < timers.size(); ++i) {
      if (timers[i].when < timers[best].when) {
        best = i;
      }
    }
    const Timer t = timers[best];
    timers.erase(timers.begin() + static_cast<std::ptrdiff_t>(best));
    now = t.when;
    model.OnTimer(now, t.tag);
  }

  TimeNs now = 0;
  Rng rng{1};
  std::vector<Timer> timers;
  std::vector<int> io_events;
};

TEST(CpuBurnTest, InfiniteWorkloadAlwaysComputes) {
  CpuBurnModel m{CpuBurnConfig{}};
  const Step s = m.NextStep(0);
  EXPECT_EQ(s.kind, Step::Kind::kCompute);
  EXPECT_GT(s.work, 0);
}

TEST(CpuBurnTest, FiniteWorkloadFinishes) {
  CpuBurnConfig cfg;
  cfg.phase = Us(100);
  cfg.total_work = Us(250);
  CpuBurnModel m(cfg);
  TimeNs now = 0;
  for (int i = 0; i < 3; ++i) {
    const Step s = m.NextStep(now);
    ASSERT_EQ(s.kind, Step::Kind::kCompute);
    m.OnStepEnd(now += s.work, s, s.work, true);
  }
  EXPECT_TRUE(m.finished());
  EXPECT_EQ(m.NextStep(now).kind, Step::Kind::kFinished);
  EXPECT_EQ(m.work_done_total(), Us(250));
}

TEST(CpuBurnTest, LastStepClampedToRemaining) {
  CpuBurnConfig cfg;
  cfg.phase = Us(100);
  cfg.total_work = Us(150);
  CpuBurnModel m(cfg);
  const Step s1 = m.NextStep(0);
  m.OnStepEnd(0, s1, s1.work, true);
  const Step s2 = m.NextStep(0);
  EXPECT_EQ(s2.work, Us(50));
}

TEST(CpuBurnTest, SlowdownMetric) {
  CpuBurnModel m{CpuBurnConfig{}};
  m.ResetMetrics(0);
  Step s = m.NextStep(0);
  // 1ms of work took 4ms of wall time -> slowdown 4.
  m.OnStepEnd(Ms(4), s, Ms(1), false);
  const PerfReport r = m.Report(Ms(4));
  EXPECT_DOUBLE_EQ(r.primary(), 4.0);
}

MemStreamConfig StreamConfig() {
  MemStreamConfig c;
  c.name = "stream";
  c.mem.wss_bytes = 64ull * 1024 * 1024;
  c.mem.llc_refs_per_ns = 0.05;
  c.burst = Us(180);
  c.gap = Us(20);
  return c;
}

TEST(MemStreamTest, AlternatesBurstAndLoopGap) {
  MemStreamModel m(StreamConfig());
  const Step burst = m.NextStep(0);
  ASSERT_EQ(burst.kind, Step::Kind::kCompute);
  EXPECT_EQ(burst.work, Us(180));
  EXPECT_GT(burst.mem.wss_bytes, 0u);
  m.OnStepEnd(burst.work, burst, burst.work, true);

  const Step gap = m.NextStep(burst.work);
  ASSERT_EQ(gap.kind, Step::Kind::kCompute);
  EXPECT_EQ(gap.work, Us(20));
  EXPECT_EQ(gap.mem.wss_bytes, 0u);  // register-only loop overhead
  m.OnStepEnd(burst.work + gap.work, gap, gap.work, true);

  EXPECT_GT(m.NextStep(burst.work + gap.work).mem.wss_bytes, 0u);
}

TEST(MemStreamTest, TruncatedBurstResumesStreaming) {
  MemStreamModel m(StreamConfig());
  const Step burst = m.NextStep(0);
  m.OnStepEnd(Us(50), burst, Us(50), /*completed=*/false);
  // No gap after a preempted burst: streaming continues at next dispatch.
  EXPECT_GT(m.NextStep(Us(50)).mem.wss_bytes, 0u);
}

TEST(MemStreamTest, FiniteWorkloadFinishes) {
  MemStreamConfig cfg = StreamConfig();
  cfg.total_work = Us(300);
  MemStreamModel m(cfg);
  TimeNs now = 0;
  while (!m.finished()) {
    const Step s = m.NextStep(now);
    ASSERT_EQ(s.kind, Step::Kind::kCompute);
    now += s.work;
    m.OnStepEnd(now, s, s.work, true);
  }
  EXPECT_GE(m.work_done_total(), Us(300));
  EXPECT_EQ(m.NextStep(now).kind, Step::Kind::kFinished);
}

TEST(MemStreamTest, RemoteFractionReachesTheStepProfile) {
  MemStreamConfig cfg = StreamConfig();
  cfg.mem.remote_fraction = 0.9;
  MemStreamModel m(cfg);
  EXPECT_DOUBLE_EQ(m.NextStep(0).mem.remote_fraction, 0.9);
}

TEST(MemStreamTest, SlowdownAndBandwidthMetrics) {
  MemStreamModel m(StreamConfig());
  m.ResetMetrics(0);
  const Step s = m.NextStep(0);
  // 180us of work took 720us of wall time -> slowdown 4.
  m.OnStepEnd(Us(720), s, s.work, true);
  const PerfReport r = m.Report(Us(720));
  EXPECT_DOUBLE_EQ(r.primary(), 4.0);
  EXPECT_GT(r.metrics.at("demand_gb_per_s"), 0.0);
}

BurstyIoConfig BurstyConfig() {
  BurstyIoConfig c;
  c.name = "bursty";
  c.on_arrival_rate_hz = 400;
  c.on_duration = Ms(75);
  c.off_duration = Ms(75);
  c.service_work = Us(150);
  c.phase = Us(100);
  return c;
}

TEST(BurstyIoTest, StartsOnWithArrivalAndFlipScheduled) {
  FakeHost host;
  BurstyIoModel m(BurstyConfig());
  m.OnAttach(&host, 0);
  EXPECT_TRUE(m.in_on_phase());
  ASSERT_EQ(host.timers.size(), 2u);  // first arrival + phase flip
}

TEST(BurstyIoTest, OnPhaseArrivalRaisesIoEvent) {
  FakeHost host;
  BurstyIoModel m(BurstyConfig());
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

TEST(BurstyIoTest, OffPhaseSilencesArrivalsButKeepsComputing) {
  FakeHost host;
  BurstyIoModel m(BurstyConfig());
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

TEST(BurstyIoTest, PhaseCycleReturnsToOn) {
  FakeHost host;
  BurstyIoModel m(BurstyConfig());
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

TEST(SpinLockTest, UncontendedAcquireRelease) {
  SpinLock lock;
  EXPECT_TRUE(lock.TryAcquire(1, 100));
  EXPECT_EQ(lock.owner(), 1);
  lock.Release(1, 100 + Us(10), nullptr);
  EXPECT_EQ(lock.owner(), -1);
  EXPECT_EQ(lock.acquisitions(), 1u);
  EXPECT_NEAR(lock.hold_us().mean(), 10.0, 1e-9);
}

TEST(SpinLockTest, ContendedWaiterQueues) {
  SpinLock lock;
  EXPECT_TRUE(lock.TryAcquire(1, 0));
  EXPECT_FALSE(lock.TryAcquire(2, 0));
  EXPECT_TRUE(lock.ContendedBy(2));
  EXPECT_EQ(lock.waiters(), 1u);
  EXPECT_EQ(lock.contended_acquisitions(), 1u);
}

TEST(SpinLockTest, UnfairLockFreesOnRelease) {
  SpinLock lock(/*fifo_handoff=*/false);
  lock.TryAcquire(1, 0);
  lock.TryAcquire(2, 0);
  lock.Release(1, Us(5), nullptr);
  EXPECT_EQ(lock.owner(), -1);  // free: whoever runs next wins
  // A latecomer can grab it before the queued waiter (unfair).
  EXPECT_TRUE(lock.TryAcquire(3, Us(6)));
}

TEST(SpinLockTest, FifoLockHandsOffToQueueHead) {
  SpinLock lock(/*fifo_handoff=*/true);
  lock.TryAcquire(1, 0);
  lock.TryAcquire(2, 0);
  lock.TryAcquire(3, 0);
  lock.Release(1, Us(5), nullptr);
  EXPECT_TRUE(lock.IsHeldBy(2));  // immediate ownership transfer
  // A latecomer cannot take it.
  EXPECT_FALSE(lock.TryAcquire(4, Us(6)));
  // The grantee observes ownership.
  EXPECT_TRUE(lock.TryAcquire(2, Us(7)));
}

TEST(SpinLockTest, WaitTimeRecorded) {
  SpinLock lock;
  lock.TryAcquire(1, 0);
  lock.TryAcquire(2, 0);  // starts waiting at t=0
  lock.Release(1, Us(50), nullptr);
  EXPECT_TRUE(lock.TryAcquire(2, Us(60)));
  EXPECT_NEAR(lock.wait_us().mean(), 60.0, 1e-9);
}

TEST(SpinBarrierTest, TripsWhenAllArrive) {
  SpinBarrier barrier(3);
  EXPECT_EQ(barrier.Arrive(0, nullptr), 0u);
  EXPECT_EQ(barrier.Arrive(1, nullptr), 0u);
  EXPECT_EQ(barrier.generation(), 0u);
  EXPECT_EQ(barrier.Arrive(2, nullptr), 0u);  // last party trips it
  EXPECT_EQ(barrier.generation(), 1u);
  EXPECT_EQ(barrier.trips(), 1u);
}

TEST(SpinBarrierTest, GenerationsAdvancePerTrip) {
  SpinBarrier barrier(2);
  barrier.Arrive(0, nullptr);
  barrier.Arrive(1, nullptr);
  barrier.Arrive(0, nullptr);
  barrier.Arrive(1, nullptr);
  EXPECT_EQ(barrier.generation(), 2u);
}

TEST(CatalogTest, AllEntriesInstantiable) {
  for (const AppProfile& app : ExtendedCatalog()) {
    auto models = MakeApp(app.name, 2);
    ASSERT_EQ(models.size(), 2u);
    EXPECT_EQ(models[0]->Name(), app.name);
  }
}

TEST(CatalogTest, CoversAllEightTypes) {
  for (VcpuType t : kAllVcpuTypes) {
    EXPECT_FALSE(AppsOfType(t).empty()) << VcpuTypeName(t);
  }
}

TEST(CatalogTest, PaperCatalogExcludesExtendedApps) {
  // The paper-figure sweeps iterate Catalog(); it must stay the paper's 34
  // applications and the paper's five types.
  EXPECT_EQ(Catalog().size(), 34u);
  for (const AppProfile& app : Catalog()) {
    EXPECT_FALSE(app.extended) << app.name;
    EXPECT_LT(static_cast<int>(app.expected_type), kNumPaperVcpuTypes) << app.name;
  }
  EXPECT_GT(ExtendedCatalog().size(), Catalog().size());
}

TEST(CatalogTest, ExtendedAppsAreLookupable) {
  EXPECT_TRUE(HasApp("stream_triad"));
  EXPECT_EQ(FindApp("numa_stream").expected_type, VcpuType::kNumaRemote);
  EXPECT_EQ(FindApp("diurnal_web").expected_type, VcpuType::kBurstyIo);
  EXPECT_TRUE(FindApp("membw_scan").extended);
  // NumaRemote profiles carry a remote fraction; MemBw ones do not.
  EXPECT_GT(MakeApp("numa_mcf").front()->NextStep(0).mem.remote_fraction, 0.0);
  EXPECT_DOUBLE_EQ(MakeApp("stream_triad").front()->NextStep(0).mem.remote_fraction, 0.0);
}

TEST(CatalogTest, SpinAppsShareOneLock) {
  auto models = MakeApp("fluidanimate", 4);
  auto* a = dynamic_cast<SpinSyncModel*>(models[0].get());
  auto* b = dynamic_cast<SpinSyncModel*>(models[3].get());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(&a->lock(), &b->lock());
}

TEST(CatalogTest, SeparateInstancesGetSeparateLocks) {
  auto first = MakeApp("fluidanimate", 2);
  auto second = MakeApp("fluidanimate", 2);
  auto* a = dynamic_cast<SpinSyncModel*>(first[0].get());
  auto* b = dynamic_cast<SpinSyncModel*>(second[0].get());
  EXPECT_NE(&a->lock(), &b->lock());
}

TEST(CatalogTest, LookupHelpers) {
  EXPECT_TRUE(HasApp("bzip2"));
  EXPECT_FALSE(HasApp("no_such_app"));
  EXPECT_EQ(FindApp("mcf").expected_type, VcpuType::kLlco);
  EXPECT_EQ(FindApp("SPECweb2009").suite, "SPECweb2009");
}

TEST(CatalogTest, WssMatchesExpectedType) {
  // Structural sanity: LoLCF apps fit L2, LLCF apps fit the 8 MiB LLC,
  // LLCO apps overflow it. (Parameters live in the catalog; this guards
  // against regressions that would break the type semantics.)
  const uint64_t l2 = 256 * 1024;
  const uint64_t llc = 8ull * 1024 * 1024;
  for (const AppProfile& app : Catalog()) {
    auto model = std::move(MakeApp(app.name).front());
    const Step s = model->NextStep(0);
    if (s.kind != Step::Kind::kCompute) {
      continue;  // I/O apps start blocked or with arrivals
    }
    switch (app.expected_type) {
      case VcpuType::kLoLcf:
        EXPECT_LE(s.mem.wss_bytes, l2) << app.name;
        break;
      case VcpuType::kLlcf:
        EXPECT_LE(s.mem.wss_bytes, llc) << app.name;
        EXPECT_GT(s.mem.wss_bytes, l2) << app.name;
        break;
      case VcpuType::kLlco:
        EXPECT_GT(s.mem.wss_bytes, llc) << app.name;
        break;
      default:
        break;
    }
  }
}

TEST(CalibrationTest, PaperTableShape) {
  const CalibrationTable t = PaperCalibration();
  EXPECT_EQ(t.BestQuantum(VcpuType::kIoInt), Ms(1));
  EXPECT_EQ(t.BestQuantum(VcpuType::kConSpin), Ms(1));
  EXPECT_EQ(t.BestQuantum(VcpuType::kLlcf), Ms(90));
  EXPECT_TRUE(t.IsAgnostic(VcpuType::kLoLcf));
  EXPECT_TRUE(t.IsAgnostic(VcpuType::kLlco));
  EXPECT_EQ(t.default_quantum, Ms(30));
  // Extended types: the memory streamers are ballast like LLCO; bursty I/O
  // shares IOInt's short quantum.
  EXPECT_TRUE(t.IsAgnostic(VcpuType::kMemBw));
  EXPECT_TRUE(t.IsAgnostic(VcpuType::kNumaRemote));
  EXPECT_FALSE(t.IsAgnostic(VcpuType::kBurstyIo));
  EXPECT_EQ(t.BestQuantum(VcpuType::kBurstyIo), Ms(1));
  // {IOInt, ConSpin, BurstyIo} share 1ms; LLCF has 90ms: two calibrated
  // quanta — the extended catalog adds no pool flavours.
  EXPECT_EQ(t.CalibratedQuanta(), (std::vector<TimeNs>{Ms(1), Ms(90)}));
}

}  // namespace
}  // namespace aql
