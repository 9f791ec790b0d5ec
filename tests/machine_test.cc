// Integration-level tests for the Machine dispatcher: quantum slicing,
// blocking/wake, BOOST preemption, fairness, pools, migration, the work
// counters' closed forms, and the multi-socket event order.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/experiment/runner.h"
#include "src/experiment/scenarios.h"
#include "src/hv/machine.h"
#include "src/workload/cpu_burn.h"
#include "src/workload/io_server.h"
#include "src/workload/catalog.h"

namespace aql {
namespace {

MachineConfig SmallConfig(int pcpus = 1) {
  MachineConfig mc;
  mc.topology = MakeI73770Topology(pcpus);
  mc.seed = 7;
  return mc;
}

CpuBurnConfig Burner(const std::string& name) {
  CpuBurnConfig c;
  c.name = name;
  return c;
}

// Computes `work` ns of register-only work in one step (resumed if the step
// is truncated), then finishes.
class OneStepModel : public WorkloadModel {
 public:
  explicit OneStepModel(TimeNs work) : remaining_(work) {}
  Step NextStep(TimeNs) override {
    return remaining_ > 0 ? Step::Compute(remaining_, MemProfile{}) : Step::Finished();
  }
  void OnStepEnd(TimeNs, const Step&, TimeNs work_done, bool) override {
    remaining_ -= work_done;
  }
  std::string Name() const override { return "one_step"; }
  PerfReport Report(TimeNs) const override { return PerfReport{}; }
  void ResetMetrics(TimeNs) override {}

 private:
  TimeNs remaining_;
};

// Spins on every step, so each step lasts until its quantum expires.
class AlwaysSpinModel : public WorkloadModel {
 public:
  Step NextStep(TimeNs) override { return Step::Spin(); }
  void OnStepEnd(TimeNs, const Step&, TimeNs, bool) override {}
  std::string Name() const override { return "always_spin"; }
  PerfReport Report(TimeNs) const override { return PerfReport{}; }
  void ResetMetrics(TimeNs) override {}
};

TEST(MachineTest, SingleVcpuRunsContinuously) {
  Simulation sim;
  Machine m(sim, SmallConfig());
  Vm* vm = m.AddVm("vm");
  Vcpu* v = m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("solo")));
  m.Start();
  sim.RunUntil(Ms(100));
  // A lone vCPU owns the pCPU: runtime ~= wall time. Runtime is charged
  // lazily (at accounting boundaries / deschedules), so allow one 30 ms
  // accounting period of slack.
  EXPECT_GT(v->total_runtime, Ms(69));
  EXPECT_EQ(v->state, RunState::kRunning);
  m.ResetAllMetrics();  // flushes the charge
  sim.RunUntil(Ms(200));
  EXPECT_GT(v->total_runtime, Ms(69));
}

TEST(MachineTest, TwoVcpusShareFairly) {
  Simulation sim;
  Machine m(sim, SmallConfig());
  Vm* vm = m.AddVm("vm");
  Vcpu* a = m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("a")));
  Vcpu* b = m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("b")));
  m.Start();
  sim.RunUntil(Sec(2));
  const double ra = ToSec(a->total_runtime);
  const double rb = ToSec(b->total_runtime);
  EXPECT_NEAR(ra, rb, 0.1);
  EXPECT_NEAR(ra + rb, 2.0, 0.05);
}

TEST(MachineTest, QuantumControlsDispatchCount) {
  for (TimeNs q : {Ms(10), Ms(30)}) {
    Simulation sim;
    MachineConfig mc = SmallConfig();
    mc.credit.default_quantum = q;
    Machine m(sim, mc);
    Vm* vm = m.AddVm("vm");
    Vcpu* a = m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("a")));
    m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("b")));
    m.Start();
    sim.RunUntil(Sec(1));
    // Each vCPU gets ~500ms => ~500ms/q dispatches.
    const double expected = 0.5e9 / static_cast<double>(q);
    EXPECT_NEAR(static_cast<double>(a->dispatches), expected, expected * 0.2);
  }
}

// A lone spinner holds its pCPU for whole 30 ms quanta, and each spin step
// records one PLE exit per 10 us spun: 3,000 per quantum.
TEST(MachineTest, SpinStepsCountPauseExitsInClosedForm) {
  for (const int quanta : {1, 3, 10}) {
    Simulation sim;
    Machine m(sim, SingleSocketMachine(1));
    Vcpu* v = m.AddVcpu(m.AddVm("vm"), std::make_unique<AlwaysSpinModel>());
    m.Start();
    sim.RunUntil(quanta * Ms(30));
    EXPECT_EQ(v->pmu.pause_exits, 3000u * static_cast<uint64_t>(quanta)) << quanta;
  }
}

TEST(MachineTest, FinishedWorkloadLeavesCpu) {
  Simulation sim;
  Machine m(sim, SmallConfig());
  Vm* vm = m.AddVm("vm");
  Vcpu* v = m.AddVcpu(vm, std::make_unique<OneStepModel>(Ms(5)));
  Vcpu* other = m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("bg")));
  m.Start();
  sim.RunUntil(Sec(1));
  EXPECT_EQ(v->state, RunState::kFinished);
  // The survivor picks up the slack.
  EXPECT_GT(other->total_runtime, Ms(950));
}

TEST(MachineTest, BlockedIoVcpuWakesOnEvent) {
  Simulation sim;
  Machine m(sim, SmallConfig());
  Vm* vm = m.AddVm("vm");
  IoServerConfig io;
  io.name = "io";
  io.arrival_rate_hz = 100;
  io.service_work = Us(50);
  Vcpu* v = m.AddVcpu(vm, std::make_unique<IoServerModel>(io));
  m.Start();
  sim.RunUntil(Sec(1));
  auto* model = static_cast<IoServerModel*>(v->workload());
  EXPECT_GT(model->completed_requests(), 80u);
  EXPECT_GT(v->pmu.io_events, 80u);
  // Mostly idle vCPU.
  EXPECT_LT(v->total_runtime, Ms(100));
}

TEST(MachineTest, BoostGivesIoLowLatencyUnderLoad) {
  Simulation sim;
  Machine m(sim, SmallConfig());
  Vm* vm = m.AddVm("vm");
  IoServerConfig io;
  io.name = "io";
  io.arrival_rate_hz = 200;
  io.service_work = Us(100);
  Vcpu* iov = m.AddVcpu(vm, std::make_unique<IoServerModel>(io));
  m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("hog")));
  m.Start();
  sim.RunUntil(Sec(2));
  auto* model = static_cast<IoServerModel*>(iov->workload());
  // With BOOST the blocked->wake path preempts the hog: latency ~ service
  // time, far below the 30ms quantum.
  EXPECT_LT(model->latency_us().mean(), 2000.0);
}

TEST(MachineTest, BoostEligibilityGating) {
  // Paper §3.4: a wake-up is BOOSTed only if the vCPU did not consume its
  // whole previous quantum and its credits are non-negative (UNDER).
  Simulation sim;
  Machine m(sim, SmallConfig());
  Vm* vm = m.AddVm("vm");
  IoServerConfig io;
  io.name = "io";
  io.arrival_rate_hz = 0.0001;  // effectively no organic arrivals
  io.service_work = Us(100);
  Vcpu* v = m.AddVcpu(vm, std::make_unique<IoServerModel>(io));
  m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("hog")));
  m.Start();
  sim.RunUntil(Ms(50));
  ASSERT_EQ(v->state, RunState::kBlocked);

  // A boosted wake preempts the hog and dispatches immediately (the vCPU
  // then re-blocks on its empty queue, clearing the flag — so the observable
  // effect is the immediate dispatch). A non-boosted wake leaves the vCPU
  // queued behind the hog's quantum. Every notification, whatever the
  // vCPU's state, adds exactly one to its PMU I/O count (the count vTRS
  // reads).

  // Case 1: consumed its full previous quantum -> no boost, no dispatch.
  v->consumed_full_quantum = true;
  v->credits = 1e6;
  uint64_t dispatches = v->dispatches;
  uint64_t io_events = v->pmu.io_events;
  m.NotifyIoEvent(v->id());
  EXPECT_EQ(v->pmu.io_events, io_events + 1);
  EXPECT_EQ(v->dispatches, dispatches);
  EXPECT_EQ(v->state, RunState::kRunnable);
  EXPECT_FALSE(v->boosted);

  // A notification to the already-runnable vCPU is counted but wakes nothing.
  m.NotifyIoEvent(v->id());
  EXPECT_EQ(v->pmu.io_events, io_events + 2);
  EXPECT_EQ(v->dispatches, dispatches);
  EXPECT_EQ(v->state, RunState::kRunnable);
  EXPECT_FALSE(v->boosted);

  // Let it drain its (empty) queue and block again.
  sim.RunUntil(sim.Now() + Ms(200));
  ASSERT_EQ(v->state, RunState::kBlocked);

  // Case 2: blocked early and UNDER -> boosted wake, immediate dispatch.
  v->consumed_full_quantum = false;
  v->credits = 1e6;
  dispatches = v->dispatches;
  io_events = v->pmu.io_events;
  m.NotifyIoEvent(v->id());
  EXPECT_EQ(v->pmu.io_events, io_events + 1);
  EXPECT_EQ(v->dispatches, dispatches + 1);

  sim.RunUntil(sim.Now() + Ms(200));
  ASSERT_EQ(v->state, RunState::kBlocked);

  // Case 3: OVER (negative credits) -> no boost even if it blocked early.
  v->consumed_full_quantum = false;
  v->credits = -1e6;
  dispatches = v->dispatches;
  io_events = v->pmu.io_events;
  m.NotifyIoEvent(v->id());
  EXPECT_EQ(v->pmu.io_events, io_events + 1);
  EXPECT_EQ(v->dispatches, dispatches);
  EXPECT_FALSE(v->boosted);
}

TEST(MachineTest, ApplyPoolPlanChangesQuantum) {
  Simulation sim;
  Machine m(sim, SmallConfig(2));
  Vm* vm = m.AddVm("vm");
  Vcpu* a = m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("a")));
  Vcpu* b = m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("b")));
  Vcpu* c = m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("c")));
  Vcpu* d = m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("d")));
  m.Start();

  PoolPlan plan;
  PoolSpec fast{"fast", {0}, Ms(1), {a->id(), b->id()}};
  PoolSpec slow{"slow", {1}, Ms(90), {c->id(), d->id()}};
  plan.pools = {fast, slow};
  m.ApplyPoolPlan(plan);
  const TimeNs t0 = sim.Now();
  const uint64_t da = a->dispatches;
  const uint64_t dc = c->dispatches;
  sim.RunUntil(t0 + Sec(1));
  // a/b at 1ms quantum: ~500 dispatches each; c/d at 90ms: ~6.
  EXPECT_GT(a->dispatches - da, 300u);
  EXPECT_LT(c->dispatches - dc, 20u);
  EXPECT_EQ(a->pool, 0);
  EXPECT_EQ(c->pool, 1);
}

TEST(MachineTest, PoolPlanValidationCatchesErrors) {
  PoolPlan plan;
  PoolSpec p{"p", {0, 0}, Ms(1), {0}};
  plan.pools = {p};
  EXPECT_NE(plan.Validate(2, {0}), "");

  PoolPlan missing_vcpu;
  missing_vcpu.pools = {PoolSpec{"p", {0, 1}, Ms(1), {0}}};
  EXPECT_NE(missing_vcpu.Validate(2, {0, 1}), "");

  PoolPlan ok;
  ok.pools = {PoolSpec{"p", {0, 1}, Ms(1), {0, 1}}};
  EXPECT_EQ(ok.Validate(2, {0, 1}), "");
}

TEST(MachineTest, VcpuQuantumOverride) {
  Simulation sim;
  Machine m(sim, SmallConfig());
  Vm* vm = m.AddVm("vm");
  Vcpu* a = m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("a")));
  m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("b")));
  m.Start();
  m.SetVcpuQuantum(a->id(), Ms(1));
  sim.RunUntil(Sec(1));
  // `a` is sliced at 1ms, so it is dispatched far more often than `b`.
  EXPECT_GT(a->dispatches, 200u);
}

TEST(MachineTest, CrossSocketMigrationDropsFootprint) {
  Simulation sim;
  MachineConfig mc;
  mc.topology = MakeE54603Topology();
  mc.topology.sockets = 2;
  Machine m(sim, mc);
  Vm* vm = m.AddVm("vm");
  CpuBurnConfig cfg = Burner("mem");
  cfg.mem.wss_bytes = 2 * 1024 * 1024;
  cfg.mem.llc_refs_per_ns = 0.005;
  Vcpu* v = m.AddVcpu(vm, std::make_unique<CpuBurnModel>(cfg));
  m.Start();
  sim.RunUntil(Ms(200));
  EXPECT_GT(m.llc().Occupancy(0, v->id()), 0u);

  // Move the vCPU to socket 1.
  PoolPlan plan;
  plan.pools = {PoolSpec{"s0", {0, 1, 2, 3}, Ms(30), {}},
                PoolSpec{"s1", {4, 5, 6, 7}, Ms(30), {v->id()}}};
  m.ApplyPoolPlan(plan);
  sim.RunUntil(Ms(400));
  EXPECT_EQ(m.llc().Occupancy(0, v->id()), 0u);
  EXPECT_GT(m.llc().Occupancy(1, v->id()), 0u);
  EXPECT_GE(v->migrations, 1u);
}

TEST(MachineTest, ResetAllMetricsZeroesCounters) {
  Simulation sim;
  Machine m(sim, SmallConfig());
  Vm* vm = m.AddVm("vm");
  Vcpu* v = m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("a")));
  m.Start();
  sim.RunUntil(Ms(100));
  m.ResetAllMetrics();
  EXPECT_EQ(v->total_runtime, 0);
  EXPECT_EQ(m.BusyTime(0), 0);
  EXPECT_EQ(m.measure_start(), sim.Now());
}

TEST(MachineTest, FairnessAcrossManyVcpus) {
  Simulation sim;
  Machine m(sim, SmallConfig(4));
  Vm* vm = m.AddVm("vm");
  std::vector<Vcpu*> vcpus;
  for (int i = 0; i < 16; ++i) {
    vcpus.push_back(m.AddVcpu(vm, std::make_unique<CpuBurnModel>(Burner("b"))));
  }
  m.Start();
  sim.RunUntil(Sec(4));
  // 16 always-runnable vCPUs on 4 pCPUs: each should get ~1s +- 15%.
  for (Vcpu* v : vcpus) {
    EXPECT_NEAR(ToSec(v->total_runtime), 1.0, 0.15);
  }
}

constexpr TimeNs kOracleRun = Sec(3);

// Runs `burners` CPU burners with memory behaviour `mem` on a 1-pCPU i7
// machine (8 MiB LLC) for kOracleRun and returns its work counters.
WorkCounters BurnerCounters(int burners, const MemProfile& mem,
                            TimeNs quantum = CreditParams().default_quantum) {
  Simulation sim;
  MachineConfig mc = SmallConfig();
  mc.credit.default_quantum = quantum;
  Machine m(sim, mc);
  Vm* vm = m.AddVm("vm");
  for (int i = 0; i < burners; ++i) {
    CpuBurnConfig cfg = Burner("b" + std::to_string(i));
    cfg.mem = mem;
    m.AddVcpu(vm, std::make_unique<CpuBurnModel>(cfg));
  }
  m.Start();
  sim.RunUntil(kOracleRun);
  return m.counters();
}

uint64_t Periods(TimeNs period) { return static_cast<uint64_t>(kOracleRun / period); }

// Register-only burners keep the pCPU busy and their miss ratio never
// moves, so the counters have closed forms: one dispatch per quantum plus
// the first, one callback per monitor period, and steps that follow the
// adaptive grain. Each 30 ms quantum is one monitor period, 150 base steps
// long, and no coarse step may end at its end. A burner's first quantum
// ramps its grain 1, 2, 4, ..., 64 (127 base steps), runs 22 more as one
// step and ends in a base step cut by the quantum: 9 steps. Every later
// quantum runs 64 + 64 + 21 base steps as three steps and ends in one base
// step: 4 steps. One more step is in flight at the end. A second burner
// only changes who runs each quantum, and ramps in its own first quantum.
TEST(WorkCounterTest, RegisterOnlyBurnersHaveClosedForms) {
  const TimeNs phase = CpuBurnModel(Burner("probe")).NextStep(0).work;
  const TimeNs quantum = CreditParams().default_quantum;
  ASSERT_EQ(quantum, kMonitorPeriod);
  ASSERT_EQ(kMonitorPeriod / phase, 150);
  for (const uint64_t burners : {1u, 2u}) {
    const WorkCounters c = BurnerCounters(static_cast<int>(burners), MemProfile{});
    EXPECT_EQ(c.compute_steps, 9 * burners + 4 * (Periods(quantum) - burners) + 1)
        << burners;
    EXPECT_EQ(c.dispatches, Periods(quantum) + 1) << burners;
    EXPECT_EQ(c.monitor_periods, Periods(kMonitorPeriod)) << burners;
    EXPECT_EQ(c.llc_commits, 0u) << burners;
    EXPECT_EQ(c.llc_evictions, 0u) << burners;
    EXPECT_EQ(c.membus_updates, 0u) << burners;
  }
  EXPECT_EQ(BurnerCounters(2, MemProfile{}, Ms(10)).dispatches, Periods(Ms(10)) + 1);
}

// A working set that fits the LLC misses on every step (the miss ratio
// never drops below its floor) but never overflows the socket. Each ended
// step commits once and sets and clears its bus demand; the step in flight
// at the end has set its demand only.
TEST(WorkCounterTest, FittingWorkingSetCommitsEveryStepAndNeverEvicts) {
  MemProfile mem;
  mem.wss_bytes = 4ull << 20;
  mem.llc_refs_per_ns = 0.01;
  ASSERT_LT(mem.wss_bytes, SmallConfig().topology.llc_bytes);
  const WorkCounters c = BurnerCounters(1, mem);
  EXPECT_EQ(c.llc_commits, c.compute_steps - 1);
  EXPECT_EQ(c.llc_evictions, 0u);
  EXPECT_EQ(c.membus_updates, 2 * c.llc_commits + 1);
}

// Two working sets that each overflow the LLC run the eviction walk on
// most commits, and never more often than they commit.
TEST(WorkCounterTest, OverflowingWorkingSetsEvict) {
  MemProfile mem;
  mem.wss_bytes = 32ull << 20;
  mem.llc_refs_per_ns = 0.01;
  const WorkCounters c = BurnerCounters(2, mem);
  EXPECT_GT(c.llc_evictions, 0u);
  EXPECT_LE(c.llc_evictions, c.llc_commits);
}

// --- Oracles: closed-form bounds that hold at any step grain ---

// Runs `burners` plain hmmer burners (LoLCF) on one pCPU through RunScenario,
// whose window is [warmup, warmup + measure].
ScenarioResult RunBurners(int burners, TimeNs warmup, TimeNs measure) {
  ScenarioSpec spec;
  spec.name = "burners";
  spec.machine = SingleSocketMachine(1, 7);
  spec.vms = {VmSpec{"hmmer", burners}};
  spec.warmup = warmup;
  spec.measure = measure;
  return RunScenario(spec, PolicySpec::Xen());
}

// Time conservation in a window whose edges are off the 30 ms monitor grid
// (10 ms and 5 ms into a period), so coarse steps straddle both: the work
// credited to one pCPU's vCPUs is at most the window, and a lone burner is
// credited the whole window to within one base step. Both hold only because
// each edge settles the steps in flight.
TEST(OracleTest, WorkInAnOffGridWindowIsConserved) {
  const TimeNs base = CpuBurnModel(Burner("probe")).NextStep(0).work;
  const TimeNs window = Ms(2005);
  for (const int burners : {1, 3}) {
    const ScenarioResult r = RunBurners(burners, Ms(1000), window);
    double work = 0.0;
    for (const PerfReport& rep : r.reports) {
      work += rep.metrics.at("work_done_s");
    }
    EXPECT_LE(work, ToSec(window)) << burners;
    if (burners == 1) {
      EXPECT_NEAR(work, ToSec(window), ToSec(base));
      EXPECT_NEAR(r.reports[0].metrics.at("slowdown"), 1.0, ToSec(base) / ToSec(window));
    }
  }
}

// N equal burners on one pCPU share it evenly: each is credited 1/N of the
// window to within one quantum, a slowdown of N.
TEST(OracleTest, EqualBurnersShareOnePcpuEvenly) {
  const TimeNs window = Ms(2005);
  const TimeNs quantum = CreditParams().default_quantum;
  for (const int burners : {2, 3}) {
    const ScenarioResult r = RunBurners(burners, Ms(1000), window);
    for (const PerfReport& rep : r.reports) {
      EXPECT_NEAR(rep.metrics.at("work_done_s"), ToSec(window) / burners, ToSec(quantum))
          << burners;
    }
  }
}

// A lone burner fills the LLC to min(WSS, capacity): a fitting working set
// becomes fully resident and its miss ratio falls to the floor.
TEST(OracleTest, LoneBurnerFillsTheLlc) {
  const uint64_t capacity = SmallConfig().topology.llc_bytes;
  for (const uint64_t wss : {capacity / 2, capacity * 4}) {
    Simulation sim;
    Machine m(sim, SmallConfig());
    CpuBurnConfig cfg = Burner("fill");
    cfg.mem.wss_bytes = wss;
    cfg.mem.llc_refs_per_ns = 0.008;
    Vcpu* v = m.AddVcpu(m.AddVm("vm"), std::make_unique<CpuBurnModel>(cfg));
    m.Start();
    sim.RunUntil(Sec(2));
    EXPECT_EQ(m.llc().Occupancy(0, v->id()), std::min(wss, capacity)) << wss;
    if (wss <= capacity) {
      EXPECT_EQ(m.llc().MissRatio(0, v->id(), wss), kMinMissRatio);
    }
  }
}

// Records one vCPU's retired instructions at every monitor period.
class InstructionRecorder : public SchedController {
 public:
  explicit InstructionRecorder(std::vector<uint64_t>* out) : out_(out) {}
  std::string Name() const override { return "instruction_recorder"; }
  void OnMonitorPeriod(Machine& machine, TimeNs) override {
    out_->push_back(machine.vcpu(0)->pmu.instructions);
  }

 private:
  std::vector<uint64_t>* out_;
};

// Each monitor period sees the instructions of the work done in it: a lone
// register-only burner retires 30 ms x ipc per period to within one base
// step, because no coarse step runs past a period's end. Its 90 ms quantum
// ends only every third period, so only that rule ends steps at the others.
TEST(OracleTest, EveryMonitorPeriodSeesItsOwnInstructions) {
  const Step probe = CpuBurnModel(Burner("probe")).NextStep(0);
  const double ipc = probe.mem.instructions_per_ns;
  Simulation sim;
  MachineConfig mc = SmallConfig();
  mc.credit.default_quantum = Ms(90);
  Machine m(sim, mc);
  m.AddVcpu(m.AddVm("vm"), std::make_unique<CpuBurnModel>(Burner("solo")));
  std::vector<uint64_t> seen;
  m.SetController(std::make_unique<InstructionRecorder>(&seen));
  m.Start();
  sim.RunUntil(Sec(1));
  ASSERT_EQ(seen.size(), 33u);
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(seen[i] - seen[i - 1]),
                static_cast<double>(kMonitorPeriod) * ipc,
                static_cast<double>(probe.work) * ipc)
        << "period " << i;
  }
}

TEST(MachineTest, WeightedFairness) {
  Simulation sim;
  Machine m(sim, SmallConfig(1));
  Vm* light = m.AddVm("light", 256);
  Vm* heavy = m.AddVm("heavy", 768);
  Vcpu* lv = m.AddVcpu(light, std::make_unique<CpuBurnModel>(Burner("l")));
  Vcpu* hv = m.AddVcpu(heavy, std::make_unique<CpuBurnModel>(Burner("h")));
  m.Start();
  sim.RunUntil(Sec(4));
  const double ratio = static_cast<double>(hv->total_runtime) /
                       static_cast<double>(lv->total_runtime);
  // 768:256 = 3:1 nominal; allow scheduling slack.
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 4.0);
}

// Generated multi-socket machines: 2-4 sockets of 2-4 cores, VMs of up to
// 6 vCPUs drawn from LLC trashers, cache-friendly, I/O, spinlock, memory-
// bandwidth and NUMA-remote apps, under Xen 30 ms / 1 ms, Microsliced and
// AQL (whose pool plans re-home vCPUs across sockets, some with a pending
// timer or wake, and make VMs straddle sockets). Seeded, so a failure
// reproduces.
std::vector<std::pair<ScenarioSpec, PolicySpec>> MultiSocketStressSpecs(int count) {
  const std::vector<std::string> apps = {"libquantum", "bzip2",     "hmmer",
                                         "mcf",        "pure_io",   "kernbench",
                                         "stream_triad", "numa_mcf"};
  const std::vector<PolicySpec> policies = {PolicySpec::Xen(), PolicySpec::Xen(Ms(1)),
                                            PolicySpec::Microsliced(), PolicySpec::Aql()};
  std::mt19937_64 gen(0x50c4e7157ULL);
  const auto pick = [&gen](int lo, int hi) {
    return lo + static_cast<int>(gen() % static_cast<uint64_t>(hi - lo + 1));
  };
  std::vector<std::pair<ScenarioSpec, PolicySpec>> out;
  for (int i = 0; i < count; ++i) {
    ScenarioSpec spec;
    spec.name = "sock_stress" + std::to_string(i);
    spec.machine = pick(0, 1) == 1 ? MultiSocketMachine(/*seed=*/gen())
                                   : DualSocketNumaMachine(/*seed=*/gen());
    spec.machine.topology.sockets = pick(2, 4);
    spec.machine.topology.cores_per_socket = pick(2, 4);
    // Oversubscribe so the scheduler time-slices: up to ~3 vCPUs per pCPU.
    const int pcpus = spec.machine.topology.TotalPcpus();
    int budget = pick(pcpus, pcpus * 3);
    while (budget > 0) {
      VmSpec vm;
      vm.app = apps[gen() % apps.size()];
      vm.vcpus = pick(1, budget < 6 ? budget : 6);
      budget -= vm.vcpus;
      spec.vms.push_back(vm);
    }
    spec.warmup = Ms(pick(2, 4) * 25);    // 50-100 ms
    spec.measure = Ms(pick(8, 14) * 25);  // 200-350 ms
    out.emplace_back(spec, policies[gen() % policies.size()]);
  }
  return out;
}

// FNV-1a over every deterministic result field; doubles enter as their
// exact "%a" spelling.
uint64_t ResultDigest(const ScenarioResult& r) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;  // field separator
    h *= 0x100000001b3ULL;
  };
  const auto num = [&mix](double d) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", d);
    mix(buf);
  };
  const auto integer = [&mix](int64_t v) { mix(std::to_string(v)); };
  for (const PerfReport& rep : r.reports) {
    mix(rep.workload_name);
    for (const auto& [k, v] : rep.metrics) {
      mix(k);
      num(v);
    }
  }
  for (const GroupPerf& g : r.groups) {
    mix(g.name);
    integer(g.vcpus);
    num(g.primary);
    for (const auto& [k, v] : g.metrics) {
      mix(k);
      num(v);
    }
  }
  integer(r.measure_window);
  num(r.cpu_utilization);
  integer(r.controller_overhead);
  for (const auto& [id, type] : r.detected_types) {
    integer(id);
    integer(static_cast<int64_t>(type));
  }
  for (const ScenarioResult::PoolInfo& p : r.pools) {
    mix(p.label);
    integer(p.quantum);
    for (const int c : p.pcpus) {
      integer(c);
    }
    mix("|");
    for (const int v : p.vcpus) {
      integer(v);
    }
  }
  integer(static_cast<int64_t>(r.plan_applications));
  return h;
}

// Pins the multi-socket event order (per-socket lanes, machine lane last),
// the per-VM RNG streams, least-loaded VM packing, socket-filtered wakes
// and steals and the cross-socket footprint flush on generated machines.
// The expected values first came from the socket-island engine the single
// queue replaced; these specs drive 14 cross-socket re-homes of a vCPU with
// a pending timer or wake. They were regenerated once when plain burners'
// steps became coarse (adaptive step grain).
TEST(MultiSocketStress, MatchesParentDigests) {
  struct Expected {
    uint64_t events;
    uint64_t digest;
  };
  const Expected expected[] = {
      {2527u, 0xed546e1d4ed6151eULL},  {5671u, 0x06156cb73be5fc1eULL},
      {14290u, 0x078f0dfa60f9df08ULL}, {8323u, 0xccd418f91c6b65cdULL},
      {13117u, 0x84f4e1ae824ca68eULL}, {2100u, 0x7012bdc0cce85a1eULL},
      {10397u, 0x5f319929b0d1c467ULL}, {13814u, 0x35fc73028175e97eULL},
      {14167u, 0x27ea029ad5d5535dULL}, {10966u, 0x8addfdfa0b7797dcULL},
      {2865u, 0x36d376c25ddb20b6ULL},  {9845u, 0x00cf35414e47ead7ULL},
      {9783u, 0xde3ed6a02063b803ULL},  {8122u, 0xd6cad399fb7ad418ULL},
      {8448u, 0xd270448267e118e1ULL},  {11756u, 0x47b804bb395147c5ULL},
  };

  const auto specs = MultiSocketStressSpecs(16);
  ASSERT_EQ(specs.size(), std::size(expected));
  for (size_t i = 0; i < specs.size(); ++i) {
    const auto& [spec, policy] = specs[i];
    const ScenarioResult r = RunScenario(spec, policy);
    const std::string label = spec.name + " (" + policy.Label() + ", sockets=" +
                              std::to_string(spec.machine.topology.sockets) + ")";
    EXPECT_EQ(r.events_processed, expected[i].events) << label;
    EXPECT_EQ(ResultDigest(r), expected[i].digest) << label;
  }
}

}  // namespace
}  // namespace aql
