// Integration-level tests for the Machine dispatcher: quantum slicing,
// blocking/wake, BOOST preemption, fairness, pools, migration, the work
// counters' closed forms, and the multi-socket event order.

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

// Register-only burners keep the pCPU busy in fixed CPU-burn phases, so the
// counters have closed forms: one step per phase plus the one in flight at
// the end, one dispatch per quantum plus the first, one callback per
// monitor period. A second burner only changes who runs each quantum.
TEST(WorkCounterTest, RegisterOnlyBurnersHaveClosedForms) {
  const TimeNs phase = CpuBurnModel(Burner("probe")).NextStep(0).work;
  const TimeNs quantum = CreditParams().default_quantum;
  for (const int burners : {1, 2}) {
    const WorkCounters c = BurnerCounters(burners, MemProfile{});
    EXPECT_EQ(c.compute_steps, Periods(phase) + 1) << burners;
    EXPECT_EQ(c.dispatches, Periods(quantum) + 1) << burners;
    EXPECT_EQ(c.monitor_periods, Periods(MachineConfig().monitor_period)) << burners;
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
// The expected values come from the socket-island engine the single queue
// replaced. These specs drive it through 13 island merges and 14
// cross-socket re-homes of a vCPU with a pending timer or wake, the paths
// where the two engines could have diverged.
TEST(MultiSocketStress, MatchesParentDigests) {
  struct Expected {
    uint64_t events;
    uint64_t digest;
  };
  const Expected expected[] = {
      {6234u, 0x930e426e8d229fa4ULL},  {14063u, 0xb1a12da83f978e20ULL},
      {17344u, 0x4d1ae062a545528fULL}, {11753u, 0xdc0cd1fb6334165cULL},
      {15719u, 0x528ce86e589cc341ULL}, {7746u, 0xf3a4a44bde01959eULL},
      {10929u, 0x2f8dcb4b29885f02ULL}, {22859u, 0x067a42f3195fae18ULL},
      {14167u, 0x27ea029ad5d5535dULL}, {13458u, 0xf6b6fc766e2343c0ULL},
      {3916u, 0x7d0c99edd3cb3c8aULL},  {16559u, 0x16ce725c353a2fb5ULL},
      {15156u, 0xf27c1c3760981172ULL}, {13500u, 0x6ce1891b15a0e9b0ULL},
      {9578u, 0x771d35e267b51c18ULL},  {15670u, 0x9d6f8f506e35c64dULL},
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
