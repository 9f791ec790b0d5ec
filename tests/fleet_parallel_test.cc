// Differential proof of the parallel-islands determinism contract
// (src/fleet/fleet.h, docs/ARCHITECTURE.md "Determinism contract for
// parallel islands"): a fleet cell's output is byte-identical at every
// --island-threads setting.
//
// Two layers of evidence:
//
//  1. The committed fleet sweeps: every quick cell of fleet_hotspot /
//     fleet_consolidation / fleet_drain rendered to --stable-json at
//     island-thread counts 1, 2 and 8, byte-compared. (The full JSON with
//     timing fields is inherently run-dependent — stable JSON is exactly
//     the projection the contract covers, and what CI's `cmp` probes use.)
//
//  2. A randomized stress sweep: >= 50 generated fleet specs (random host
//     counts, VM mixes, cluster policies, epochs, skewed declared
//     placements, drain plans and seeds) each run sequentially and with a
//     random island-thread count, asserting the full ScenarioResult —
//     per-app groups, per-host stats, fleet bookkeeping, event counts —
//     matches field-for-field with zero tolerance.
//
// The same binary runs under ThreadSanitizer in CI (-DAQL_SANITIZE=thread),
// so the pool's epoch-barrier protocol is checked for happens-before
// violations on the same workloads that check it for value divergence.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/experiment/registry.h"
#include "src/experiment/runner.h"
#include "src/experiment/scenarios.h"
#include "src/fleet/fleet.h"

namespace aql {
namespace {

std::string StableJsonFor(const std::string& sweep, int island_threads) {
  const SweepSpec* spec = SweepRegistry::Instance().Find(sweep);
  EXPECT_NE(spec, nullptr) << sweep;
  SweepOptions options;
  options.quick = true;
  options.jobs = 1;
  options.island_threads = island_threads;
  return SweepJson(RunSweep(*spec, options), /*include_timing=*/false).Dump();
}

// Satellite 1a: every fleet sweep's quick cells, byte-compared across
// island-thread counts spanning "no pool", "pool smaller than the fleet"
// and "pool larger than some fleets" (the quick drain sweep has 8 hosts, so
// 8 threads also covers threads == hosts and the min(threads, hosts) clamp).
TEST(FleetParallel, SweepStableJsonIsByteIdenticalAcrossIslandThreads) {
  for (const char* sweep :
       {"fleet_hotspot", "fleet_consolidation", "fleet_drain", "fleet_failover"}) {
    const std::string sequential = StableJsonFor(sweep, 1);
    EXPECT_EQ(sequential, StableJsonFor(sweep, 2)) << sweep << " @2 threads";
    EXPECT_EQ(sequential, StableJsonFor(sweep, 8)) << sweep << " @8 threads";
  }
}

// Field-for-field comparison of two fleet ScenarioResults. EXPECT_EQ on
// doubles is deliberate: the contract is bitwise identity, not tolerance.
void ExpectSameResult(const ScenarioResult& seq, const ScenarioResult& par,
                      const std::string& label) {
  ASSERT_EQ(seq.groups.size(), par.groups.size()) << label;
  for (size_t g = 0; g < seq.groups.size(); ++g) {
    const GroupPerf& a = seq.groups[g];
    const GroupPerf& b = par.groups[g];
    EXPECT_EQ(a.name, b.name) << label;
    EXPECT_EQ(a.vcpus, b.vcpus) << label << " " << a.name;
    EXPECT_EQ(a.primary, b.primary) << label << " " << a.name;
    EXPECT_EQ(a.metrics, b.metrics) << label << " " << a.name;
  }
  EXPECT_EQ(seq.measure_window, par.measure_window) << label;
  EXPECT_EQ(seq.cpu_utilization, par.cpu_utilization) << label;
  EXPECT_EQ(seq.controller_overhead, par.controller_overhead) << label;
  EXPECT_EQ(seq.events_processed, par.events_processed) << label;
}

// Satellite 1b: randomized stress. Generates small-but-gnarly fleet specs —
// every cluster policy, skewed declared placements (hotspots the rebalancer
// must fix), rolling drains, mixed Xen/AQL hosts — and proves sequential ==
// parallel on each. The generator is seeded, so a failure reproduces.
TEST(FleetParallelStress, RandomFleetsMatchSequentialExactly) {
  // Mix of LLC trashers, cache-friendly and bandwidth/I-O apps so detection,
  // placement and migration all have something to react to.
  const std::vector<std::string> apps = {"libquantum", "bzip2", "hmmer", "mcf",
                                         "stream_triad", "pure_io"};
  const ClusterPolicy policies[] = {ClusterPolicy::kNaive, ClusterPolicy::kMemPressure,
                                    ClusterPolicy::kCacheAware};

  std::mt19937_64 gen(0xf1ee7f1ee7ULL);
  const auto pick = [&gen](int lo, int hi) {
    return lo + static_cast<int>(gen() % static_cast<uint64_t>(hi - lo + 1));
  };

  int fleets_with_migrations = 0;
  int fleets_with_drains = 0;
  const int kSpecs = 50;
  for (int i = 0; i < kSpecs; ++i) {
    const int hosts = pick(2, 4);
    const int vms = pick(4, 10);

    ScenarioSpec spec;
    spec.name = "stress" + std::to_string(i);
    spec.machine = FleetHostMachine(/*seed=*/gen());
    for (int v = 0; v < vms; ++v) {
      VmSpec vm;
      vm.app = apps[gen() % apps.size()];
      vm.vcpus = pick(1, 2);
      spec.vms.push_back(vm);
    }
    spec.fleet.hosts = hosts;
    spec.fleet.policy = policies[gen() % 3];
    spec.fleet.epoch = Ms(pick(1, 4) * 50);  // 50-200 ms
    spec.fleet.max_migrations_per_epoch = pick(0, 4);
    if (pick(0, 1) == 1) {
      // Skewed declared placement instead of policy admission: every VM on a
      // random host, so hotspots (and rebalance traffic) are likely.
      for (int v = 0; v < vms; ++v) {
        spec.fleet.declared_hosts.push_back(pick(0, hosts - 1));
      }
    }
    if (pick(0, 2) == 0) {
      // Rolling drain of a strict subset of hosts (at least one survivor to
      // receive the evacuated VMs).
      const int drains = pick(1, hosts - 1);
      for (int d = 0; d < drains; ++d) {
        spec.fleet.drain.hosts.push_back(d);
      }
      spec.fleet.drain.start = Ms(pick(1, 3) * 50);
      spec.fleet.drain.interval = Ms(pick(0, 2) * 50);
      spec.fleet.drain.batch_per_epoch = pick(1, 3);
    }
    spec.warmup = Ms(pick(2, 5) * 25);    // 50-125 ms
    spec.measure = Ms(pick(8, 16) * 25);  // 200-400 ms

    const PolicySpec policy = pick(0, 1) == 1 ? PolicySpec::Aql() : PolicySpec::Xen();

    RunOptions sequential;
    sequential.island_threads = 1;
    RunOptions parallel;
    parallel.island_threads = pick(2, 8);

    const ScenarioResult seq = RunScenario(spec, policy, sequential);
    const ScenarioResult par = RunScenario(spec, policy, parallel);
    ExpectSameResult(seq, par,
                     spec.name + " (" + policy.Label() + ", islands=" +
                         std::to_string(parallel.island_threads) + ")");

    const GroupPerf& fleet_group = seq.groups.back();
    ASSERT_EQ(fleet_group.name, "fleet") << spec.name;
    if (fleet_group.Metric("migrations") > 0) {
      ++fleets_with_migrations;
    }
    if (fleet_group.Metric("drained_hosts") > 0) {
      ++fleets_with_drains;
    }
  }

  // The generator must actually exercise the cross-island effects the
  // contract is about — a stress sweep where nothing ever migrates or
  // drains would prove much less than it claims.
  EXPECT_GT(fleets_with_migrations, 5);
  EXPECT_GT(fleets_with_drains, 3);
}

// The pool clamps to the host count and treats values < 1 as "one", so
// degenerate settings run the plain sequential loop (and a 1-host fleet
// never pays for threads it cannot use).
TEST(FleetParallel, DegenerateThreadCountsMatchSequential) {
  ScenarioSpec spec = FleetScenario("tiny", /*hosts=*/2,
                                    {{"libquantum", 1}, {"bzip2", 1}, {"hmmer", 1}},
                                    ClusterPolicy::kNaive, /*seed=*/99);
  spec.warmup = Ms(100);
  spec.measure = Ms(300);

  RunOptions base;
  base.island_threads = 1;
  const ScenarioResult seq = RunScenario(spec, PolicySpec::Xen(), base);
  for (const int threads : {0, -3, 16}) {
    RunOptions options;
    options.island_threads = threads;
    ExpectSameResult(seq, RunScenario(spec, PolicySpec::Xen(), options),
                     "islands=" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace aql
