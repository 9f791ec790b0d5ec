// Fleet-layer contracts (src/fleet/):
//
//  1. Determinism: every fleet sweep's stable JSON is byte-identical at
//     --jobs 1 and --jobs 4 (hosts step in fixed index order inside one
//     cell; cells land in pre-indexed slots across cells). Checked with
//     every other sweep by GoldenTest in sweep_test.
//  2. Migration accounting: dirty-page bytes conserve (sum of per-host
//     bytes-out == bytes-in == migrations x vcpus x dirty pages x page
//     size) and the transfer charge is *executed* on both ends — it shows
//     up as controller overhead, not just a counter.
//  3. Degeneracy: a 1-host, zero-migration fleet is bit-identical to the
//     equivalent single-Machine scenario (same seed derivation, same event
//     stream, same reports, same work counters — no weighted-mean
//     round-trip on the way out).
//  4. Bookkeeping under stress: randomized fleets keep utilization in
//     [0, 1], every vCPU on exactly one host, and every migration counted
//     once on each end.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/experiment/runner.h"
#include "src/experiment/scenarios.h"
#include "src/fleet/fleet.h"

namespace aql {
namespace {

TEST(FleetMigration, DirtyPageBytesConserveAndChargeExecutesOnBothEnds) {
  // Two hosts, all four trashers declared onto host 0: the cache-aware
  // rebalancer must move some to host 1. Warm-up is shorter than the epoch,
  // so every migration (and both ends' executed charge) lands inside the
  // measurement window where controller_overhead can see it.
  FleetSpec spec;
  spec.host_template = FleetHostMachine(/*seed=*/7);
  for (int i = 0; i < 4; ++i) {
    spec.vms.push_back(VmSpec{"libquantum", 1});
  }
  for (int i = 0; i < 2; ++i) {
    spec.vms.push_back(VmSpec{"bzip2", 1});
  }
  spec.config.hosts = 2;
  spec.config.policy = ClusterPolicy::kCacheAware;
  spec.config.epoch = Ms(200);
  spec.config.max_migrations_per_epoch = 8;
  spec.config.declared_hosts = {0, 0, 0, 0, 1, 1};
  spec.warmup = Ms(100);
  spec.measure = Ms(700);

  const FleetResult fr = RunFleet(spec);
  ASSERT_GT(fr.migrations, 0u);

  uint64_t bytes_out = 0;
  uint64_t bytes_in = 0;
  uint64_t moves_out = 0;
  uint64_t moves_in = 0;
  TimeNs host_charges = 0;
  for (const FleetHostStats& hs : fr.hosts) {
    bytes_out += hs.migration_bytes_out;
    bytes_in += hs.migration_bytes_in;
    moves_out += hs.migrations_out;
    moves_in += hs.migrations_in;
    host_charges += hs.migration_charge;
  }
  // Every migrated byte leaves exactly one host and arrives at exactly one.
  EXPECT_EQ(moves_out, fr.migrations);
  EXPECT_EQ(moves_in, fr.migrations);
  EXPECT_EQ(bytes_out, fr.migration_bytes);
  EXPECT_EQ(bytes_in, fr.migration_bytes);
  // Charged bytes = dirty pages x page size per vCPU moved (1 vCPU per VM).
  EXPECT_EQ(fr.migration_bytes,
            fr.migrations * kMigrationDirtyPagesPerVcpu * kMigrationPageBytes);

  // Both ends pay the transfer: total charge is twice the per-move cost.
  const double bw = spec.host_template.topology.mem_bw_bytes_per_ns;
  ASSERT_GT(bw, 0.0);
  const uint64_t bytes_per_move = kMigrationDirtyPagesPerVcpu * kMigrationPageBytes;
  const TimeNs cost_per_end =
      static_cast<TimeNs>(static_cast<double>(bytes_per_move) / bw);
  EXPECT_EQ(fr.migration_charge,
            2 * static_cast<TimeNs>(fr.migrations) * cost_per_end);
  EXPECT_EQ(host_charges, fr.migration_charge);
  // Executed, not just accounted: with native Xen hosts (no controller) the
  // only controller overhead is the migration charge itself.
  EXPECT_EQ(fr.controller_overhead, fr.migration_charge);
}

TEST(FleetDegeneracy, OneHostFleetMatchesSingleMachineBitForBit) {
  const uint64_t base_seed = 123;
  const std::vector<VmSpec> vms = {
      {"libquantum", 1}, {"bzip2", 1}, {"hmmer", 1}, {"stream_triad", 1}};

  ScenarioSpec fleet_spec = FleetScenario("fleet1", /*hosts=*/1, vms,
                                          ClusterPolicy::kNaive, base_seed);
  fleet_spec.warmup = Ms(300);
  fleet_spec.measure = Ms(700);

  // The equivalent single machine: the fleet derives host 0's generation-0
  // seed from the declared base, so the single-Machine run must start from
  // that derived seed to replay the identical streams.
  ScenarioSpec single_spec;
  single_spec.name = "single";
  single_spec.machine = FleetHostMachine(FleetHostSeed(base_seed, 0, 0));
  single_spec.vms = vms;
  single_spec.warmup = fleet_spec.warmup;
  single_spec.measure = fleet_spec.measure;

  const ScenarioResult fleet = RunScenario(fleet_spec, PolicySpec::Xen());
  const ScenarioResult single = RunScenario(single_spec, PolicySpec::Xen());

  // The fleet emits the app groups first, then host/fleet bookkeeping.
  ASSERT_EQ(fleet.groups.size(), single.groups.size() + 2);
  for (size_t i = 0; i < single.groups.size(); ++i) {
    const GroupPerf& fg = fleet.groups[i];
    const GroupPerf& sg = single.groups[i];
    EXPECT_EQ(fg.name, sg.name);
    EXPECT_EQ(fg.vcpus, sg.vcpus);
    EXPECT_EQ(fg.primary, sg.primary);  // bitwise: no tolerance
    EXPECT_EQ(fg.metrics, sg.metrics);
  }
  EXPECT_EQ(fleet.groups[single.groups.size()].name, "host0");
  EXPECT_EQ(fleet.groups.back().name, "fleet");
  EXPECT_EQ(fleet.groups.back().metrics.at("migrations"), 0.0);

  EXPECT_EQ(fleet.events_processed, single.events_processed);
  EXPECT_EQ(fleet.measure_window, single.measure_window);
  EXPECT_EQ(fleet.cpu_utilization, single.cpu_utilization);
  EXPECT_EQ(fleet.controller_overhead, single.controller_overhead);

  // The fleet adds up the work of its one host build, warm-up included.
  EXPECT_EQ(fleet.counters.compute_steps, single.counters.compute_steps);
  EXPECT_EQ(fleet.counters.dispatches, single.counters.dispatches);
  EXPECT_EQ(fleet.counters.llc_commits, single.counters.llc_commits);
  EXPECT_EQ(fleet.counters.llc_evictions, single.counters.llc_evictions);
  EXPECT_EQ(fleet.counters.membus_updates, single.counters.membus_updates);
  EXPECT_EQ(fleet.counters.monitor_periods, single.counters.monitor_periods);
  EXPECT_GT(fleet.counters.compute_steps, 0u);
}

// Randomized stress: generated fleet specs — every cluster policy, skewed
// declared placements (hotspots the rebalancer must fix), rolling drains,
// mixed Xen/AQL hosts, and apps of every kind for detection, placement and
// migration to react to — each keep the fleet's bookkeeping invariants.
// The generator is seeded, so a failure reproduces.
TEST(FleetStress, RandomFleetsKeepBookkeepingInvariants) {
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
    int vcpus = 0;
    for (int v = 0; v < vms; ++v) {
      VmSpec vm;
      vm.app = apps[gen() % apps.size()];
      vm.vcpus = pick(1, 2);
      vcpus += vm.vcpus;
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
    const ScenarioResult r = RunScenario(spec, policy);
    const std::string label = spec.name + " (" + policy.Label() + ")";

    EXPECT_GE(r.cpu_utilization, 0.0) << label;
    EXPECT_LE(r.cpu_utilization, 1.0) << label;
    int host_vcpus = 0;
    double migrations_in = 0.0;
    double migrations_out = 0.0;
    for (const GroupPerf& g : r.groups) {
      if (g.name.rfind("host", 0) != 0) {
        continue;
      }
      EXPECT_GE(g.Metric("cpu_utilization"), 0.0) << label << " " << g.name;
      EXPECT_LE(g.Metric("cpu_utilization"), 1.0) << label << " " << g.name;
      host_vcpus += g.vcpus;
      migrations_in += g.Metric("migrations_in");
      migrations_out += g.Metric("migrations_out");
    }
    const GroupPerf& fleet = r.groups.back();
    ASSERT_EQ(fleet.name, "fleet") << label;
    EXPECT_EQ(host_vcpus, vcpus) << label;
    EXPECT_EQ(migrations_in, fleet.Metric("migrations")) << label;
    EXPECT_EQ(migrations_out, fleet.Metric("migrations")) << label;
    EXPECT_EQ(fleet.vcpus, vcpus) << label;
    EXPECT_EQ(fleet.Metric("hosts"), hosts) << label;
    if (fleet.Metric("migrations") > 0) {
      ++fleets_with_migrations;
    }
    if (fleet.Metric("drained_hosts") > 0) {
      ++fleets_with_drains;
    }
  }

  // The generator must actually exercise migrations and drains.
  EXPECT_GT(fleets_with_migrations, 5);
  EXPECT_GT(fleets_with_drains, 3);
}

}  // namespace
}  // namespace aql
