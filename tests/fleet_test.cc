// Fleet-layer contracts (src/fleet/):
//
//  1. Determinism: every fleet sweep's stable JSON is byte-identical at
//     --jobs 1 and --jobs 4 (hosts step in fixed index order inside one
//     cell; cells land in pre-indexed slots across cells).
//  2. Migration accounting: dirty-page bytes conserve (sum of per-host
//     bytes-out == bytes-in == migrations x vcpus x dirty pages x page
//     size) and the transfer charge is *executed* on both ends — it shows
//     up as controller overhead, not just a counter.
//  3. Degeneracy: a 1-host, zero-migration fleet is bit-identical to the
//     equivalent single-Machine scenario (same seed derivation, same event
//     stream, same reports — no weighted-mean round-trip on the way out).
//  4. Profiling: --profile's phase sinks see every host, multi-socket ones
//     included.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/experiment/registry.h"
#include "src/fleet/fleet.h"

namespace aql {
namespace {

std::string StableJsonFor(const std::string& sweep, int jobs) {
  const SweepSpec* spec = SweepRegistry::Instance().Find(sweep);
  EXPECT_NE(spec, nullptr) << sweep;
  SweepOptions options;
  options.quick = true;
  options.jobs = jobs;
  return SweepJson(RunSweep(*spec, options), /*include_timing=*/false).Dump();
}

TEST(FleetDeterminism, FleetSweepsAreByteIdenticalAcrossJobCounts) {
  for (const char* sweep : {"fleet_hotspot", "fleet_consolidation", "fleet_drain"}) {
    EXPECT_EQ(StableJsonFor(sweep, 1), StableJsonFor(sweep, 4)) << sweep;
  }
}

TEST(FleetMigration, DirtyPageBytesConserveAndChargeExecutesOnBothEnds) {
  // Two hosts, all four trashers declared onto host 0: the cache-aware
  // rebalancer must move some to host 1. Warm-up is shorter than the epoch,
  // so every migration (and both ends' executed charge) lands inside the
  // measurement window where controller_overhead can see it.
  FleetSpec spec;
  spec.host_template = FleetHostMachine(/*seed=*/7);
  for (int i = 0; i < 4; ++i) {
    spec.vms.push_back(FleetVmSpec{"libquantum", 1});
  }
  for (int i = 0; i < 2; ++i) {
    spec.vms.push_back(FleetVmSpec{"bzip2", 1});
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
            fr.migrations * spec.config.migration.dirty_pages_per_vcpu *
                spec.config.migration.page_bytes);

  // Both ends pay the transfer: total charge is twice the per-move cost.
  const double bw = spec.host_template.topology.mem_bw_bytes_per_ns;
  ASSERT_GT(bw, 0.0);
  const uint64_t bytes_per_move =
      spec.config.migration.dirty_pages_per_vcpu * spec.config.migration.page_bytes;
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
}

// Multi-socket hosts report their LLC/bus time: each host's Machine adds
// BeginStep's timing straight into its own sink, and the fleet sums the
// sinks after the run.
TEST(FleetProfile, MultiSocketHostsReportLlcTime) {
  FleetSpec spec;
  spec.host_template = DualSocketNumaMachine(/*seed=*/7);
  for (const VmSpec& vm : FleetWorkloadMix(8)) {
    spec.vms.push_back(FleetVmSpec{vm.app, vm.vcpus});
  }
  spec.config.hosts = 2;
  spec.warmup = Ms(100);
  spec.measure = Ms(300);
  SimPhaseProfile profile;
  spec.profile = &profile;

  const FleetResult fr = RunFleet(spec);
  ASSERT_EQ(fr.hosts.size(), 2u);
  EXPECT_GT(profile.event_core.events, 0u);
  EXPECT_GT(profile.llc_seconds, 0.0);
}

}  // namespace
}  // namespace aql
