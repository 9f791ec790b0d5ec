// Fault-injection contract tests (src/fleet/fault_injector.h,
// docs/ARCHITECTURE.md "Fault model & recovery contract"):
//
//  1. The fault schedule is a pure function of (spec, seed): two injectors
//     built from the same inputs agree event-for-event. (The fleet_failover
//     sweep's --jobs invariance is GoldenTest's, in sweep_test.)
//  2. Aborted migrations conserve charges: every wasted transfer half that
//     lands on a live machine is executed there (the accounting-vs-
//     execution contract), bytes balance across ends, and every failure is
//     either retried or abandoned.
//  3. A fault plan that is not Active() is indistinguishable from no fault
//     subsystem at all, whatever its inert knobs say.
//  4. Randomized crash/recovery stress: high crash rates over random small
//     fleets (checkpointing VMs included) keep every invariant.
//  5. A brownout inside the measured window keeps every utilization at most
//     1 (Σ pCPU busy <= capacity).

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/experiment/runner.h"
#include "src/experiment/scenarios.h"
#include "src/fleet/fault_injector.h"
#include "src/fleet/fleet.h"

namespace aql {
namespace {

// Field-for-field comparison of two fleet ScenarioResults; EXPECT_EQ on
// doubles is deliberate (bitwise identity, not tolerance).
void ExpectSameResult(const ScenarioResult& a, const ScenarioResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.groups.size(), b.groups.size()) << label;
  for (size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].name, b.groups[g].name) << label;
    EXPECT_EQ(a.groups[g].vcpus, b.groups[g].vcpus) << label << " " << a.groups[g].name;
    EXPECT_EQ(a.groups[g].primary, b.groups[g].primary)
        << label << " " << a.groups[g].name;
    EXPECT_EQ(a.groups[g].metrics, b.groups[g].metrics)
        << label << " " << a.groups[g].name;
  }
  EXPECT_EQ(a.measure_window, b.measure_window) << label;
  EXPECT_EQ(a.cpu_utilization, b.cpu_utilization) << label;
  EXPECT_EQ(a.controller_overhead, b.controller_overhead) << label;
  EXPECT_EQ(a.events_processed, b.events_processed) << label;
}

// Σ pCPU busy <= capacity: the cell's and every host's utilization lie in
// [0, 1].
void ExpectUtilizationBounded(const ScenarioResult& r, const std::string& label) {
  EXPECT_GE(r.cpu_utilization, 0.0) << label;
  EXPECT_LE(r.cpu_utilization, 1.0) << label;
  for (const GroupPerf& g : r.groups) {
    if (g.name.rfind("host", 0) == 0) {
      EXPECT_GE(g.Metric("cpu_utilization"), 0.0) << label << " " << g.name;
      EXPECT_LE(g.Metric("cpu_utilization"), 1.0) << label << " " << g.name;
    }
  }
}

// 1a. Unit-level determinism: the pre-drawn schedule and the verdict stream
// depend on nothing but (plan, seed, hosts, boundary grid).
TEST(FaultInjectorTest, ScheduleIsPureFunctionOfSpecAndSeed) {
  FleetFaultPlan plan;
  plan.crash_rate_per_host_per_sec = 2.0;
  plan.degrade_rate_per_host_per_sec = 1.0;
  plan.migration_failure_prob = 0.5;

  std::vector<TimeNs> boundaries;
  for (TimeNs t = Ms(50); t <= Sec(1); t += Ms(50)) {
    boundaries.push_back(t);
  }

  FaultInjector a(plan, /*base_seed=*/42, /*hosts=*/8, boundaries);
  FaultInjector b(plan, /*base_seed=*/42, /*hosts=*/8, boundaries);
  int crash_events = 0;
  int degrade_events = 0;
  for (const TimeNs t : boundaries) {
    EXPECT_EQ(a.CrashesAt(t), b.CrashesAt(t)) << "t=" << t;
    EXPECT_EQ(a.DegradationsAt(t), b.DegradationsAt(t)) << "t=" << t;
    crash_events += static_cast<int>(a.CrashesAt(t).size());
    degrade_events += static_cast<int>(a.DegradationsAt(t).size());
    // Victims are listed in ascending host order (the coordinator applies
    // them in that order, so the listing order is part of the contract).
    const std::vector<int>& crashes = a.CrashesAt(t);
    for (size_t i = 1; i < crashes.size(); ++i) {
      EXPECT_LT(crashes[i - 1], crashes[i]);
    }
  }
  // At these rates an empty schedule would make the identity checks above
  // vacuous.
  EXPECT_GT(crash_events, 0);
  EXPECT_GT(degrade_events, 0);
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(a.MigrationAttemptFails(), b.MigrationAttemptFails()) << "draw " << i;
  }

  // A different seed draws a different schedule (whp at these rates) — the
  // streams are genuinely keyed, not a fixed pattern.
  FaultInjector c(plan, /*base_seed=*/43, /*hosts=*/8, boundaries);
  bool any_difference = false;
  for (const TimeNs t : boundaries) {
    if (a.CrashesAt(t) != c.CrashesAt(t) || a.DegradationsAt(t) != c.DegradationsAt(t)) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

// 2. Charge conservation across aborted migrations. Every attempt fails
// (prob = 1), so no VM ever moves, yet both ends of each abort pay the
// wasted transfer as executed occupancy.
TEST(FleetFaultTest, AbortedMigrationsConserveCharges) {
  FleetSpec spec;
  spec.host_template = FleetHostMachine(/*seed=*/7);
  // Skewed declared placement over 3 populated hosts: the aware policy will
  // keep proposing moves off the hot host, and every one of them aborts.
  const char* const kApps[] = {"libquantum", "stream_triad", "libquantum",
                               "stream_triad", "libquantum", "stream_triad",
                               "bzip2", "hmmer"};
  const int kDeclared[] = {0, 0, 0, 0, 0, 0, 1, 2};
  for (int i = 0; i < 8; ++i) {
    spec.vms.push_back(VmSpec{kApps[i], 1});
    spec.config.declared_hosts.push_back(kDeclared[i]);
  }
  spec.config.hosts = 3;
  spec.config.policy = ClusterPolicy::kCacheAware;
  spec.config.epoch = Ms(100);
  spec.config.max_migrations_per_epoch = 2;
  spec.config.fault.migration_failure_prob = 1.0;
  spec.config.fault.abort_fraction = 0.5;
  spec.config.fault.max_retries = 2;
  spec.config.fault.backoff = false;  // retries due at the very next boundary
  // Warm-up ends exactly at the first epoch boundary, so every fault charge
  // lands after the metric reset and controller_overhead (measured window)
  // must equal fault_charge exactly: no controller is attached and no
  // migration ever succeeds, so faults are the only overhead source.
  spec.warmup = Ms(100);
  spec.measure = Ms(600);

  const FleetResult fr = RunFleet(spec);

  EXPECT_EQ(fr.migrations, 0);
  EXPECT_EQ(fr.migration_bytes, 0u);
  EXPECT_EQ(fr.migration_charge, 0);
  EXPECT_GT(fr.migration_failures, 0);
  // Every failure either schedules a retry or abandons the move.
  EXPECT_EQ(fr.migration_failures, fr.migration_retries + fr.migrations_abandoned);
  EXPECT_GT(fr.migrations_abandoned, 0);  // prob 1 always exhausts the cap

  // Byte balance: each abort books the same wasted count on both ends.
  uint64_t out_bytes = 0;
  uint64_t in_bytes = 0;
  TimeNs host_fault_charge = 0;
  int host_failures = 0;
  for (const FleetHostStats& hs : fr.hosts) {
    out_bytes += hs.aborted_bytes_out;
    in_bytes += hs.aborted_bytes_in;
    host_fault_charge += hs.fault_charge;
    host_failures += hs.migration_failures;
  }
  EXPECT_EQ(out_bytes, in_bytes);
  EXPECT_EQ(out_bytes, fr.aborted_bytes);
  EXPECT_EQ(host_failures, fr.migration_failures);
  EXPECT_EQ(host_fault_charge, fr.fault_charge);

  // Executed-charge conservation: all 3 hosts hold VMs for the whole run
  // (nothing ever moves), so both halves of every abort were executed.
  const uint64_t bytes_per_attempt = 1ull * 16384 * 4096;  // 1 vCPU default model
  const uint64_t wasted_per_attempt =
      static_cast<uint64_t>(0.5 * static_cast<double>(bytes_per_attempt));
  const double bw = spec.host_template.topology.mem_bw_bytes_per_ns;
  ASSERT_GT(bw, 0.0);
  const TimeNs cost_per_end =
      static_cast<TimeNs>(static_cast<double>(wasted_per_attempt) / bw);
  ASSERT_GT(cost_per_end, 0);
  EXPECT_EQ(fr.aborted_bytes,
            static_cast<uint64_t>(fr.migration_failures) * wasted_per_attempt);
  EXPECT_EQ(fr.fault_charge, 2 * fr.migration_failures * cost_per_end);
  EXPECT_EQ(fr.controller_overhead, fr.fault_charge);
}

// 3. A plan that is not Active() must be indistinguishable from never
// constructing the fault subsystem, no matter what its inert knobs say —
// Active() is the single behavioral gate (and the reason fault-free goldens
// survived the fault subsystem landing).
TEST(FleetFaultTest, InactivePlanIsBitIdenticalToDefault) {
  ScenarioSpec spec = FleetScenario("inactive", /*hosts=*/3, FleetWorkloadMix(9),
                                    ClusterPolicy::kMemPressure, /*seed=*/11);
  spec.fleet.epoch = Ms(100);
  spec.fleet.max_migrations_per_epoch = 2;
  spec.warmup = Ms(100);
  spec.measure = Ms(400);

  const ScenarioResult baseline = RunScenario(spec, PolicySpec::Xen(), RunOptions{});

  ScenarioSpec inert = spec;
  inert.fleet.fault.host_reboot = Ms(123);
  inert.fleet.fault.vm_restart_delay = Ms(1);
  inert.fleet.fault.restart_charge_per_vcpu = Sec(1);
  inert.fleet.fault.abort_fraction = 0.9;
  inert.fleet.fault.max_retries = 7;
  inert.fleet.fault.backoff = false;
  inert.fleet.fault.degraded_bw_scale = 0.1;
  inert.fleet.fault.degraded_pcpu_drop = 3;
  ASSERT_FALSE(inert.fleet.fault.Active());

  ExpectSameResult(baseline, RunScenario(inert, PolicySpec::Xen(), RunOptions{}),
                   "inert plan");
}

// Deterministic crash/recovery smoke on one scenario: crashes happen, VMs
// come back through the scheduler, availability reflects the downtime and
// the restart charges are executed.
TEST(FleetFaultTest, CrashRecoveryRestartsVmsAndBooksDowntime) {
  ScenarioSpec spec = FleetScenario("crashy", /*hosts=*/4, FleetWorkloadMix(12),
                                    ClusterPolicy::kCacheAware, /*seed=*/5);
  spec.fleet.epoch = Ms(100);
  spec.fleet.max_migrations_per_epoch = 2;
  spec.fleet.fault.crash_rate_per_host_per_sec = 2.0;
  spec.fleet.fault.host_reboot = Ms(300);
  spec.fleet.fault.vm_restart_delay = Ms(50);
  spec.warmup = Ms(200);
  spec.measure = Sec(1);

  const ScenarioResult r = RunScenario(spec, PolicySpec::Xen(), RunOptions{});
  const GroupPerf& fleet = r.groups.back();
  ASSERT_EQ(fleet.name, "fleet");
  EXPECT_GT(fleet.Metric("crashes"), 0.0);
  EXPECT_GT(fleet.Metric("vm_restarts"), 0.0);
  EXPECT_GT(fleet.Metric("downtime_ms"), 0.0);
  EXPECT_GT(fleet.Metric("fault_charge_ms"), 0.0);
  EXPECT_LT(fleet.Metric("availability"), 1.0);
  EXPECT_GE(fleet.Metric("availability"), 0.0);
}

// 4. Randomized crash/recovery stress: random small fleets under aggressive
// fault plans (checkpointing VMs included, so durable save/restore runs on
// every teardown) hold the availability and downtime invariants. Seeded
// generator: failures reproduce.
TEST(FleetFaultStress, RandomCrashRecoveryKeepsInvariants) {
  const std::vector<std::string> apps = {"libquantum", "bzip2", "hmmer",
                                         "stream_triad", "checkpoint_restart"};
  const ClusterPolicy policies[] = {ClusterPolicy::kNaive, ClusterPolicy::kMemPressure,
                                    ClusterPolicy::kCacheAware};

  std::mt19937_64 gen(0xfa17fa17ULL);
  const auto pick = [&gen](int lo, int hi) {
    return lo + static_cast<int>(gen() % static_cast<uint64_t>(hi - lo + 1));
  };

  int fleets_with_crashes = 0;
  int fleets_with_restarts = 0;
  const int kSpecs = 20;
  for (int i = 0; i < kSpecs; ++i) {
    const int hosts = pick(2, 4);
    const int vms = pick(4, 8);

    ScenarioSpec spec;
    spec.name = "faultstress" + std::to_string(i);
    spec.machine = FleetHostMachine(/*seed=*/gen());
    for (int v = 0; v < vms; ++v) {
      VmSpec vm;
      vm.app = apps[gen() % apps.size()];
      vm.vcpus = pick(1, 2);
      spec.vms.push_back(vm);
    }
    spec.fleet.hosts = hosts;
    spec.fleet.policy = policies[gen() % 3];
    spec.fleet.epoch = Ms(pick(1, 2) * 50);
    spec.fleet.max_migrations_per_epoch = pick(0, 3);
    spec.fleet.fault.crash_rate_per_host_per_sec = 1.0 + pick(0, 2);
    spec.fleet.fault.host_reboot = Ms(pick(2, 6) * 50);
    spec.fleet.fault.vm_restart_delay = Ms(pick(1, 4) * 25);
    spec.fleet.fault.migration_failure_prob = pick(0, 1) == 1 ? 0.5 : 0.0;
    spec.fleet.fault.backoff = pick(0, 1) == 1;
    if (pick(0, 1) == 1) {
      spec.fleet.fault.degrade_rate_per_host_per_sec = 0.5;
      spec.fleet.fault.degraded_bw_scale = 0.6;
      spec.fleet.fault.degraded_pcpu_drop = pick(0, 1);
    }
    spec.warmup = Ms(pick(2, 4) * 25);
    spec.measure = Ms(pick(8, 16) * 25);

    const PolicySpec policy = pick(0, 1) == 1 ? PolicySpec::Aql() : PolicySpec::Xen();

    const ScenarioResult r = RunScenario(spec, policy);
    ExpectUtilizationBounded(r, spec.name);

    const GroupPerf& fleet = r.groups.back();
    ASSERT_EQ(fleet.name, "fleet") << spec.name;
    const double availability = fleet.Metric("availability");
    EXPECT_GE(availability, 0.0) << spec.name;
    EXPECT_LE(availability, 1.0) << spec.name;
    // Total in-window downtime cannot exceed the window times the VM count
    // (each VM books at most the whole window).
    EXPECT_LE(fleet.Metric("downtime_ms"),
              ToMs(r.measure_window) * static_cast<double>(vms) + 1e-9)
        << spec.name;
    if (fleet.Metric("crashes") > 0) {
      ++fleets_with_crashes;
    }
    if (fleet.Metric("vm_restarts") > 0) {
      ++fleets_with_restarts;
    }
  }

  // The generator must actually exercise crash recovery, or the stress
  // proves much less than it claims.
  EXPECT_GT(fleets_with_crashes, 10);
  EXPECT_GT(fleets_with_restarts, 5);
}

// 5. A host that browns out inside the measured window earned busy time on
// the template's pCPUs before the brownout and on the shrunken shape after
// it, so its capacity counts each over its own span. Dividing the whole
// window's busy time by the shrunken count read up to 1.95.
TEST(FleetFaultTest, BrownoutKeepsUtilizationAtMostOne) {
  const std::vector<VmSpec> vms(32, VmSpec{"hmmer", 1});  // on 4 hosts
  int degraded_hosts = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    ScenarioSpec spec = FleetScenario("brownout", 4, vms, ClusterPolicy::kNaive, seed);
    spec.fleet.epoch = Ms(100);
    spec.fleet.max_migrations_per_epoch = 0;
    spec.fleet.fault.degrade_rate_per_host_per_sec = 0.5;
    spec.fleet.fault.degraded_pcpu_drop = 2;
    spec.warmup = Ms(200);
    spec.measure = Sec(2);

    const ScenarioResult r = RunScenario(spec, PolicySpec::Xen());
    ExpectUtilizationBounded(r, "seed " + std::to_string(seed));
    degraded_hosts += static_cast<int>(r.groups.back().Metric("degraded_hosts"));
  }
  // Without brownouts the bound would hold trivially.
  EXPECT_GT(degraded_hosts, 0);
}

}  // namespace
}  // namespace aql
