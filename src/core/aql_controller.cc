#include "src/core/aql_controller.h"

#include <algorithm>

#include "src/sim/check.h"

namespace aql {
namespace {

// NUMA page migration (AqlConfig::numa_placement): each decision multiplies
// a migrating vCPU's remote-access scale by kPageMigrationDecay, down to
// kPageMigrationResidual (the hot pages the migrator never catches), which
// ends the migration.
constexpr double kPageMigrationDecay = 0.5;
constexpr double kPageMigrationResidual = 0.05;
// Controller cost of one migration step (page scanning + copies), charged
// per migrating vCPU per decision as *executed* overhead on pCPU 0.
constexpr TimeNs kPageMigrationStepCost = 100 * kNsPerUs;

}  // namespace

AqlController::AqlController(const AqlConfig& config) : config_(config) {}

void AqlController::OnAttach(Machine& machine) {
  for (const Vcpu* v : machine.vcpus()) {
    last_pmu_[v->id()] = v->pmu;
    last_runtime_[v->id()] = v->total_runtime;
  }
}

void AqlController::OnMonitorPeriod(Machine& machine, TimeNs now) {
  // Monitoring pass: levels from PMU deltas into the vTRS window. Periods in
  // which a vCPU never held a pCPU carry no information (hardware counters
  // only advance while running — with a 30 ms quantum and 4 vCPUs per pCPU a
  // vCPU is off-CPU for most monitoring periods), so they are skipped
  // rather than diluting the sliding window.
  for (const Vcpu* v : machine.vcpus()) {
    const PmuCounters delta = v->pmu - last_pmu_[v->id()];
    const TimeNs ran = v->total_runtime - last_runtime_[v->id()];
    last_pmu_[v->id()] = v->pmu;
    last_runtime_[v->id()] = v->total_runtime;
    if (ran <= 0 && delta.io_events == 0 && delta.pause_exits == 0) {
      continue;
    }
    const Levels levels = LevelsFromPmuDelta(delta);
    vtrs_.Observe(v->id(), levels);
    if (trace_hook_) {
      trace_hook_(now, v->id(), vtrs_.Latest(v->id()), vtrs_.Average(v->id()));
    }
  }

  ++periods_;
  if (periods_ % kVtrsWindow != 0) {
    return;
  }

  // Decision pass: classify everything and recluster.
  ++decisions_;
  std::vector<VcpuClass> classes;
  classes.reserve(machine.vcpus().size());
  for (const Vcpu* v : machine.vcpus()) {
    VcpuClass c;
    c.vcpu = v->id();
    c.vm = v->vm()->id();
    c.type = vtrs_.TypeOf(v->id());
    c.avg = vtrs_.Average(v->id());
    classes.push_back(c);
  }
  const std::vector<PlacementHint> hints = NumaResponse(machine, classes);
  PoolPlan plan =
      BuildTwoLevelPlan(classes, machine.topology(), config_.calibration, hints);

  const uint64_t elements = std::max<uint64_t>(
      machine.vcpus().size(), static_cast<uint64_t>(machine.topology().TotalPcpus()));
  machine.ChargeControllerOverhead(static_cast<TimeNs>(elements) *
                                   config_.per_element_overhead);

  if (has_plan_ && PlansEquivalent(plan, current_plan_)) {
    return;
  }
  machine.ApplyPoolPlan(plan);
  current_plan_ = std::move(plan);
  has_plan_ = true;
  ++plan_applications_;
}

std::vector<PlacementHint> AqlController::NumaResponse(
    Machine& machine, const std::vector<VcpuClass>& classes) {
  std::vector<PlacementHint> hints;
  if (!config_.numa_placement || machine.topology().sockets <= 1) {
    return hints;
  }
  // `classes` is in vCPU id order, which keeps the hint list (and therefore
  // the stickiness pass) deterministic.
  for (const VcpuClass& c : classes) {
    const Vcpu* v = machine.vcpu(c.vcpu);
    MigrationState& ms = migration_[c.vcpu];
    if (ms.socket >= 0 && v->footprint_socket >= 0 &&
        v->footprint_socket != ms.socket) {
      // The vCPU escaped its memory node despite the stickiness pass (e.g.
      // a pool reshuffle): the migrated pages are remote again. Drop the
      // migration state; it restarts below if the vCPU still reads
      // NumaRemote.
      ms = MigrationState{};
      machine.SetRemoteAccessScale(c.vcpu, 1.0);
    }
    if (!ms.active && ms.socket < 0 && c.type == VcpuType::kNumaRemote &&
        v->footprint_socket >= 0) {
      // Start migrating the guest's pages toward the node the vCPU runs on.
      ms.active = true;
      ms.socket = v->footprint_socket;
    }
    if (ms.active) {
      ms.scale = std::max(kPageMigrationResidual, ms.scale * kPageMigrationDecay);
      machine.SetRemoteAccessScale(c.vcpu, ms.scale);
      // Page scanning/copying is controller work: executed, not just
      // accounted (it occupies pCPU 0 like the bookkeeping charge).
      machine.ChargeControllerOverhead(kPageMigrationStepCost);
      if (ms.scale <= kPageMigrationResidual) {
        ms.active = false;  // migration complete; the pin remains
      }
    }
    // Every vCPU gets a hint: pinned ones drive the stickiness pass, the
    // rest contribute their real footprints to the swap-partner cost model.
    PlacementHint h;
    h.vcpu = c.vcpu;
    h.type = c.type;
    h.socket = ms.socket >= 0 ? ms.socket : v->footprint_socket;
    h.footprint_bytes =
        h.socket >= 0 ? machine.llc().Occupancy(h.socket, c.vcpu) : 0;
    h.pinned = ms.socket >= 0;
    hints.push_back(h);
  }
  return hints;
}

bool AqlController::PlansEquivalent(const PoolPlan& a, const PoolPlan& b) {
  if (a.pools.size() != b.pools.size()) {
    return false;
  }
  auto normalize = [](const PoolPlan& p) {
    std::vector<std::tuple<TimeNs, std::vector<int>, std::vector<int>>> out;
    for (const PoolSpec& s : p.pools) {
      std::vector<int> pc = s.pcpus;
      std::vector<int> vc = s.vcpus;
      std::sort(pc.begin(), pc.end());
      std::sort(vc.begin(), vc.end());
      out.emplace_back(s.quantum, std::move(pc), std::move(vc));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  return normalize(a) == normalize(b);
}

}  // namespace aql
