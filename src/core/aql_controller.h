// AQL_Sched — the paper's Adaptable Quantum Length scheduler controller.
//
// Every monitoring period (kMonitorPeriod, 30 ms) it reads each vCPU's PMU
// delta, feeds vTRS and, every kVtrsWindow periods (n = 4), classifies all
// vCPUs and rebuilds the CPU pools with the two-level clustering; each pool
// gets the calibrated quantum of its vCPU type. Reconfiguration is skipped
// when the plan is structurally unchanged, and its simulated bookkeeping
// cost — O(max(#pCPUs, #vCPUs)), cf. §4.3 — is charged as controller
// overhead.

#ifndef AQLSCHED_SRC_CORE_AQL_CONTROLLER_H_
#define AQLSCHED_SRC_CORE_AQL_CONTROLLER_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/calibration.h"
#include "src/core/clustering.h"
#include "src/core/vtrs.h"
#include "src/hv/machine.h"

namespace aql {

struct AqlConfig {
  CalibrationTable calibration = PaperCalibration();
  // Simulated bookkeeping cost per element of the recognition + clustering
  // pass (charged as max(#pCPUs, #vCPUs) * this).
  TimeNs per_element_overhead = 50;
  // NUMA placement response: when vTRS recognizes a vCPU as NumaRemote, the
  // controller migrates the guest's pages toward the vCPU's node — modelled
  // as the vCPU's remote-access scale decaying per decision — and pins the
  // vCPU to that node through the placement layer's stickiness pass
  // (src/hv/placement.h) so the migrated pages stay local.
  bool numa_placement = true;
};

class AqlController : public SchedController {
 public:
  explicit AqlController(const AqlConfig& config = {});

  std::string Name() const override { return "AQL_Sched"; }
  void OnAttach(Machine& machine) override;
  void OnMonitorPeriod(Machine& machine, TimeNs now) override;

  // --- observability (Fig. 4, Table 3/5) ---
  const Vtrs& vtrs() const { return vtrs_; }
  VcpuType TypeOf(int vcpu) const { return vtrs_.TypeOf(vcpu); }
  const PoolPlan& current_plan() const { return current_plan_; }
  uint64_t decisions() const { return decisions_; }
  uint64_t plan_applications() const { return plan_applications_; }

  // Optional per-period trace hook: (now, vcpu, single-period cursors,
  // window average). Used to regenerate Fig. 4.
  using TraceHook = std::function<void(TimeNs, int, const CursorSet&, const CursorSet&)>;
  void set_trace_hook(TraceHook hook) { trace_hook_ = std::move(hook); }

 private:
  // NUMA page-migration progress for one vCPU.
  struct MigrationState {
    // Remote-access scale currently applied (1.0 = never migrated).
    double scale = 1.0;
    // True while the per-decision decay is still running.
    bool active = false;
    // The memory node the pages were migrated toward (-1 = none).
    int socket = -1;
  };

  static bool PlansEquivalent(const PoolPlan& a, const PoolPlan& b);

  // The per-decision NUMA response: starts/advances page migrations and
  // produces the placement hints for the plan build.
  std::vector<PlacementHint> NumaResponse(Machine& machine,
                                          const std::vector<VcpuClass>& classes);

  AqlConfig config_;
  Vtrs vtrs_;
  std::unordered_map<int, PmuCounters> last_pmu_;
  std::unordered_map<int, TimeNs> last_runtime_;
  std::unordered_map<int, MigrationState> migration_;
  int periods_ = 0;
  PoolPlan current_plan_;
  bool has_plan_ = false;
  uint64_t decisions_ = 0;
  uint64_t plan_applications_ = 0;
  TraceHook trace_hook_;
};

}  // namespace aql

#endif  // AQLSCHED_SRC_CORE_AQL_CONTROLLER_H_
