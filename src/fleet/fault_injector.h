// Deterministic fault injection for the fleet layer.
//
// The fault schedule is a pure function of the fleet spec and its declared
// seed: crash and degradation events are pre-drawn per host from dedicated
// Rng::DeriveSeed streams over the fleet's epoch boundary grid, before any
// island executes. Migration-failure verdicts come from a third stream that
// only the coordinating thread consumes, in proposal order. Nothing in the
// schedule depends on execution order, so a faulty fleet run stays
// byte-identical at any --jobs / --island-threads setting — the same
// contract the rest of the fleet layer honors (docs/ARCHITECTURE.md "Fault
// model & recovery contract").
//
// Three fault kinds (all opt-in; a default FleetFaultPlan is inert):
//  * Fail-stop host crashes: at a scheduled epoch boundary the coordinator
//    tears the host down. Work executed before the crash instant stays in
//    the books (fail-stop, not byzantine); the host's VMs enter a recovery
//    queue and are re-placed by the active ClusterScheduler after
//    `vm_restart_delay`, with an executed re-provisioning charge on the
//    receiving host. The crashed host rejoins the fleet (empty) after
//    `host_reboot`.
//  * Migration failures: a dirty-page transfer aborts partway. The wasted
//    fraction of the transfer is charged on both ends, the VM stays put,
//    and the move is retried with exponential backoff up to `max_retries`,
//    after which it is abandoned and the scheduler must re-propose.
//  * Host degradation: a surviving host's MemBus bandwidth and/or pCPU
//    count drops permanently (a brownout). The host rebuilds in place with
//    the degraded topology; the placement policies see the smaller shape.

#ifndef AQLSCHED_SRC_FLEET_FAULT_INJECTOR_H_
#define AQLSCHED_SRC_FLEET_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace aql {

// Declarative fault model of one fleet run. Serialized into scenario JSON
// only when Active().
struct FleetFaultPlan {
  // Fail-stop crash process: per-host probability per second of simulated
  // time, evaluated once per epoch interval on the boundary grid.
  double crash_rate_per_host_per_sec = 0.0;
  // A crashed host rejoins the fleet (empty) once this much time has passed.
  TimeNs host_reboot = Sec(1);
  // Minimum time a crashed VM waits in the recovery queue before the
  // scheduler re-places it (failure detection + image re-fetch).
  TimeNs vm_restart_delay = Ms(250);
  // Executed re-provisioning occupancy charged on the receiving host per
  // restarted vCPU (PR 4 accounting-vs-execution contract: it dilates the
  // host, it is not just a counter).
  TimeNs restart_charge_per_vcpu = Ms(20);

  // Probability that one migration attempt aborts mid-copy.
  double migration_failure_prob = 0.0;
  // Fraction of the dirty-page transfer wasted by an abort (charged on both
  // ends; the VM never moves).
  double abort_fraction = 0.5;
  // Failed moves are retried up to this many times, then abandoned (the
  // cluster scheduler is free to re-propose).
  int max_retries = 3;
  // Retry pacing: with backoff, attempt k waits backoff_base * 2^(k-1)
  // before resubmission; without, the retry fires at the next boundary.
  bool backoff = true;
  TimeNs backoff_base = Ms(100);

  // Degradation process, same per-interval Bernoulli shape as crashes. Each
  // host degrades at most once per run.
  double degrade_rate_per_host_per_sec = 0.0;
  // Degraded hosts keep bw_scale of their MemBus bandwidth...
  double degraded_bw_scale = 0.5;
  // ...and lose this many cores per socket (clamped to keep >= 1).
  int degraded_pcpu_drop = 0;

  bool Active() const {
    return crash_rate_per_host_per_sec > 0.0 || migration_failure_prob > 0.0 ||
           degrade_rate_per_host_per_sec > 0.0;
  }
};

// Pre-drawn fault schedule + the coordinator-order migration verdict
// stream. Constructed once per fleet run from the boundary grid; see the
// file comment for the determinism argument.
class FaultInjector {
 public:
  FaultInjector(const FleetFaultPlan& plan, uint64_t base_seed, int hosts,
                const std::vector<TimeNs>& boundaries);

  // Hosts scheduled to crash / degrade exactly at boundary `now`, in
  // ascending host order. Empty for times off the schedule.
  const std::vector<int>& CrashesAt(TimeNs now) const;
  const std::vector<int>& DegradationsAt(TimeNs now) const;

  // Verdict for the next migration attempt. Coordinator-thread only; the
  // stream is consumed in proposal order, which is itself deterministic.
  bool MigrationAttemptFails();

 private:
  FleetFaultPlan plan_;
  std::map<TimeNs, std::vector<int>> crashes_;
  std::map<TimeNs, std::vector<int>> degradations_;
  Rng mig_rng_;
};

}  // namespace aql

#endif  // AQLSCHED_SRC_FLEET_FAULT_INJECTOR_H_
