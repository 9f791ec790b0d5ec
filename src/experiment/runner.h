// Experiment runner: builds a Machine from a ScenarioSpec + PolicySpec,
// simulates warm-up and measurement windows, and collects grouped results.
//
// Counters, not clocks: the simulated results, the event count and the
// work counters are a pure function of (spec, policy). The runner is one
// of the two places in src/ that read the host clock (with sweep.cc); it
// times the whole cell and its simulation loop, and those readings ride
// only in timed JSON.

#ifndef AQLSCHED_SRC_EXPERIMENT_RUNNER_H_
#define AQLSCHED_SRC_EXPERIMENT_RUNNER_H_

#include <map>
#include <string>
#include <vector>

#include "src/core/aql_controller.h"
#include "src/experiment/scenarios.h"
#include "src/metrics/report.h"

namespace aql {

struct RunOptions {
  // Observes per-period vTRS cursors (AQL policy only).
  AqlController::TraceHook trace;
};

struct ScenarioResult {
  std::string scenario;
  std::string policy;
  std::vector<PerfReport> reports;  // one per vCPU
  std::vector<GroupPerf> groups;    // aggregated per application

  TimeNs measure_window = 0;
  double cpu_utilization = 0.0;       // busy time / capacity over the window
  TimeNs controller_overhead = 0;     // simulated bookkeeping cost
  uint64_t events_processed = 0;
  // Work counters over the whole cell, warm-up included, like
  // events_processed; a fleet cell sums them over every host build.
  WorkCounters counters;
  uint64_t fleet_epochs = 0;  // fleet cells only: epoch boundaries run
  // Host-clock timing: the whole cell, and its split ("sim_seconds", the
  // simulation loop). Emitted into cell JSON only alongside the other
  // wall-clock fields, never into the --stable-json byte stream.
  double wall_seconds = 0.0;
  std::map<std::string, double> profile;

  // AQL policy only: final detected type per vCPU and the final pool layout.
  struct PoolInfo {
    std::string label;
    TimeNs quantum = 0;
    std::vector<int> pcpus;
    std::vector<int> vcpus;
  };
  std::map<int, VcpuType> detected_types;
  std::vector<PoolInfo> pools;
  uint64_t plan_applications = 0;

  double GroupPrimary(const std::string& group) const;
  // Fleet cells: the vCPU-weighted mean primary cost over the
  // per-application groups, leaving out the "hostN" and "fleet" groups
  // RunScenario appends.
  double AggregateCost() const;
};

ScenarioResult RunScenario(const ScenarioSpec& spec, const PolicySpec& policy,
                           const RunOptions& options = {});

}  // namespace aql

#endif  // AQLSCHED_SRC_EXPERIMENT_RUNNER_H_
