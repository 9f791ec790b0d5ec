// Experiment runner: builds a Machine from a ScenarioSpec + PolicySpec,
// simulates warm-up and measurement windows, and collects grouped results.

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
  // Collects a wall-clock phase breakdown of the simulation (event-core /
  // llc / scheduler) into ScenarioResult::profile. Observational only: the
  // simulated results are bit-identical with or without it.
  bool profile = false;
  // Fleet scenarios only: worker threads advancing host islands between
  // epoch boundaries (FleetSpec::island_threads). Execution-only: the
  // result is byte-identical at every setting (tests/fleet_parallel_test.cc
  // proves it differentially); single-machine scenarios ignore it.
  int island_threads = 1;
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
  double wall_seconds = 0.0;
  // RunOptions::profile only: wall-clock phase breakdown of the simulation
  // ("sim_seconds", "event_core_seconds", "llc_seconds",
  // "scheduler_seconds"; fleet scenarios add "barrier_wait_seconds").
  // Nondeterministic timing data — emitted into cell JSON only alongside
  // the other wall-clock fields, never into the --stable-json byte stream.
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
};

ScenarioResult RunScenario(const ScenarioSpec& spec, const PolicySpec& policy,
                           const RunOptions& options = {});

}  // namespace aql

#endif  // AQLSCHED_SRC_EXPERIMENT_RUNNER_H_
