// The sweep engine behind aql_bench: a sweep is a named cross-product of
// scenarios x policies ("cells") plus a render step that turns the collected
// cell results into the paper's tables and summary metrics.
//
// Cells are independent simulations, so the engine executes them on one
// std::thread worker pool shared by every sweep a run selects (RunSweeps);
// it is the program's one parallelism lever.
// Determinism is preserved regardless of thread count: every cell's RNG
// stream is derived from the scenario's declared seed via Rng::DeriveSeed
// before any cell runs, each cell owns its Simulation, and results land in
// a pre-sized slot indexed by cell order. A run with --jobs 1 and --jobs N
// therefore produces identical metric values cell-for-cell
// (tests/sweep_test.cc asserts this).
//
// Every cell reports deterministic work counters (ScenarioResult::counters)
// in both JSON forms. Host-clock timing — each cell's wall_seconds and
// profile split, each sweep's total and render time — is always measured
// and appears only in timed JSON (docs/BENCH_FORMAT.md).

#ifndef AQLSCHED_SRC_EXPERIMENT_SWEEP_H_
#define AQLSCHED_SRC_EXPERIMENT_SWEEP_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cursors.h"
#include "src/experiment/json_out.h"
#include "src/experiment/runner.h"
#include "src/experiment/scenarios.h"
#include "src/metrics/table.h"

namespace aql {

struct SweepOptions {
  // Scaled-down simulated durations for CI smoke runs.
  bool quick = false;
  // Worker threads running cells (values < 1 mean "one"). RunSweeps starts
  // no more workers than there are cells and records the number it started
  // in each SweepResult::options.
  int jobs = 1;
  // Mixed into every cell's declared machine seed (Rng::DeriveSeed). The
  // same salt yields the same cell streams, so paired comparisons (policy A
  // vs B on one scenario seed) stay variance-reduced.
  uint64_t seed_salt = 0x51eedca11ULL;
  // Run a single cell by id (`--cell <id>`): the expansion is filtered to
  // that one cell and the render step is skipped (render addresses cells
  // across the whole sweep). It times one full-mode cell without paying
  // for its siblings; empty selects every cell.
  std::string only_cell;

  // Window scaling helpers used by sweep builders: full durations in normal
  // mode, ~10x shorter in quick mode with floors that keep the vTRS
  // monitoring/decision cadence (30 ms periods, decisions every 4) alive.
  TimeNs Warmup(TimeNs full) const;
  TimeNs Measure(TimeNs full) const;
  // Seed-replication count: quick mode collapses repeats to one.
  int Repeats(int full) const;
};

// One independent simulation: a scenario under a policy.
struct SweepCell {
  std::string id;  // unique within the sweep; stable across runs
  ScenarioSpec scenario;
  PolicySpec policy;
  // Collect vCPU 0's per-period cursor window averages (Fig. 4 / Table 3).
  bool trace_cursors = false;
};

struct CellResult {
  SweepCell cell;
  ScenarioResult result;
  std::vector<CursorSet> cursor_trace;
  // Non-empty when the cell's scenario build or run threw instead of
  // completing: the engine records the failure here (structured `error`
  // entry in JSON), finishes the remaining cells, and aql_bench exits
  // non-zero. A sweep with a failed cell is not rendered.
  std::string error;
};

// Render-time view over the finished cells plus output collection. Tables
// and summary metrics are deterministic and go into BENCH_<name>.json.
class SweepContext {
 public:
  SweepContext(const SweepOptions& options, std::vector<CellResult> cells);

  const SweepOptions& options() const { return options_; }
  const std::vector<CellResult>& cells() const { return cells_; }
  const CellResult& Cell(const std::string& id) const;  // aborts if missing
  const ScenarioResult& Result(const std::string& id) const;
  // Primary metric of `group` in cell `id` (paper's smaller-is-better cost).
  double Primary(const std::string& id, const std::string& group) const;

  // --- output collection (render step) ---
  void Print(const std::string& text);  // free-form human-readable output
  void AddTable(const std::string& title, const TextTable& table);
  void Summary(const std::string& key, double value);
  void Note(const std::string& key, const std::string& value);

  // Collected output, consumed by the engine.
  std::string text;
  std::vector<std::pair<std::string, TextTable>> tables;
  std::vector<std::pair<std::string, double>> summary;
  std::vector<std::pair<std::string, std::string>> notes;

  std::vector<CellResult> TakeCells() { return std::move(cells_); }

 private:
  const SweepOptions& options_;
  std::vector<CellResult> cells_;
};

struct SweepSpec {
  std::string name;         // CLI handle; JSON goes to BENCH_<name>.json
  std::string description;  // one-liner for --list
  // Expands the sweep into cells. Must be deterministic in `options`.
  std::function<std::vector<SweepCell>(const SweepOptions&)> build;
  // Produces tables/summary from the finished cells.
  std::function<void(SweepContext&)> render;
};

struct SweepResult {
  std::string name;
  std::string description;
  SweepOptions options;
  std::vector<CellResult> cells;
  // Render output (empty for a --cell run or a sweep with a failed cell).
  std::string text;
  std::vector<std::pair<std::string, TextTable>> tables;
  std::vector<std::pair<std::string, double>> summary;
  std::vector<std::pair<std::string, std::string>> notes;
  // Host time of the render step (0 when it was skipped).
  double render_seconds = 0.0;
  // The sweep's compute time: the sum of its cells' wall_seconds plus its
  // render time. Sweeps share one worker pool and overlap, so this is work,
  // not an interval of the run.
  double wall_seconds = 0.0;
  // Cells whose run threw (CellResult::error). Non-zero makes aql_bench
  // exit non-zero after finishing every remaining cell and sweep.
  size_t failed_cells = 0;
};

// Runs every sweep in `specs` on one pool of min(options.jobs, cells) worker
// threads. Every sweep is expanded (cells built, ids checked, seeds derived
// from the declared seed and options.seed_salt) before any cell runs, then
// the sweeps are ordered heaviest first by their most expensive cell (ties
// keep `specs` order), so the longest cells start first. Workers claim cells
// in that sweep order, then cell order. The calling thread renders each
// sweep as soon as its last cell lands and hands it to `emit`, once per
// sweep and in the same order, so a finished sweep waits in memory only for
// sweeps claimed before it. Claim order never reaches a result. A failed
// cell becomes an `error` entry and every other cell and sweep still runs.
void RunSweeps(const std::vector<const SweepSpec*>& specs, const SweepOptions& options,
               const std::function<void(SweepResult)>& emit);

// The one-sweep case of RunSweeps.
SweepResult RunSweep(const SweepSpec& spec, const SweepOptions& options);

// JSON document for a finished sweep. With `include_timing` false all
// wall-clock fields are omitted and the output is a pure function of the
// simulation results (byte-identical across runs and thread counts).
JsonValue SweepJson(const SweepResult& result, bool include_timing = true);

// Writes BENCH_<name>.json under `out_dir` (created if needed); returns the
// file path.
std::string WriteSweepJson(const SweepResult& result, const std::string& out_dir,
                           bool include_timing = true);

}  // namespace aql

#endif  // AQLSCHED_SRC_EXPERIMENT_SWEEP_H_
