// Table 3 sweep: application type as detected by the online vTRS.
//
// Every catalog application runs in the validation rig (4 vCPUs per pCPU,
// §4.1) under AQL_Sched; the table prints the detected type next to the
// expected one, plus the window-averaged cursors that drove the decision.

#include <string>
#include <vector>

#include "src/core/cursors.h"
#include "src/experiment/registry.h"
#include "src/metrics/table.h"
#include "src/workload/catalog.h"

namespace aql {
namespace {

std::vector<SweepCell> Build(const SweepOptions& opts) {
  std::vector<SweepCell> cells;
  for (const AppProfile& app : Catalog()) {
    SweepCell cell;
    // Id scheme: rec/<app>. Ids are --cell/diff keys; keep them
    // stable (docs/BENCH_FORMAT.md, "Cell-ID stability rules").
    cell.id = "rec/" + app.name;
    cell.scenario = ValidationRig(app.name);
    cell.scenario.warmup = opts.Warmup(Sec(1));
    cell.scenario.measure = opts.Measure(Sec(5));
    cell.policy = PolicySpec::Aql();
    cell.trace_cursors = true;  // final window averages drive the table
    cells.push_back(std::move(cell));
  }
  return cells;
}

void Render(SweepContext& ctx) {
  TextTable table({"application", "suite", "expected", "detected", "IO", "ConSpin",
                   "LoLCF", "LLCF", "LLCO", "ok"});
  int correct = 0;
  int total = 0;
  for (const AppProfile& app : Catalog()) {
    const CellResult& cell = ctx.Cell("rec/" + app.name);
    const VcpuType detected = cell.result.detected_types.at(0);
    const CursorSet last_avg =
        cell.cursor_trace.empty() ? CursorSet{} : cell.cursor_trace.back();
    const bool ok = detected == app.expected_type;
    correct += ok ? 1 : 0;
    ++total;
    table.AddRow({app.name, app.suite, VcpuTypeName(app.expected_type),
                  VcpuTypeName(detected), TextTable::Num(last_avg.io, 0),
                  TextTable::Num(last_avg.conspin, 0), TextTable::Num(last_avg.lolcf, 0),
                  TextTable::Num(last_avg.llcf, 0), TextTable::Num(last_avg.llco, 0),
                  ok ? "yes" : "NO"});
  }
  ctx.AddTable("Table 3: application type recognition by the online vTRS", table);
  ctx.Print("recognition accuracy: " + std::to_string(correct) + "/" +
            std::to_string(total) + "\n");
  ctx.Summary("apps", total);
  ctx.Summary("recognized_correctly", correct);
}

SweepSpec Spec() {
  SweepSpec spec;
  spec.name = "table3_recognition";
  spec.description = "Table 3: online vTRS type recognition across the catalog";
  spec.build = Build;
  spec.render = Render;
  return spec;
}

AQL_REGISTER_SWEEP(Spec);

}  // namespace
}  // namespace aql
