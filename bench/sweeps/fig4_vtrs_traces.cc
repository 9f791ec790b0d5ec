// Fig. 4 sweep: online vTRS in action — the five decision cursors (window
// averages) over 50 monitoring periods for five representative applications,
// one per type. The detected type is the highest curve.

#include <string>
#include <vector>

#include "src/core/cursors.h"
#include "src/experiment/registry.h"
#include "src/metrics/table.h"
#include "src/workload/catalog.h"

namespace aql {
namespace {

constexpr const char* kApps[] = {"SPECweb2009", "astar", "libquantum", "gobmk",
                                 "fluidanimate"};

std::vector<SweepCell> Build(const SweepOptions& opts) {
  std::vector<SweepCell> cells;
  for (const char* app : kApps) {
    SweepCell cell;
    // Id scheme: trace/<app>. Ids are --cell/diff keys; keep them
    // stable (docs/BENCH_FORMAT.md, "Cell-ID stability rules").
    cell.id = std::string("trace/") + app;
    cell.scenario = ValidationRig(app);
    cell.scenario.warmup = Ms(200);  // start tracing almost immediately
    cell.scenario.measure = opts.Measure(Sec(4));
    cell.policy = PolicySpec::Aql();
    cell.trace_cursors = true;
    cells.push_back(std::move(cell));
  }
  return cells;
}

void Render(SweepContext& ctx) {
  int correct = 0;
  for (const char* app : kApps) {
    const CellResult& cell = ctx.Cell(std::string("trace/") + app);
    const VcpuType detected = cell.result.detected_types.at(0);
    correct += detected == FindApp(app).expected_type ? 1 : 0;
    ctx.Note(std::string("detected/") + app, VcpuTypeName(detected));

    TextTable table({"period", "IOInt", "ConSpin", "LoLCF", "LLCF", "LLCO"});
    const std::vector<CursorSet>& trace = cell.cursor_trace;
    const size_t limit = trace.size() < 50 ? trace.size() : 50;
    for (size_t i = 0; i < limit; i += 5) {
      const CursorSet& c = trace[i];
      table.AddRow({std::to_string(i + 1), TextTable::Num(c.io, 0),
                    TextTable::Num(c.conspin, 0), TextTable::Num(c.lolcf, 0),
                    TextTable::Num(c.llcf, 0), TextTable::Num(c.llco, 0)});
    }
    ctx.AddTable(std::string("--- ") + app + " (detected: " + VcpuTypeName(detected) +
                     ") ---",
                 table);
  }
  ctx.Summary("apps_traced", static_cast<double>(std::size(kApps)));
  ctx.Summary("detected_correctly", correct);
}

SweepSpec Spec() {
  SweepSpec spec;
  spec.name = "fig4_vtrs_traces";
  spec.description = "Fig. 4: vTRS cursor traces for one application per type";
  spec.build = Build;
  spec.render = Render;
  return spec;
}

AQL_REGISTER_SWEEP(Spec);

}  // namespace
}  // namespace aql
