// Trace-replay sweep: vTRS recognition and scheduler effectiveness on
// trace-driven cells (workload-source "trace" backend).
//
// Build writes five deterministic reference traces — one per recognizable
// single-socket type (IoInt, LoLCF, LLCF, LLCO, MemBw) — to bench_traces/
// and runs each in a validation-style rig: the trace VM's single stream on
// vCPU 0, colocated with the standard disturber rotation at 4 vCPUs per
// pCPU. Per type there are two cells, rec/<kind> under AQL_Sched (with
// cursor tracing, judged like table3x_recognition) and base/<kind> under
// native Xen for the effectiveness ratio.
//
// The traces are emitted by C++ here and, byte-identically, by the
// reference emitter scripts/trace_gen.py from the same parameter table —
// tests/trace_replay_test.cc compares the two, which keeps the normative
// spec in docs/TRACE_FORMAT.md honest. Replay consumes no RNG, so these
// cells are byte-identical across --jobs and --island-threads by
// construction.
//
// Id scheme: rec/<kind> + base/<kind>. Ids and the relative trace paths are
// --cell/diff keys; keep them stable (docs/BENCH_FORMAT.md).

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/cursors.h"
#include "src/experiment/registry.h"
#include "src/metrics/table.h"
#include "src/sim/check.h"
#include "src/workload/catalog.h"

namespace aql {
namespace {

// One reference trace kind. `refs_text` is the literal decimal spelling
// shared with scripts/trace_gen.py, so both emitters print identical bytes.
struct TraceKind {
  const char* kind;       // cell-id component
  VcpuType expected;      // what vTRS should detect for the trace vCPU
  const char* op;         // "io" or "compute"
  int ops;                // ops in the 1 s cycle
  int64_t period_ns;      // arrival spacing
  int64_t burst_ns;       // pure work per op
  int64_t wss_bytes;      // default_mem working set
  const char* refs_text;  // default_mem llc_refs_per_ns, literal text
};

// 1 s cycle, wrapped. The io stream serves 400 light requests/s (12 events
// per 30 ms monitoring period, well above the I/O cursor threshold, evenly
// spaced so the bursty cursor stays low). The compute streams pack 200 x
// 5 ms bursts back to back — always-runnable CPU work whose working set and
// reference rate select the LoLCF / LLCF / LLCO / MemBw cursor exactly like
// the catalog burners with the same profiles.
constexpr int64_t kWrapNs = 1000000000;
constexpr TraceKind kKinds[] = {
    {"io", VcpuType::kIoInt, "io", 400, 2500000, 150000, 65536, "0.00005"},
    {"lolcf", VcpuType::kLoLcf, "compute", 200, 5000000, 5000000, 235520, "0.00004"},
    {"llcf", VcpuType::kLlcf, "compute", 200, 5000000, 5000000, 3145728, "0.005"},
    {"llco", VcpuType::kLlco, "compute", 200, 5000000, 5000000, 16777216, "0.012"},
    {"membw", VcpuType::kMemBw, "compute", 200, 5000000, 5000000, 67108864, "0.05"},
};

std::string TracePath(const TraceKind& k) {
  return std::string("bench_traces/trace_") + k.kind + ".jsonl";
}

// Emits the trace document. Key order, spacing and number spelling must
// match scripts/trace_gen.py exactly (the round-trip test compares bytes).
std::string TraceText(const TraceKind& k) {
  std::ostringstream os;
  os << "{\"aql_trace\": 1, \"streams\": 1, \"wrap_ns\": " << kWrapNs
     << ", \"name\": \"trace_" << k.kind << "\", \"default_mem\": {\"wss_bytes\": "
     << k.wss_bytes << ", \"llc_refs_per_ns\": " << k.refs_text << "}}\n";
  for (int i = 0; i < k.ops; ++i) {
    os << "{\"stream\": 0, \"op\": \"" << k.op << "\", \"at\": " << i * k.period_ns
       << ", \"burst_ns\": " << k.burst_ns << "}\n";
  }
  return os.str();
}

// Writes the trace if absent or stale (idempotent: every expansion, --list
// included, sees identical bytes).
void EnsureTraceFile(const TraceKind& k) {
  const std::string path = TracePath(k);
  const std::string text = TraceText(k);
  {
    std::ifstream in(path, std::ios::binary);
    if (in.good()) {
      std::ostringstream existing;
      existing << in.rdbuf();
      if (existing.str() == text) {
        return;
      }
    }
  }
  std::filesystem::create_directories("bench_traces");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  AQL_CHECK(out.good());
}

// Disturber rotation of the calibration/validation rigs
// (src/experiment/scenarios.cc).
const char* DisturberApp(int i) {
  switch (i % 3) {
    case 0:
      return "llco_list";
    case 1:
      return "llcf_list2";
    default:
      return "lolcf_list";
  }
}

// Validation-style rig around the trace VM: its single stream on vCPU 0,
// disturbers filling the machine to 4 vCPUs per pCPU.
ScenarioSpec TraceRig(const TraceKind& k) {
  ScenarioSpec spec;
  const int pcpus = 4;
  spec.machine = SingleSocketMachine(pcpus);
  spec.name = std::string("trace/") + k.kind;
  spec.trace_path = TracePath(k);
  spec.vms.push_back(VmSpec{kTraceAppName, 1});
  for (int i = 0; i < pcpus * 4 - 1; ++i) {
    spec.vms.push_back(VmSpec{DisturberApp(i), 1});
  }
  return spec;
}

std::vector<SweepCell> Build(const SweepOptions& opts) {
  std::vector<SweepCell> cells;
  for (const TraceKind& k : kKinds) {
    EnsureTraceFile(k);
    SweepCell rec;
    rec.id = std::string("rec/") + k.kind;
    rec.scenario = TraceRig(k);
    rec.scenario.warmup = opts.Warmup(Sec(1));
    rec.scenario.measure = opts.Measure(Sec(5));
    rec.policy = PolicySpec::Aql();
    rec.trace_cursors = true;
    cells.push_back(rec);

    SweepCell base;
    base.id = std::string("base/") + k.kind;
    base.scenario = cells.back().scenario;
    base.policy = PolicySpec::Xen();
    cells.push_back(std::move(base));
  }
  return cells;
}

void Render(SweepContext& ctx) {
  TextTable table({"trace", "expected", "detected", "IO", "ConSpin", "LoLCF",
                   "LLCF", "LLCO", "MemBw", "Remote", "Bursty", "ok"});
  int correct = 0;
  int total = 0;
  for (const TraceKind& k : kKinds) {
    const CellResult& cell = ctx.Cell(std::string("rec/") + k.kind);
    const VcpuType detected = cell.result.detected_types.at(0);
    const CursorSet avg =
        cell.cursor_trace.empty() ? CursorSet{} : cell.cursor_trace.back();
    const bool ok = detected == k.expected;
    correct += ok ? 1 : 0;
    ++total;
    table.AddRow({std::string("trace_") + k.kind, VcpuTypeName(k.expected),
                  VcpuTypeName(detected), TextTable::Num(avg.io, 0),
                  TextTable::Num(avg.conspin, 0), TextTable::Num(avg.lolcf, 0),
                  TextTable::Num(avg.llcf, 0), TextTable::Num(avg.llco, 0),
                  TextTable::Num(avg.membw, 0), TextTable::Num(avg.remote, 0),
                  TextTable::Num(avg.bursty, 0), ok ? "yes" : "NO"});
  }
  ctx.AddTable("Trace replay: vTRS recognition of trace-driven vCPUs", table);
  ctx.Print("recognition accuracy: " + std::to_string(correct) + "/" +
            std::to_string(total) + "\n");
  ctx.Summary("kinds", total);
  ctx.Summary("recognized_correctly", correct);

  // Effectiveness on the replayed streams: AQL vs native Xen on the same
  // rig, primary cost = mean op latency (smaller is better).
  TextTable perf({"trace", "type", "Xen(30ms)", "AQL_Sched", "normalized"});
  for (const TraceKind& k : kKinds) {
    const std::string group = std::string("trace_") + k.kind;
    const double xen = ctx.Primary(std::string("base/") + k.kind, group);
    const double aql = ctx.Primary(std::string("rec/") + k.kind, group);
    const double ratio = xen > 0 ? aql / xen : 0.0;
    perf.AddRow({group, VcpuTypeName(k.expected), TextTable::Num(xen, 3),
                 TextTable::Num(aql, 3), TextTable::Num(ratio, 3)});
    ctx.Summary(std::string("normalized_") + k.kind, ratio);
  }
  ctx.AddTable(
      "Trace-replay effectiveness: AQL_Sched vs Xen(30ms), primary cost "
      "(normalized < 1 means AQL helps)",
      perf);
}

SweepSpec Spec() {
  SweepSpec spec;
  spec.name = "trace_replay";
  spec.description =
      "Trace-driven cells: vTRS recognition + effectiveness on replayed "
      "JSON-lines traces (docs/TRACE_FORMAT.md)";
  spec.build = Build;
  spec.render = Render;
  return spec;
}

AQL_REGISTER_SWEEP(Spec);

}  // namespace
}  // namespace aql
