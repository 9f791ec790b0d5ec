// §4.3 sweep: AQL_Sched's overhead.
//
// The controller's bookkeeping charge (recognition + clustering,
// O(max(#pCPUs, #vCPUs)) per decision) is *executed* — it occupies pCPU 0
// (Machine::ChargeControllerOverhead) — so a homogeneous workload that gains
// nothing from AQL pays a measurable end-to-end price. The sweep scales the
// per-element charge from zero (provably bit-identical to Xen, normalized
// perf exactly 1.0) through the default 50 ns to deliberately exaggerated
// values, and reports normalized performance (Xen cost / AQL cost: < 1.0
// means the charge costs throughput; the paper reports < 1% degradation at
// its real footprint).

#include <string>
#include <vector>

#include "src/experiment/registry.h"
#include "src/metrics/table.h"

namespace aql {
namespace {

// Per-element charge ladder. "aql" is the default configuration (the
// paper's measured bookkeeping footprint); "aql_pe0" disables the charge
// entirely and must reproduce Xen bit-for-bit; the _peXus variants
// exaggerate the charge so the occupancy cost is visible at table
// precision.
struct ChargeVariant {
  const char* tag;
  TimeNs per_element;
};
constexpr ChargeVariant kCharges[] = {
    {"aql", 50},
    {"aql_pe0", 0},
    {"aql_pe10us", 10 * kNsPerUs},
    {"aql_pe30us", 30 * kNsPerUs},
    {"aql_pe300us", 300 * kNsPerUs},
};

SweepCell ProbeCell(const SweepOptions& opts, const std::string& tag,
                    const PolicySpec& policy) {
  SweepCell cell;
  // Id scheme: probe/<policy-variant>. Ids are --cell/diff keys; keep
  // them stable (docs/BENCH_FORMAT.md, "Cell-ID stability rules").
  cell.id = "probe/" + tag;
  cell.scenario.machine = SingleSocketMachine(4);
  cell.scenario.name = "overhead_probe";
  // Homogeneous LoLCF workload: AQL can only add overhead here.
  cell.scenario.vms = {{"hmmer", 8}, {"gobmk", 8}};
  cell.scenario.warmup = opts.Warmup(cell.scenario.warmup);
  cell.scenario.measure = opts.Measure(Sec(10));
  cell.policy = policy;
  return cell;
}

std::vector<SweepCell> Build(const SweepOptions& opts) {
  std::vector<SweepCell> cells;
  cells.push_back(ProbeCell(opts, "xen", PolicySpec::Xen()));
  for (const ChargeVariant& v : kCharges) {
    PolicySpec policy = PolicySpec::Aql();
    policy.aql.per_element_overhead = v.per_element;
    cells.push_back(ProbeCell(opts, v.tag, policy));
  }
  return cells;
}

void Render(SweepContext& ctx) {
  const ScenarioResult& xen = ctx.Result("probe/xen");

  // Charge ladder: the executed bookkeeping cost vs end-to-end performance.
  // Normalized perf is Xen cost / AQL cost (1.0 = parity, < 1.0 = the
  // charge costs throughput); zero charge must report exactly 1.0.
  // Machine-wide normalized perf: total pure work done under the policy
  // over total work under Xen — the capacity view, where the executed
  // charge shows up almost exactly as its share of machine time.
  auto total_work = [](const ScenarioResult& r) {
    double w = 0;
    for (const GroupPerf& g : r.groups) {
      w += g.Metric("work_done_s") * g.vcpus;
    }
    return w;
  };
  const double xen_work = total_work(xen);

  TextTable table({"configuration", "charge/elem (ns)", "machine perf", "hmmer perf",
                   "gobmk perf", "bookkeeping %"});
  for (const ChargeVariant& v : kCharges) {
    const ScenarioResult& aql = ctx.Result(std::string("probe/") + v.tag);
    const double hmmer_cost =
        NormalizedPerf(FindGroup(aql.groups, "hmmer"), FindGroup(xen.groups, "hmmer"));
    const double gobmk_cost =
        NormalizedPerf(FindGroup(aql.groups, "gobmk"), FindGroup(xen.groups, "gobmk"));
    const double hmmer_perf = hmmer_cost > 0 ? 1.0 / hmmer_cost : 0.0;
    const double gobmk_perf = gobmk_cost > 0 ? 1.0 / gobmk_cost : 0.0;
    const double machine_perf = xen_work > 0 ? total_work(aql) / xen_work : 0.0;
    const double capacity = static_cast<double>(aql.measure_window) * 4;
    const double overhead_pct =
        100.0 * static_cast<double>(aql.controller_overhead) / capacity;
    table.AddRow({v.tag, TextTable::Num(static_cast<double>(v.per_element), 0),
                  TextTable::Num(machine_perf, 6), TextTable::Num(hmmer_perf, 6),
                  TextTable::Num(gobmk_perf, 6), TextTable::Num(overhead_pct, 5)});
    ctx.Summary(std::string("machine_normalized_perf_") + v.tag, machine_perf);
    ctx.Summary(std::string("normalized_perf_hmmer_") + v.tag, hmmer_perf);
    ctx.Summary(std::string("normalized_perf_gobmk_") + v.tag, gobmk_perf);
    ctx.Summary(std::string("overhead_pct_") + v.tag, overhead_pct);
    if (std::string(v.tag) == "aql") {
      // Legacy trajectory keys for the default configuration (cost ratio,
      // >= 1.0 once the charge executes).
      ctx.Summary("hmmer_normalized_under_aql", hmmer_cost);
      ctx.Summary("gobmk_normalized_under_aql", gobmk_cost);
      ctx.Summary("controller_overhead_pct", overhead_pct);
    }
  }
  ctx.AddTable(
      "Section 4.3: executed AQL_Sched overhead vs per-element charge "
      "(paper: < 1% degradation at the real footprint)",
      table);
}

SweepSpec Spec() {
  SweepSpec spec;
  spec.name = "overhead";
  spec.description = "§4.3: AQL overhead probe (executed bookkeeping charge ladder)";
  spec.build = Build;
  spec.render = Render;
  return spec;
}

AQL_REGISTER_SWEEP(Spec);

}  // namespace
}  // namespace aql
