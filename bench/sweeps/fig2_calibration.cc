// Fig. 2 sweep: quantum-length calibration per application type.
//
// Panels (a)-(f): for each type's representative micro-benchmark, run the
// §3.4.1 rig (baseline VM + disturbers, 2 and 4 vCPUs per pCPU) under fixed
// quanta {1,10,30,60,90} ms and print performance normalized to the Xen
// default (30 ms). Values < 1 mean the quantum beats the default — the
// paper's "smaller is better" bars. Results are averaged over seeds.
//
// Rightmost plot: spin-lock contention cost vs quantum for the ConSpin rig
// at 4 vCPUs per pCPU (lock acquisition delay and hold duration grow with
// the quantum as holders/stragglers are descheduled for O(quantum)).

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/core/calibration.h"
#include "src/experiment/registry.h"
#include "src/metrics/table.h"

namespace aql {
namespace {

struct Panel {
  const char* label;
  const char* app;
};

constexpr Panel kPanels[] = {
    {"(a) Excl. IOInt", "pure_io"}, {"(b) Hetero. IOInt", "wordpress"},
    {"(c) ConSpin", "kernbench"},   {"(d) LLCF", "llcf_list"},
    {"(e) LoLCF", "lolcf_list"},    {"(f) LLCO", "llco_list"},
};

std::vector<uint64_t> Seeds(const SweepOptions& opts) {
  return opts.quick ? std::vector<uint64_t>{11} : std::vector<uint64_t>{11, 23, 47};
}

// Id schemes: cal/<app>/x<density>/q<ms>/s<seed> and lock/q<ms>/s<seed>.
// Ids are --cell/diff keys; keep them stable (docs/BENCH_FORMAT.md,
// "Cell-ID stability rules"). Quick mode drops all but the first seed, so
// quick and full runs are distinct cell sets (never compared together).
std::string PanelId(const std::string& app, int density, TimeNs q, uint64_t seed) {
  return "cal/" + app + "/x" + std::to_string(density) + "/q" +
         std::to_string(static_cast<int64_t>(ToMs(q))) + "/s" + std::to_string(seed);
}

// A lock quantum on the calibration grid reads panel (c)'s kernbench x4
// cell, which is the same run; the others get lock cells of their own.
bool OnCalibrationGrid(TimeNs q) {
  const std::vector<TimeNs>& grid = CalibrationQuantumGrid();
  return std::find(grid.begin(), grid.end(), q) != grid.end();
}

std::string LockId(TimeNs q, uint64_t seed) {
  if (OnCalibrationGrid(q)) {
    return PanelId("kernbench", 4, q, seed);
  }
  return "lock/q" + std::to_string(static_cast<int64_t>(ToMs(q))) + "/s" +
         std::to_string(seed);
}

// One run of the calibration rig under Xen with a fixed quantum `q`.
SweepCell RigCell(std::string id, const std::string& app, int density, TimeNs q,
                  uint64_t seed, const SweepOptions& opts) {
  SweepCell cell;
  cell.id = std::move(id);
  cell.scenario = CalibrationRig(app, density, seed);
  cell.scenario.warmup = opts.Warmup(cell.scenario.warmup);
  cell.scenario.measure = opts.Measure(Sec(10));
  cell.policy = PolicySpec::Xen(q);
  return cell;
}

std::vector<SweepCell> Build(const SweepOptions& opts) {
  std::vector<SweepCell> cells;
  for (const Panel& p : kPanels) {
    for (int density : {2, 4}) {
      for (TimeNs q : CalibrationQuantumGrid()) {
        for (uint64_t seed : Seeds(opts)) {
          cells.push_back(
              RigCell(PanelId(p.app, density, q, seed), p.app, density, q, seed, opts));
        }
      }
    }
  }
  for (TimeNs q : {Ms(20), Ms(40), Ms(60), Ms(80)}) {
    if (OnCalibrationGrid(q)) {
      continue;
    }
    for (uint64_t seed : Seeds(opts)) {
      cells.push_back(RigCell(LockId(q, seed), "kernbench", 4, q, seed, opts));
    }
  }
  return cells;
}

void Render(SweepContext& ctx) {
  const std::vector<uint64_t> seeds = Seeds(ctx.options());

  auto mean_primary = [&](const std::string& app, int density, TimeNs q) {
    double sum = 0;
    for (uint64_t seed : seeds) {
      sum += ctx.Primary(PanelId(app, density, q, seed), app);
    }
    return sum / static_cast<double>(seeds.size());
  };

  TextTable table({"panel", "app", "#vCPU/pCPU", "1ms", "10ms", "30ms", "60ms", "90ms"});
  for (const Panel& p : kPanels) {
    for (int density : {2, 4}) {
      const double base_cost = mean_primary(p.app, density, Ms(30));
      std::vector<std::string> row = {p.label, p.app, std::to_string(density)};
      for (TimeNs q : CalibrationQuantumGrid()) {
        if (q == Ms(30)) {
          row.push_back("1.00");
          continue;
        }
        row.push_back(TextTable::Num(mean_primary(p.app, density, q) / base_cost, 2));
      }
      table.AddRow(row);
    }
  }
  ctx.AddTable(
      "Fig. 2 (a)-(f): normalized performance vs quantum "
      "(1.00 = Xen default 30ms; smaller is better)",
      table);

  TextTable lock({"quantum", "acq. delay mean (us)", "hold mean (us)", "spin CPU (ms)",
                  "barrier wait (ms)"});
  for (TimeNs q : {Ms(20), Ms(40), Ms(60), Ms(80)}) {
    double wait = 0;
    double hold = 0;
    double spin = 0;
    double barrier = 0;
    for (uint64_t seed : seeds) {
      const GroupPerf& g = FindGroup(ctx.Result(LockId(q, seed)).groups, "kernbench");
      wait += g.Metric("lock_wait_mean_us");
      hold += g.Metric("lock_hold_mean_us");
      spin += g.Metric("spin_time_ms");
      barrier += g.Metric("barrier_wait_ms");
    }
    const double n = static_cast<double>(seeds.size());
    lock.AddRow({TextTable::Num(ToMs(q), 0) + "ms", TextTable::Num(wait / n, 1),
                 TextTable::Num(hold / n, 1), TextTable::Num(spin / n, 1),
                 TextTable::Num(barrier / n, 1)});
  }
  ctx.AddTable("Fig. 2 (rightmost): lock contention vs quantum (ConSpin, 4 vCPU/pCPU)",
               lock);

  // Headline effects (smaller is better): short quanta should help IOInt and
  // ConSpin at density 4, long quanta should help LLCF.
  ctx.Summary("pure_io_x4_norm_at_1ms",
              mean_primary("pure_io", 4, Ms(1)) / mean_primary("pure_io", 4, Ms(30)));
  ctx.Summary("kernbench_x4_norm_at_1ms",
              mean_primary("kernbench", 4, Ms(1)) / mean_primary("kernbench", 4, Ms(30)));
  ctx.Summary("llcf_list_x4_norm_at_90ms", mean_primary("llcf_list", 4, Ms(90)) /
                                               mean_primary("llcf_list", 4, Ms(30)));
}

SweepSpec Spec() {
  SweepSpec spec;
  spec.name = "fig2_calibration";
  spec.description = "Fig. 2: per-type quantum calibration sweeps + lock contention";
  spec.build = Build;
  spec.render = Render;
  return spec;
}

AQL_REGISTER_SWEEP(Spec);

}  // namespace
}  // namespace aql
