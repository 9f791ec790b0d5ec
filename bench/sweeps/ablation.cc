// Ablation sweep: which modelled mechanism is responsible for which effect.
//
// Four load-bearing design choices are switched off in isolation, each
// reporting the headline metric it supports:
//
//  1. BOOST wake-up priority      -> pure-I/O latency under colocation
//  2. LLC recency protection      -> LLCF quantum sensitivity (1ms vs 90ms)
//  3. Thrash-resistant insertion  -> LLCF classification under streamers
//  4. FIFO vs unfair spin lock    -> ConSpin throughput stability
//
// This goes beyond the paper (which evaluates only the final system); it
// documents why the reproduction behaves the way it does.

#include <string>
#include <vector>

#include "src/experiment/registry.h"
#include "src/metrics/table.h"
#include "src/workload/catalog.h"

namespace aql {
namespace {

constexpr const char* kLlcfApps[] = {"astar", "bzip2", "gcc", "omnetpp", "xalancbmk"};
constexpr uint64_t kLockSeeds[] = {47, 11, 23};

// Id schemes: boost/<on|off>, recency/<prot|noprot>/q<ms>,
// insert/<dip|full>/<app>, lock/<fifo|unfair>/s<seed>. Ids are
// --cell/diff keys; keep them stable (docs/BENCH_FORMAT.md,
// "Cell-ID stability rules").
std::vector<SweepCell> Build(const SweepOptions& opts) {
  std::vector<SweepCell> cells;
  auto add = [&cells](SweepCell cell) { cells.push_back(std::move(cell)); };

  // 1. BOOST wake-up priority and pure-I/O latency.
  for (bool boost : {true, false}) {
    SweepCell cell;
    cell.id = std::string("boost/") + (boost ? "on" : "off");
    cell.scenario = CalibrationRig("pure_io", 4);
    cell.scenario.machine.credit.boost_enabled = boost;
    cell.scenario.warmup = opts.Warmup(cell.scenario.warmup);
    cell.scenario.measure = opts.Measure(Sec(8));
    cell.policy = PolicySpec::Xen();
    add(std::move(cell));
  }

  // 2. LLC recency protection: streamer-saturated socket, one LLCF victim
  // against 15 streaming vCPUs, at both quantum extremes.
  for (double weight : {0.15, 1.0}) {
    for (TimeNs q : {Ms(1), Ms(90)}) {
      SweepCell cell;
      cell.id = std::string("recency/") + (weight < 1.0 ? "prot" : "noprot") + "/q" +
                std::to_string(static_cast<int64_t>(ToMs(q)));
      cell.scenario.machine = SingleSocketMachine(4);
      cell.scenario.machine.hw.running_eviction_weight = weight;
      cell.scenario.name = "ablation2";
      cell.scenario.vms = {{"llcf_list", 1}, {"llco_list", 15}};
      cell.scenario.warmup = opts.Warmup(cell.scenario.warmup);
      cell.scenario.measure = opts.Measure(Sec(8));
      cell.policy = PolicySpec::Xen(q);
      add(std::move(cell));
    }
  }

  // 3. Thrash-resistant insertion and LLCF classification under streamers.
  for (double frac : {0.3, 1.0}) {
    for (const char* app : kLlcfApps) {
      SweepCell cell;
      cell.id = std::string("insert/") + (frac < 1.0 ? "dip" : "full") + "/" + app;
      cell.scenario = ValidationRig(app);
      cell.scenario.machine.hw.stream_insertion_fraction = frac;
      cell.scenario.warmup = opts.Warmup(cell.scenario.warmup);
      cell.scenario.measure = opts.Measure(Sec(4));
      cell.policy = PolicySpec::Aql();
      add(std::move(cell));
    }
  }

  // 4. FIFO ticket handoff convoys under consolidation. Whether a run falls
  // into the convoy regime is seed-sensitive (threads can self-synchronize
  // into a contention-free gang), so this ablation averages seed replicas.
  for (bool fifo : {false, true}) {
    for (int rep = 0; rep < opts.Repeats(static_cast<int>(std::size(kLockSeeds)));
         ++rep) {
      SweepCell cell;
      cell.id = std::string("lock/") + (fifo ? "fifo" : "unfair") + "/s" +
                std::to_string(kLockSeeds[rep]);
      cell.scenario = CalibrationRig("kernbench", 4, kLockSeeds[rep]);
      cell.scenario.vms.front().fifo_lock = fifo;
      cell.scenario.warmup = opts.Warmup(Sec(2));
      cell.scenario.measure = opts.Measure(Sec(10));
      cell.policy = PolicySpec::Xen();
      add(std::move(cell));
    }
  }

  return cells;
}

void Render(SweepContext& ctx) {
  TextTable boost({"configuration", "pure_io mean latency (us)"});
  for (bool enabled : {true, false}) {
    const std::string id = std::string("boost/") + (enabled ? "on" : "off");
    boost.AddRow({enabled ? "BOOST enabled (Xen default)" : "BOOST disabled",
                  TextTable::Num(ctx.Primary(id, "pure_io"), 1)});
  }
  ctx.AddTable("Ablation 1: BOOST and pure-I/O latency (30ms quantum, 4 vCPU/pCPU)",
               boost);
  ctx.Summary("boost_latency_ratio",
              ctx.Primary("boost/off", "pure_io") / ctx.Primary("boost/on", "pure_io"));

  TextTable recency({"configuration", "llcf slowdown @1ms", "@90ms", "ratio"});
  for (const char* mode : {"prot", "noprot"}) {
    const double at1 = ctx.Primary(std::string("recency/") + mode + "/q1", "llcf_list");
    const double at90 = ctx.Primary(std::string("recency/") + mode + "/q90", "llcf_list");
    recency.AddRow({std::string(mode) == "prot" ? "protected (default)"
                                                : "no recency protection",
                    TextTable::Num(at1, 2), TextTable::Num(at90, 2),
                    TextTable::Num(at1 / at90, 3)});
    ctx.Summary(std::string("recency_") + mode + "_quantum_ratio", at1 / at90);
  }
  ctx.AddTable(
      "Ablation 2: LLC recency protection and the LLCF quantum effect under\n"
      "streamer saturation (ratio > 1 = small quanta hurt LLCF, Fig. 2d)",
      recency);

  TextTable insertion({"configuration", "LLCF apps recognized (of 5)"});
  for (const char* mode : {"dip", "full"}) {
    int correct = 0;
    for (const char* app : kLlcfApps) {
      const ScenarioResult& r =
          ctx.Result(std::string("insert/") + mode + "/" + app);
      if (r.detected_types.at(0) == VcpuType::kLlcf) {
        ++correct;
      }
    }
    insertion.AddRow({std::string(mode) == "dip"
                          ? "thrash-resistant insertion (default)"
                          : "full insertion (pre-DIP cache)",
                      std::to_string(correct)});
    ctx.Summary(std::string("insertion_") + mode + "_llcf_recognized", correct);
  }
  ctx.AddTable(
      "Ablation 3: thrash-resistant insertion and LLCF classification under streamers",
      insertion);

  TextTable lock({"lock type", "cycle time (us)", "spin waste (ms)"});
  const int lock_reps =
      ctx.options().Repeats(static_cast<int>(std::size(kLockSeeds)));
  auto lock_mean = [&](const char* mode, const char* metric) {
    double sum = 0;
    for (int rep = 0; rep < lock_reps; ++rep) {
      const std::string id =
          std::string("lock/") + mode + "/s" + std::to_string(kLockSeeds[rep]);
      sum += FindGroup(ctx.Result(id).groups, "kernbench").Metric(metric);
    }
    return sum / lock_reps;
  };
  for (const char* mode : {"unfair", "fifo"}) {
    lock.AddRow({std::string(mode) == "fifo" ? "FIFO ticket handoff"
                                             : "unfair test-and-set (default)",
                 TextTable::Num(lock_mean(mode, "cycle_time_ns") / 1000.0, 1),
                 TextTable::Num(lock_mean(mode, "spin_time_ms"), 1)});
  }
  ctx.AddTable("Ablation 4: FIFO ticket handoff convoys under consolidation "
               "(30ms quantum)",
               lock);
  ctx.Summary("fifo_cycle_time_ratio", lock_mean("fifo", "cycle_time_ns") /
                                           lock_mean("unfair", "cycle_time_ns"));
}

SweepSpec Spec() {
  SweepSpec spec;
  spec.name = "ablation";
  spec.description = "Mechanism ablations: BOOST, LLC recency, DIP insertion, lock type";
  spec.build = Build;
  spec.render = Render;
  return spec;
}

AQL_REGISTER_SWEEP(Spec);

}  // namespace
}  // namespace aql
