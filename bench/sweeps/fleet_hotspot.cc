// Fleet hotspot sweep: cluster-policy ablation on a deliberately skewed
// placement.
//
// Half the hosts are loaded exclusively with LLC trashers (libquantum) and
// bandwidth streamers (stream_triad); the other half run only cache-
// sensitive work (bzip2, hmmer). The naive policy never rebalances, so the
// hot half stays a contention pit for the whole run; the mem-pressure and
// cache-aware policies must live-migrate their way out of the skew —
// paying the dirty-page transfer on both ends — and still end up with a
// lower aggregate cost. One extra cell stacks AQL per-host scheduling on
// the cache-aware placer (the full system of ROADMAP's north star).

#include <string>
#include <vector>

#include "src/experiment/registry.h"
#include "src/metrics/table.h"

namespace aql {
namespace {

// vCPU-weighted mean primary cost over the per-application fleet groups
// (host/fleet bookkeeping groups excluded).
double AggregateCost(const ScenarioResult& r) {
  double weighted = 0.0;
  double vcpus = 0.0;
  for (const GroupPerf& g : r.groups) {
    if (g.name == "fleet" || g.name.rfind("host", 0) == 0) {
      continue;
    }
    weighted += g.primary * g.vcpus;
    vcpus += g.vcpus;
  }
  return vcpus > 0 ? weighted / vcpus : 0.0;
}

const char* const kTags[] = {"naive", "mem_pressure", "cache_aware", "full_stack"};

std::vector<SweepCell> Build(const SweepOptions& opts) {
  const int hosts = opts.quick ? 8 : 32;
  const int heavy_hosts = hosts / 2;
  // The skewed layout: 4 trashers + 4 streamers per hot host, 4 LLCF +
  // 4 LoLCF per calm host — even population, maximally uneven pressure.
  std::vector<VmSpec> vms;
  std::vector<int> declared;
  for (int h = 0; h < heavy_hosts; ++h) {
    for (int i = 0; i < 4; ++i) {
      vms.push_back(VmSpec{"libquantum", 1});
      declared.push_back(h);
    }
    for (int i = 0; i < 4; ++i) {
      vms.push_back(VmSpec{"stream_triad", 1});
      declared.push_back(h);
    }
  }
  for (int h = heavy_hosts; h < hosts; ++h) {
    for (int i = 0; i < 4; ++i) {
      vms.push_back(VmSpec{"bzip2", 1});
      declared.push_back(h);
    }
    for (int i = 0; i < 4; ++i) {
      vms.push_back(VmSpec{"hmmer", 1});
      declared.push_back(h);
    }
  }

  std::vector<SweepCell> cells;
  auto add = [&](const std::string& tag, ClusterPolicy cluster,
                 const PolicySpec& host_policy) {
    SweepCell cell;
    // Id scheme: hotspot/<tag>. Ids are --cell/diff keys; keep them
    // stable (docs/BENCH_FORMAT.md, "Cell-ID stability rules").
    cell.id = "hotspot/" + tag;
    cell.scenario =
        FleetScenario("hotspot/" + std::to_string(hosts) + "h", hosts, vms, cluster);
    cell.scenario.warmup = opts.Warmup(Sec(1));
    cell.scenario.measure = opts.Measure(Sec(4));
    // Epoch + budget sized so the aware policies converge inside warm-up
    // (the skew needs ~hosts*2 moves; see tests/fleet_test.cc).
    cell.scenario.fleet.epoch = opts.quick ? Ms(50) : Ms(125);
    cell.scenario.fleet.max_migrations_per_epoch = opts.quick ? 4 : 8;
    cell.scenario.fleet.declared_hosts = declared;
    cell.policy = host_policy;
    cells.push_back(std::move(cell));
  };
  add("naive", ClusterPolicy::kNaive, PolicySpec::Xen());
  add("mem_pressure", ClusterPolicy::kMemPressure, PolicySpec::Xen());
  add("cache_aware", ClusterPolicy::kCacheAware, PolicySpec::Xen());
  add("full_stack", ClusterPolicy::kCacheAware, PolicySpec::Aql());
  return cells;
}

void Render(SweepContext& ctx) {
  TextTable table({"policy", "agg cost", "gain vs naive", "migrations",
                   "migration GiB", "fleet util"});
  const double naive_cost = AggregateCost(ctx.Result("hotspot/naive"));
  for (const char* tag : kTags) {
    const ScenarioResult& r = ctx.Result("hotspot/" + std::string(tag));
    const double cost = AggregateCost(r);
    const double gain = cost > 0 ? naive_cost / cost : 0.0;
    const GroupPerf& fleet = FindGroup(r.groups, "fleet");
    const double gib = fleet.Metric("migration_bytes") / (1024.0 * 1024.0 * 1024.0);
    table.AddRow({tag, TextTable::Num(cost, 3), TextTable::Num(gain, 3),
                  TextTable::Num(fleet.Metric("migrations"), 0), TextTable::Num(gib, 2),
                  TextTable::Num(r.cpu_utilization, 3)});
    ctx.Summary("hotspot_cost_" + std::string(tag), cost);
    ctx.Summary("hotspot_gain_" + std::string(tag), gain);
    ctx.Summary("hotspot_migrations_" + std::string(tag), fleet.Metric("migrations"));
  }
  ctx.AddTable(
      "Fleet hotspot: cluster-policy ablation on a skewed placement "
      "(gain > 1 means the policy beats leaving the skew in place)",
      table);
}

SweepSpec Spec() {
  SweepSpec spec;
  spec.name = "fleet_hotspot";
  spec.description =
      "Fleet: cluster-scheduler ablation (naive/mem-pressure/cache-aware) on a "
      "skewed placement";
  spec.build = Build;
  spec.render = Render;
  return spec;
}

AQL_REGISTER_SWEEP(Spec);

}  // namespace
}  // namespace aql
