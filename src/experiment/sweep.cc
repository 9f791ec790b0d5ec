#include "src/experiment/sweep.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "src/sim/check.h"
#include "src/sim/rng.h"
#include "src/workload/catalog.h"

namespace aql {

// Calibrated quick preset: quick mode takes its cost cut from the cheap
// levers first — seed repeats collapse to one (Repeats) before simulated
// windows shrink — and the window floors are calibrated for vTRS fidelity,
// not minimality. With a 30 ms monitoring period and decisions every 4
// periods, a 600 ms warm-up lets LLC-resident working sets warm through the
// early trasher contention and a 1.5 s measure window carries ~12 decisions,
// which stops quick mode from misreading LLCF applications as LLCO (the
// cold-cache miss ratio reads capacity-bound). See README "Fidelity &
// reproducibility caveats".
TimeNs SweepOptions::Warmup(TimeNs full) const {
  if (!quick) {
    return full;
  }
  const TimeNs scaled = full / 10;
  return scaled < Ms(600) ? Ms(600) : scaled;
}

TimeNs SweepOptions::Measure(TimeNs full) const {
  if (!quick) {
    return full;
  }
  const TimeNs scaled = full / 10;
  return scaled < Ms(1500) ? Ms(1500) : scaled;
}

int SweepOptions::Repeats(int full) const { return quick ? 1 : full; }

SweepContext::SweepContext(const SweepOptions& options, std::vector<CellResult> cells)
    : options_(options), cells_(std::move(cells)) {}

const CellResult& SweepContext::Cell(const std::string& id) const {
  for (const CellResult& c : cells_) {
    if (c.cell.id == id) {
      return c;
    }
  }
  AQL_CHECK_MSG(false, ("no such cell: " + id).c_str());
}

const ScenarioResult& SweepContext::Result(const std::string& id) const {
  return Cell(id).result;
}

double SweepContext::Primary(const std::string& id, const std::string& group) const {
  return Result(id).GroupPrimary(group);
}

void SweepContext::Print(const std::string& t) { text += t; }

void SweepContext::AddTable(const std::string& title, const TextTable& table) {
  text += title + "\n" + table.ToString() + "\n";
  tables.emplace_back(title, table);
}

void SweepContext::Summary(const std::string& key, double value) {
  summary.emplace_back(key, value);
}

void SweepContext::Note(const std::string& key, const std::string& value) {
  notes.emplace_back(key, value);
}

namespace {

// Runs `out->cell` in place. Cell-level validation throws a catchable
// error: a sweep whose build step emitted a bad scenario (e.g. an
// application name missing from the catalog) fails THIS cell — reported as
// a structured `error` entry while the remaining cells still run — instead
// of aborting the whole process the way the simulator's internal AQL_CHECK
// invariants do.
void RunCell(CellResult* out, const SweepOptions& sweep_options) {
  std::string error;
  try {
    for (const VmSpec& vm : out->cell.scenario.vms) {
      if (vm.app != kTraceAppName && !HasApp(vm.app)) {
        throw std::runtime_error("unknown application: " + vm.app);
      }
    }
    RunOptions options;
    options.island_threads = sweep_options.island_threads;
    if (out->cell.trace_cursors) {
      auto* trace = &out->cursor_trace;
      options.trace = [trace](TimeNs, int vcpu, const CursorSet&, const CursorSet& avg) {
        if (vcpu == 0) {
          trace->push_back(avg);
        }
      };
    }
    out->result = RunScenario(out->cell.scenario, out->cell.policy, options);
    return;
  } catch (const std::exception& e) {
    error = e.what();
  } catch (...) {
    error = "unknown exception";
  }
  out->cursor_trace.clear();
  out->error = std::move(error);
}

// Expands `spec` (deterministic in `options`), verifies cell-id uniqueness,
// derives each cell's seed from its declared seed + options.seed_salt, and
// applies the --cell filter. Seeds are derived before any cell runs, so a
// cell's stream never depends on worker scheduling.
std::vector<CellResult> ExpandCells(const SweepSpec& spec, const SweepOptions& options) {
  std::vector<SweepCell> cells = spec.build(options);
  AQL_CHECK_MSG(!cells.empty(), "sweep expanded to zero cells");
  std::set<std::string> ids;
  std::vector<CellResult> out;
  for (SweepCell& cell : cells) {
    AQL_CHECK_MSG(ids.insert(cell.id).second, ("duplicate cell id: " + cell.id).c_str());
    if (options.only_cell.empty() || cell.id == options.only_cell) {
      cell.scenario.machine.seed =
          Rng::DeriveSeed(cell.scenario.machine.seed, options.seed_salt);
      out.emplace_back().cell = std::move(cell);
    }
  }
  AQL_CHECK_MSG(!out.empty(), ("no such cell in sweep: " + options.only_cell).c_str());
  return out;
}

// A sweep the workers have reached and the calling thread has not emitted.
struct InFlight {
  const SweepSpec* spec = nullptr;
  std::vector<CellResult> cells;
  size_t claimed = 0;
  size_t finished = 0;
};

// Renders a finished sweep (skipped for a --cell run, which holds one cell,
// and for a sweep with a failed cell, whose renderer would read a missing
// result) and packs it into a SweepResult.
SweepResult Finish(InFlight& sweep, const SweepOptions& options) {
  SweepResult out;
  out.name = sweep.spec->name;
  out.description = sweep.spec->description;
  out.options = options;
  for (const CellResult& c : sweep.cells) {
    out.wall_seconds += c.result.wall_seconds;
    out.failed_cells += c.error.empty() ? 0 : 1;
  }
  SweepContext ctx(options, std::move(sweep.cells));
  if (out.failed_cells > 0) {
    ctx.Print("render skipped: " + std::to_string(out.failed_cells) +
              " cell(s) failed (see per-cell error entries)\n");
  } else if (options.only_cell.empty() && sweep.spec->render) {
    const auto render_start = std::chrono::steady_clock::now();
    sweep.spec->render(ctx);
    out.render_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - render_start)
            .count();
  }
  out.wall_seconds += out.render_seconds;
  out.cells = ctx.TakeCells();
  out.text = std::move(ctx.text);
  out.tables = std::move(ctx.tables);
  out.summary = std::move(ctx.summary);
  out.notes = std::move(ctx.notes);
  return out;
}

}  // namespace

void RunSweeps(const std::vector<const SweepSpec*>& specs, const SweepOptions& options,
               const std::function<void(SweepResult)>& emit) {
  std::mutex mu;
  std::condition_variable sweep_finished;
  std::deque<std::unique_ptr<InFlight>> in_flight;  // in `specs` order
  size_t next_spec = 0;

  auto worker = [&] {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      if (in_flight.empty() ||
          in_flight.back()->claimed == in_flight.back()->cells.size()) {
        if (next_spec == specs.size()) {
          return;
        }
        auto sweep = std::make_unique<InFlight>();
        sweep->spec = specs[next_spec++];
        sweep->cells = ExpandCells(*sweep->spec, options);
        in_flight.push_back(std::move(sweep));
        continue;
      }
      InFlight& sweep = *in_flight.back();
      CellResult& cell = sweep.cells[sweep.claimed++];
      lock.unlock();
      RunCell(&cell, options);
      lock.lock();
      if (++sweep.finished == sweep.cells.size()) {
        sweep_finished.notify_one();
      }
    }
  };
  std::vector<std::thread> workers;
  for (int t = 0; t < std::max(1, options.jobs); ++t) {
    workers.emplace_back(worker);
  }
  for (size_t s = 0; s < specs.size(); ++s) {
    std::unique_ptr<InFlight> sweep;
    {
      std::unique_lock<std::mutex> lock(mu);
      sweep_finished.wait(lock, [&in_flight] {
        return !in_flight.empty() &&
               in_flight.front()->finished == in_flight.front()->cells.size();
      });
      sweep = std::move(in_flight.front());
      in_flight.pop_front();
    }
    emit(Finish(*sweep, options));
  }
  for (std::thread& t : workers) {
    t.join();
  }
}

SweepResult RunSweep(const SweepSpec& spec, const SweepOptions& options) {
  SweepResult out;
  RunSweeps({&spec}, options, [&out](SweepResult r) { out = std::move(r); });
  return out;
}

namespace {

JsonValue ScenarioJson(const ScenarioSpec& spec) {
  JsonValue vms = JsonValue::Array();
  for (const VmSpec& vm : spec.vms) {
    JsonValue v = JsonValue::Object();
    v.Set("app", vm.app).Set("vcpus", vm.vcpus).Set("weight", vm.weight);
    if (vm.cap_percent > 0) {
      v.Set("cap_percent", vm.cap_percent);
    }
    if (vm.fifo_lock) {
      v.Set("fifo_lock", true);
    }
    vms.Push(std::move(v));
  }
  JsonValue s = JsonValue::Object();
  s.Set("name", spec.name)
      .Set("seed", spec.machine.seed)
      .Set("pcpus", spec.machine.topology.TotalPcpus())
      .Set("warmup_ms", ToMs(spec.warmup))
      .Set("measure_ms", ToMs(spec.measure))
      .Set("vms", std::move(vms));
  if (!spec.trace_path.empty()) {
    // Trace-driven scenarios only: absent otherwise so the JSON of existing
    // scenarios (and the committed goldens) stays byte-identical.
    s.Set("trace_path", spec.trace_path);
  }
  if (spec.fleet.hosts > 0) {
    // Fleet scenarios only: absent for single-machine scenarios so their
    // JSON (and the committed goldens) stays byte-identical. `pcpus` above
    // is the per-host count; the fleet block carries the host dimension.
    JsonValue fleet = JsonValue::Object();
    fleet.Set("hosts", spec.fleet.hosts)
        .Set("policy", ClusterPolicyName(spec.fleet.policy))
        .Set("epoch_ms", ToMs(spec.fleet.epoch))
        .Set("max_migrations_per_epoch", spec.fleet.max_migrations_per_epoch)
        .Set("dirty_pages_per_vcpu", spec.fleet.migration.dirty_pages_per_vcpu)
        .Set("page_bytes", spec.fleet.migration.page_bytes);
    if (spec.fleet.drain.Active()) {
      JsonValue drain_hosts = JsonValue::Array();
      for (const int h : spec.fleet.drain.hosts) {
        drain_hosts.Push(h);
      }
      JsonValue drain = JsonValue::Object();
      drain.Set("hosts", std::move(drain_hosts))
          .Set("start_ms", ToMs(spec.fleet.drain.start))
          .Set("interval_ms", ToMs(spec.fleet.drain.interval))
          .Set("batch_per_epoch", spec.fleet.drain.batch_per_epoch);
      fleet.Set("drain", std::move(drain));
    }
    if (!spec.fleet.declared_hosts.empty()) {
      JsonValue declared = JsonValue::Array();
      for (const int h : spec.fleet.declared_hosts) {
        declared.Push(h);
      }
      fleet.Set("declared_hosts", std::move(declared));
    }
    if (spec.fleet.fault.Active()) {
      // Fault-injecting fleets only: absent for fault-free fleets so their
      // JSON (and the committed goldens) stays byte-identical.
      const FleetFaultPlan& fp = spec.fleet.fault;
      JsonValue fault = JsonValue::Object();
      fault.Set("crash_rate_per_host_per_sec", fp.crash_rate_per_host_per_sec)
          .Set("host_reboot_ms", ToMs(fp.host_reboot))
          .Set("vm_restart_delay_ms", ToMs(fp.vm_restart_delay))
          .Set("restart_charge_per_vcpu_ms", ToMs(fp.restart_charge_per_vcpu))
          .Set("migration_failure_prob", fp.migration_failure_prob)
          .Set("abort_fraction", fp.abort_fraction)
          .Set("max_retries", fp.max_retries)
          .Set("backoff", fp.backoff)
          .Set("backoff_base_ms", ToMs(fp.backoff_base))
          .Set("degrade_rate_per_host_per_sec", fp.degrade_rate_per_host_per_sec)
          .Set("degraded_bw_scale", fp.degraded_bw_scale)
          .Set("degraded_pcpu_drop", fp.degraded_pcpu_drop);
      fleet.Set("fault", std::move(fault));
    }
    s.Set("fleet", std::move(fleet));
  }
  return s;
}

JsonValue GroupJson(const GroupPerf& g) {
  JsonValue metrics = JsonValue::Object();
  for (const auto& [k, v] : g.metrics) {
    metrics.Set(k, v);
  }
  JsonValue out = JsonValue::Object();
  out.Set("name", g.name)
      .Set("vcpus", g.vcpus)
      .Set("primary", g.primary)
      .Set("metrics", std::move(metrics));
  return out;
}

JsonValue CellJson(const CellResult& cell, bool include_timing) {
  if (!cell.error.empty()) {
    // Failed cell: identity plus the structured error, none of the measured
    // fields (there was no measurement).
    JsonValue out = JsonValue::Object();
    out.Set("id", cell.cell.id)
        .Set("scenario", ScenarioJson(cell.cell.scenario))
        .Set("policy", cell.cell.policy.Label())
        .Set("error", cell.error);
    return out;
  }
  const ScenarioResult& r = cell.result;
  JsonValue groups = JsonValue::Array();
  for (const GroupPerf& g : r.groups) {
    groups.Push(GroupJson(g));
  }
  JsonValue out = JsonValue::Object();
  out.Set("id", cell.cell.id)
      .Set("scenario", ScenarioJson(cell.cell.scenario))
      .Set("policy", cell.cell.policy.Label())
      .Set("measure_window_ms", ToMs(r.measure_window))
      .Set("cpu_utilization", r.cpu_utilization)
      .Set("controller_overhead_ms", ToMs(r.controller_overhead))
      .Set("events_processed", r.events_processed)
      .Set("groups", std::move(groups));
  if (!r.detected_types.empty()) {
    // std::map keys iterate sorted, so emission order is deterministic.
    JsonValue types = JsonValue::Object();
    for (const auto& [vcpu, type] : r.detected_types) {
      types.Set(std::to_string(vcpu), VcpuTypeName(type));
    }
    out.Set("detected_types", std::move(types));
  }
  if (!r.pools.empty()) {
    JsonValue pools = JsonValue::Array();
    for (const ScenarioResult::PoolInfo& p : r.pools) {
      JsonValue pj = JsonValue::Object();
      pj.Set("label", p.label)
          .Set("quantum_ms", ToMs(p.quantum))
          .Set("pcpus", static_cast<int64_t>(p.pcpus.size()))
          .Set("vcpus", static_cast<int64_t>(p.vcpus.size()));
      pools.Push(std::move(pj));
    }
    out.Set("pools", std::move(pools));
  }
  if (r.plan_applications > 0) {
    out.Set("plan_applications", r.plan_applications);
  }
  JsonValue counters = JsonValue::Object();
  counters.Set("compute_steps", r.counters.compute_steps)
      .Set("dispatches", r.counters.dispatches)
      .Set("llc_commits", r.counters.llc_commits)
      .Set("llc_evictions", r.counters.llc_evictions)
      .Set("membus_updates", r.counters.membus_updates)
      .Set("monitor_periods", r.counters.monitor_periods);
  if (cell.cell.scenario.fleet.hosts > 0) {
    counters.Set("fleet_epochs", r.fleet_epochs);
  }
  out.Set("counters", std::move(counters));
  if (include_timing) {
    // Host-clock data rides with the timing fields only (std::map keys
    // keep the profile's emission order deterministic).
    out.Set("wall_seconds", r.wall_seconds);
    JsonValue profile = JsonValue::Object();
    for (const auto& [k, v] : r.profile) {
      profile.Set(k, v);
    }
    out.Set("profile", std::move(profile));
  }
  return out;
}

JsonValue TableJson(const std::string& title, const TextTable& table) {
  JsonValue header = JsonValue::Array();
  for (const std::string& h : table.header()) {
    header.Push(h);
  }
  JsonValue rows = JsonValue::Array();
  for (const auto& row : table.row_data()) {
    JsonValue r = JsonValue::Array();
    for (const std::string& v : row) {
      r.Push(v);
    }
    rows.Push(std::move(r));
  }
  JsonValue out = JsonValue::Object();
  out.Set("title", title).Set("header", std::move(header)).Set("rows", std::move(rows));
  return out;
}

}  // namespace

JsonValue SweepJson(const SweepResult& result, bool include_timing) {
  JsonValue doc = JsonValue::Object();
  doc.Set("bench", result.name).Set("description", result.description);

  JsonValue opts = JsonValue::Object();
  opts.Set("quick", result.options.quick)
      .Set("seed_salt", result.options.seed_salt);
  if (include_timing) {
    // Thread counts never affect results; they are timing metadata. Both
    // levers ride here so a reader of the wall times knows the parallelism
    // that produced them.
    opts.Set("jobs", result.options.jobs);
    opts.Set("island_threads", result.options.island_threads);
  }
  doc.Set("options", std::move(opts));

  JsonValue summary = JsonValue::Object();
  for (const auto& [k, v] : result.summary) {
    summary.Set(k, v);
  }
  doc.Set("summary", std::move(summary));

  if (!result.notes.empty()) {
    JsonValue notes = JsonValue::Object();
    for (const auto& [k, v] : result.notes) {
      notes.Set(k, v);
    }
    doc.Set("notes", std::move(notes));
  }

  JsonValue tables = JsonValue::Array();
  for (const auto& [title, table] : result.tables) {
    tables.Push(TableJson(title, table));
  }
  doc.Set("tables", std::move(tables));

  JsonValue cells = JsonValue::Array();
  for (const CellResult& c : result.cells) {
    cells.Push(CellJson(c, include_timing));
  }
  doc.Set("cells", std::move(cells));

  // Present only when something failed: a clean document keeps its exact
  // historical shape (committed goldens byte-compare whole files).
  if (result.failed_cells > 0) {
    doc.Set("failed_cells", static_cast<int64_t>(result.failed_cells));
  }

  if (include_timing) {
    JsonValue timing = JsonValue::Object();
    timing.Set("total_wall_seconds", result.wall_seconds)
        .Set("render_seconds", result.render_seconds);
    doc.Set("timing", std::move(timing));
  }
  return doc;
}

std::string WriteSweepJson(const SweepResult& result, const std::string& out_dir,
                           bool include_timing) {
  std::filesystem::create_directories(out_dir);
  const std::string path = out_dir + "/BENCH_" + result.name + ".json";
  std::ofstream f(path);
  AQL_CHECK_MSG(f.good(), ("cannot write " + path).c_str());
  f << SweepJson(result, include_timing).Dump();
  f.close();
  AQL_CHECK_MSG(f.good(), ("failed writing " + path).c_str());
  return path;
}

}  // namespace aql
