// perfbench_harness: the repository benchmark (see README.md).
//
//   perfbench_harness --workload W --seed N --seconds S --trace 0|1
//                     --aql-bench PATH --goldens DIR --work DIR --baseline FILE
//
// Workloads, all batch runs in a closed loop (each cell or child starts
// when the previous one returns):
//   machine_cache     in-process RunScenario over cells whose LLC overflows
//   machine_dispatch  in-process RunScenario over single-socket mixes whose
//                     working sets fit the LLC
//   suite_quick       one `aql_bench --all --quick --jobs 2` child at a time
//
// --trace 0 times the workload end to end. --trace 1 is the separate traced
// run: cells rebuilt through the same public calls RunScenario makes, with
// every WorkloadModel and SchedController wrapped in forwarding decorators
// that record spans, plus fixed-input layer microbenchmarks and the exact
// counts. The last line of standard output is one JSON object:
//   {"correct": b, "attempted": n, "failed": n,
//    "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lib.h"
#include "src/baselines/microsliced.h"
#include "src/core/aql_controller.h"
#include "src/core/calibration.h"
#include "src/core/clustering.h"
#include "src/experiment/json_out.h"
#include "src/experiment/runner.h"
#include "src/experiment/scenarios.h"
#include "src/experiment/sweep.h"
#include "src/fleet/cluster_scheduler.h"
#include "src/hv/machine.h"
#include "src/hw/llc_model.h"
#include "src/sim/check.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/sim/simulation.h"
#include "src/workload/catalog.h"
#include "src/workload/source.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using aql::JsonValue;
using aql::PolicySpec;
using aql::ScenarioResult;
using aql::ScenarioSpec;

// The quick-mode windows of the sweeps: long enough for vTRS to classify
// (4-period windows of 30 ms) and for the pools to settle.
constexpr aql::TimeNs kWarmup = aql::Ms(600);
constexpr aql::TimeNs kMeasure = aql::Ms(1500);
// Set-up samples taken before every timed pass (machine workloads: passes
// over every cell; suite_quick: `--list` children), so that they see the
// same host conditions as the timed passes.
constexpr int kSetupPerPass = 5;
// Seed replicas of every scenario in a machine workload, so that one run's
// totals depend less on how its seed falls.
constexpr int kSeedReplicas = 4;
// The seed the exact-count baseline (baseline.json) was recorded at.
constexpr uint64_t kReferenceSeed = 1;
// One call in this many of each workload-model entry point is timed in the
// traced run. A clock read costs about a fifth of a simulated event, so
// timing every call would distort what it measures; a prime keeps the
// sample from locking onto periodic call patterns.
constexpr uint64_t kSampleEvery = 61;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string aql_bench;
  std::string goldens;
  std::string work;
  std::string baseline;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // sample count and provenance, printed in the table
};

struct Outcome {
  bool correct = true;
  OkCount ok;
  std::vector<Metric> metrics;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_harness: %s\n", message.c_str());
  std::exit(2);
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string Samples(size_t n, const char* what) {
  return std::to_string(n) + " " + what;
}

// " (min..max)" of a timing, for the printed table.
std::string Range(const std::vector<double>& v) {
  char text[64];
  std::snprintf(text, sizeof(text), " (%.4g..%.4g)",
                *std::min_element(v.begin(), v.end()),
                *std::max_element(v.begin(), v.end()));
  return text;
}

double g_sink = 0.0;  // keeps probe and microbenchmark results observable

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// --- speed probe ---------------------------------------------------------------

// The host's vCPUs share physical cores with other tenants' threads, and as
// those come and go the simulator runs up to 2x faster or slower, switching
// within seconds. A short throughput-bound integer loop speeds up and slows
// down with it, while latency-bound loops (a dependent multiply chain, a
// pointer chase) move by a few percent (README.md, Host facts). wall_s and
// setup_s therefore time this probe next to the work and report host
// seconds scaled to the reference speed, at which one probe takes
// kSpeedProbeReferenceS.
constexpr double kSpeedProbeReferenceS = 200e-6;

// Times one probe: four independent integer chains and an L1-resident table.
double SpeedProbe() {
  static uint32_t table[4096];
  const int64_t t0 = NowNs();
  uint64_t a = 1, b = 2, c = 3, d = 4;
  for (int i = 0; i < 40000; ++i) {
    a = a * 6364136223846793005ULL + 1442695040888963407ULL;
    b ^= b << 13;
    b ^= b >> 7;
    b ^= b << 17;
    c = c * 2862933555777941757ULL + (a >> 29);
    table[(b >> 20) & 4095] += static_cast<uint32_t>(c);
    d += (b & 3) != 0 ? table[(a >> 40) & 4095] : (c >> 7);
  }
  g_sink += static_cast<double>((a ^ b ^ c ^ d) & 1);
  return Seconds(NowNs() - t0);
}

// `seconds` of host time at the reference speed, given the probe time
// measured next to them.
double AtReferenceSpeed(double seconds, double probe_s) {
  return seconds * kSpeedProbeReferenceS / probe_s;
}

// --- cells -------------------------------------------------------------------

struct Cell {
  std::string id;
  ScenarioSpec spec;
  PolicySpec policy;
  // Cells sharing a key run one scenario and seed under different policies;
  // aql_gain pairs the Xen(30 ms) and AQL cells of each key.
  std::string key;
};

Cell MakeCell(const std::string& key, ScenarioSpec spec, const PolicySpec& policy) {
  spec.warmup = kWarmup;
  spec.measure = kMeasure;
  return Cell{key + "/" + policy.Label(), std::move(spec), policy, key};
}

bool MultiSocket(const ScenarioSpec& spec) { return spec.machine.topology.sockets > 1; }

// LLC-overflowing cells: the eviction walk and, on the multi-socket cells,
// the socket-island engine.
std::vector<Cell> MachineCacheCells(uint64_t seed) {
  std::vector<Cell> cells;
  uint64_t tag = 0;
  auto paired = [&](const std::string& key, const ScenarioSpec& spec) {
    cells.push_back(MakeCell(key, spec, PolicySpec::Xen()));
    cells.push_back(MakeCell(key, spec, PolicySpec::Aql()));
  };
  for (const char* app : {"mcf", "libquantum", "llco_list", "astar", "bzip2", "gcc",
                          "omnetpp", "xalancbmk"}) {
    paired(std::string("val/") + app,
           aql::ValidationRig(app, aql::Rng::DeriveSeed(seed, tag++)));
  }
  for (int s : {2, 3}) {
    paired("S" + std::to_string(s),
           aql::ColocationScenario(s, aql::Rng::DeriveSeed(seed, tag++)));
  }
  paired("four_socket", aql::FourSocketScenario(aql::Rng::DeriveSeed(seed, tag++)));
  for (const char* app : {"stream_triad", "membw_scan", "numa_stream", "numa_mcf"}) {
    cells.push_back(MakeCell(std::string("xval/") + app,
                             aql::ExtendedValidationRig(
                                 app, aql::Rng::DeriveSeed(seed, tag++)),
                             PolicySpec::Aql()));
  }
  return cells;
}

// Single-socket mixes of 16 vCPUs whose working sets sum to less than the
// LLC: the LLC never evicts and the i7 preset models no memory bus, so the
// dispatcher and the event queue carry the cost.
std::vector<Cell> MachineDispatchCells(uint64_t seed) {
  static const char* const kIo[] = {"pure_io", "SPECweb2009", "SPECmail2009",
                                    "wordpress"};
  static const char* const kSpin[] = {"kernbench", "blackscholes", "ferret"};
  static const char* const kLolcf[] = {"hmmer",     "sjeng",   "gobmk",
                                       "perlbench", "h264ref", "lolcf_list"};
  const PolicySpec policies[] = {PolicySpec::Xen(aql::Ms(30)),
                                 PolicySpec::Xen(aql::Ms(1)),
                                 PolicySpec::Microsliced(aql::Ms(1)), PolicySpec::Aql()};
  std::vector<Cell> cells;
  for (int m = 0; m < 3; ++m) {
    ScenarioSpec spec;
    spec.machine = aql::SingleSocketMachine(4, aql::Rng::DeriveSeed(seed, m));
    spec.name = std::string("dispatch/") + kSpin[m];
    for (const char* app : kIo) {
      spec.vms.push_back(aql::VmSpec{app, 1});
    }
    spec.vms.push_back(aql::VmSpec{kSpin[m], 4});
    for (int i = 0; i < 8; ++i) {
      spec.vms.push_back(aql::VmSpec{kLolcf[(m + i) % 6], 1});
    }
    uint64_t wss = 0;
    for (const aql::VmSpec& vm : spec.vms) {
      wss += aql::NominalOpFor(vm.app).mem.wss_bytes * static_cast<uint64_t>(vm.vcpus);
    }
    AQL_CHECK_MSG(wss < spec.machine.topology.llc_bytes,
                  "machine_dispatch mixes must fit the LLC");
    for (const PolicySpec& p : policies) {
      cells.push_back(MakeCell(spec.name, spec, p));
    }
  }
  return cells;
}

// Fixed probe cells every traced run includes: one single-socket and one
// multi-socket scenario under Xen, AQL and Microsliced. They carry the
// traced-run fidelity check, and the span metrics of a workload that has no
// cell of the kind (suite_quick runs its cells in a child).
std::vector<Cell> ProbeCells(uint64_t seed) {
  std::vector<Cell> cells;
  const ScenarioSpec specs[] = {
      aql::ColocationScenario(5, aql::Rng::DeriveSeed(seed, 1000)),
      aql::FourSocketScenario(aql::Rng::DeriveSeed(seed, 1001))};
  for (const ScenarioSpec& spec : specs) {
    for (const PolicySpec& p :
         {PolicySpec::Xen(), PolicySpec::Aql(), PolicySpec::Microsliced()}) {
      cells.push_back(MakeCell("probe/" + spec.name, spec, p));
    }
  }
  return cells;
}

// Fleet probe for the machine workloads' fleet metrics: the quick
// fleet_hotspot layout (8 hosts, the hot half loaded with trashers and
// streamers) under the mem-pressure placer, which migrates out of the skew.
Cell FleetProbe(uint64_t seed) {
  const int hosts = 8;
  std::vector<aql::VmSpec> vms;
  std::vector<int> declared;
  for (int h = 0; h < hosts; ++h) {
    const bool hot = h < hosts / 2;
    for (int i = 0; i < 8; ++i) {
      const char* app = hot ? (i < 4 ? "libquantum" : "stream_triad")
                            : (i < 4 ? "bzip2" : "hmmer");
      vms.push_back(aql::VmSpec{app, 1});
      declared.push_back(h);
    }
  }
  ScenarioSpec spec = aql::FleetScenario("probe/fleet_hotspot", hosts, vms,
                                         aql::ClusterPolicy::kMemPressure,
                                         aql::Rng::DeriveSeed(seed, 1002));
  spec.fleet.epoch = aql::Ms(50);
  spec.fleet.max_migrations_per_epoch = 4;
  spec.fleet.declared_hosts = declared;
  return MakeCell("probe/fleet_hotspot", spec, PolicySpec::Xen());
}

std::vector<Cell> WorkloadCells(const std::string& workload, uint64_t seed) {
  std::vector<Cell> cells;
  for (int r = 0; r < kSeedReplicas; ++r) {
    const uint64_t replica_seed = aql::Rng::DeriveSeed(seed, 10000 + r);
    for (Cell& c : workload == "machine_cache" ? MachineCacheCells(replica_seed)
                                               : MachineDispatchCells(replica_seed)) {
      c.id = "s" + std::to_string(r) + "/" + c.id;
      c.key = "s" + std::to_string(r) + "/" + c.key;
      cells.push_back(std::move(c));
    }
  }
  return cells;
}

ScenarioSpec EmptyWindow(ScenarioSpec spec) {
  spec.warmup = 0;
  spec.measure = 0;
  return spec;
}

struct Timed {
  ScenarioResult result;
  double seconds = 0.0;
};

Timed TimeRun(const Cell& c) {
  const int64_t t0 = NowNs();
  ScenarioResult r = aql::RunScenario(c.spec, c.policy);
  return Timed{std::move(r), Seconds(NowNs() - t0)};
}

// --- result-level metrics ------------------------------------------------------

// Inverse of the geometric mean over keys of WeightedNormalized, pairing the
// Xen(30 ms) and AQL cells of each key (the paper's Fig. 6; above 1 means
// AQL helps). Returns the pair count through `pairs`.
double AqlGain(const std::vector<Cell>& cells, const std::vector<ScenarioResult>& results,
               size_t* pairs) {
  const std::string xen = PolicySpec::Xen().Label();
  const std::string aql_label = PolicySpec::Aql().Label();
  std::map<std::string, std::pair<const ScenarioResult*, const ScenarioResult*>> by_key;
  for (size_t i = 0; i < cells.size(); ++i) {
    const std::string label = cells[i].policy.Label();
    if (label == xen) {
      by_key[cells[i].key].first = &results[i];
    } else if (label == aql_label) {
      by_key[cells[i].key].second = &results[i];
    }
  }
  double log_sum = 0.0;
  *pairs = 0;
  for (const auto& [key, pair] : by_key) {
    const double normalized = pair.first != nullptr && pair.second != nullptr
                                  ? WeightedNormalized(*pair.first, *pair.second)
                                  : 0.0;
    if (normalized > 0) {
      log_sum += std::log(normalized);
      ++*pairs;
    }
  }
  return *pairs > 0 ? std::exp(-log_sum / static_cast<double>(*pairs)) : 0.0;
}

// vCPUs of AQL cells whose final detected type equals the catalog's
// expected type (the paper's Table 3).
std::pair<uint64_t, uint64_t> Recognition(const std::vector<ScenarioResult>& results) {
  uint64_t correct = 0;
  uint64_t total = 0;
  for (const ScenarioResult& r : results) {
    for (const auto& [vcpu, type] : r.detected_types) {
      const std::string& app = r.reports[static_cast<size_t>(vcpu)].workload_name;
      correct += aql::FindApp(app).expected_type == type ? 1 : 0;
      ++total;
    }
  }
  return {correct, total};
}

uint64_t Dispatches(const ScenarioResult& r) {
  uint64_t n = 0;
  for (const aql::PerfReport& p : r.reports) {
    n += static_cast<uint64_t>(p.metrics.at("vcpu_dispatches"));
  }
  return n;
}

// Records a cell check; prints what failed.
void RecordCheck(OkCount* ok, const std::string& cell, const std::string& failure) {
  ok->Record(failure.empty());
  if (!failure.empty()) {
    std::printf("FAILED %s: %s\n", cell.c_str(), failure.c_str());
  }
}

// --- child processes -------------------------------------------------------------

struct ChildRun {
  int exit_code = -1;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double maxrss_mb = 0.0;
  std::vector<double> speed_probes;  // SpeedProbe times taken while the child ran
};

// Runs `argv` in `cwd` with its output sent to `log`, and reaps it with
// wait4 for its resource usage. The child's peak RSS can be no smaller than
// the harness's RSS at fork time, so children run before any simulation.
// With `speed_probe`, the harness times a SpeedProbe every 2 ms while it
// waits, which adds at most that much to the wall time of a child that runs
// for seconds.
ChildRun Spawn(const std::vector<std::string>& argv, const std::string& cwd,
               const std::string& log, bool speed_probe = false) {
  std::vector<char*> cargv;
  for (const std::string& a : argv) {
    cargv.push_back(const_cast<char*>(a.c_str()));
  }
  cargv.push_back(nullptr);
  const int log_fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (log_fd < 0) {
    Die("cannot open " + log);
  }
  ChildRun run;
  const int64_t t0 = NowNs();
  const pid_t pid = fork();
  if (pid < 0) {
    Die("fork failed");
  }
  if (pid == 0) {
    if (chdir(cwd.c_str()) != 0 || dup2(log_fd, 1) < 0 || dup2(log_fd, 2) < 0) {
      _exit(127);
    }
    execv(cargv[0], cargv.data());
    _exit(127);
  }
  close(log_fd);
  int status = 0;
  rusage ru{};
  for (;;) {
    const pid_t reaped = wait4(pid, &status, speed_probe ? WNOHANG : 0, &ru);
    if (reaped == pid) {
      break;
    }
    if (reaped < 0 && errno != EINTR) {
      Die("wait4 failed");
    }
    if (reaped == 0) {
      run.speed_probes.push_back(SpeedProbe());
      const timespec pause{0, 2000000};
      nanosleep(&pause, nullptr);
    }
  }
  run.wall_s = Seconds(NowNs() - t0);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  run.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  run.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return run;
}

// "" for a child that exited 0, else what failed, for RecordCheck.
std::string ExitFailure(const ChildRun& run, const std::string& log) {
  return run.exit_code == 0
             ? ""
             : "exit code " + std::to_string(run.exit_code) + " (see " + log + ")";
}

JsonValue LoadJson(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream text;
  text << f.rdbuf();
  return JsonValue::Parse(text.str());
}

double SummaryValue(const std::string& path, const std::string& key) {
  const JsonValue doc = LoadJson(path);
  const JsonValue* summary = doc.IsObject() ? doc.Find("summary") : nullptr;
  const JsonValue* v =
      summary != nullptr && summary->IsObject() ? summary->Find(key) : nullptr;
  return v != nullptr && v->IsNumber() ? v->AsDouble() : 0.0;
}

std::vector<std::string> SuiteArgs(const Args& a, const std::string& out, bool stable) {
  std::vector<std::string> argv = {a.aql_bench, "--all",  "--quick",
                                   "--jobs",    "2",      "--out", out};
  if (stable) {
    argv.push_back("--stable-json");
  }
  return argv;
}

// --- microbenchmarks -------------------------------------------------------------

struct Micro {
  double per_op = 0.0;  // median over batches
  uint64_t ops = 0;
};

// Times `batches` batches of `ops` calls of `op` and reports the median
// batch's time per call in `scale` units of a nanosecond.
template <typename F>
Micro TimeOps(int batches, uint64_t ops, double scale, F&& op) {
  std::vector<double> per_op;
  for (int b = 0; b < batches; ++b) {
    const int64_t t0 = NowNs();
    for (uint64_t i = 0; i < ops; ++i) {
      op();
    }
    per_op.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(ops) /
                     scale);
  }
  return Micro{Percentile(per_op, 0.5), static_cast<uint64_t>(batches) * ops};
}

constexpr int kBatches = 11;

uint64_t Lcg(uint64_t* state) {
  *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
  return *state >> 33;
}

// One op: two ScheduleAt, one Cancel and one RunNext on a queue holding
// 1024 events, so the depth stays fixed.
Micro QueueMicro() {
  aql::EventQueue q;
  const aql::EventQueue::Callback noop = [](aql::TimeNs) {};
  uint64_t state = 1;
  for (int i = 0; i < 1024; ++i) {
    q.ScheduleAt(1 + static_cast<aql::TimeNs>(Lcg(&state) % 1000000), noop);
  }
  return TimeOps(kBatches, 50000, 1.0, [&] {
    const aql::TimeNs now = q.Now();
    const aql::EventId id =
        q.ScheduleAt(now + 1 + static_cast<aql::TimeNs>(Lcg(&state) % 1000000), noop);
    q.ScheduleAt(now + 1 + static_cast<aql::TimeNs>(Lcg(&state) % 1000000), noop);
    q.Cancel(id);
    q.RunNext();
  });
}

// One op: RunNextIfBefore pops the earliest of 12 timer slots (one per pCPU
// of the multi-socket machine), whose callback re-arms it with ArmSlot.
Micro SlotMicro() {
  aql::EventQueue q;
  std::vector<aql::EventQueue::SlotId> slots(12);
  for (size_t p = 0; p < slots.size(); ++p) {
    slots[p] = q.RegisterSlot([&q, &slots, p](aql::TimeNs now) {
      q.ArmSlot(slots[p], now + 1000 + 37 * static_cast<aql::TimeNs>(p));
    });
    q.ArmSlot(slots[p], 1 + static_cast<aql::TimeNs>(p));
  }
  return TimeOps(kBatches, 100000, 1.0, [&] { q.RunNextIfBefore(aql::kTimeInfinite); });
}

constexpr uint64_t kMiB = 1024 * 1024;

// One op: CommitAccesses on a full 8 MiB socket shared by 16 residents of
// 4 MiB each, so every commit evicts the others.
Micro LlcEvictMicro() {
  aql::LlcModel llc(1, 8 * kMiB, aql::HwParams{});
  for (int round = 0; round < 64; ++round) {
    for (int v = 0; v < 16; ++v) {
      llc.CommitAccesses(0, v, 4 * kMiB, 2048);
    }
  }
  int v = 0;
  return TimeOps(kBatches, 20000, 1.0, [&] {
    llc.CommitAccesses(0, v, 4 * kMiB, 2048);
    v = (v + 1) % 16;
  });
}

// One op: CommitAccesses growing one of 16 residents of 256 KiB (4 MiB in
// all, never overflowing); every resident is dropped after it fills, so the
// commits keep growing.
Micro LlcFillMicro() {
  aql::LlcModel llc(1, 8 * kMiB, aql::HwParams{});
  uint64_t i = 0;
  return TimeOps(kBatches, 51200, 1.0, [&] {
    const int v = static_cast<int>(i % 16);
    if (i % 256 == 0) {
      for (int r = 0; r < 16; ++r) {
        llc.Remove(0, r);
      }
    }
    llc.CommitAccesses(0, v, 256 * 1024, 256);
    ++i;
  });
}

// One op: MissRatio of one of 16 warm residents (the memo-hit path).
Micro MissRatioMicro() {
  aql::LlcModel llc(1, 8 * kMiB, aql::HwParams{});
  for (int v = 0; v < 16; ++v) {
    llc.CommitAccesses(0, v, 256 * 1024, 4096);
  }
  int v = 0;
  double acc = 0.0;
  Micro m = TimeOps(kBatches, 200000, 1.0, [&] {
    acc += llc.MissRatio(0, v, 256 * 1024);
    v = (v + 1) % 16;
  });
  g_sink += acc;
  return m;
}

// One op: SetDemand on one of 4 pCPUs and the StallFactor of a new step.
Micro MemBusMicro() {
  aql::MemBus bus(1, 12.8);
  static const double kDemand[] = {0.5, 3.0, 6.5, 1.25, 9.0, 0.0, 4.0, 2.5};
  uint64_t i = 0;
  double acc = 0.0;
  Micro m = TimeOps(kBatches, 200000, 1.0, [&] {
    bus.SetDemand(0, static_cast<int>(i % 4), kDemand[(i / 4) % 8]);
    acc += bus.StallFactor(0, kDemand[i % 8]);
    ++i;
  });
  g_sink += acc;
  return m;
}

// One op: BuildTwoLevelPlan for the 48 vCPUs of the four-socket scenario
// (12 IOInt, 7 ConSpin, 17 LLCF, 12 LLCO in four VMs) on 3 sockets.
Micro PlanBuildMicro() {
  std::vector<aql::VcpuClass> classes;
  const std::pair<aql::VcpuType, int> mix[] = {{aql::VcpuType::kIoInt, 12},
                                               {aql::VcpuType::kConSpin, 7},
                                               {aql::VcpuType::kLlcf, 17},
                                               {aql::VcpuType::kLlco, 12}};
  for (int vm = 0; vm < 4; ++vm) {
    for (int i = 0; i < mix[vm].second; ++i) {
      aql::VcpuClass c;
      c.vcpu = static_cast<int>(classes.size());
      c.vm = vm;
      c.type = mix[vm].first;
      c.avg.io = c.type == aql::VcpuType::kIoInt ? 80 : 2;
      c.avg.conspin = c.type == aql::VcpuType::kConSpin ? 80 : 2;
      c.avg.llcf = c.type == aql::VcpuType::kLlcf ? 70 : 10;
      c.avg.llco = c.type == aql::VcpuType::kLlco ? 70 : 10;
      c.avg.lolcf = 100 - c.avg.llcf - c.avg.llco;
      classes.push_back(c);
    }
  }
  const aql::Topology topology = aql::MultiSocketMachine().topology;
  const aql::CalibrationTable calibration = aql::PaperCalibration();
  size_t pools = 0;
  Micro m = TimeOps(kBatches, 500, 1e3, [&] {
    pools += aql::BuildTwoLevelPlan(classes, topology, calibration).pools.size();
  });
  g_sink += static_cast<double>(pools);
  return m;
}

// One op: cache-aware ClusterScheduler::Place of one VM over 1024 hosts.
Micro PlaceMicro() {
  auto scheduler = aql::MakeClusterScheduler(aql::ClusterPolicy::kCacheAware);
  std::vector<aql::FleetHostView> hosts(1024);
  for (int h = 0; h < 1024; ++h) {
    aql::FleetHostView& v = hosts[static_cast<size_t>(h)];
    v.host = h;
    v.pcpus = 4;
    v.vcpus = (h * 7) % 16;
    v.trashers = (h * 3) % 4;
    v.mem_heavy_vcpus = h % 3;
    v.bus_demand = 0.5 * (h % 10);
    v.llc_occupancy = static_cast<uint64_t>(h % 8) * kMiB;
  }
  uint64_t i = 0;
  int64_t acc = 0;
  Micro m = TimeOps(kBatches, 2000, 1e3, [&] {
    aql::FleetVmView vm;
    vm.vm = static_cast<int>(i);
    vm.llc_trasher = i % 3 == 0;
    vm.mem_heavy = i % 4 == 0;
    acc += scheduler->Place(vm, hosts);
    ++i;
  });
  g_sink += static_cast<double>(acc);
  return m;
}

// Cost of one steady_clock read, the unit of tracing overhead. A timed
// call's span includes about one read, which the sampler takes off.
Micro ClockMicro() {
  uint64_t acc = 0;  // unsigned: a million readings overflow, and must wrap
  Micro m = TimeOps(kBatches, 100000, 1.0,
                    [&] { acc += static_cast<uint64_t>(NowNs()); });
  g_sink += static_cast<double>(acc & 1);
  return m;
}

Metric MicroMetric(const char* name, const char* unit, const Micro& m) {
  return Metric{name, m.per_op, unit,
                "median of " + std::to_string(kBatches) + " batches, " +
                    Samples(m.ops, "ops")};
}

void AddMicros(std::vector<Metric>* out) {
  struct Entry {
    const char* name;
    const char* unit;
    Micro (*run)();
  };
  const Entry entries[] = {
      {"sim.queue_ns", "ns", QueueMicro},        {"sim.slot_ns", "ns", SlotMicro},
      {"hw.llc_evict_ns", "ns", LlcEvictMicro},  {"hw.llc_fill_ns", "ns", LlcFillMicro},
      {"hw.miss_ratio_ns", "ns", MissRatioMicro}, {"hw.membus_ns", "ns", MemBusMicro},
      {"core.plan_build_us", "us", PlanBuildMicro}, {"fleet.place_us", "us", PlaceMicro},
  };
  for (const Entry& e : entries) {
    out->push_back(MicroMetric(e.name, e.unit, e.run()));
  }
}

// --- traced cells ----------------------------------------------------------------

// Times one call in kSampleEvery of each workload entry point as a span of
// weight kSampleEvery, less the cost of the clock read inside it.
class WorkloadSampler {
 public:
  WorkloadSampler(Tracer* tracer, int cell, int64_t clock_ns)
      : tracer_(tracer), cell_(cell), clock_ns_(clock_ns) {}

  template <typename F>
  void Call(int kind, const char* name, F&& f) {
    if (++calls_[kind] % kSampleEvery != 0) {
      f();
      return;
    }
    const int64_t t0 = NowNs();
    f();
    const int64_t t1 = NowNs();
    tracer_->Record(name, cell_, t0, std::max(t0, t1 - clock_ns_),
                    static_cast<double>(kSampleEvery));
  }

 private:
  Tracer* tracer_;
  int cell_;
  int64_t clock_ns_;
  uint64_t calls_[3] = {0, 0, 0};
};

// Forwards every call to the wrapped model.
class TracedWorkload final : public aql::WorkloadModel {
 public:
  TracedWorkload(std::unique_ptr<aql::WorkloadModel> inner, WorkloadSampler* sampler)
      : inner_(std::move(inner)), sampler_(sampler) {}

  void OnAttach(aql::WorkloadHost* host, int vcpu) override {
    WorkloadModel::OnAttach(host, vcpu);
    inner_->OnAttach(host, vcpu);
  }
  aql::Step NextStep(aql::TimeNs now) override {
    aql::Step step;
    sampler_->Call(0, "workload.NextStep", [&] { step = inner_->NextStep(now); });
    return step;
  }
  void OnStepEnd(aql::TimeNs now, const aql::Step& step, aql::TimeNs work_done,
                 bool completed) override {
    sampler_->Call(1, "workload.OnStepEnd",
                   [&] { inner_->OnStepEnd(now, step, work_done, completed); });
  }
  void OnTimer(aql::TimeNs now, int tag) override {
    sampler_->Call(2, "workload.OnTimer", [&] { inner_->OnTimer(now, tag); });
  }
  std::string Name() const override { return inner_->Name(); }
  aql::PerfReport Report(aql::TimeNs now) const override { return inner_->Report(now); }
  void ResetMetrics(aql::TimeNs now) override { inner_->ResetMetrics(now); }
  bool HasDurableState() const override { return inner_->HasDurableState(); }
  double SaveDurableState() const override { return inner_->SaveDurableState(); }
  void RestoreDurableState(double state) override { inner_->RestoreDurableState(state); }

 private:
  std::unique_ptr<aql::WorkloadModel> inner_;
  WorkloadSampler* sampler_;
};

// Forwards every call to the wrapped controller; every monitor period is a
// span.
class TracedController final : public aql::SchedController {
 public:
  TracedController(std::unique_ptr<aql::SchedController> inner, Tracer* tracer, int cell)
      : inner_(std::move(inner)), tracer_(tracer), cell_(cell) {}

  std::string Name() const override { return inner_->Name(); }
  void OnAttach(aql::Machine& machine) override { inner_->OnAttach(machine); }
  void OnMonitorPeriod(aql::Machine& machine, aql::TimeNs now) override {
    const int span = tracer_->Begin("controller.OnMonitorPeriod", cell_);
    inner_->OnMonitorPeriod(machine, now);
    tracer_->End(span);
  }

 private:
  std::unique_ptr<aql::SchedController> inner_;
  Tracer* tracer_;
  int cell_;
};

// The controllers of the policies the cells use, built as RunScenario
// builds them (native Xen has none).
std::unique_ptr<aql::SchedController> MakeController(const PolicySpec& policy) {
  switch (policy.kind) {
    case PolicySpec::Kind::kXen:
      return nullptr;
    case PolicySpec::Kind::kAql:
      return std::make_unique<aql::AqlController>(policy.aql);
    case PolicySpec::Kind::kMicrosliced:
      return std::make_unique<aql::MicroslicedController>(policy.small_quantum);
    default:
      Die("traced cells support Xen, AQL and Microsliced only");
  }
}

// Builds and runs one single-machine cell through the public calls
// RunScenario makes, with every model and the controller decorated. Spans:
// cell > setup | run (x2, warm-up and measurement) | reports, with
// controller and sampled workload spans nested where they occur.
ScenarioResult RunTraced(const Cell& c, Tracer* tracer, int cell, int64_t clock_ns) {
  const ScenarioSpec& spec = c.spec;
  const int cell_span = tracer->Begin("cell", cell);
  const int setup_span = tracer->Begin("setup", cell);
  aql::MachineConfig mc = spec.machine;
  if (c.policy.kind == PolicySpec::Kind::kXen) {
    mc.credit.default_quantum = c.policy.xen_quantum;
  }
  aql::Simulation sim(mc.seed);
  aql::Machine machine(sim, mc);
  WorkloadSampler sampler(tracer, cell, clock_ns);
  int vm_index = 0;
  for (const aql::VmSpec& vs : spec.vms) {
    aql::Vm* vm = machine.AddVm("vm" + std::to_string(vm_index++) + "_" + vs.app,
                                vs.weight, vs.cap_percent);
    aql::WorkloadSourceSpec source_spec;
    source_spec.app = vs.app;
    source_spec.vcpus = vs.vcpus;
    source_spec.options.fifo_lock = vs.fifo_lock;
    std::string error;
    auto source = aql::MakeWorkloadSource(source_spec, &error);
    AQL_CHECK_MSG(source != nullptr, error.c_str());
    for (auto& model : source->MakeModels()) {
      machine.AddVcpu(vm, std::make_unique<TracedWorkload>(std::move(model), &sampler));
    }
  }
  aql::AqlController* aql_controller = nullptr;
  if (auto inner = MakeController(c.policy)) {
    if (c.policy.kind == PolicySpec::Kind::kAql) {
      aql_controller = static_cast<aql::AqlController*>(inner.get());
    }
    machine.SetController(
        std::make_unique<TracedController>(std::move(inner), tracer, cell));
  }
  machine.Start();
  const aql::TimeNs t_warm = sim.Now() + spec.warmup;
  const aql::TimeNs t_end = t_warm + spec.measure;
  sim.At(t_warm, [](aql::TimeNs) {});
  sim.At(t_end, [](aql::TimeNs) {});
  tracer->End(setup_span);

  int run_span = tracer->Begin("run", cell);
  uint64_t events = sim.RunUntil(t_warm);
  tracer->End(run_span);
  machine.ResetAllMetrics();
  run_span = tracer->Begin("run", cell);
  events += sim.RunUntil(t_end);
  tracer->End(run_span);

  const int reports_span = tracer->Begin("reports", cell);
  ScenarioResult result;
  result.scenario = spec.name;
  result.policy = c.policy.Label();
  result.reports = machine.Reports();
  result.groups = aql::GroupReports(result.reports);
  result.measure_window = t_end - machine.measure_start();
  result.events_processed = events;
  result.controller_overhead = machine.controller_overhead();
  aql::TimeNs busy = 0;
  for (int p = 0; p < mc.topology.TotalPcpus(); ++p) {
    busy += machine.BusyTime(p);
  }
  const double capacity = static_cast<double>(result.measure_window) *
                          static_cast<double>(mc.topology.TotalPcpus());
  result.cpu_utilization = capacity > 0 ? static_cast<double>(busy) / capacity : 0.0;
  if (aql_controller != nullptr) {
    for (const aql::Vcpu* v : machine.vcpus()) {
      result.detected_types[v->id()] = aql_controller->TypeOf(v->id());
    }
    for (const aql::PoolSpec& p : aql_controller->current_plan().pools) {
      result.pools.push_back(
          ScenarioResult::PoolInfo{p.label, p.quantum, p.pcpus, p.vcpus});
    }
    result.plan_applications = aql_controller->plan_applications();
  }
  tracer->End(reports_span);
  tracer->End(cell_span);
  return result;
}

// One traced single-machine cell with its untraced references.
struct TracedCell {
  bool multi_socket = false;
  bool controlled = false;  // has a SchedController (not native Xen)
  bool probe = false;
  int tracer_cell = -1;
  double traced_s = 0.0;
  std::vector<double> untraced_s;  // one per repetition
  double untraced_cpu_s = 0.0;     // process CPU over the repetitions
  ScenarioResult result;
};

// Span totals of one cell, from the tracer's self-time arithmetic.
struct SpanTotals {
  double cell_ns = 0.0;
  double run_self_ns = 0.0;       // machine: RunUntil minus its children
  double controller_ns = 0.0;
  double controller_self_ns = 0.0;
  size_t controller_spans = 0;
  double workload_ns = 0.0;       // sampled spans scaled by their weight
  double workload_sampled_ns = 0.0;
  size_t workload_samples = 0;
};

std::vector<SpanTotals> Totals(const Tracer& tracer, size_t cells) {
  std::vector<SpanTotals> totals(cells);
  const std::vector<double> self = SelfNs(tracer.spans());
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    SpanTotals& t = totals[static_cast<size_t>(s.cell)];
    const double d = static_cast<double>(s.duration());
    const std::string name = s.name;
    if (name == "cell") {
      t.cell_ns += d;
    } else if (name == "run") {
      t.run_self_ns += self[i];
    } else if (name == "controller.OnMonitorPeriod") {
      t.controller_ns += d;
      t.controller_self_ns += self[i];
      ++t.controller_spans;
    } else if (name.rfind("workload.", 0) == 0) {
      t.workload_ns += s.weight * d;
      t.workload_sampled_ns += d;
      ++t.workload_samples;
    }
  }
  return totals;
}

// Runs the workload's own cells and then the probe cells traced and
// untraced (the untraced run `reps` times for own cells, once for probes),
// checking that every untraced run passes CheckCell and reproduces the
// traced result field for field. The tracer's cell ids follow that order.
std::vector<TracedCell> TraceCells(const std::vector<Cell>& own,
                                   const std::vector<Cell>& probes, int reps,
                                   int64_t clock_ns, Tracer* tracer, OkCount* ok) {
  const uint64_t failed_before = ok->failed;
  std::vector<TracedCell> out;
  for (const std::vector<Cell>* cells : {&own, &probes}) {
    for (const Cell& c : *cells) {
      TracedCell t;
      t.multi_socket = MultiSocket(c.spec);
      t.controlled = c.policy.kind != PolicySpec::Kind::kXen;
      t.probe = cells == &probes;
      t.tracer_cell = tracer->AddCell(c.id);
      const int64_t t0 = NowNs();
      t.result = RunTraced(c, tracer, t.tracer_cell, clock_ns);
      t.traced_s = Seconds(NowNs() - t0);
      for (int r = 0; r < (t.probe ? 1 : reps); ++r) {
        const double c0 = ProcessCpuSeconds();
        const Timed u = TimeRun(c);
        t.untraced_cpu_s += ProcessCpuSeconds() - c0;
        t.untraced_s.push_back(u.seconds);
        std::string failure = CheckCell(c.spec, u.result);
        const std::string diff = failure.empty() ? DiffResults(u.result, t.result) : "";
        if (!diff.empty()) {
          failure = "untraced run differs from the traced one in " + diff;
        }
        RecordCheck(ok, c.id, failure);
      }
      out.push_back(std::move(t));
    }
  }
  std::printf("fidelity: %zu traced cells against RunScenario, %llu check(s) failed\n",
              out.size(), static_cast<unsigned long long>(ok->failed - failed_before));
  return out;
}

// Exact counts of a workload's own cells that a speed-only change must leave
// identical. Only suite_quick has fleet cells; the machine workloads'
// migration count is 0.
struct ExactCounts {
  uint64_t events = 0;
  uint64_t dispatches = 0;
  uint64_t plan_applications = 0;
  uint64_t migrations = 0;
};

// Migrations and failed migrations in a fleet cell's "fleet" group.
std::pair<uint64_t, double> FleetMigrations(const ScenarioResult& r) {
  for (const aql::GroupPerf& g : r.groups) {
    if (g.name == "fleet") {
      const auto failures = g.metrics.find("migration_failures");
      return {static_cast<uint64_t>(std::llround(g.Metric("migrations"))),
              failures == g.metrics.end() ? 0.0 : failures->second};
    }
  }
  return {0, 0.0};
}

double MigrationSuccessFrac(uint64_t migrations, double failures) {
  const double m = static_cast<double>(migrations);
  return migrations > 0 ? m / (m + failures) : 0.0;
}

ExactCounts MachineCounts(const std::string& workload, uint64_t seed) {
  ExactCounts c;
  for (const Cell& cell : WorkloadCells(workload, seed)) {
    const ScenarioResult r = aql::RunScenario(cell.spec, cell.policy);
    c.events += r.events_processed;
    c.dispatches += Dispatches(r);
    c.plan_applications += r.plan_applications;
  }
  return c;
}

// Prints the exact counts at the reference seed next to baseline.json's and
// flags each change. A change is reported, not failed: a re-baseline moves
// these counts legitimately.
void ReportExactCounts(const Args& a, const ExactCounts& now) {
  const std::pair<const char*, uint64_t> counts[] = {
      {"sim.events", now.events},
      {"hv.dispatches", now.dispatches},
      {"core.plan_applications", now.plan_applications},
      {"fleet.migrations", now.migrations}};
  const JsonValue baseline = LoadJson(a.baseline);
  const JsonValue* recorded = baseline.IsObject() ? baseline.Find(a.workload) : nullptr;
  std::printf("exact counts at reference seed %llu (baseline %s):\n",
              static_cast<unsigned long long>(kReferenceSeed), a.baseline.c_str());
  std::string line = "  {";
  for (const auto& [name, value] : counts) {
    const JsonValue* base =
        recorded != nullptr && recorded->IsObject() ? recorded->Find(name) : nullptr;
    if (base == nullptr || !base->IsNumber()) {
      std::printf("  %-24s %llu  (no baseline)\n", name,
                  static_cast<unsigned long long>(value));
    } else if (base->AsUint() == value) {
      std::printf("  %-24s %llu  unchanged\n", name,
                  static_cast<unsigned long long>(value));
    } else {
      std::printf("  %-24s %llu  CHANGED from %llu\n", name,
                  static_cast<unsigned long long>(value),
                  static_cast<unsigned long long>(base->AsUint()));
    }
    line += std::string(line.size() > 3 ? ", " : "") + "\"" + name +
            "\": " + std::to_string(value);
  }
  std::printf("%s}\n", line.c_str());
}

// Per-layer metrics from the spans and untraced references of `cells`:
// each metric is taken over the workload's own cells that have the
// property it needs, or over the probe cells when none has it.
void AddSpanMetrics(const std::vector<TracedCell>& cells, const Tracer& tracer,
                    std::vector<Metric>* out) {
  const std::vector<SpanTotals> totals = Totals(tracer, cells.size());
  auto pick = [&](const std::function<bool(const TracedCell&)>& has) {
    std::vector<size_t> own;
    std::vector<size_t> probes;
    for (size_t i = 0; i < cells.size(); ++i) {
      if (has(cells[i])) {
        (cells[i].probe ? probes : own).push_back(i);
      }
    }
    return own.empty() ? probes : own;
  };
  auto from = [&](const std::vector<size_t>& idx) {
    return idx.empty() || cells[idx.front()].probe ? " (probe cells)" : "";
  };

  for (const bool multi : {false, true}) {
    const auto idx =
        pick([multi](const TracedCell& t) { return t.multi_socket == multi; });
    double seconds = 0.0;
    double events = 0.0;
    size_t samples = 0;
    for (size_t i : idx) {
      for (double s : cells[i].untraced_s) {
        seconds += s;
        events += static_cast<double>(cells[i].result.events_processed);
        ++samples;
      }
    }
    out->push_back(Metric{multi ? "sim.ns_per_event.multi" : "sim.ns_per_event.single",
                          events > 0 ? seconds * 1e9 / events : 0.0, "ns/event",
                          Samples(samples, "cell runs") + from(idx)});
  }

  const auto all = pick([](const TracedCell&) { return true; });
  double cell_ns = 0.0;
  double run_self = 0.0;
  double workload_ns = 0.0;
  double workload_sampled = 0.0;
  size_t workload_samples = 0;
  for (size_t i : all) {
    const SpanTotals& t = totals[static_cast<size_t>(cells[i].tracer_cell)];
    cell_ns += t.cell_ns;
    run_self += t.run_self_ns;
    workload_ns += t.workload_ns;
    workload_sampled += t.workload_sampled_ns;
    workload_samples += t.workload_samples;
  }
  out->push_back(Metric{"hv.machine_self_frac", cell_ns > 0 ? run_self / cell_ns : 0.0,
                        "frac", Samples(all.size(), "traced cells") + from(all)});
  const double step_ns = workload_samples > 0
                             ? workload_sampled / static_cast<double>(workload_samples)
                             : 0.0;
  out->push_back(Metric{"workload.step_ns", step_ns, "ns",
                        Samples(workload_samples, "sampled calls") + from(all)});
  out->push_back(Metric{"workload.self_frac", cell_ns > 0 ? workload_ns / cell_ns : 0.0,
                        "frac", Samples(workload_samples, "sampled calls") + from(all)});

  const auto ctl = pick([](const TracedCell& t) { return t.controlled; });
  double ctl_cell_ns = 0.0;
  double ctl_ns = 0.0;
  double ctl_self = 0.0;
  size_t ctl_spans = 0;
  for (size_t i : ctl) {
    const SpanTotals& t = totals[static_cast<size_t>(cells[i].tracer_cell)];
    ctl_cell_ns += t.cell_ns;
    ctl_ns += t.controller_ns;
    ctl_self += t.controller_self_ns;
    ctl_spans += t.controller_spans;
  }
  out->push_back(Metric{"core.monitor_us",
                        ctl_spans > 0
                            ? ctl_ns / 1e3 / static_cast<double>(ctl_spans)
                            : 0.0,
                        "us", Samples(ctl_spans, "monitor periods") + from(ctl)});
  out->push_back(Metric{"core.self_frac", ctl_cell_ns > 0 ? ctl_self / ctl_cell_ns : 0.0,
                        "frac", Samples(ctl.size(), "controlled cells") + from(ctl)});

  double traced = 0.0;
  double untraced = 0.0;
  double own_traced = 0.0;
  for (const TracedCell& t : cells) {
    traced += t.traced_s;
    untraced += t.untraced_s.front();
    own_traced += t.probe ? 0.0 : t.traced_s;
  }
  std::printf("tracing overhead: %zu cells, %.3f s traced, %.3f s untraced (%+.1f%%)\n",
              cells.size(), traced, untraced, 100.0 * (traced / untraced - 1.0));
  out->push_back(Metric{"trace.overhead_frac",
                        untraced > 0 ? traced / untraced - 1.0 : 0.0,
                        "frac", Samples(cells.size(), "cells, traced over untraced")});
  if (own_traced > 0) {
    out->push_back(Metric{"trace.wall_s", own_traced, "s", "traced workload cells"});
  }
}

// Writes the Chrome trace and prints where it went.
void WriteTrace(const Args& a, const Tracer& tracer) {
  const std::string path =
      a.work + "/trace_" + a.workload + "_seed" + std::to_string(a.seed) + ".json";
  std::ofstream f(path);
  f << tracer.ChromeJson();
  std::printf("trace: %zu spans written to %s\n", tracer.spans().size(), path.c_str());
}

// --- machine workloads -------------------------------------------------------------

Outcome MachineUntraced(const Args& a) {
  const std::vector<Cell> cells = WorkloadCells(a.workload, a.seed);
  Outcome out;

  // Untimed first pass: the reference results every later pass must repeat.
  std::vector<ScenarioResult> first;
  uint64_t events = 0;
  for (const Cell& c : cells) {
    first.push_back(aql::RunScenario(c.spec, c.policy));
    RecordCheck(&out.ok, c.id, CheckCell(c.spec, first.back()));
    events += first.back().events_processed;
  }

  // Set-up passes and timed passes at the reference speed, and the timed
  // passes in host seconds.
  std::vector<double> setup;
  std::vector<double> passes;
  std::vector<double> host_passes;
  const int64_t deadline = NowNs() + static_cast<int64_t>(a.seconds * 1e9);
  do {
    for (int p = 0; p < kSetupPerPass; ++p) {
      const double probe = SpeedProbe();
      const int64_t t0 = NowNs();
      for (const Cell& c : cells) {
        aql::RunScenario(EmptyWindow(c.spec), c.policy);
      }
      const double seconds = Seconds(NowNs() - t0);
      setup.push_back(AtReferenceSpeed(seconds, (probe + SpeedProbe()) / 2));
    }
    // A speed probe before every cell: a pass lasts long enough for the
    // host's speed to change within it.
    std::vector<ScenarioResult> results;
    double pass = 0.0;
    double host_pass = 0.0;
    for (const Cell& c : cells) {
      const double probe = SpeedProbe();
      Timed t = TimeRun(c);
      results.push_back(std::move(t.result));
      pass += AtReferenceSpeed(t.seconds, probe);
      host_pass += t.seconds;
    }
    passes.push_back(pass);
    host_passes.push_back(host_pass);
    for (size_t i = 0; i < cells.size(); ++i) {
      const std::string diff = DiffResults(first[i], results[i]);
      RecordCheck(&out.ok, cells[i].id, diff.empty() ? "" : "repeat differs in " + diff);
    }
  } while (NowNs() < deadline);

  size_t pairs = 0;
  const double gain = AqlGain(cells, first, &pairs);
  const auto [correct, vcpus] = Recognition(first);
  out.metrics = {
      {"wall_s", Percentile(passes, 0.5), "s",
       "median of " + Samples(passes.size(), "passes") + Range(passes) + " over " +
           Samples(cells.size(), "cells") + ", " + Samples(events, "events") +
           "; host seconds " + std::to_string(Percentile(host_passes, 0.5)) +
           Range(host_passes)},
      {"setup_s", Percentile(setup, 0.5), "s",
       "median of " + Samples(setup.size(), "set-up passes") + Range(setup)},
      {"peak_rss_mb", PeakRssMb(), "MB", "getrusage"},
      {"ok_frac", out.ok.Frac(), "frac", Samples(out.ok.attempted, "cell runs")},
      {"recognition_acc",
       vcpus > 0 ? static_cast<double>(correct) / static_cast<double>(vcpus) : 0.0,
       "frac", std::to_string(correct) + " of " + Samples(vcpus, "AQL-cell vCPUs")},
      {"aql_gain", gain, "ratio", "geometric mean of " + Samples(pairs, "Xen/AQL pairs")},
  };
  out.correct = out.ok.failed == 0 && vcpus > 0 && pairs > 0;
  return out;
}

Outcome MachineTraced(const Args& a) {
  const std::vector<Cell> cells = WorkloadCells(a.workload, a.seed);
  Outcome out;
  const Micro clock = ClockMicro();
  // Enough untraced repetitions for a p90 with ten samples beyond it.
  const int reps = static_cast<int>((100 + cells.size() - 1) / cells.size());
  Tracer tracer;
  const std::vector<TracedCell> results = TraceCells(
      cells, ProbeCells(a.seed), reps, std::llround(clock.per_op), &tracer, &out.ok);

  std::vector<double> cell_ms;
  double cpu_s = 0.0;
  double wall_s = 0.0;
  std::vector<ScenarioResult> own;
  ExactCounts counts;
  for (const TracedCell& t : results) {
    if (t.probe) {
      continue;
    }
    for (double s : t.untraced_s) {
      cell_ms.push_back(s * 1e3);
      wall_s += s;
    }
    cpu_s += t.untraced_cpu_s;
    own.push_back(t.result);
    counts.events += t.result.events_processed;
    counts.dispatches += Dispatches(t.result);
    counts.plan_applications += t.result.plan_applications;
  }

  std::vector<double> setup_us;
  for (int p = 0; p < 10; ++p) {
    for (const Cell& c : cells) {
      const int64_t t0 = NowNs();
      aql::RunScenario(EmptyWindow(c.spec), c.policy);
      setup_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
  }

  // The machine workloads have no fleet cell, no sweep pool and no render,
  // but every traced run reports every per-layer metric. Those metrics come
  // from probes and say so in their notes. The fleet probe runs three
  // times: a median and a determinism check.
  const Cell fleet = FleetProbe(a.seed);
  std::vector<double> fleet_s;
  ScenarioResult fleet_first;
  for (int r = 0; r < 3; ++r) {
    Timed t = TimeRun(fleet);
    fleet_s.push_back(t.seconds);
    if (r == 0) {
      fleet_first = std::move(t.result);
    } else {
      const std::string diff = DiffResults(fleet_first, t.result);
      RecordCheck(&out.ok, fleet.id, diff.empty() ? "" : "repeat differs in " + diff);
    }
  }
  const auto [migrations, migration_failures] = FleetMigrations(fleet_first);

  // The render probe: the workload's traced cells written as a BENCH JSON
  // document.
  aql::SweepResult sweep;
  sweep.name = "perfbench_" + a.workload;
  sweep.description = "perfbench traced cells";
  for (size_t i = 0; i < cells.size(); ++i) {
    aql::CellResult cr;
    cr.cell.id = cells[i].id;
    cr.cell.scenario = cells[i].spec;
    cr.cell.policy = cells[i].policy;
    cr.result = own[i];
    sweep.cells.push_back(std::move(cr));
  }
  const int64_t r0 = NowNs();
  const std::string json_path = aql::WriteSweepJson(sweep, a.work);
  const double render_s = Seconds(NowNs() - r0);

  const Distribution d = Summarize(cell_ms);
  const std::string cell_note = Samples(d.samples, "untraced cell runs") +
                                (d.p90_supported() ? "" : ", fewer than 10 beyond p90");
  out.metrics = {
      {"experiment.cell_ms_p50", d.p50, "ms", cell_note},
      {"experiment.cell_ms_p90", d.p90, "ms", cell_note},
      {"experiment.setup_us_per_cell", Percentile(setup_us, 0.5), "us",
       Samples(setup_us.size(), "empty-window cells")},
      {"experiment.pool_busy_frac", wall_s > 0 ? cpu_s / wall_s : 0.0, "frac",
       "(probe) no pool: process CPU over wall of the one-thread cell runs, about 1"},
      {"experiment.longest_cell_s",
       *std::max_element(cell_ms.begin(), cell_ms.end()) / 1e3, "s",
       Samples(cell_ms.size(), "untraced cell runs")},
      {"experiment.render_s", render_s, "s",
       "(probe) no render: WriteSweepJson of the traced cells"},
      {"experiment.json_bytes", static_cast<double>(fs::file_size(json_path)), "bytes",
       "(probe) " + json_path},
      {"sim.events", static_cast<double>(counts.events), "count", "exact"},
      {"hv.dispatches", static_cast<double>(counts.dispatches), "count", "exact"},
      {"core.plan_applications", static_cast<double>(counts.plan_applications), "count",
       "exact"},
      {"fleet.cell_s", Percentile(fleet_s, 0.5), "s",
       "(probe) median of 3 fleet-probe runs"},
      {"fleet.migrations", static_cast<double>(migrations), "count",
       "(probe) exact, fleet probe"},
      {"fleet.migration_success_frac",
       MigrationSuccessFrac(migrations, migration_failures),
       "frac", "(probe) fleet probe"},
  };
  AddSpanMetrics(results, tracer, &out.metrics);
  AddMicros(&out.metrics);
  out.metrics.push_back(MicroMetric("trace.clock_ns", "ns", clock));
  WriteTrace(a, tracer);
  ReportExactCounts(a, a.seed == kReferenceSeed
                          ? counts
                          : MachineCounts(a.workload, kReferenceSeed));
  out.correct = out.ok.failed == 0;
  return out;
}

// --- suite_quick ---------------------------------------------------------------------

Outcome SuiteUntraced(const Args& a) {
  Outcome out;
  const std::string log = a.work + "/child.log";
  const std::string list_log = a.work + "/list.log";
  // Children's wall times at the reference speed (see SpeedProbe), and
  // the suite children's in host seconds.
  std::vector<double> setup;
  std::vector<double> walls;
  std::vector<double> host_walls;
  double rss = 0.0;
  double recognized = 0.0;
  double apps = 0.0;
  double gain = 0.0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(a.seconds * 1e9);
  do {
    for (int i = 0; i < kSetupPerPass; ++i) {
      const double probe = SpeedProbe();
      const ChildRun r = Spawn({a.aql_bench, "--list", "--quick"}, a.work, list_log);
      setup.push_back(AtReferenceSpeed(r.wall_s, (probe + SpeedProbe()) / 2));
      RecordCheck(&out.ok, "--list child", ExitFailure(r, list_log));
    }
    const std::string dir = a.work + "/suite";
    fs::remove_all(dir);
    const ChildRun r =
        Spawn(SuiteArgs(a, dir, /*stable=*/true), a.work, log, /*speed_probe=*/true);
    walls.push_back(AtReferenceSpeed(
        r.wall_s, r.speed_probes.empty() ? SpeedProbe() : Mean(r.speed_probes)));
    host_walls.push_back(r.wall_s);
    rss = std::max(rss, r.maxrss_mb);
    std::vector<std::string> failures;
    out.ok.Add(CheckSuiteOutputs(dir, a.goldens, r.exit_code, &failures));
    for (const std::string& f : failures) {
      std::printf("FAILED %s\n", f.c_str());
    }
    if (walls.size() == 1) {
      for (const char* sweep :
           {"table3_recognition", "table3x_recognition", "trace_replay"}) {
        const std::string path = dir + "/BENCH_" + std::string(sweep) + ".json";
        recognized += SummaryValue(path, "recognized_correctly");
        apps += SummaryValue(
            path, sweep == std::string("trace_replay") ? "kinds" : "apps");
      }
      const std::string fig6 = dir + "/BENCH_fig6_effectiveness.json";
      const double single = SummaryValue(fig6, "single_socket_mean_normalized");
      const double four = SummaryValue(fig6, "four_socket_mean_normalized");
      gain = single > 0 && four > 0 ? 1.0 / std::sqrt(single * four) : 0.0;
    }
    fs::remove_all(dir);
  } while (NowNs() < deadline);

  out.metrics = {
      {"wall_s", Percentile(walls, 0.5), "s",
       "median of " + Samples(walls.size(), "children") + Range(walls) +
           "; host seconds " + std::to_string(Percentile(host_walls, 0.5)) +
           Range(host_walls)},
      {"setup_s", Percentile(setup, 0.5), "s",
       "median of " + Samples(setup.size(), "`--list --quick` children") + Range(setup)},
      {"peak_rss_mb", rss, "MB", "max child ru_maxrss (wait4)"},
      {"ok_frac", out.ok.Frac(), "frac",
       Samples(out.ok.attempted, "sweep outputs and `--list` children")},
      {"recognition_acc", apps > 0 ? recognized / apps : 0.0, "frac",
       "table3 + table3x + trace_replay"},
      {"aql_gain", gain, "ratio", "fig6 single- and four-socket means, inverted"},
  };
  out.correct = out.ok.failed == 0 && apps > 0 && gain > 0;
  return out;
}

// Per-layer figures read from the timing JSON of one suite child.
struct SuiteLayers {
  std::vector<double> cell_s;
  double fleet_cell_s = 0.0;
  double single_s = 0.0, single_events = 0.0;
  double multi_s = 0.0, multi_events = 0.0;
  size_t single_cells = 0, multi_cells = 0;
  double json_bytes = 0.0;
  ExactCounts counts;
  double migration_failures = 0.0;
};

SuiteLayers ReadSuiteLayers(const std::string& dir, OkCount* ok) {
  SuiteLayers s;
  std::error_code ec;  // a child that wrote nothing leaves no directory
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind("BENCH_", 0) != 0) {
      continue;
    }
    s.json_bytes += static_cast<double>(entry.file_size());
    const JsonValue doc = LoadJson(entry.path().string());
    const JsonValue* cells = doc.IsObject() ? doc.Find("cells") : nullptr;
    const bool parsed =
        cells != nullptr && cells->IsArray() && doc.Find("failed_cells") == nullptr;
    RecordCheck(ok, file, parsed ? "" : "timing JSON did not parse cleanly");
    if (!parsed) {
      continue;
    }
    const bool fleet_sweep = file.rfind("BENCH_fleet_", 0) == 0;
    for (const JsonValue& c : cells->Items()) {
      const JsonValue* wall = c.Find("wall_seconds");
      const JsonValue* events = c.Find("events_processed");
      const JsonValue* scenario = c.Find("scenario");
      const JsonValue* groups = c.Find("groups");
      if (wall == nullptr || events == nullptr || scenario == nullptr ||
          groups == nullptr ||
          scenario->Find("pcpus") == nullptr) {
        RecordCheck(ok, file, "a cell lacks wall_seconds, events, scenario or groups");
        continue;
      }
      const double w = wall->AsDouble();
      const double e = events->AsDouble();
      s.cell_s.push_back(w);
      s.counts.events += events->AsUint();
      if (const JsonValue* plans = c.Find("plan_applications")) {
        s.counts.plan_applications += plans->AsUint();
      }
      if (scenario->Find("fleet") != nullptr) {
        s.fleet_cell_s += fleet_sweep ? w : 0.0;
      } else if (scenario->Find("pcpus")->AsInt() > 4) {
        s.multi_s += w;
        s.multi_events += e;
        ++s.multi_cells;
      } else {
        s.single_s += w;
        s.single_events += e;
        ++s.single_cells;
      }
      for (const JsonValue& g : groups->Items()) {
        const JsonValue* name = g.Find("name");
        const JsonValue* metrics = g.Find("metrics");
        const JsonValue* vcpus = g.Find("vcpus");
        if (name == nullptr || metrics == nullptr || vcpus == nullptr) {
          continue;
        }
        const JsonValue* migrations = metrics->Find("migrations");
        const JsonValue* failures = metrics->Find("migration_failures");
        const JsonValue* dispatches = metrics->Find("vcpu_dispatches");
        if (name->AsString() == "fleet") {
          s.counts.migrations += migrations != nullptr ? migrations->AsUint() : 0;
          s.migration_failures += failures != nullptr ? failures->AsDouble() : 0.0;
        } else if (name->AsString().rfind("host", 0) != 0 && dispatches != nullptr) {
          s.counts.dispatches +=
              static_cast<uint64_t>(
                  std::llround(dispatches->AsDouble() * vcpus->AsDouble()));
        }
      }
    }
  }
  return s;
}

double SumRenderSeconds(const std::string& dir) {
  double total = 0.0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const JsonValue doc = LoadJson(entry.path().string());
    const JsonValue* timing = doc.IsObject() ? doc.Find("timing") : nullptr;
    const JsonValue* render =
        timing != nullptr ? timing->Find("render_seconds") : nullptr;
    total += render != nullptr ? render->AsDouble() : 0.0;
  }
  return total;
}

Outcome SuiteTraced(const Args& a) {
  Outcome out;
  const std::string timed_dir = a.work + "/suite_timed";
  const std::string profiled_dir = a.work + "/suite_profiled";
  fs::remove_all(timed_dir);
  fs::remove_all(profiled_dir);
  const std::string timed_log = a.work + "/child.log";
  const ChildRun timed =
      Spawn(SuiteArgs(a, timed_dir, /*stable=*/false), a.work, timed_log);
  RecordCheck(&out.ok, "suite child", ExitFailure(timed, timed_log));
  const std::string profiled_log = a.work + "/profile.log";
  std::vector<std::string> profiled_args = SuiteArgs(a, profiled_dir, /*stable=*/false);
  profiled_args.push_back("--profile");
  const ChildRun profiled = Spawn(profiled_args, a.work, profiled_log);
  RecordCheck(&out.ok, "--profile child", ExitFailure(profiled, profiled_log));
  const std::string list_log = a.work + "/list.log";
  std::vector<double> list_s;
  for (int i = 0; i < 10; ++i) {
    const ChildRun r = Spawn({a.aql_bench, "--list", "--quick"}, a.work, list_log);
    list_s.push_back(r.wall_s);
    RecordCheck(&out.ok, "--list child", ExitFailure(r, list_log));
  }

  const SuiteLayers s = ReadSuiteLayers(timed_dir, &out.ok);
  const double render_s = SumRenderSeconds(profiled_dir);
  fs::remove_all(timed_dir);
  fs::remove_all(profiled_dir);
  std::printf("--profile child: %.3f s against %.3f s without it (%+.1f%%)\n",
              profiled.wall_s, timed.wall_s,
              100.0 * (profiled.wall_s / timed.wall_s - 1.0));

  // The suite's cells run inside the child, so the span metrics come from
  // the probe cells, traced in this process.
  const Micro clock = ClockMicro();
  Tracer tracer;
  const std::vector<TracedCell> results =
      TraceCells({}, ProbeCells(a.seed), 1, std::llround(clock.per_op), &tracer, &out.ok);

  const Distribution d = Summarize(s.cell_s);
  const std::string cell_note = Samples(d.samples, "suite cells");
  const double total_cells = static_cast<double>(s.cell_s.size());
  out.metrics = {
      {"experiment.cell_ms_p50", d.p50 * 1e3, "ms", cell_note},
      {"experiment.cell_ms_p90", d.p90 * 1e3, "ms", cell_note},
      {"experiment.setup_us_per_cell",
       total_cells > 0 ? Percentile(list_s, 0.5) * 1e6 / total_cells : 0.0, "us",
       "median of " + Samples(list_s.size(), "`--list --quick` children") + " over " +
           Samples(s.cell_s.size(), "cells")},
      {"experiment.pool_busy_frac", timed.cpu_s / (2.0 * timed.wall_s), "frac",
       "child CPU over 2 x child wall"},
      {"experiment.longest_cell_s",
       s.cell_s.empty() ? 0.0 : *std::max_element(s.cell_s.begin(), s.cell_s.end()), "s",
       cell_note},
      {"experiment.render_s", render_s, "s",
       "sum of timing.render_seconds (--profile child)"},
      {"experiment.json_bytes", s.json_bytes, "bytes", "BENCH_*.json of the timed child"},
      {"sim.events", static_cast<double>(s.counts.events), "count", "exact"},
      {"hv.dispatches", static_cast<double>(s.counts.dispatches), "count", "exact"},
      {"core.plan_applications", static_cast<double>(s.counts.plan_applications), "count",
       "exact"},
      {"fleet.cell_s", s.fleet_cell_s, "s", "sum over fleet-sweep cells"},
      {"fleet.migrations", static_cast<double>(s.counts.migrations), "count", "exact"},
      {"fleet.migration_success_frac",
       MigrationSuccessFrac(s.counts.migrations, s.migration_failures), "frac",
       "migrations over migrations + failed migrations"},
      {"trace.wall_s", timed.wall_s, "s", "the timing-JSON child"},
  };
  // Socket classes: single-machine cells of 4 pCPUs are the single-socket
  // i7 rig; larger machines are the multi-socket E5 rigs.
  out.metrics.push_back(Metric{"sim.ns_per_event.single",
                               s.single_events > 0
                                   ? s.single_s * 1e9 / s.single_events
                                   : 0.0,
                               "ns/event", Samples(s.single_cells, "suite cells")});
  out.metrics.push_back(Metric{"sim.ns_per_event.multi",
                               s.multi_events > 0 ? s.multi_s * 1e9 / s.multi_events
                                                  : 0.0,
                               "ns/event", Samples(s.multi_cells, "suite cells")});
  std::vector<Metric> span_metrics;
  AddSpanMetrics(results, tracer, &span_metrics);
  for (Metric& m : span_metrics) {
    if (m.name.rfind("sim.ns_per_event", 0) != 0) {
      out.metrics.push_back(std::move(m));
    }
  }
  AddMicros(&out.metrics);
  out.metrics.push_back(MicroMetric("trace.clock_ns", "ns", clock));
  WriteTrace(a, tracer);
  ReportExactCounts(a, s.counts);
  out.correct = out.ok.failed == 0;
  return out;
}

// --- output ------------------------------------------------------------------------

void Print(const Args& a, const Outcome& out) {
  std::printf("%s %s seed=%llu:\n", a.workload.c_str(), a.trace ? "traced" : "end to end",
              static_cast<unsigned long long>(a.seed));
  for (const Metric& m : out.metrics) {
    const bool whole = m.unit == "count" || m.unit == "bytes";
    std::printf(whole ? "  %-32s %14.0f %-9s %s\n" : "  %-32s %14.6g %-9s %s\n",
                m.name.c_str(), m.value, m.unit.c_str(), m.note.c_str());
  }
  std::string json = "{\"correct\": " + std::string(out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.ok.attempted) +
                     ", \"failed\": " + std::to_string(out.ok.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json += (i > 0 ? ", " : "") + aql::JsonQuote(m.name) +
            ": {\"value\": " + aql::JsonNumber(m.value) +
            ", \"unit\": " + aql::JsonQuote(m.unit) +
            "}";
  }
  std::printf("%s}}\n", json.c_str());
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      Die(arg + " needs a value");
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      a.workload = value;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      a.trace = value == "1";
    } else if (arg == "--aql-bench") {
      a.aql_bench = value;
    } else if (arg == "--goldens") {
      a.goldens = value;
    } else if (arg == "--work") {
      a.work = value;
    } else if (arg == "--baseline") {
      a.baseline = value;
    } else {
      Die("unknown argument " + arg);
    }
  }
  if (a.workload != "machine_cache" && a.workload != "machine_dispatch" &&
      a.workload != "suite_quick") {
    Die("unknown workload '" + a.workload + "'");
  }
  if (a.work.empty()) {
    Die("--work is required");
  }
  fs::create_directories(a.work);
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = Parse(argc, argv);
  Outcome out;
  if (a.workload == "suite_quick") {
    out = a.trace ? SuiteTraced(a) : SuiteUntraced(a);
  } else {
    out = a.trace ? MachineTraced(a) : MachineUntraced(a);
  }
  Print(a, out);
  return 0;
}
