#include "src/workload/catalog.h"

#include <functional>
#include <map>
#include <utility>

#include "src/sim/check.h"
#include "src/workload/checkpoint_restart.h"
#include "src/workload/cpu_burn.h"
#include "src/workload/io_server.h"
#include "src/workload/spin_sync.h"

namespace aql {
namespace {

constexpr uint64_t kKiB = 1024;
constexpr uint64_t kMiB = 1024 * 1024;

MemProfile Mem(uint64_t wss, double refs_per_ns, double ipc = 2.0) {
  MemProfile m;
  m.wss_bytes = wss;
  m.llc_refs_per_ns = refs_per_ns;
  m.instructions_per_ns = ipc;
  return m;
}

CpuBurnConfig Burn(const std::string& name, uint64_t wss, double refs_per_ns) {
  CpuBurnConfig c;
  c.name = name;
  c.mem = Mem(wss, refs_per_ns);
  return c;
}

// A streaming kernel (MemBw, or NumaRemote with remote_fraction > 0).
CpuBurnConfig Stream(const std::string& name, uint64_t wss, double refs_per_ns,
                     double remote_fraction) {
  CpuBurnConfig c = Burn(name, wss, refs_per_ns);
  c.mem.remote_fraction = remote_fraction;
  c.stream = true;
  return c;
}

IoServerConfig Io(const std::string& name, double rate_hz, TimeNs service, TimeNs cgi,
                  const MemProfile& mem, bool background_burn) {
  IoServerConfig c;
  c.name = name;
  c.arrival_rate_hz = rate_hz;
  c.service_work = service;
  c.cgi_work = cgi;
  c.mem = mem;
  c.background_burn = background_burn;
  return c;
}

// A bursty server that burns in the background when idle, optionally on a
// day/night curve with flash crowds.
IoServerConfig Bursty(const std::string& name, double rate_hz, TimeNs service,
                      uint64_t wss, double refs_per_ns, double day_night_amplitude = 0.0,
                      bool flash_crowds = false) {
  IoServerConfig c = Io(name, rate_hz, service, 0, Mem(wss, refs_per_ns), true);
  c.bursty = true;
  c.day_night_amplitude = day_night_amplitude;
  c.flash_crowds = flash_crowds;
  return c;
}

SpinSyncConfig Spin(const std::string& name, TimeNs compute, TimeNs critical, uint64_t wss,
                    double refs_per_ns, int barrier_every) {
  SpinSyncConfig c;
  c.name = name;
  c.compute = compute;
  c.critical = critical;
  c.mem = Mem(wss, refs_per_ns);
  c.barrier_every = barrier_every;
  return c;
}

using Factory =
    std::function<std::vector<std::unique_ptr<WorkloadModel>>(int count,
                                                              const AppOptions& options)>;

struct Entry {
  AppProfile profile;
  Factory make;
  NominalOp nominal;
};

// `count` independent `Model`s of one configuration.
template <typename Model, typename Config>
Factory Replicas(Config cfg) {
  return [cfg](int count, const AppOptions&) {
    std::vector<std::unique_ptr<WorkloadModel>> out;
    for (int i = 0; i < count; ++i) {
      out.push_back(std::make_unique<Model>(cfg));
    }
    return out;
  };
}

// ConSpin replicas share the VM's lock and, when the app has barrier
// phases, one barrier.
Factory MakeSpinFactory(SpinSyncConfig cfg) {
  return [cfg](int count, const AppOptions& options) {
    auto lock = std::make_shared<SpinLock>(options.fifo_lock);
    std::shared_ptr<SpinBarrier> barrier;
    if (cfg.barrier_every > 0) {
      barrier = std::make_shared<SpinBarrier>(count);
    }
    std::vector<std::unique_ptr<WorkloadModel>> out;
    for (int i = 0; i < count; ++i) {
      out.push_back(std::make_unique<SpinSyncModel>(cfg, lock, barrier));
    }
    return out;
  };
}

const std::vector<Entry>& Entries() {
  static const std::vector<Entry>* entries = [] {
    auto* e = new std::vector<Entry>;
    // Typed registration helpers, one per model class: each takes the
    // nominal descriptor from the same config the model factory captures.
    // The post-paper behaviours — bursty service and streaming — are the
    // extended entries.
    auto add_io = [e](const std::string& suite, const IoServerConfig& cfg) {
      const VcpuType t = cfg.bursty ? VcpuType::kBurstyIo : VcpuType::kIoInt;
      e->push_back(Entry{AppProfile{cfg.name, t, suite, /*extended=*/cfg.bursty},
                         Replicas<IoServerModel>(cfg), NominalOp{cfg.mem}});
    };
    auto add_spin = [e](const std::string& suite, const SpinSyncConfig& cfg) {
      e->push_back(Entry{AppProfile{cfg.name, VcpuType::kConSpin, suite,
                                    /*extended=*/false},
                         MakeSpinFactory(cfg), NominalOp{cfg.mem}});
    };
    auto add_burn = [e](VcpuType t, const std::string& suite, const CpuBurnConfig& cfg) {
      e->push_back(Entry{AppProfile{cfg.name, t, suite, /*extended=*/cfg.stream},
                         Replicas<CpuBurnModel>(cfg), NominalOp{cfg.mem}});
    };

    // --- I/O intensive (reference suites + Table 1 micro-benchmarks) ---
    // Heterogeneous web serving: CGI computation defeats Xen's BOOST.
    add_io("SPECweb2009",
           Io("SPECweb2009", 300.0, Us(100), Us(600), Mem(512 * kKiB, 0.001), true));
    add_io("SPECmail2009",
           Io("SPECmail2009", 400.0, Us(50), Us(350), Mem(256 * kKiB, 0.0008), true));
    add_io("micro",
           Io("wordpress", 300.0, Us(100), Us(600), Mem(512 * kKiB, 0.001), true));
    // Exclusive network workload: blocks between requests, BOOST applies.
    add_io("micro", Io("pure_io", 500.0, Us(150), 0, Mem(64 * kKiB, 0.00005), false));
    // IOInt+ of the 4-socket scenario (§3.5): I/O intensive *and* trashing
    // the LLC with its per-request computation.
    add_io("micro",
           Io("specweb_trasher", 180.0, Us(100), Us(600), Mem(12 * kMiB, 0.006), true));

    // --- ConSpin (kernbench + PARSEC) ---
    // Lock duty cycles are kept around 1% (realistic fine-grained kernel /
    // pthread locks); the dominant quantum sensitivity comes from barrier
    // phases stalled by descheduled stragglers.
    add_spin("micro", Spin("kernbench", Us(1000), Us(10), kMiB, 0.001, 80));
    struct ParsecSpec {
      const char* name;
      TimeNs compute;
      TimeNs critical;
      uint64_t wss;
      double refs;
      int barrier_every;
    };
    const ParsecSpec parsec[] = {
        {"bodytrack", Us(900), Us(10), kMiB, 0.0010, 100},
        {"blackscholes", Us(1400), Us(6), 512 * kKiB, 0.0006, 200},
        {"canneal", Us(1000), Us(14), 3 * kMiB, 0.0014, 110},
        {"dedup", Us(800), Us(12), 2 * kMiB, 0.0012, 90},
        {"facesim", Us(1100), Us(12), 2 * kMiB, 0.0011, 100},
        {"ferret", Us(950), Us(9), kMiB, 0.0009, 130},
        {"fluidanimate", Us(850), Us(14), kMiB, 0.0012, 80},
        {"freqmine", Us(1250), Us(8), 2 * kMiB, 0.0008, 170},
        {"raytrace", Us(1050), Us(9), kMiB, 0.0007, 150},
        {"streamcluster", Us(900), Us(12), 2 * kMiB, 0.0013, 90},
        {"vips", Us(1080), Us(9), kMiB, 0.0009, 140},
        {"x264", Us(1000), Us(10), kMiB, 0.0011, 120},
    };
    for (const ParsecSpec& p : parsec) {
      add_spin("PARSEC", Spin(p.name, p.compute, p.critical, p.wss, p.refs,
                              p.barrier_every));
    }

    // --- LLCF: working set fits the 8 MB LLC ---
    add_burn(VcpuType::kLlcf, "SPEC CPU2006", Burn("astar", 3 * kMiB, 0.0050));
    add_burn(VcpuType::kLlcf, "SPEC CPU2006", Burn("xalancbmk", 5 * kMiB / 2, 0.0060));
    add_burn(VcpuType::kLlcf, "SPEC CPU2006", Burn("bzip2", 7 * kMiB / 2, 0.0055));
    add_burn(VcpuType::kLlcf, "SPEC CPU2006", Burn("gcc", 4 * kMiB, 0.0045));
    add_burn(VcpuType::kLlcf, "SPEC CPU2006", Burn("omnetpp", 5 * kMiB, 0.0060));
    // Table 1 linked-list micro-benchmark, configured at half the LLC.
    add_burn(VcpuType::kLlcf, "micro", Burn("llcf_list", 4 * kMiB, 0.0080));
    // Smaller LLC-friendly disturber used in the calibration rigs (reused
    // working sets create legitimate capacity contention).
    add_burn(VcpuType::kLlcf, "micro", Burn("llcf_list2", 3 * kMiB, 0.0060));

    // --- LoLCF: working set fits L1/L2 ---
    add_burn(VcpuType::kLoLcf, "SPEC CPU2006", Burn("hmmer", 180 * kKiB, 0.00003));
    add_burn(VcpuType::kLoLcf, "SPEC CPU2006", Burn("gobmk", 200 * kKiB, 0.00005));
    add_burn(VcpuType::kLoLcf, "SPEC CPU2006", Burn("perlbench", 150 * kKiB, 0.00004));
    add_burn(VcpuType::kLoLcf, "SPEC CPU2006", Burn("sjeng", 120 * kKiB, 0.00002));
    add_burn(VcpuType::kLoLcf, "SPEC CPU2006", Burn("h264ref", 220 * kKiB, 0.00006));
    // Table 1 micro-benchmark at 90% of L2.
    add_burn(VcpuType::kLoLcf, "micro", Burn("lolcf_list", 230 * kKiB, 0.00004));

    // --- LLCO: working set overflows the LLC ---
    add_burn(VcpuType::kLlco, "SPEC CPU2006", Burn("mcf", 14 * kMiB, 0.0070));
    add_burn(VcpuType::kLlco, "SPEC CPU2006", Burn("libquantum", 24 * kMiB, 0.0090));
    add_burn(VcpuType::kLlco, "micro", Burn("llco_list", 16 * kMiB, 0.0120));

    // --- Extended catalog (post-paper types; excluded from Catalog()) ---

    // MemBw: STREAM-style kernels — reference rates an order of magnitude
    // above the LLCO burners, no reuse; MPKI lands well above the
    // membw_mpki_limit while LLCO applications stay below it.
    add_burn(VcpuType::kMemBw, "STREAM", Stream("stream_triad", 64 * kMiB, 0.050, 0.0));
    add_burn(VcpuType::kMemBw, "micro", Stream("membw_scan", 32 * kMiB, 0.040, 0.0));

    // NumaRemote: moderate-rate streaming against memory pinned to a remote
    // node — MPKI stays below the MemBw limit, but the remote-access ratio
    // saturates the NumaRemote cursor. Only meaningful on multi-socket rigs.
    add_burn(VcpuType::kNumaRemote, "micro",
             Stream("numa_stream", 16 * kMiB, 0.0040, 0.90));
    add_burn(VcpuType::kNumaRemote, "micro", Stream("numa_mcf", 20 * kMiB, 0.0060, 0.75));

    // BurstyIo: diurnal on/off request service. Phases of 2.5 monitoring
    // periods guarantee every vTRS window sees both a saturated and a silent
    // I/O period; the service/background working set is LLC-resident (not
    // LoLCF) so quiet periods do not masquerade as cache-friendly compute.
    add_io("micro", Bursty("diurnal_web", 400.0, Us(150), 3 * kMiB, 0.004));
    add_io("micro", Bursty("bursty_logger", 500.0, Us(100), 2 * kMiB, 0.003));

    // Multi-tenant web with a day/night macro curve on top of the on/off
    // micro-phases. Trough rates (base * (1 - amplitude)) stay well above
    // the I/O cursor threshold, so classification remains BurstyIo across
    // the whole cycle. The flash-crowd variant adds 3x spikes of 200 ms
    // every simulated second.
    add_io("micro", Bursty("tenant_web_diurnal", 400.0, Us(150), 3 * kMiB, 0.004, 0.6));
    add_io("micro", Bursty("tenant_web_flash", 300.0, Us(150), 5 * kMiB / 2, 0.0035, 0.4,
                           /*flash_crowds=*/true));

    // Daly-style HPC checkpoint/restart: an LLC-resident solver punctuated
    // by periodic streaming checkpoint write-outs. Its durable state (the
    // last completed checkpoint) survives fleet rebuilds, so a crashed VM
    // resumes from its checkpoint instead of restarting cold — the workload
    // the fault injector's recovery path is built for. The duty cycle is
    // small enough that window-averaged cursors still classify it LLCF.
    CheckpointRestartConfig ckpt;
    ckpt.name = "checkpoint_restart";
    ckpt.mem = Mem(3 * kMiB, 0.0055);
    e->push_back(Entry{AppProfile{ckpt.name, VcpuType::kLlcf, "HPC", /*extended=*/true},
                       Replicas<CheckpointRestartModel>(ckpt), NominalOp{ckpt.mem}});

    return e;
  }();
  return *entries;
}

const Entry& FindEntry(const std::string& name) {
  for (const Entry& e : Entries()) {
    if (e.profile.name == name) {
      return e;
    }
  }
  AQL_CHECK_MSG(false, ("unknown application: " + name).c_str());
}

}  // namespace

const std::vector<AppProfile>& Catalog() {
  static const std::vector<AppProfile>* profiles = [] {
    auto* p = new std::vector<AppProfile>;
    for (const Entry& e : Entries()) {
      if (!e.profile.extended) {
        p->push_back(e.profile);
      }
    }
    return p;
  }();
  return *profiles;
}

const std::vector<AppProfile>& ExtendedCatalog() {
  static const std::vector<AppProfile>* profiles = [] {
    auto* p = new std::vector<AppProfile>;
    for (const Entry& e : Entries()) {
      p->push_back(e.profile);
    }
    return p;
  }();
  return *profiles;
}

const AppProfile& FindApp(const std::string& name) { return FindEntry(name).profile; }

bool HasApp(const std::string& name) {
  for (const Entry& e : Entries()) {
    if (e.profile.name == name) {
      return true;
    }
  }
  return false;
}

const NominalOp& NominalOpFor(const std::string& name) { return FindEntry(name).nominal; }

std::vector<std::unique_ptr<WorkloadModel>> MakeApp(const std::string& name, int count,
                                                    const AppOptions& options) {
  AQL_CHECK(count >= 1);
  return FindEntry(name).make(count, options);
}

std::vector<std::string> AppsOfType(VcpuType type) {
  std::vector<std::string> out;
  for (const AppProfile& p : ExtendedCatalog()) {
    if (p.expected_type == type) {
      out.push_back(p.name);
    }
  }
  return out;
}

}  // namespace aql
