// Application catalog: named workload models mirroring the paper's
// benchmarks (Table 1 micro-benchmarks, Table 3 reference applications).
//
// Each entry maps a benchmark name to a parameterized workload model whose
// (working set, LLC reference rate, I/O rate, spin behaviour) reproduces the
// type the paper's vTRS detected for it. ConSpin applications are
// multi-threaded: MakeApp returns one model per vCPU sharing a VM-level
// spin lock.

#ifndef AQLSCHED_SRC_WORKLOAD_CATALOG_H_
#define AQLSCHED_SRC_WORKLOAD_CATALOG_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/vcpu_type.h"
#include "src/workload/workload.h"

namespace aql {

struct AppProfile {
  std::string name;
  VcpuType expected_type;
  // Benchmark suite the application belongs to ("SPEC CPU2006", "PARSEC",
  // "SPECweb2009", "micro", ...).
  std::string suite;
  // True for post-paper applications (MemBw / NumaRemote / BurstyIo). The
  // paper-figure sweeps iterate Catalog() and must keep reproducing the
  // paper's tables, so extended applications live behind this flag.
  bool extended = false;
};

// The paper's applications (Table 1 / Table 3) — what the paper-figure
// sweeps iterate.
const std::vector<AppProfile>& Catalog();

// Paper applications plus the extended profiles (memory-bandwidth-bound,
// NUMA-remote, bursty I/O) — the 8-type catalog of table3x_recognition.
const std::vector<AppProfile>& ExtendedCatalog();

// Profile lookup; aborts on unknown names.
const AppProfile& FindApp(const std::string& name);
bool HasApp(const std::string& name);

// Per-instantiation knobs (mechanism ablations).
struct AppOptions {
  // ConSpin applications only: FIFO ticket handoff instead of the default
  // unfair test-and-set spin lock.
  bool fifo_lock = false;
};

// Nominal descriptor of a catalog application: the memory behaviour of its
// steady-state compute. Purely descriptive — simulation behaviour comes from
// the WorkloadModel instances.
struct NominalOp {
  MemProfile mem;
};

// Nominal descriptor lookup; aborts on unknown names.
const NominalOp& NominalOpFor(const std::string& name);

// Instantiates `count` vCPU workload models for `name`. For ConSpin
// applications the models share one spin lock (threads of one VM); for all
// other types the models are independent replicas.
std::vector<std::unique_ptr<WorkloadModel>> MakeApp(const std::string& name,
                                                    int count = 1,
                                                    const AppOptions& options = {});

// Names of all applications of a given expected type, searching the
// extended catalog (the only home of the post-paper types).
std::vector<std::string> AppsOfType(VcpuType type);

}  // namespace aql

#endif  // AQLSCHED_SRC_WORKLOAD_CATALOG_H_
