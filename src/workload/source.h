// Workload-source layer: one API in front of every workload backend.
//
// A source is loaded from a spec, reports how many streams (vCPUs) it drives
// and which of them carry I/O, and `MakeModels` instantiates the executable
// WorkloadModel objects the hypervisor dispatches. Two backends live behind
// the interface:
//
//   catalog : the synthetic generator catalog (the 8 vTRS types, including
//             the diurnal web generator). MakeModels delegates to the
//             catalog factories, so catalog-backed scenarios behave exactly
//             as before the source layer existed (the committed goldens pin
//             this at the byte level).
//   trace   : replays a JSON-lines trace file (docs/TRACE_FORMAT.md).
//             MakeModels builds one TraceReplayModel per stream
//             (src/workload/trace_replay.h). Traces use no RNG, so a
//             trace-driven cell is byte-identical across --jobs and
//             --island-threads by construction.
//
// The experiment runner (src/experiment/runner.cc) routes every VM build
// through MakeWorkloadSource.

#ifndef AQLSCHED_SRC_WORKLOAD_SOURCE_H_
#define AQLSCHED_SRC_WORKLOAD_SOURCE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/workload/catalog.h"
#include "src/workload/workload.h"

namespace aql {

// Backend-dispatching source description.
struct WorkloadSourceSpec {
  // "catalog" or "trace".
  std::string backend = "catalog";
  // catalog backend: application name + instantiation knobs.
  std::string app;
  int vcpus = 1;
  AppOptions options;
  // trace backend: path to the JSON-lines trace (docs/TRACE_FORMAT.md).
  std::string trace_path;
};

class WorkloadSource {
 public:
  virtual ~WorkloadSource() = default;

  // Number of independent streams (= vCPU workload models) this source
  // drives.
  virtual int Streams() const = 0;

  // Instantiates the executable models, one per stream, in stream order.
  virtual std::vector<std::unique_ptr<WorkloadModel>> MakeModels() = 0;

  // Whether `stream` carries I/O ops (drives the io_vcpus configuration the
  // vSlicer/vTurbo baselines require).
  virtual bool StreamHasIo(int stream) const = 0;
};

// Builds the backend `spec` names. Returns nullptr and sets `error` on an
// unknown backend, unknown application, or an invalid trace file (the
// validation errors of docs/TRACE_FORMAT.md, prefixed with the path).
std::unique_ptr<WorkloadSource> MakeWorkloadSource(const WorkloadSourceSpec& spec,
                                                   std::string* error);

}  // namespace aql

#endif  // AQLSCHED_SRC_WORKLOAD_SOURCE_H_
