// Workload-source layer: one API in front of every workload backend.
//
// Modelled on the codes-workload pattern: a source is loaded from a spec and
// then queried per stream (`NextOp`) for an op-stream view — {op kind,
// arrival time, burst size, working set} — while `MakeModels` instantiates
// the executable WorkloadModel objects the hypervisor dispatches. Three
// backends live behind the interface:
//
//   catalog : the synthetic generator catalog (the 8 vTRS types, including
//             the diurnal web generator). MakeModels delegates to the
//             catalog factories, so catalog-backed scenarios behave exactly
//             as before the refactor (the committed goldens pin this at the
//             byte level); NextOp synthesizes the application's *nominal*
//             steady-state op stream from its registered NominalOp
//             descriptor (src/workload/catalog.h).
//   trace   : replays a JSON-lines trace file (docs/TRACE_FORMAT.md). The
//             op stream IS the file; MakeModels builds one TraceReplayModel
//             per stream (src/workload/trace_replay.h). Traces use no RNG,
//             so a trace-driven cell is byte-identical across --jobs
//             and --island-threads by construction.
//
// The experiment runner (src/experiment/runner.cc) routes every VM build
// through MakeWorkloadSource.

#ifndef AQLSCHED_SRC_WORKLOAD_SOURCE_H_
#define AQLSCHED_SRC_WORKLOAD_SOURCE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/sim/time.h"
#include "src/workload/catalog.h"
#include "src/workload/workload.h"

namespace aql {

// One operation of a workload's op stream.
struct WorkloadOp {
  enum class Kind {
    kCompute,  // CPU burst with the op's memory behaviour
    kIo,       // request arrival: event-channel notification, then a burst
    kEnd,      // stream exhausted (finite sources only)
  };

  Kind kind = Kind::kEnd;
  // Absolute arrival time (ns). Within a stream arrivals are non-decreasing;
  // an op whose arrival lies before the previous op's completion queues FIFO.
  TimeNs arrival = 0;
  // Pure work of the burst (ns), before cache/bus stalls.
  TimeNs burst = 0;
  // Working set and reference behaviour of the burst.
  MemProfile mem;
};

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

  // Human-readable backend/application label.
  virtual std::string Name() const = 0;

  // Number of independent op streams (= vCPU workload models) this source
  // drives.
  virtual int Streams() const = 0;

  // Pulls the next op of `stream` (0-based). Advances the stream cursor;
  // kEnd marks exhaustion. Cyclic sources (catalog generators, wrapped
  // traces) never return kEnd.
  virtual WorkloadOp NextOp(int stream) = 0;

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
