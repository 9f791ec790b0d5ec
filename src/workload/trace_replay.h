// Trace replayer: drives vCPUs from a recorded (or generated) op stream
// instead of a synthetic generator.
//
// The on-disk format is a versioned JSON-lines schema — one header object
// followed by one op record per line, each op belonging to a 0-based
// per-vCPU stream — specified normatively in docs/TRACE_FORMAT.md.
// ParseTrace/LoadTraceFile enforce the spec strictly: any malformed header,
// unknown op kind, out-of-range stream index or out-of-order arrival is a
// load-time error naming the offending line, never a silently skipped
// record. scripts/trace_gen.py is the reference emitter.
//
// Replay semantics: each stream's ops execute FIFO. An op becomes eligible
// at its arrival time (absolute ns; the vCPU sleeps until then when idle)
// and costs `burst_ns` of pure work with its declared memory behaviour; an
// op arriving while earlier ops are still executing queues. "io" ops
// additionally raise an event-channel notification at arrival (the BOOST
// wake-up path, counted by the PMU — what the vTRS I/O cursor measures).
// Per-op latency is completion - arrival; the mean is the primary metric.
// A trace with `wrap_ns` replays cyclically, each cycle shifting every
// arrival by wrap_ns.
//
// Determinism: replay consumes no random numbers — every arrival, burst and
// working set comes from the file — so a trace-driven cell is byte-identical
// across --jobs and --island-threads by construction
// (tests/trace_replay_test.cc pins this).

#ifndef AQLSCHED_SRC_WORKLOAD_TRACE_REPLAY_H_
#define AQLSCHED_SRC_WORKLOAD_TRACE_REPLAY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/metrics/stats.h"
#include "src/workload/source.h"
#include "src/workload/workload.h"

namespace aql {

// The trace format version this build reads and writes.
inline constexpr int kTraceFormatVersion = 1;

// One parsed op record.
struct TraceOp {
  enum class Kind {
    kCompute,  // CPU burst with the op's memory behaviour
    kIo,       // request arrival: event-channel notification, then a burst
    kEnd,      // stream closed (finite traces only)
  };

  Kind kind = Kind::kCompute;
  TimeNs at = 0;       // arrival, absolute ns from trace start
  TimeNs burst = 0;    // pure work (0 for "end" ops)
  MemProfile mem;
};

struct TraceStream {
  std::vector<TraceOp> ops;
  bool has_io = false;   // any "io" op (drives io_vcpus configuration)
  bool has_end = false;  // stream closed by an explicit "end" op
};

// A fully validated trace document.
struct TraceData {
  std::string name = "trace";
  std::vector<TraceStream> streams;
  // Cyclic-replay period; 0 = finite trace. When set, it is > every arrival
  // and the trace has no "end" ops (validated).
  TimeNs wrap = 0;
};

// Parses and validates a JSON-lines trace document. On failure returns
// false and stores a message naming the offending line ("line N: ...").
bool ParseTrace(const std::string& text, TraceData* out, std::string* error);

// Reads and parses a trace file; error messages are prefixed with `path`.
bool LoadTraceFile(const std::string& path, TraceData* out, std::string* error);

// Executes one stream of a trace (see replay semantics above).
class TraceReplayModel : public WorkloadModel {
 public:
  TraceReplayModel(std::shared_ptr<const TraceData> data, int stream);

  void OnAttach(WorkloadHost* host, int vcpu) override;
  Step NextStep(TimeNs now) override;
  void OnStepEnd(TimeNs now, const Step& step, TimeNs work_done, bool completed) override;
  void OnTimer(TimeNs now, int tag) override;
  std::string Name() const override { return data_->name; }
  PerfReport Report(TimeNs now) const override;
  void ResetMetrics(TimeNs now) override;

 private:
  TimeNs Effective(TimeNs at, uint64_t cycle) const {
    return at + static_cast<TimeNs>(cycle) * data_->wrap;
  }
  const std::vector<TraceOp>& ops() const {
    return data_->streams[static_cast<size_t>(stream_)].ops;
  }
  void ScheduleNextIoNotification();

  std::shared_ptr<const TraceData> data_;
  int stream_;

  // Execution cursor (FIFO over ops; wraps when data_->wrap > 0).
  size_t idx_ = 0;
  uint64_t cycle_ = 0;
  TimeNs remaining_ = 0;     // pure work left of the op at idx_
  TimeNs cur_arrival_ = 0;   // effective arrival of the op at idx_
  bool in_op_ = false;
  bool finished_ = false;

  // Arrival-notification cursor: "io" arrivals raise NotifyIoEvent at their
  // arrival time even while the stream is busy (external requests).
  size_t io_idx_ = 0;
  uint64_t io_cycle_ = 0;

  // Metrics over the measurement window.
  uint64_t completed_ = 0;
  SampleStats latency_us_;
  TimeNs done_window_ = 0;   // pure work executed in the window
  TimeNs window_start_ = 0;
};

// The "trace" backend of the workload-source API: models are
// TraceReplayModel instances, one per stream of the file.
class TraceSource : public WorkloadSource {
 public:
  explicit TraceSource(std::shared_ptr<const TraceData> data);

  // Loads `path`; returns nullptr and sets `error` on validation failure.
  static std::unique_ptr<TraceSource> Load(const std::string& path, std::string* error);

  int Streams() const override { return static_cast<int>(data_->streams.size()); }
  std::vector<std::unique_ptr<WorkloadModel>> MakeModels() override;
  bool StreamHasIo(int stream) const override;

 private:
  std::shared_ptr<const TraceData> data_;
};

}  // namespace aql

#endif  // AQLSCHED_SRC_WORKLOAD_TRACE_REPLAY_H_
