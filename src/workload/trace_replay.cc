#include "src/workload/trace_replay.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/experiment/json_out.h"
#include "src/sim/check.h"

namespace aql {
namespace {

// Step granularity of replayed bursts (keeps long bursts preemptible at the
// same grain as the synthetic generators).
constexpr TimeNs kTracePhase = Us(100);

// The single timer tag: "next io arrival" notifications.
constexpr int kIoArrivalTimer = 0;

// Strict integer-nanosecond read: JSON integers only (no floats), bounded
// so arrivals stay safely addable (kTimeInfinite headroom).
bool ReadNs(const JsonValue& v, TimeNs* out) {
  if (v.type() == JsonValue::Type::kInt) {
    if (v.AsInt() < 0) {
      return false;
    }
    *out = v.AsInt();
    return true;
  }
  if (v.type() == JsonValue::Type::kUint) {
    if (v.AsUint() > static_cast<uint64_t>(kTimeInfinite)) {
      return false;
    }
    *out = static_cast<TimeNs>(v.AsUint());
    return true;
  }
  return false;
}

// Optional memory-behaviour fields shared by the header's "default_mem"
// object and per-op records. Fields present override `mem` in place.
bool ParseMemFields(const JsonValue& obj, MemProfile* mem, std::string* msg) {
  if (const JsonValue* w = obj.Find("wss_bytes")) {
    TimeNs bytes = 0;
    if (!ReadNs(*w, &bytes)) {
      *msg = "\"wss_bytes\" must be a non-negative integer";
      return false;
    }
    mem->wss_bytes = static_cast<uint64_t>(bytes);
  }
  if (const JsonValue* r = obj.Find("llc_refs_per_ns")) {
    if (!r->IsNumber() || r->AsDouble() < 0.0) {
      *msg = "\"llc_refs_per_ns\" must be a non-negative number";
      return false;
    }
    mem->llc_refs_per_ns = r->AsDouble();
  }
  if (const JsonValue* i = obj.Find("ipc")) {
    if (!i->IsNumber() || i->AsDouble() <= 0.0) {
      *msg = "\"ipc\" must be a positive number";
      return false;
    }
    mem->instructions_per_ns = i->AsDouble();
  }
  if (const JsonValue* f = obj.Find("remote_fraction")) {
    if (!f->IsNumber() || f->AsDouble() < 0.0 || f->AsDouble() > 1.0) {
      *msg = "\"remote_fraction\" must be a number in [0, 1]";
      return false;
    }
    mem->remote_fraction = f->AsDouble();
  }
  return true;
}

}  // namespace

bool ParseTrace(const std::string& text, TraceData* out, std::string* error) {
  TraceData data;
  MemProfile default_mem;
  bool have_header = false;
  int64_t streams = 0;
  size_t line_no = 0;

  auto fail = [&](const std::string& msg) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + msg;
    }
    return false;
  };

  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t nl = text.find('\n', pos);
    std::string line = nl == std::string::npos ? text.substr(pos)
                                               : text.substr(pos, nl - pos);
    pos = nl == std::string::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty()) {
      continue;
    }

    std::string jerr;
    const JsonValue v = JsonValue::Parse(line, &jerr);
    if (!jerr.empty()) {
      return fail("invalid JSON (" + jerr + ")");
    }
    if (!v.IsObject()) {
      return fail("record must be a JSON object");
    }

    if (!have_header) {
      const JsonValue* ver = v.Find("aql_trace");
      if (ver == nullptr) {
        return fail("first record must be the trace header (missing \"aql_trace\")");
      }
      TimeNs version = 0;
      if (!ReadNs(*ver, &version)) {
        return fail("\"aql_trace\" must be an integer version");
      }
      if (version != kTraceFormatVersion) {
        return fail("unsupported trace version " + std::to_string(version) +
                    " (this build reads version " +
                    std::to_string(kTraceFormatVersion) + ")");
      }
      const JsonValue* s = v.Find("streams");
      TimeNs n = 0;
      if (s == nullptr || !ReadNs(*s, &n) || n < 1 || n > 65536) {
        return fail("\"streams\" must be an integer in [1, 65536]");
      }
      streams = n;
      data.streams.resize(static_cast<size_t>(streams));
      if (const JsonValue* name = v.Find("name")) {
        if (!name->IsString()) {
          return fail("\"name\" must be a string");
        }
        data.name = name->AsString();
      }
      if (const JsonValue* w = v.Find("wrap_ns")) {
        if (!ReadNs(*w, &data.wrap) || data.wrap <= 0) {
          return fail("\"wrap_ns\" must be a positive integer (ns)");
        }
      }
      if (const JsonValue* dm = v.Find("default_mem")) {
        if (!dm->IsObject()) {
          return fail("\"default_mem\" must be an object");
        }
        std::string msg;
        if (!ParseMemFields(*dm, &default_mem, &msg)) {
          return fail("default_mem: " + msg);
        }
      }
      have_header = true;
      continue;
    }

    // --- op record ---
    const JsonValue* sv = v.Find("stream");
    TimeNs si = 0;
    if (sv == nullptr || !ReadNs(*sv, &si)) {
      return fail("\"stream\" must be a non-negative integer");
    }
    if (si >= streams) {
      return fail("\"stream\" " + std::to_string(si) +
                  " out of range (header declares " + std::to_string(streams) +
                  " streams)");
    }
    TraceStream& st = data.streams[static_cast<size_t>(si)];
    if (st.has_end) {
      return fail("stream " + std::to_string(si) + " continues after its \"end\"");
    }

    const JsonValue* opv = v.Find("op");
    if (opv == nullptr || !opv->IsString()) {
      return fail("\"op\" must be a string");
    }
    TraceOp op;
    const std::string& kind = opv->AsString();
    if (kind == "compute") {
      op.kind = TraceOp::Kind::kCompute;
    } else if (kind == "io") {
      op.kind = TraceOp::Kind::kIo;
    } else if (kind == "end") {
      op.kind = TraceOp::Kind::kEnd;
    } else {
      return fail("unknown op kind \"" + kind +
                  "\" (expected \"compute\", \"io\" or \"end\")");
    }

    const JsonValue* at = v.Find("at");
    if (at == nullptr || !ReadNs(*at, &op.at)) {
      return fail("\"at\" must be a non-negative integer (ns)");
    }
    if (!st.ops.empty() && op.at < st.ops.back().at) {
      return fail("arrivals of stream " + std::to_string(si) +
                  " must be non-decreasing (got " + std::to_string(op.at) +
                  " after " + std::to_string(st.ops.back().at) + ")");
    }

    if (op.kind == TraceOp::Kind::kEnd) {
      if (v.Find("burst_ns") != nullptr) {
        return fail("\"end\" must not carry \"burst_ns\"");
      }
      if (data.wrap > 0) {
        return fail(
            "\"end\" ops are not allowed in a cyclic trace (header sets "
            "\"wrap_ns\")");
      }
      st.has_end = true;
    } else {
      const JsonValue* b = v.Find("burst_ns");
      if (b == nullptr || !ReadNs(*b, &op.burst) || op.burst <= 0) {
        return fail("\"burst_ns\" must be a positive integer (ns)");
      }
      op.mem = default_mem;
      std::string msg;
      if (!ParseMemFields(v, &op.mem, &msg)) {
        return fail(msg);
      }
      if (op.kind == TraceOp::Kind::kIo) {
        st.has_io = true;
      }
    }
    st.ops.push_back(op);
  }

  if (!have_header) {
    if (error != nullptr) {
      *error = "line 1: empty trace (missing header record)";
    }
    return false;
  }
  if (data.wrap > 0) {
    for (size_t s = 0; s < data.streams.size(); ++s) {
      if (!data.streams[s].ops.empty() && data.streams[s].ops.back().at >= data.wrap) {
        if (error != nullptr) {
          *error = "\"wrap_ns\" (" + std::to_string(data.wrap) +
                   ") must exceed every arrival (stream " + std::to_string(s) +
                   " has an op at " + std::to_string(data.streams[s].ops.back().at) +
                   ")";
        }
        return false;
      }
    }
  }
  *out = std::move(data);
  return true;
}

bool LoadTraceFile(const std::string& path, TraceData* out, std::string* error) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) {
    if (error != nullptr) {
      *error = path + ": cannot read trace file";
    }
    return false;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  std::string perr;
  if (!ParseTrace(buf.str(), out, &perr)) {
    if (error != nullptr) {
      *error = path + ": " + perr;
    }
    return false;
  }
  return true;
}

// --- TraceReplayModel -------------------------------------------------------

TraceReplayModel::TraceReplayModel(std::shared_ptr<const TraceData> data, int stream)
    : data_(std::move(data)), stream_(stream) {
  AQL_CHECK(data_ != nullptr);
  AQL_CHECK(stream_ >= 0 && stream_ < static_cast<int>(data_->streams.size()));
}

void TraceReplayModel::OnAttach(WorkloadHost* host, int vcpu) {
  WorkloadModel::OnAttach(host, vcpu);
  window_start_ = host->Now();
  ScheduleNextIoNotification();
}

void TraceReplayModel::ScheduleNextIoNotification() {
  if (!data_->streams[static_cast<size_t>(stream_)].has_io) {
    return;
  }
  const std::vector<TraceOp>& v = ops();
  while (true) {
    if (io_idx_ >= v.size()) {
      if (data_->wrap <= 0) {
        return;
      }
      io_idx_ = 0;
      ++io_cycle_;
    }
    if (v[io_idx_].kind == TraceOp::Kind::kIo) {
      host_->ScheduleTimer(Effective(v[io_idx_].at, io_cycle_), vcpu_,
                           kIoArrivalTimer);
      return;
    }
    ++io_idx_;
  }
}

void TraceReplayModel::OnTimer(TimeNs now, int tag) {
  (void)now;
  if (tag != kIoArrivalTimer) {
    return;
  }
  // The recorded request arrives: event-channel notification (BOOST wake-up
  // path if the vCPU is blocked), then arm the next one.
  host_->NotifyIoEvent(vcpu_);
  ++io_idx_;
  ScheduleNextIoNotification();
}

Step TraceReplayModel::NextStep(TimeNs now) {
  if (finished_) {
    return Step::Finished();
  }
  if (!in_op_) {
    const std::vector<TraceOp>& v = ops();
    while (true) {
      if (idx_ >= v.size()) {
        if (data_->wrap > 0 && !v.empty()) {
          idx_ = 0;
          ++cycle_;
          continue;
        }
        finished_ = true;
        return Step::Finished();
      }
      const TraceOp& op = v[idx_];
      if (op.kind == TraceOp::Kind::kEnd) {
        finished_ = true;
        return Step::Finished();
      }
      const TimeNs arrival = Effective(op.at, cycle_);
      if (arrival > now) {
        return Step::Block(arrival);
      }
      cur_arrival_ = arrival;
      remaining_ = op.burst;
      in_op_ = true;
      break;
    }
  }
  const TraceOp& op = ops()[idx_];
  return Step::Compute(std::min<TimeNs>(remaining_, kTracePhase), op.mem);
}

void TraceReplayModel::OnStepEnd(TimeNs now, const Step& step, TimeNs work_done,
                                 bool completed) {
  (void)completed;
  if (!in_op_ || step.kind != Step::Kind::kCompute) {
    return;
  }
  done_window_ += work_done;
  remaining_ -= work_done;
  if (remaining_ <= 0) {
    ++completed_;
    latency_us_.Add(ToUs(now - cur_arrival_));
    in_op_ = false;
    ++idx_;
  }
}

PerfReport TraceReplayModel::Report(TimeNs now) const {
  PerfReport r;
  r.workload_name = data_->name;
  const double mean_lat = latency_us_.mean();
  r.metrics[PerfReport::kPrimaryMetric] = mean_lat;
  r.metrics["latency_mean_us"] = mean_lat;
  r.metrics["latency_p95_us"] = latency_us_.Percentile(95);
  r.metrics["latency_p99_us"] = latency_us_.Percentile(99);
  const double window_s = ToSec(now - window_start_);
  r.metrics["ops_per_s"] =
      window_s > 0 ? static_cast<double>(completed_) / window_s : 0.0;
  r.metrics["work_frac"] =
      now > window_start_
          ? static_cast<double>(done_window_) / static_cast<double>(now - window_start_)
          : 0.0;
  return r;
}

void TraceReplayModel::ResetMetrics(TimeNs now) {
  latency_us_.Reset();
  completed_ = 0;
  done_window_ = 0;
  window_start_ = now;
}

// --- TraceSource ------------------------------------------------------------

TraceSource::TraceSource(std::shared_ptr<const TraceData> data)
    : data_(std::move(data)) {
  AQL_CHECK(data_ != nullptr);
}

std::unique_ptr<TraceSource> TraceSource::Load(const std::string& path,
                                               std::string* error) {
  auto data = std::make_shared<TraceData>();
  if (!LoadTraceFile(path, data.get(), error)) {
    return nullptr;
  }
  return std::make_unique<TraceSource>(std::move(data));
}

std::vector<std::unique_ptr<WorkloadModel>> TraceSource::MakeModels() {
  std::vector<std::unique_ptr<WorkloadModel>> out;
  out.reserve(data_->streams.size());
  for (int s = 0; s < Streams(); ++s) {
    out.push_back(std::make_unique<TraceReplayModel>(data_, s));
  }
  return out;
}

bool TraceSource::StreamHasIo(int stream) const {
  AQL_CHECK(stream >= 0 && stream < Streams());
  return data_->streams[static_cast<size_t>(stream)].has_io;
}

}  // namespace aql
