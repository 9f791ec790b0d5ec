#include "lib.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>

#include "src/experiment/json_out.h"
#include "src/metrics/report.h"
#include "src/sim/check.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

Distribution Summarize(const std::vector<double>& values) {
  Distribution d;
  d.p50 = Percentile(values, 0.5);
  d.p90 = Percentile(values, 0.9);
  d.samples = values.size();
  return d;
}

bool FilesEqual(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  if (!fa || !fb) {
    return false;
  }
  return std::equal(std::istreambuf_iterator<char>(fa), std::istreambuf_iterator<char>(),
                    std::istreambuf_iterator<char>(fb), std::istreambuf_iterator<char>());
}

namespace {

std::set<std::string> BenchFiles(const std::string& dir) {
  std::set<std::string> names;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind("BENCH_", 0) == 0 && entry.path().extension() == ".json") {
      names.insert(file);
    }
  }
  return names;
}

// A sweep document that parses, has its cells, and records no failure.
bool CleanSweep(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream text;
  text << f.rdbuf();
  const aql::JsonValue doc = aql::JsonValue::Parse(text.str());
  const aql::JsonValue* cells = doc.IsObject() ? doc.Find("cells") : nullptr;
  if (cells == nullptr || !cells->IsArray() || doc.Find("failed_cells") != nullptr) {
    return false;
  }
  for (const aql::JsonValue& c : cells->Items()) {
    if (!c.IsObject() || c.Find("error") != nullptr) {
      return false;
    }
  }
  return true;
}

}  // namespace

OkCount CheckSuiteOutputs(const std::string& out_dir, const std::string& golden_dir,
                          int exit_code, std::vector<std::string>* failures) {
  const std::set<std::string> goldens = BenchFiles(golden_dir);
  std::set<std::string> sweeps = BenchFiles(out_dir);
  sweeps.insert(goldens.begin(), goldens.end());
  OkCount ok;
  for (const std::string& file : sweeps) {
    const std::string out = out_dir + "/" + file;
    std::string failure;
    if (exit_code != 0) {
      failure = "aql_bench exited " + std::to_string(exit_code);
    } else if (goldens.count(file) > 0) {
      failure = FilesEqual(out, golden_dir + "/" + file) ? "" : "differs from its golden";
    } else {
      failure = CleanSweep(out) ? "" : "does not parse cleanly";
    }
    ok.Record(failure.empty());
    if (!failure.empty()) {
      failures->push_back(file + ": " + failure);
    }
  }
  return ok;
}

std::string CheckCell(const aql::ScenarioSpec& spec, const aql::ScenarioResult& r) {
  size_t vcpus = 0;
  for (const aql::VmSpec& vm : spec.vms) {
    vcpus += static_cast<size_t>(vm.vcpus);
  }
  if (r.reports.size() != vcpus) {
    return "reports " + std::to_string(r.reports.size()) + " vCPUs of " +
           std::to_string(vcpus);
  }
  if (!(r.cpu_utilization >= 0.0 && r.cpu_utilization <= 1.0)) {
    return "cpu_utilization " + aql::JsonNumber(r.cpu_utilization) + " outside [0, 1]";
  }
  for (size_t v = 0; v < r.reports.size(); ++v) {
    const double primary = r.reports[v].primary();
    if (!std::isfinite(primary) || primary <= 0.0) {
      return "vCPU " + std::to_string(v) + " primary cost " + aql::JsonNumber(primary);
    }
  }
  if (r.measure_window != spec.measure) {
    return "measure window " + std::to_string(r.measure_window) + " ns, requested " +
           std::to_string(spec.measure);
  }
  if (r.events_processed == 0) {
    return "no events processed";
  }
  return "";
}

double WeightedNormalized(const aql::ScenarioResult& xen,
                          const aql::ScenarioResult& aql_result) {
  double weighted = 0.0;
  double vcpus = 0.0;
  for (const aql::GroupPerf& g : xen.groups) {
    if (g.primary > 0 && aql::HasGroup(aql_result.groups, g.name)) {
      weighted +=
          aql::NormalizedPerf(aql::FindGroup(aql_result.groups, g.name), g) * g.vcpus;
      vcpus += g.vcpus;
    }
  }
  return vcpus > 0 ? weighted / vcpus : 0.0;
}

namespace {

bool Same(double a, double b) { return a == b || (std::isnan(a) && std::isnan(b)); }

bool SameMetrics(const std::map<std::string, double>& a,
                 const std::map<std::string, double>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    if (ia->first != ib->first || !Same(ia->second, ib->second)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string DiffResults(const aql::ScenarioResult& a, const aql::ScenarioResult& b) {
  if (a.scenario != b.scenario || a.policy != b.policy) {
    return "scenario/policy";
  }
  if (a.reports.size() != b.reports.size()) {
    return "reports.size";
  }
  for (size_t i = 0; i < a.reports.size(); ++i) {
    if (a.reports[i].workload_name != b.reports[i].workload_name ||
        !SameMetrics(a.reports[i].metrics, b.reports[i].metrics)) {
      return "reports[" + std::to_string(i) + "]";
    }
  }
  if (a.groups.size() != b.groups.size()) {
    return "groups.size";
  }
  for (size_t i = 0; i < a.groups.size(); ++i) {
    const aql::GroupPerf& ga = a.groups[i];
    const aql::GroupPerf& gb = b.groups[i];
    if (ga.name != gb.name || ga.vcpus != gb.vcpus || !Same(ga.primary, gb.primary) ||
        !SameMetrics(ga.metrics, gb.metrics)) {
      return "groups[" + ga.name + "]";
    }
  }
  if (a.measure_window != b.measure_window) {
    return "measure_window";
  }
  if (!Same(a.cpu_utilization, b.cpu_utilization)) {
    return "cpu_utilization";
  }
  if (a.controller_overhead != b.controller_overhead) {
    return "controller_overhead";
  }
  if (a.events_processed != b.events_processed) {
    return "events_processed";
  }
  if (a.detected_types != b.detected_types) {
    return "detected_types";
  }
  if (a.pools.size() != b.pools.size()) {
    return "pools.size";
  }
  for (size_t i = 0; i < a.pools.size(); ++i) {
    const auto& pa = a.pools[i];
    const auto& pb = b.pools[i];
    if (pa.label != pb.label || pa.quantum != pb.quantum || pa.pcpus != pb.pcpus ||
        pa.vcpus != pb.vcpus) {
      return "pools[" + std::to_string(i) + "]";
    }
  }
  if (a.plan_applications != b.plan_applications) {
    return "plan_applications";
  }
  return "";
}

int Tracer::AddCell(const std::string& label) {
  cells_.push_back(label);
  return static_cast<int>(cells_.size()) - 1;
}

int Tracer::Begin(const char* name, int cell) {
  Span s;
  s.name = name;
  s.start_ns = NowNs();
  s.end_ns = s.start_ns;
  s.parent = open_.empty() ? -1 : open_.back();
  s.cell = cell;
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  AQL_CHECK_MSG(!open_.empty() && open_.back() == id, "spans must close innermost first");
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  open_.pop_back();
}

void Tracer::Record(const char* name, int cell, int64_t start_ns, int64_t end_ns,
                    double weight) {
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = open_.empty() ? -1 : open_.back();
  s.cell = cell;
  s.weight = weight;
  spans_.push_back(s);
}

std::vector<double> SelfNs(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] += static_cast<double>(spans[i].duration());
    if (spans[i].parent >= 0) {
      self[static_cast<size_t>(spans[i].parent)] -=
          spans[i].weight * static_cast<double>(spans[i].duration());
    }
  }
  return self;
}

std::string Tracer::ChromeJson() const {
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  const char* sep = "\n";
  for (size_t c = 0; c < cells_.size(); ++c) {
    out << sep << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << c + 1
        << ",\"args\":{\"name\":" << aql::JsonQuote(cells_[c]) << "}}";
    sep = ",\n";
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << sep << "{\"name\":" << aql::JsonQuote(s.name) << ",\"ph\":\"X\",\"pid\":1"
        << ",\"tid\":" << s.cell + 1
        << ",\"ts\":" << aql::JsonNumber(static_cast<double>(s.start_ns - origin) / 1e3)
        << ",\"dur\":" << aql::JsonNumber(static_cast<double>(s.duration()) / 1e3)
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"weight\":" << aql::JsonNumber(s.weight) << "}}";
    sep = ",\n";
  }
  out << "\n]}\n";
  return out.str();
}

}  // namespace perfbench
