// The parts of the benchmark harness whose arithmetic or checks are tested
// on their own (lib_test.cc): percentiles with their sample counts,
// operation counting, golden and result comparison, and the span recorder
// with its self-time rule.

#ifndef PERFBENCH_LIB_H_
#define PERFBENCH_LIB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/experiment/runner.h"
#include "src/experiment/scenarios.h"

namespace perfbench {

// Host monotonic clock in nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

// Percentile `q` in [0, 1] of `values`, interpolating linearly between the
// two closest ranks. 0 for an empty input.
double Percentile(std::vector<double> values, double q);

// Median and 90th percentile of a timing, with the number of samples they
// were taken from. The p90 is backed by at least ten samples beyond it only
// when samples >= 100 (`p90_supported`).
struct Distribution {
  double p50 = 0.0;
  double p90 = 0.0;
  size_t samples = 0;
  bool p90_supported() const { return samples >= 100; }
};
Distribution Summarize(const std::vector<double>& values);

// Operations attempted and failed; an operation counts once, whether it
// failed one check or several.
struct OkCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Record(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
  void Add(const OkCount& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
  // Share of attempted operations that succeeded (0 when none attempted).
  double Frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(attempted - failed) /
                                static_cast<double>(attempted);
  }
};

// True when both files exist and hold the same bytes.
bool FilesEqual(const std::string& a, const std::string& b);

// Checks the BENCH_<sweep>.json files one aql_bench child wrote to
// `out_dir`, one operation per sweep found in `out_dir` or `golden_dir`: a
// sweep with a committed golden must match it byte for byte, one without
// must parse with no failed cell, and a non-zero `exit_code` fails every
// sweep. Appends a line per failed sweep to `failures`.
OkCount CheckSuiteOutputs(const std::string& out_dir, const std::string& golden_dir,
                          int exit_code, std::vector<std::string>* failures);

// Sanity checks on one finished single-machine cell: one report per vCPU of
// the spec, utilization within [0, 1], a finite positive primary cost for
// every vCPU, the requested measurement window and at least one event.
// Returns the first failed check, or "" when the cell passes.
std::string CheckCell(const aql::ScenarioSpec& spec, const aql::ScenarioResult& r);

// Field-for-field comparison of two results of the same cell, ignoring the
// host-time fields (wall_seconds, profile). Returns the first differing
// field, or "" when the simulated outputs are identical.
std::string DiffResults(const aql::ScenarioResult& a, const aql::ScenarioResult& b);

// vCPU-weighted mean, over the application groups of a Xen cell, of each
// group's AQL/Xen cost ratio (aql::NormalizedPerf; below 1 means AQL helps).
// The groups' primary costs have different units (IO latency in µs, spin
// cycle time in ns, slowdowns), so only their ratios are averaged. Groups
// with no positive Xen cost or no AQL twin are skipped; 0 when none is left.
double WeightedNormalized(const aql::ScenarioResult& xen,
                          const aql::ScenarioResult& aql_result);

// One recorded span: a name, a start and an end on the host clock, the span
// that was open when it began (its parent, -1 for none), the cell it
// belongs to, and a weight: a sampled span stands for `weight` calls of
// which only one was timed.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int cell = -1;
  double weight = 1.0;
  int64_t duration() const { return end_ns - start_ns; }
};

// Self time of every span: its duration minus weight x duration of each
// direct child. Children of one parent never overlap (spans nest on one
// thread), so the sum is the part of the parent the children cover; a
// sampled child counts for the calls it stands for.
std::vector<double> SelfNs(const std::vector<Span>& spans);

// In-memory span recorder. Spans are written out once, at the end, as
// Chrome trace-event JSON.
class Tracer {
 public:
  // Registers a cell label; returns its id for Begin/Record.
  int AddCell(const std::string& label);

  // Opens a span now, as a child of the innermost open span; returns its id.
  int Begin(const char* name, int cell);
  // Closes span `id` now; it must be the innermost open span.
  void End(int id);
  // Records a finished span [start_ns, end_ns) as a child of the innermost
  // open span.
  void Record(const char* name, int cell, int64_t start_ns, int64_t end_ns,
              double weight = 1.0);

  const std::vector<Span>& spans() const { return spans_; }

  // Chrome trace-event JSON ("X" complete events, microsecond timestamps
  // relative to the first span; one thread row per cell).
  std::string ChromeJson() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<std::string> cells_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LIB_H_
