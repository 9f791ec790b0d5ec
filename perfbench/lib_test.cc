// Tests of the harness's own arithmetic and checks (lib.h).

#include "lib.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {
namespace {

namespace fs = std::filesystem;

TEST(PercentileTest, InterpolatesBetweenRanksAndCountsSamples) {
  const std::vector<double> values = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT_DOUBLE_EQ(Percentile(values, 0.5), 5.5);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.9), 9.1);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);

  const Distribution d = Summarize(values);
  EXPECT_DOUBLE_EQ(d.p50, 5.5);
  EXPECT_DOUBLE_EQ(d.p90, 9.1);
  EXPECT_EQ(d.samples, 10u);
  EXPECT_FALSE(d.p90_supported());
  EXPECT_TRUE(Summarize(std::vector<double>(100, 1.0)).p90_supported());
}

TEST(OkCountTest, CountsEachOperationOnce) {
  OkCount ok;
  EXPECT_DOUBLE_EQ(ok.Frac(), 0.0);
  ok.Record(true);
  ok.Record(false);
  ok.Record(true);
  ok.Record(true);
  EXPECT_EQ(ok.attempted, 4u);
  EXPECT_EQ(ok.failed, 1u);
  EXPECT_DOUBLE_EQ(ok.Frac(), 0.75);
  OkCount more;
  more.Record(false);
  ok.Add(more);
  EXPECT_EQ(ok.attempted, 5u);
  EXPECT_EQ(ok.failed, 2u);
}

class SuiteOutputsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const ::testing::UnitTest* unit = ::testing::UnitTest::GetInstance();
    root_ = fs::temp_directory_path() /
            ("perfbench_test_" + std::to_string(unit->random_seed()) + "_" +
             unit->current_test_info()->name());
    fs::remove_all(root_);
    fs::create_directories(root_ / "golden");
    fs::create_directories(root_ / "out");
  }
  void TearDown() override { fs::remove_all(root_); }

  void Write(const std::string& rel, const std::string& text) {
    std::ofstream(root_ / rel) << text;
  }
  std::string Path(const std::string& rel) const { return (root_ / rel).string(); }

  fs::path root_;
};

TEST_F(SuiteOutputsTest, FilesEqualComparesBytes) {
  Write("out/a", "same bytes\n");
  Write("out/b", "same bytes\n");
  Write("out/c", "same bytes \n");
  EXPECT_TRUE(FilesEqual(Path("out/a"), Path("out/b")));
  EXPECT_FALSE(FilesEqual(Path("out/a"), Path("out/c")));
  EXPECT_FALSE(FilesEqual(Path("out/a"), Path("out/missing")));
}

TEST_F(SuiteOutputsTest, GoldensMustMatchAndOthersMustParseCleanly) {
  const std::string doc = "{\"bench\": \"x\", \"cells\": [{\"id\": \"a\"}]}\n";
  Write("golden/BENCH_x.json", doc);
  Write("golden/BENCH_y.json", doc);
  Write("golden/BENCH_gone.json", doc);
  Write("out/BENCH_x.json", doc);
  Write("out/BENCH_y.json", "{\"bench\": \"y\", \"cells\": []}\n");
  Write("out/BENCH_report.json", doc);
  Write("out/BENCH_broken.json", "{\"cells\": [{\"id\": \"a\", \"error\": \"boom\"}]}");
  Write("out/notes.txt", "not a sweep");

  std::vector<std::string> failures;
  const OkCount ok = CheckSuiteOutputs(Path("out"), Path("golden"), 0, &failures);
  // x matches; y differs; gone is missing; report parses; broken has an
  // error cell.
  EXPECT_EQ(ok.attempted, 5u);
  EXPECT_EQ(ok.failed, 3u);
  ASSERT_EQ(failures.size(), 3u);
  EXPECT_EQ(failures[0], "BENCH_broken.json: does not parse cleanly");
  EXPECT_EQ(failures[1], "BENCH_gone.json: differs from its golden");
  EXPECT_EQ(failures[2], "BENCH_y.json: differs from its golden");
}

TEST_F(SuiteOutputsTest, NonZeroExitFailsEverySweep) {
  const std::string doc = "{\"cells\": []}\n";
  Write("golden/BENCH_x.json", doc);
  Write("out/BENCH_x.json", doc);
  Write("out/BENCH_report.json", doc);
  std::vector<std::string> failures;
  const OkCount ok = CheckSuiteOutputs(Path("out"), Path("golden"), 1, &failures);
  EXPECT_EQ(ok.attempted, 2u);
  EXPECT_EQ(ok.failed, 2u);
}

aql::ScenarioSpec TwoVcpuSpec() {
  aql::ScenarioSpec spec;
  spec.vms = {aql::VmSpec{"hmmer", 1}, aql::VmSpec{"bzip2", 1}};
  spec.measure = aql::Ms(1500);
  return spec;
}

aql::ScenarioResult PassingResult() {
  aql::ScenarioResult r;
  r.scenario = "s";
  r.policy = "Xen(30ms)";
  for (const char* app : {"hmmer", "bzip2"}) {
    aql::PerfReport p;
    p.workload_name = app;
    p.metrics[aql::PerfReport::kPrimaryMetric] = 1.5;
    r.reports.push_back(p);
  }
  r.groups = aql::GroupReports(r.reports);
  r.measure_window = aql::Ms(1500);
  r.cpu_utilization = 0.75;
  r.events_processed = 1000;
  return r;
}

TEST(CheckCellTest, AcceptsASaneCellAndNamesTheFirstFailedCheck) {
  const aql::ScenarioSpec spec = TwoVcpuSpec();
  EXPECT_EQ(CheckCell(spec, PassingResult()), "");

  aql::ScenarioResult missing = PassingResult();
  missing.reports.pop_back();
  EXPECT_EQ(CheckCell(spec, missing), "reports 1 vCPUs of 2");

  aql::ScenarioResult busy = PassingResult();
  busy.cpu_utilization = 1.01;
  EXPECT_NE(CheckCell(spec, busy).find("cpu_utilization"), std::string::npos);

  aql::ScenarioResult nan = PassingResult();
  nan.reports[1].metrics[aql::PerfReport::kPrimaryMetric] =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(CheckCell(spec, nan).find("vCPU 1 primary cost"), std::string::npos);

  aql::ScenarioResult short_window = PassingResult();
  short_window.measure_window = aql::Ms(1000);
  EXPECT_NE(CheckCell(spec, short_window).find("measure window"), std::string::npos);
}

TEST(DiffResultsTest, IgnoresHostTimeAndNamesTheFirstDifference) {
  const aql::ScenarioResult a = PassingResult();
  aql::ScenarioResult b = PassingResult();
  b.wall_seconds = 3.0;
  b.profile["sim_seconds"] = 2.0;
  EXPECT_EQ(DiffResults(a, b), "");

  b.groups[1].metrics["slowdown"] = 1.0;
  EXPECT_EQ(DiffResults(a, b), "groups[bzip2]");

  aql::ScenarioResult c = PassingResult();
  c.detected_types[0] = aql::VcpuType::kLoLcf;
  EXPECT_EQ(DiffResults(a, c), "detected_types");

  aql::ScenarioResult d = PassingResult();
  d.events_processed += 1;
  EXPECT_EQ(DiffResults(a, d), "events_processed");
}

TEST(WeightedNormalizedTest, AveragesGroupRatiosWeightedByVcpus) {
  // A 4-vCPU group whose cost is a spin cycle time in ns beside a 12-vCPU
  // group whose cost is a slowdown: averaging raw costs would let the first
  // outweigh the second a millionfold.
  aql::ScenarioResult xen;
  xen.groups = {aql::GroupPerf{"kernbench", 4, 1e6, {}},
                aql::GroupPerf{"hmmer", 12, 2.0, {}}};
  aql::ScenarioResult aql_result;
  aql_result.groups = {aql::GroupPerf{"kernbench", 4, 0.5e6, {}},
                       aql::GroupPerf{"hmmer", 12, 2.0, {}}};
  EXPECT_DOUBLE_EQ(WeightedNormalized(xen, aql_result), (4 * 0.5 + 12 * 1.0) / 16);

  // A group with no positive Xen cost or no AQL twin is skipped.
  xen.groups.push_back(aql::GroupPerf{"idle", 8, 0.0, {}});
  aql_result.groups.push_back(aql::GroupPerf{"idle", 8, 1.0, {}});
  xen.groups.push_back(aql::GroupPerf{"gone", 8, 3.0, {}});
  EXPECT_DOUBLE_EQ(WeightedNormalized(xen, aql_result), (4 * 0.5 + 12 * 1.0) / 16);
  EXPECT_EQ(WeightedNormalized(aql::ScenarioResult{}, aql_result), 0.0);
}

TEST(TracerTest, SelfTimeSubtractsWeightedDirectChildrenOnly) {
  // cell [0, 1000) > run [100, 900) > controller [200, 300) > one workload
  // sample [210, 220) of weight 5; another sample [400, 410) of weight 5
  // directly under run.
  const std::vector<Span> spans = {{"cell", 0, 1000, -1, 0, 1.0},
                                   {"run", 100, 900, 0, 0, 1.0},
                                   {"controller", 200, 300, 1, 0, 1.0},
                                   {"workload", 210, 220, 2, 0, 5.0},
                                   {"workload", 400, 410, 1, 0, 5.0}};
  const std::vector<double> self = SelfNs(spans);
  ASSERT_EQ(self.size(), 5u);
  EXPECT_DOUBLE_EQ(self[0], 1000 - 800);      // only run is a direct child
  EXPECT_DOUBLE_EQ(self[1], 800 - 100 - 50);  // controller, 5 x the sample
  EXPECT_DOUBLE_EQ(self[2], 100 - 50);
  EXPECT_DOUBLE_EQ(self[3], 10);
  EXPECT_DOUBLE_EQ(self[4], 10);
}

TEST(TracerTest, SpansNestUnderTheInnermostOpenSpan) {
  Tracer t;
  const int cell = t.AddCell("c");
  const int outer = t.Begin("cell", cell);
  const int run = t.Begin("run", cell);
  const int ctl = t.Begin("controller", cell);
  t.Record("workload", cell, 5, 7, 61.0);
  t.End(ctl);
  t.Record("workload", cell, 8, 9, 61.0);
  t.End(run);
  t.End(outer);
  const std::vector<Span>& s = t.spans();
  ASSERT_EQ(s.size(), 5u);
  EXPECT_EQ(s[outer].parent, -1);
  EXPECT_EQ(s[run].parent, outer);
  EXPECT_EQ(s[ctl].parent, run);
  EXPECT_EQ(s[3].parent, ctl);
  EXPECT_EQ(s[4].parent, run);
  EXPECT_DOUBLE_EQ(s[4].weight, 61.0);
  EXPECT_GE(s[outer].end_ns, s[run].end_ns);

  const std::string json = t.ChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"controller\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"c\"}"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
