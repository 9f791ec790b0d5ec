// Tests for the statistics, table rendering and report grouping helpers.

#include <gtest/gtest.h>

#include "src/metrics/report.h"
#include "src/metrics/stats.h"
#include "src/metrics/table.h"

namespace aql {
namespace {

TEST(StatAccumulatorTest, Basics) {
  StatAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  for (double x : {2.0, 4.0, 6.0}) {
    acc.Add(x);
  }
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.mean(), 4.0);
  acc.Reset();
  EXPECT_EQ(acc.count(), 0u);
}

TEST(SampleStatsTest, PercentilesExact) {
  SampleStats s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_NEAR(s.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(s.Percentile(95), 95.05, 0.1);
}

TEST(SampleStatsTest, DecimationKeepsMeanAndBounds) {
  SampleStats s(64);
  // Pseudo-random uniform input (systematic decimation would alias on
  // periodic input, which is fine for our stationary workloads but not for
  // an adversarial test vector).
  uint64_t state = 12345;
  for (int i = 0; i < 100000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    s.Add(static_cast<double>((state >> 33) % 1000));
  }
  EXPECT_EQ(s.count(), 100000u);
  EXPECT_NEAR(s.mean(), 499.5, 5.0);            // exact (accumulator-based)
  EXPECT_NEAR(s.Percentile(50), 500.0, 100.0);  // approximate (decimated)
}

TEST(SampleStatsTest, EmptyIsZero) {
  SampleStats s;
  EXPECT_DOUBLE_EQ(s.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "2.5"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 2.5   |"), std::string::npos);
}

TEST(TextTableTest, NumFormatting) {
  EXPECT_EQ(TextTable::Num(1.2345, 2), "1.23");
  EXPECT_EQ(TextTable::Num(3.0, 0), "3");
}

TEST(ReportTest, GroupsAndAverages) {
  PerfReport a;
  a.workload_name = "web";
  a.metrics[PerfReport::kPrimaryMetric] = 10.0;
  a.metrics["latency_mean_us"] = 10.0;
  PerfReport b;
  b.workload_name = "web";
  b.metrics[PerfReport::kPrimaryMetric] = 20.0;
  b.metrics["latency_mean_us"] = 20.0;
  PerfReport c;
  c.workload_name = "batch";
  c.metrics[PerfReport::kPrimaryMetric] = 4.0;

  const auto groups = GroupReports({a, b, c});
  ASSERT_EQ(groups.size(), 2u);
  const GroupPerf& web = FindGroup(groups, "web");
  EXPECT_EQ(web.vcpus, 2);
  EXPECT_DOUBLE_EQ(web.primary, 15.0);
  EXPECT_DOUBLE_EQ(web.metrics.at("latency_mean_us"), 15.0);
  EXPECT_TRUE(HasGroup(groups, "batch"));
  EXPECT_FALSE(HasGroup(groups, "nope"));
}

TEST(ReportTest, NormalizedPerf) {
  GroupPerf measured;
  measured.primary = 8.0;
  GroupPerf baseline;
  baseline.primary = 10.0;
  EXPECT_DOUBLE_EQ(NormalizedPerf(measured, baseline), 0.8);
}

}  // namespace
}  // namespace aql
