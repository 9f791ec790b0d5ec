// Tests for the sliding-window vTRS classifier.

#include <gtest/gtest.h>

#include "src/core/vtrs.h"

namespace aql {
namespace {

Levels IoLevels(double events) {
  Levels l;
  l.io_events = events;
  l.llc_rr = 2.0;
  l.llc_mr_pct = 90.0;
  return l;
}

Levels LlcfLevels() {
  Levels l;
  l.llc_rr = 3.0;
  l.llc_mr_pct = 5.0;
  return l;
}

Levels LlcoLevels() {
  Levels l;
  l.llc_rr = 4.0;
  l.llc_mr_pct = 95.0;
  l.mpki = 3.0;  // trashing, but nowhere near bandwidth saturation
  return l;
}

Levels MemBwLevels() {
  Levels l;
  l.llc_rr = 12.0;
  l.llc_mr_pct = 98.0;
  l.mpki = 25.0;
  return l;
}

Levels RemoteLevels() {
  Levels l;
  l.llc_rr = 2.5;
  l.llc_mr_pct = 90.0;
  l.mpki = 2.0;
  l.remote_ratio = 0.85;
  return l;
}

Levels QuietComputeLevels() {
  // Background computation between I/O bursts: no events, LLC-resident set.
  Levels l;
  l.llc_rr = 2.0;
  l.llc_mr_pct = 35.0;
  return l;
}

TEST(VtrsTest, UnobservedVcpuHasZeroCursors) {
  Vtrs vtrs;
  const CursorSet avg = vtrs.Average(42);
  EXPECT_DOUBLE_EQ(avg.io, 0.0);
  EXPECT_EQ(vtrs.SampleCount(42), 0);
}

TEST(VtrsTest, WindowFillsToConfiguredLength) {
  Vtrs vtrs;
  for (int i = 1; i <= kVtrsWindow; ++i) {
    vtrs.Observe(0, LlcfLevels());
    EXPECT_EQ(vtrs.SampleCount(0), i);
  }
  vtrs.Observe(0, LlcfLevels());
  EXPECT_EQ(vtrs.SampleCount(0), kVtrsWindow);  // slides, does not grow
}

TEST(VtrsTest, SteadySignalClassifies) {
  Vtrs vtrs;
  for (int i = 0; i < 4; ++i) {
    vtrs.Observe(0, IoLevels(10));
    vtrs.Observe(1, LlcfLevels());
    vtrs.Observe(2, LlcoLevels());
  }
  EXPECT_EQ(vtrs.TypeOf(0), VcpuType::kIoInt);
  EXPECT_EQ(vtrs.TypeOf(1), VcpuType::kLlcf);
  EXPECT_EQ(vtrs.TypeOf(2), VcpuType::kLlco);
  EXPECT_TRUE(IsTrashing(vtrs.Average(2)));
  EXPECT_FALSE(IsTrashing(vtrs.Average(1)));
}

TEST(VtrsTest, WindowSmoothsTransients) {
  Vtrs vtrs;
  for (int i = 0; i < 4; ++i) {
    vtrs.Observe(0, LlcfLevels());
  }
  // One noisy LLCO period does not flip a full LLCF window.
  vtrs.Observe(0, LlcoLevels());
  EXPECT_EQ(vtrs.TypeOf(0), VcpuType::kLlcf);
  // But a sustained change does.
  for (int i = 0; i < 3; ++i) {
    vtrs.Observe(0, LlcoLevels());
  }
  EXPECT_EQ(vtrs.TypeOf(0), VcpuType::kLlco);
}

TEST(VtrsTest, TypeTransitionLatencyIsWindowBound) {
  Vtrs vtrs;
  for (int i = 0; i < 8; ++i) {
    vtrs.Observe(0, IoLevels(10));
  }
  int periods = 0;
  while (vtrs.TypeOf(0) != VcpuType::kLlcf && periods < 10) {
    vtrs.Observe(0, LlcfLevels());
    ++periods;
  }
  EXPECT_LE(periods, kVtrsWindow);
}

TEST(VtrsTest, ExtendedMemoryTypesClassify) {
  Vtrs vtrs;
  for (int i = 0; i < 4; ++i) {
    vtrs.Observe(0, MemBwLevels());
    vtrs.Observe(1, RemoteLevels());
  }
  EXPECT_EQ(vtrs.TypeOf(0), VcpuType::kMemBw);
  EXPECT_EQ(vtrs.TypeOf(1), VcpuType::kNumaRemote);
  // Streaming trashes co-residents; remote-bound misses mostly do not.
  EXPECT_TRUE(IsTrashing(vtrs.Average(0)));
}

TEST(VtrsTest, DiurnalIoReadsBursty) {
  Vtrs vtrs;
  // On/off I/O phases: the window mixes saturated and silent I/O periods.
  for (int i = 0; i < 8; ++i) {
    vtrs.Observe(0, i % 4 < 2 ? IoLevels(10) : QuietComputeLevels());
  }
  const CursorSet avg = vtrs.Average(0);
  EXPECT_DOUBLE_EQ(avg.bursty, 100.0);
  EXPECT_EQ(vtrs.TypeOf(0), VcpuType::kBurstyIo);
}

TEST(VtrsTest, SteadyIoIsNotBursty) {
  Vtrs vtrs;
  for (int i = 0; i < 8; ++i) {
    vtrs.Observe(0, IoLevels(10));
  }
  EXPECT_DOUBLE_EQ(vtrs.Average(0).bursty, 0.0);
  EXPECT_EQ(vtrs.TypeOf(0), VcpuType::kIoInt);
}

TEST(VtrsTest, BurstyGateSuppressesRampNoise) {
  Vtrs vtrs;
  // A ramping steady server: one slow period then saturation. Spread 50 is
  // below the gate (kBurstySpreadLimit, 60), so the vCPU stays IOInt.
  auto ramp = [](double events) {
    Levels l = QuietComputeLevels();
    l.io_events = events;
    return l;
  };
  vtrs.Observe(0, ramp(1));  // io cursor 50
  for (int i = 0; i < 3; ++i) {
    vtrs.Observe(0, ramp(10));  // io cursor 100
  }
  EXPECT_DOUBLE_EQ(vtrs.Average(0).bursty, 0.0);
  EXPECT_EQ(vtrs.TypeOf(0), VcpuType::kIoInt);
}

TEST(VtrsTest, SingleSampleWindowHasNoBurstyCursor) {
  Vtrs vtrs;
  vtrs.Observe(0, IoLevels(10));
  EXPECT_DOUBLE_EQ(vtrs.Average(0).bursty, 0.0);
}

TEST(VtrsTest, AverageIsMeanOfWindow) {
  ASSERT_EQ(kVtrsWindow, 4);
  Vtrs vtrs;
  vtrs.Observe(0, IoLevels(0));  // io cursor 0, slides out below
  for (int i = 0; i < 2; ++i) {
    vtrs.Observe(0, IoLevels(10));  // io cursor 100
    vtrs.Observe(0, IoLevels(1));   // io cursor 50
  }
  EXPECT_NEAR(vtrs.Average(0).io, 75.0, 1e-9);
  EXPECT_NEAR(vtrs.Latest(0).io, 50.0, 1e-9);
}

}  // namespace
}  // namespace aql
