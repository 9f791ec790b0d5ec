// Tests for the vTRS cursor algebra (equations 1-5) and classification,
// including parameterized property sweeps over the level space.

#include <gtest/gtest.h>

#include "src/core/cursors.h"

namespace aql {
namespace {

TEST(CursorsTest, IoCursorSaturatesAtLimit) {
  Levels l;
  l.io_events = 1.0;
  EXPECT_DOUBLE_EQ(ComputeCursors(l).io, 50.0);
  l.io_events = 2.0;
  EXPECT_DOUBLE_EQ(ComputeCursors(l).io, 100.0);
  l.io_events = 50.0;
  EXPECT_DOUBLE_EQ(ComputeCursors(l).io, 100.0);
}

TEST(CursorsTest, ConSpinCursorSaturatesAtLimit) {
  Levels l;
  l.pause_exits = 2.5;
  EXPECT_DOUBLE_EQ(ComputeCursors(l).conspin, 50.0);
  l.pause_exits = 500;
  EXPECT_DOUBLE_EQ(ComputeCursors(l).conspin, 100.0);
}

TEST(CursorsTest, PureLoLcfProfile) {
  Levels l;
  l.llc_rr = 0.02;  // almost no LLC references
  const CursorSet c = ComputeCursors(l);
  EXPECT_NEAR(c.lolcf, 98.0, 0.1);
  EXPECT_NEAR(c.lolcf + c.llcf + c.llco, 100.0, 1e-9);
}

TEST(CursorsTest, PureLlcfProfile) {
  Levels l;
  l.llc_rr = 3.0;      // many references
  l.llc_mr_pct = 4.0;  // nearly all hit
  const CursorSet c = ComputeCursors(l);
  EXPECT_DOUBLE_EQ(c.lolcf, 0.0);
  EXPECT_NEAR(c.llcf, 95.0, 0.1);
  EXPECT_NEAR(c.llco, 5.0, 0.1);
}

TEST(CursorsTest, PureLlcoProfile) {
  Levels l;
  l.llc_rr = 5.0;
  l.llc_mr_pct = 92.0;  // above the limit
  const CursorSet c = ComputeCursors(l);
  EXPECT_DOUBLE_EQ(c.llcf, 0.0);
  EXPECT_DOUBLE_EQ(c.llco, 100.0);
}

TEST(CursorsTest, LlcfCappedByComplementOfLoLcf) {
  // Equation (4): LLCF cannot exceed 100 - LoLCF even with a tiny miss rate.
  Levels l;
  l.llc_rr = 0.5;  // LoLCF cursor = 50
  l.llc_mr_pct = 0.0;
  const CursorSet c = ComputeCursors(l);
  EXPECT_DOUBLE_EQ(c.lolcf, 50.0);
  EXPECT_DOUBLE_EQ(c.llcf, 50.0);
  EXPECT_DOUBLE_EQ(c.llco, 0.0);
}

TEST(CursorsTest, MemBwCarvedFromOverflowMass) {
  Levels l;
  l.llc_rr = 5.0;
  l.llc_mr_pct = 92.0;  // trashing profile
  l.mpki = 24.0;        // twice the MemBw limit: fully bandwidth-saturating
  const CursorSet c = ComputeCursors(l);
  EXPECT_DOUBLE_EQ(c.membw, 100.0);
  EXPECT_DOUBLE_EQ(c.llco, 0.0);
  EXPECT_EQ(Classify(c), VcpuType::kMemBw);
}

TEST(CursorsTest, ModerateMpkiSplitsLlcoAndMemBw) {
  Levels l;
  l.llc_rr = 5.0;
  l.llc_mr_pct = 92.0;
  l.mpki = 3.0;  // a quarter of the limit: ordinary LLCO trasher
  const CursorSet c = ComputeCursors(l);
  EXPECT_DOUBLE_EQ(c.membw, 12.5);  // sub-limit carve: 3/12 of the 0..50 ramp
  EXPECT_DOUBLE_EQ(c.llco, 87.5);
  EXPECT_EQ(Classify(c), VcpuType::kLlco);
}

TEST(CursorsTest, ClassificationFlipsAtTheConfiguredMpkiLimit) {
  // The carve scale stays below 50 until the limit, so a pure trasher reads
  // LLCO for any sub-limit MPKI and MemBw from the limit on.
  Levels l;
  l.llc_rr = 5.0;
  l.llc_mr_pct = 92.0;
  l.mpki = 11.9;  // just under kMemBwMpkiLimit = 12
  EXPECT_EQ(Classify(ComputeCursors(l)), VcpuType::kLlco);
  l.mpki = 12.0;
  EXPECT_EQ(Classify(ComputeCursors(l)), VcpuType::kMemBw);
}

TEST(CursorsTest, RemoteCarvedBeforeMemBw) {
  Levels l;
  l.llc_rr = 5.0;
  l.llc_mr_pct = 92.0;
  l.mpki = 24.0;
  l.remote_ratio = 0.8;  // above the 0.5 limit: remote dominates
  const CursorSet c = ComputeCursors(l);
  EXPECT_DOUBLE_EQ(c.remote, 100.0);
  EXPECT_DOUBLE_EQ(c.membw, 0.0);
  EXPECT_DOUBLE_EQ(c.llco, 0.0);
  EXPECT_EQ(Classify(c), VcpuType::kNumaRemote);
}

TEST(CursorsTest, RemoteBoundedByOverflowMass) {
  // A cache-friendly vCPU with remote misses cannot read NumaRemote: the
  // remote cursor is capped by the non-LLCF/LoLCF burn mass.
  Levels l;
  l.llc_rr = 0.5;  // LoLCF cursor 50
  l.llc_mr_pct = 0.0;
  l.remote_ratio = 1.0;
  const CursorSet c = ComputeCursors(l);
  EXPECT_DOUBLE_EQ(c.remote, 0.0);
  EXPECT_DOUBLE_EQ(c.lolcf + c.llcf, 100.0);
}

TEST(CursorsTest, SinglePeriodHasNoBurstyCursor) {
  Levels l;
  l.io_events = 50;
  const CursorSet c = ComputeCursors(l);
  EXPECT_DOUBLE_EQ(c.bursty, 0.0);
}

TEST(CursorsTest, TrashingCountsMemBwAsDisturber) {
  CursorSet c;
  c.llco = 30;
  c.membw = 40;
  c.llcf = 60;
  EXPECT_TRUE(IsTrashing(c));  // llco + membw = 70 >= llcf
  c.membw = 20;
  EXPECT_FALSE(IsTrashing(c));
}

TEST(CursorsTest, ClassifyPrefersIoOnTies) {
  CursorSet c;
  c.io = 100;
  c.llco = 100;
  EXPECT_EQ(Classify(c), VcpuType::kIoInt);
}

TEST(CursorsTest, ClassifyPicksHighest) {
  CursorSet c;
  c.conspin = 80;
  c.lolcf = 60;
  EXPECT_EQ(Classify(c), VcpuType::kConSpin);
  c.llcf = 90;
  EXPECT_EQ(Classify(c), VcpuType::kLlcf);
}

TEST(CursorsTest, TrashingPredicateUsesLlcoCursor) {
  CursorSet c;
  c.llco = 60;
  c.llcf = 40;
  EXPECT_TRUE(IsTrashing(c));
  c.llcf = 70;
  EXPECT_FALSE(IsTrashing(c));
  c.llcf = 0;
  c.lolcf = 80;
  c.llco = 20;
  EXPECT_FALSE(IsTrashing(c));
}

TEST(CursorsTest, LevelsFromPmuDelta) {
  PmuCounters d;
  d.instructions = 1000000;
  d.llc_references = 2500;
  d.llc_misses = 500;
  d.remote_accesses = 125;
  d.io_events = 7;
  d.pause_exits = 3;
  const Levels l = LevelsFromPmuDelta(d);
  EXPECT_DOUBLE_EQ(l.llc_rr, 2.5);  // RPKI
  EXPECT_DOUBLE_EQ(l.llc_mr_pct, 20.0);
  EXPECT_DOUBLE_EQ(l.mpki, 0.5);
  EXPECT_DOUBLE_EQ(l.remote_ratio, 0.25);
  EXPECT_DOUBLE_EQ(l.io_events, 7.0);
  EXPECT_DOUBLE_EQ(l.pause_exits, 3.0);
}

TEST(CursorsTest, LevelsFromEmptyDeltaAreZero) {
  const Levels l = LevelsFromPmuDelta(PmuCounters{});
  EXPECT_DOUBLE_EQ(l.llc_rr, 0.0);
  EXPECT_DOUBLE_EQ(l.llc_mr_pct, 0.0);
  EXPECT_DOUBLE_EQ(l.mpki, 0.0);
  EXPECT_DOUBLE_EQ(l.remote_ratio, 0.0);
}

// Property sweep over the level space: equation (2) holds, all cursors stay
// in [0, 100], and cursors are monotone in their driving level.
struct LevelCase {
  double io;
  double spins;
  double rr;
  double mr;
  double mpki;
  double remote;
};

class CursorPropertyTest : public ::testing::TestWithParam<LevelCase> {};

TEST_P(CursorPropertyTest, InvariantsHold) {
  const LevelCase& p = GetParam();
  Levels l;
  l.io_events = p.io;
  l.pause_exits = p.spins;
  l.llc_rr = p.rr;
  l.llc_mr_pct = p.mr;
  l.mpki = p.mpki;
  l.remote_ratio = p.remote;
  const CursorSet c = ComputeCursors(l);

  for (double v : {c.io, c.conspin, c.lolcf, c.llcf, c.llco, c.membw, c.remote}) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 100.0);
  }
  // Equation (2): CPU-burn cursors (including the carved-out extended
  // memory cursors) sum to exactly 100.
  EXPECT_NEAR(c.lolcf + c.llcf + c.llco + c.membw + c.remote, 100.0, 1e-9);
  // With zeroed extended levels, the paper's five cursors are reproduced.
  if (p.mpki == 0.0 && p.remote == 0.0) {
    EXPECT_DOUBLE_EQ(c.membw, 0.0);
    EXPECT_DOUBLE_EQ(c.remote, 0.0);
  }

  // Monotonicity: more I/O events never lowers the IO cursor; a higher miss
  // ratio never raises the LLCF cursor; a higher MPKI never lowers the
  // MemBw cursor; a higher remote ratio never lowers the remote cursor.
  Levels more_io = l;
  more_io.io_events += 1.0;
  EXPECT_GE(ComputeCursors(more_io).io, c.io);
  Levels more_misses = l;
  more_misses.llc_mr_pct = std::min(100.0, l.llc_mr_pct + 10.0);
  EXPECT_LE(ComputeCursors(more_misses).llcf, c.llcf + 1e-9);
  Levels more_mpki = l;
  more_mpki.mpki += 2.0;
  EXPECT_GE(ComputeCursors(more_mpki).membw, c.membw - 1e-9);
  Levels more_remote = l;
  more_remote.remote_ratio = std::min(1.0, l.remote_ratio + 0.1);
  EXPECT_GE(ComputeCursors(more_remote).remote, c.remote - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    LevelGrid, CursorPropertyTest,
    ::testing::Values(LevelCase{0, 0, 0, 0, 0, 0}, LevelCase{1, 0, 0.5, 10, 0, 0},
                      LevelCase{5, 2, 1.5, 30, 1, 0.2}, LevelCase{0, 20, 3.0, 60, 4, 0},
                      LevelCase{10, 10, 0.9, 79, 0, 0.9},
                      LevelCase{0.5, 0.5, 1.0, 80, 6, 0.5},
                      LevelCase{3, 7, 2.0, 95, 14, 0.1},
                      LevelCase{100, 100, 10, 100, 30, 1.0},
                      LevelCase{0, 0, 0.99, 79.9, 11.9, 0.49},
                      LevelCase{2, 5, 1.01, 80.1, 12.1, 0.51}));

}  // namespace
}  // namespace aql
