// vTRS cursor algebra — the paper's equations (1)–(5), extended with the
// three post-paper cursors (memory-bandwidth, NUMA-remote, bursty I/O).
//
// Each monitoring period produces a Levels sample (I/O events, PLE traps,
// LLC reference ratio, LLC miss ratio, misses per kilo-instruction, remote
// access ratio) per vCPU; ComputeCursors turns it into [0,100] cursors whose
// CPU-burn components always sum to 100 (equation 2). The extended burn
// cursors are carved out of the paper's LLCO cursor — NUMA-remote first,
// then memory-bandwidth — so {LoLCF, LLCF, LLCO, MemBw, NumaRemote} keep the
// equation-2 invariant. Note that MPKI is derived from counters the paper
// scenarios already produce, so miss-heavy paper applications shed some LLCO
// mass to the MemBw cursor (bounded below 50 of 100 while MPKI stays under
// the limit); their lolcf/llcf values and the classification outcome are
// unchanged, but raw LLCO cursor values differ from the pre-extension
// baseline. The bursty-I/O cursor is a window-level quantity (dispersion of
// the I/O cursor across the sliding window) and is therefore produced by
// Vtrs::Average, not per period. Classification picks the type with the
// highest window-averaged cursor.

#ifndef AQLSCHED_SRC_CORE_CURSORS_H_
#define AQLSCHED_SRC_CORE_CURSORS_H_

#include <array>

#include "src/core/vcpu_type.h"
#include "src/hw/pmu.h"

namespace aql {

// Normalization thresholds (the *_LIMIT constants of §3.3.1). The paper
// sets them once per platform; these are calibrated for this simulator's
// hardware model.
//
// I/O events per monitoring period above which a vCPU is 100% IOInt.
inline constexpr double kIoLimit = 2.0;
// PLE traps per monitoring period above which a vCPU is 100% ConSpin.
inline constexpr double kConSpinLimit = 5.0;
// LLC reference ratio limit, in references per kilo-instruction (RPKI):
// below it the vCPU leans LoLCF.
inline constexpr double kLlcRrLimit = 1.0;
// LLC miss ratio limit in percent: above it the vCPU is trashing (LLCO).
// Calibrated so that a refill-bound miss ratio (an LLCF working set
// re-fetched after descheduling, ~30-40%) still reads LLCF while a
// capacity-bound one (WSS > LLC, ~70%+) reads LLCO.
inline constexpr double kLlcMrLimit = 80.0;
// LLC misses per kilo-instruction (MPKI) above which a memory-bound vCPU
// is bandwidth-saturating (MemBw) rather than merely trashing (LLCO).
// Calibrated so the catalog's LLCO applications (MPKI ~2-5) stay LLCO
// while streaming kernels (MPKI ~15-30) read MemBw.
inline constexpr double kMemBwMpkiLimit = 12.0;
// Remote-DRAM access ratio (remote_accesses / llc_misses) above which a
// memory-bound vCPU reads NumaRemote.
inline constexpr double kRemoteRatioLimit = 0.5;
// Minimum max-minus-min dispersion of the per-period I/O cursor across the
// sliding window before a vCPU reads BurstyIo (suppresses ramp-up noise of
// steady I/O servers).
inline constexpr double kBurstySpreadLimit = 60.0;
// Sliding-window length n (monitoring periods) before deciding a type.
inline constexpr int kVtrsWindow = 4;

// Raw per-period measurements derived from PMU deltas.
struct Levels {
  double io_events = 0;     // event-channel notifications this period
  double pause_exits = 0;   // PLE traps this period
  double llc_rr = 0;        // LLC references per kilo-instruction
  double llc_mr_pct = 0;    // LLC miss ratio in percent
  double mpki = 0;          // LLC misses per kilo-instruction
  double remote_ratio = 0;  // remote DRAM accesses / LLC misses, in [0, 1]
};

// The per-type cursors, each in [0, 100]. `bursty` is only non-zero on
// window averages (see header comment).
struct CursorSet {
  double io = 0;
  double conspin = 0;
  double lolcf = 0;
  double llcf = 0;
  double llco = 0;
  double membw = 0;
  double remote = 0;
  double bursty = 0;

  double Of(VcpuType t) const;
};

// Derives Levels from a PMU delta over one monitoring period.
Levels LevelsFromPmuDelta(const PmuCounters& delta);

// Equations (1)–(5) plus the MemBw/NumaRemote carve-out.
CursorSet ComputeCursors(const Levels& levels);

// argmax over cursors, with ties resolved in declaration order
// (IOInt > ConSpin > LoLCF > LLCF > LLCO > MemBw > NumaRemote > BurstyIo)
// — the paper notes ties are rare.
VcpuType Classify(const CursorSet& avg);

// Whether the CPU-burn component of `avg` marks the vCPU as a trasher
// (Algorithm 1's membership test for the "trashing" list; the paper's line 5
// prints LLCF_cur_avg but the text requires the LLCO cursor — we implement
// the corrected predicate, see DESIGN.md). MemBw is carved out of LLCO, so
// the disturber mass is their sum — streaming vCPUs trash co-residents at
// least as hard as capacity-bound ones.
bool IsTrashing(const CursorSet& avg);

}  // namespace aql

#endif  // AQLSCHED_SRC_CORE_CURSORS_H_
