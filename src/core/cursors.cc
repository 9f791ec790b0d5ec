#include "src/core/cursors.h"

#include <algorithm>

namespace aql {

double CursorSet::Of(VcpuType t) const {
  switch (t) {
    case VcpuType::kIoInt:
      return io;
    case VcpuType::kConSpin:
      return conspin;
    case VcpuType::kLoLcf:
      return lolcf;
    case VcpuType::kLlcf:
      return llcf;
    case VcpuType::kLlco:
      return llco;
    case VcpuType::kMemBw:
      return membw;
    case VcpuType::kNumaRemote:
      return remote;
    case VcpuType::kBurstyIo:
      return bursty;
  }
  return 0;
}

Levels LevelsFromPmuDelta(const PmuCounters& delta) {
  Levels l;
  l.io_events = static_cast<double>(delta.io_events);
  l.pause_exits = static_cast<double>(delta.pause_exits);
  if (delta.instructions > 0) {
    l.llc_rr = static_cast<double>(delta.llc_references) /
               static_cast<double>(delta.instructions) * 1000.0;
  }
  if (delta.llc_references > 0) {
    l.llc_mr_pct = static_cast<double>(delta.llc_misses) /
                   static_cast<double>(delta.llc_references) * 100.0;
  }
  if (delta.instructions > 0) {
    l.mpki = static_cast<double>(delta.llc_misses) /
             static_cast<double>(delta.instructions) * 1000.0;
  }
  if (delta.llc_misses > 0) {
    l.remote_ratio = static_cast<double>(delta.remote_accesses) /
                     static_cast<double>(delta.llc_misses);
  }
  return l;
}

CursorSet ComputeCursors(const Levels& levels) {
  static_assert(kIoLimit > 0 && kConSpinLimit > 0 && kLlcRrLimit > 0 && kLlcMrLimit > 0 &&
                kMemBwMpkiLimit > 0 && kRemoteRatioLimit > 0);
  CursorSet c;

  // Equation (1) for IOInt and ConSpin.
  c.io = levels.io_events < kIoLimit ? levels.io_events * 100.0 / kIoLimit : 100.0;
  c.conspin = levels.pause_exits < kConSpinLimit
                  ? levels.pause_exits * 100.0 / kConSpinLimit
                  : 100.0;

  // Equation (3): LoLCF — few-to-no LLC references.
  c.lolcf = levels.llc_rr < kLlcRrLimit
                ? (kLlcRrLimit - levels.llc_rr) * 100.0 / kLlcRrLimit
                : 0.0;

  // Equation (4): LLCF — references but few misses.
  c.llcf = levels.llc_mr_pct < kLlcMrLimit
               ? std::min(100.0 - c.lolcf,
                          (kLlcMrLimit - levels.llc_mr_pct) * 100.0 / kLlcMrLimit)
               : 0.0;

  // Equation (5): the CPU-burn cursors sum to 100 (equation 2). The extended
  // memory cursors are carved out of the overflow mass — NUMA-remote first
  // (where the misses go), then bandwidth saturation (how hard they stream) —
  // so the burn family {lolcf, llcf, llco, membw, remote} still sums to 100.
  // Below its limit a carve scale stays under 50, so a pure trasher
  // (overflow 100) flips from LLCO to the carved type exactly when the
  // driving level crosses its limit — "above the limit" is the
  // classification semantics, not just the saturation point.
  auto carve_scale = [](double level, double limit) {
    return level < limit ? level / limit * 50.0 : 100.0;
  };
  const double overflow = 100.0 - c.lolcf - c.llcf;
  c.remote = std::min(overflow, carve_scale(levels.remote_ratio, kRemoteRatioLimit));
  c.membw = std::min(overflow - c.remote, carve_scale(levels.mpki, kMemBwMpkiLimit));
  c.llco = overflow - c.remote - c.membw;

  // The bursty-I/O cursor is a window-level dispersion measure; a single
  // period carries no burstiness information (see Vtrs::Average).
  c.bursty = 0.0;

  return c;
}

VcpuType Classify(const CursorSet& avg) {
  VcpuType best = VcpuType::kIoInt;
  double best_value = avg.Of(best);
  for (VcpuType t : kAllVcpuTypes) {
    const double v = avg.Of(t);
    if (v > best_value) {
      best = t;
      best_value = v;
    }
  }
  return best;
}

bool IsTrashing(const CursorSet& avg) {
  const double disturber = avg.llco + avg.membw;
  return disturber >= avg.llcf && disturber >= avg.lolcf;
}

}  // namespace aql
