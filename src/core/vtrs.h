// vTRS — the online vCPU Type Recognition System (§3.3).
//
// One Levels sample per monitoring period is pushed per vCPU; cursors are
// kept in a sliding window of kVtrsWindow periods (paper: n = 4) and the
// vCPU's type is the cursor with the highest window average. The class is
// independent of the Machine so it can be unit-tested against synthetic
// counter streams; AqlController feeds it PMU deltas.

#ifndef AQLSCHED_SRC_CORE_VTRS_H_
#define AQLSCHED_SRC_CORE_VTRS_H_

#include <deque>
#include <unordered_map>
#include <vector>

#include "src/core/cursors.h"

namespace aql {

class Vtrs {
 public:
  // Records one monitoring-period sample for `vcpu`.
  void Observe(int vcpu, const Levels& levels);

  // Window-averaged cursors (zero if the vCPU was never observed).
  CursorSet Average(int vcpu) const;

  // Latest single-period cursors.
  CursorSet Latest(int vcpu) const;

  // Current classification from the window average.
  VcpuType TypeOf(int vcpu) const;

  // Number of samples observed for `vcpu`.
  int SampleCount(int vcpu) const;

 private:
  struct WindowState {
    std::deque<CursorSet> window;
    CursorSet latest;
  };

  const WindowState* Find(int vcpu) const;

  std::unordered_map<int, WindowState> state_;
};

}  // namespace aql

#endif  // AQLSCHED_SRC_CORE_VTRS_H_
