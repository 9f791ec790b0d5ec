// The one fake WorkloadHost the workload-model tests drive their models
// through (no Machine involved): it records timers, I/O events, kicks and
// pause exits, and fires timers in time order on request.

#ifndef AQLSCHED_TESTS_FAKE_HOST_H_
#define AQLSCHED_TESTS_FAKE_HOST_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/workload/workload.h"

namespace aql {

class FakeHost : public WorkloadHost {
 public:
  TimeNs Now() const override { return now; }
  Rng& WorkloadRng(int) override { return rng; }
  void ScheduleTimer(TimeNs when, int vcpu, int tag) override {
    timers.push_back({when, vcpu, tag});
  }
  void NotifyIoEvent(int vcpu) override { io_events.push_back(vcpu); }
  void KickVcpu(int vcpu) override { kicks.push_back(vcpu); }
  void CountPauseExits(int, uint64_t n) override { pause_exits += n; }

  struct Timer {
    TimeNs when;
    int vcpu;
    int tag;
  };
  // Fires the earliest pending timer into `model`.
  void FireNextTimer(WorkloadModel& model) {
    ASSERT_FALSE(timers.empty());
    size_t best = 0;
    for (size_t i = 1; i < timers.size(); ++i) {
      if (timers[i].when < timers[best].when) {
        best = i;
      }
    }
    const Timer t = timers[best];
    timers.erase(timers.begin() + static_cast<std::ptrdiff_t>(best));
    now = t.when;
    model.OnTimer(now, t.tag);
  }

  TimeNs now = 0;
  Rng rng{1};
  std::vector<Timer> timers;
  std::vector<int> io_events;
  std::vector<int> kicks;
  uint64_t pause_exits = 0;
};

}  // namespace aql

#endif  // AQLSCHED_TESTS_FAKE_HOST_H_
