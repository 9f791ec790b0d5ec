#include "src/sim/simulation.h"

#include "src/sim/check.h"

namespace aql {

namespace {

// Scoped reentrancy guard for the run sections (thread-confinement note in
// simulation.h).
class RunSection {
 public:
  explicit RunSection(bool& running) : running_(running) {
    AQL_CHECK_MSG(!running_, "Simulation run section is not reentrant");
    running_ = true;
  }
  ~RunSection() { running_ = false; }

 private:
  bool& running_;
};

}  // namespace

uint64_t Simulation::RunUntilIdle() {
  RunSection section(running_);
  uint64_t n = 0;
  while (queue_.RunNext()) {
    ++n;
  }
  return n;
}

uint64_t Simulation::RunUntil(TimeNs deadline) {
  // Single-pass pop: the queue computes the minimum once per event instead
  // of once for NextTime and again for RunNext.
  RunSection section(running_);
  uint64_t n = 0;
  while (queue_.RunNextIfBefore(deadline)) {
    ++n;
  }
  return n;
}

}  // namespace aql
