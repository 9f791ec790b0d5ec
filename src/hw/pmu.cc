#include "src/hw/pmu.h"

#include "src/sim/check.h"

namespace aql {

PmuCounters PmuCounters::operator-(const PmuCounters& rhs) const {
  PmuCounters out;
  AQL_DCHECK(instructions >= rhs.instructions);
  AQL_DCHECK(llc_references >= rhs.llc_references);
  out.instructions = instructions - rhs.instructions;
  out.llc_references = llc_references - rhs.llc_references;
  out.llc_misses = llc_misses - rhs.llc_misses;
  out.remote_accesses = remote_accesses - rhs.remote_accesses;
  out.io_events = io_events - rhs.io_events;
  out.pause_exits = pause_exits - rhs.pause_exits;
  return out;
}

PmuCounters& PmuCounters::operator+=(const PmuCounters& rhs) {
  instructions += rhs.instructions;
  llc_references += rhs.llc_references;
  llc_misses += rhs.llc_misses;
  remote_accesses += rhs.remote_accesses;
  io_events += rhs.io_events;
  pause_exits += rhs.pause_exits;
  return *this;
}

}  // namespace aql
