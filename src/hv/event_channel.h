// Event channels: the split-driver I/O notification path.
//
// In Xen, I/O requests surface as event-channel notifications forwarded by
// the hypervisor; the paper's IOInt monitoring counts these per vCPU. Here
// the channel routes notifications to the Machine (wake + BOOST eligibility)
// and maintains the per-vCPU counters vTRS reads.
//
// Counters live in a flat per-vCPU table sized once (Resize) before any
// notification, so there is no shared aggregate and no rehashing. Totals
// are summed on demand.

#ifndef AQLSCHED_SRC_HV_EVENT_CHANNEL_H_
#define AQLSCHED_SRC_HV_EVENT_CHANNEL_H_

#include <cstdint>
#include <vector>

namespace aql {

class EventChannel {
 public:
  // Sizes the counter table for vCPU ids [0, vcpus). Existing counts are
  // preserved; never shrinks.
  void Resize(int vcpus);

  // Records one notification towards `vcpu`; returns its new count.
  uint64_t Notify(int vcpu);

  uint64_t Count(int vcpu) const;
  uint64_t TotalNotifications() const;

 private:
  std::vector<uint64_t> counts_;
};

}  // namespace aql

#endif  // AQLSCHED_SRC_HV_EVENT_CHANNEL_H_
