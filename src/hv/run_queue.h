// Per-pCPU run queue with Credit-scheduler priority classes.
//
// vCPUs are kept in three FIFO segments (BOOST, UNDER, OVER). Round-robin
// within a class is achieved by enqueuing at the tail; a preempted vCPU can
// be put back at the head of its class so it resumes before its peers.
//
// The segments are intrusive doubly-linked lists threaded through the vCPUs
// themselves (Vcpu::rq_prev/rq_next): enqueue, dequeue and targeted removal
// are O(1) pointer splices with no allocation, and membership is tracked on
// the vCPU (rq_owner), which also turns "remove from whichever queue holds
// it" into a direct unlink. FIFO semantics are exactly those of the previous
// deque-based segments.

#ifndef AQLSCHED_SRC_HV_RUN_QUEUE_H_
#define AQLSCHED_SRC_HV_RUN_QUEUE_H_

#include <array>

#include "src/hv/vcpu.h"

namespace aql {

class RunQueue {
 public:
  // Appends at the tail of the vCPU's current priority class. The vCPU must
  // not be queued anywhere.
  void PushBack(Vcpu* v);

  // Inserts at the head of the vCPU's current priority class.
  void PushFront(Vcpu* v);

  // Removes and returns the highest-priority vCPU; nullptr if empty.
  Vcpu* PopBest();

  // Priority of the best waiting vCPU (does not pop). Only valid if !Empty().
  Priority BestPriority() const;

  // Removes a specific vCPU; returns true if it was present in this queue.
  bool Remove(Vcpu* v);

  bool Empty() const { return size_ == 0; }
  size_t Size() const { return size_; }

  // Re-buckets all queued vCPUs by their current priority (used after credit
  // accounting flips UNDER/OVER states). Relative order within the resulting
  // classes is preserved.
  void Rebucket();

 private:
  static constexpr int kClasses = 3;
  struct List {
    Vcpu* head = nullptr;
    Vcpu* tail = nullptr;
  };

  void Link(int cls, Vcpu* v, bool front);
  void Unlink(Vcpu* v);

  std::array<List, kClasses> classes_;
  size_t size_ = 0;
};

}  // namespace aql

#endif  // AQLSCHED_SRC_HV_RUN_QUEUE_H_
