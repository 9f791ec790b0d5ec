// Discrete-event timer core.
//
// The queue orders callbacks by (time, lane, sequence number): events that
// share a timestamp run in ascending lane, and within a lane those scheduled
// earlier run first — this makes simulations fully deterministic. The lane
// is a small ordering key, 0 by default; a multi-socket Machine gives each
// socket its own lane and its machine-wide events the lane after every
// socket's (src/hv/machine.h). Two kinds of events share one sequence
// counter (and therefore one total order):
//
//  * Dynamic events (ScheduleAt): one-shot callbacks stored in a slab and
//    ordered through a flat binary min-heap of POD entries. The EventId
//    returned at scheduling time encodes (slab index, generation), so
//    Cancel is an O(1) liveness flip — no tombstone side-table — and a
//    cancel of an id that already fired (or was already cancelled) is a
//    checked no-op: the generation no longer matches, nothing leaks.
//  * Timer slots (RegisterSlot/ArmSlot/DisarmSlot): a fixed callback with at
//    most one outstanding deadline, for high-frequency periodic deadlines
//    that are re-armed constantly (the dispatcher's per-pCPU segment timer).
//    Re-arming overwrites the deadline in place — no heap traffic, no
//    allocation, no cancellation bookkeeping. Arming draws a sequence number
//    from the shared counter, so slots interleave with dynamic events
//    exactly as if they had been ScheduleAt'd.
//
// The pop path takes the minimum of the heap front (dead entries skimmed
// lazily) and a linear scan over the slots; slot counts are tiny (one per
// pCPU), so the scan is cheaper than the heap churn it replaces.

#ifndef AQLSCHED_SRC_SIM_EVENT_QUEUE_H_
#define AQLSCHED_SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/time.h"

namespace aql {

// Opaque handle identifying a scheduled dynamic event. Id 0 is
// "invalid/none"; live ids encode (slab index, generation) so stale handles
// are recognized and rejected in O(1).
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  using Callback = std::function<void(TimeNs now)>;
  // Index of a registered timer slot; valid for the queue's lifetime.
  using SlotId = int;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Lanes are [0, kLanes).
  static constexpr int kLanes = 256;

  // Schedules `cb` to run at absolute time `when` in `lane`. `when` must not
  // be in the past relative to the last popped event.
  EventId ScheduleAt(TimeNs when, Callback cb, int lane = 0);

  // Cancels a pending event. Returns true if the event was still pending;
  // ids that already fired or were already cancelled are a checked no-op.
  bool Cancel(EventId id);

  // Registers a permanent timer slot with a fixed callback, a fixed lane
  // and no armed deadline. Must not be called from inside a slot callback
  // (the callback lives in the slot table).
  SlotId RegisterSlot(Callback cb, int lane = 0);

  // Arms (or re-arms, overwriting any pending deadline) `slot` to fire at
  // `when`. Draws a fresh sequence number, exactly like ScheduleAt would.
  void ArmSlot(SlotId slot, TimeNs when);

  // Disarms `slot`; a no-op if it is not armed.
  void DisarmSlot(SlotId slot);

  bool SlotArmed(SlotId slot) const;

  // True if no live events remain (dynamic or armed slots).
  bool Empty() const { return live_count_ == 0; }

  // Number of live pending events (dynamic + armed slots).
  size_t LiveCount() const { return live_count_; }

  // Time of the earliest live event; kTimeInfinite if empty.
  TimeNs NextTime() const;

  // Pops and runs the earliest live event. Returns false if queue was empty.
  bool RunNext() { return RunBest(kTimeInfinite); }

  // Pops and runs the earliest live event if its time is <= `deadline`;
  // computes the minimum only once. Returns false if nothing qualified.
  bool RunNextIfBefore(TimeNs deadline) { return RunBest(deadline); }

  // Current simulated time (time of the last event run).
  TimeNs Now() const { return now_; }

 private:
  // Order key of an event: the lane in the top bits, the sequence number
  // below it. A lane-0 key is the bare sequence number.
  static constexpr int kLaneShift = 56;

  struct HeapEntry {
    TimeNs when;
    uint64_t key;
    uint32_t index;  // slab index
  };
  struct SlabEntry {
    Callback cb;
    uint32_t generation = 0;
    bool live = false;
  };
  struct Slot {
    Callback cb;
    TimeNs when = 0;
    uint64_t key = 0;
    int lane = 0;
    bool armed = false;
  };
  // Earliest live event: a slot index, or the heap front (slot == -1), or
  // nothing (any == false).
  struct Best {
    TimeNs when = 0;
    uint64_t key = 0;
    int slot = -1;
    bool any = false;
  };

  static bool HeapLater(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) {
      return a.when > b.when;
    }
    return a.key > b.key;
  }

  // Draws the next sequence number and packs it under `lane`.
  uint64_t NextKey(int lane);

  // Drops cancelled entries from the front of the heap and recycles their
  // slab slots. Logically const: dead entries are unobservable, skimming
  // only changes when their storage is reclaimed (hence the mutable state).
  void SkimDead() const;

  Best FindBest() const;
  bool RunBest(TimeNs deadline);

  static EventId MakeId(uint32_t index, uint32_t generation) {
    return (static_cast<EventId>(index + 1) << 32) | generation;
  }

  mutable std::vector<HeapEntry> heap_;  // binary min-heap by (when, key)
  mutable std::vector<SlabEntry> slab_;
  mutable std::vector<uint32_t> free_;  // recycled slab indices
  std::vector<Slot> slots_;
  TimeNs now_ = 0;
  uint64_t next_seq_ = 1;
  size_t live_count_ = 0;
  // Guards RegisterSlot against growing `slots_` while a slot callback is
  // executing from inside it.
  bool slot_callback_active_ = false;
};

}  // namespace aql

#endif  // AQLSCHED_SRC_SIM_EVENT_QUEUE_H_
