#include "src/sim/event_queue.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/sim/check.h"

namespace aql {

uint64_t EventQueue::NextKey(int lane) {
  AQL_CHECK(lane >= 0 && lane < kLanes);
  AQL_CHECK_MSG((next_seq_ >> kLaneShift) == 0, "sequence number overflows the lane key");
  return (static_cast<uint64_t>(lane) << kLaneShift) | next_seq_++;
}

EventId EventQueue::ScheduleAt(TimeNs when, Callback cb, int lane) {
  AQL_CHECK_MSG(when >= now_, "event scheduled in the past");
  AQL_CHECK(cb != nullptr);
  uint32_t index;
  if (free_.empty()) {
    index = static_cast<uint32_t>(slab_.size());
    slab_.emplace_back();
  } else {
    index = free_.back();
    free_.pop_back();
  }
  SlabEntry& entry = slab_[index];
  entry.cb = std::move(cb);
  entry.live = true;
  heap_.push_back(HeapEntry{when, NextKey(lane), index});
  std::push_heap(heap_.begin(), heap_.end(), HeapLater);
  ++live_count_;
  return MakeId(index, entry.generation);
}

bool EventQueue::Cancel(EventId id) {
  if (id == kInvalidEventId) {
    return false;
  }
  const uint32_t index = static_cast<uint32_t>(id >> 32) - 1;
  const uint32_t generation = static_cast<uint32_t>(id);
  if (index >= slab_.size()) {
    return false;
  }
  SlabEntry& entry = slab_[index];
  if (!entry.live || entry.generation != generation) {
    // Already fired, already cancelled, or the slab slot was recycled for a
    // newer event: a checked no-op, nothing to leak or double-count.
    return false;
  }
  entry.live = false;
  entry.cb = nullptr;  // release captures now; the heap entry skims later
  AQL_CHECK(live_count_ > 0);
  --live_count_;
  return true;
}

EventQueue::SlotId EventQueue::RegisterSlot(Callback cb, int lane) {
  AQL_CHECK(cb != nullptr);
  AQL_CHECK(lane >= 0 && lane < kLanes);
  AQL_CHECK_MSG(!slot_callback_active_, "RegisterSlot from inside a slot callback");
  Slot slot;
  slot.cb = std::move(cb);
  slot.lane = lane;
  slots_.push_back(std::move(slot));
  return static_cast<SlotId>(slots_.size()) - 1;
}

void EventQueue::ArmSlot(SlotId slot, TimeNs when) {
  AQL_CHECK(slot >= 0 && slot < static_cast<SlotId>(slots_.size()));
  AQL_CHECK_MSG(when >= now_, "slot armed in the past");
  Slot& s = slots_[static_cast<size_t>(slot)];
  if (!s.armed) {
    s.armed = true;
    ++live_count_;
  }
  s.when = when;
  s.key = NextKey(s.lane);
}

void EventQueue::DisarmSlot(SlotId slot) {
  AQL_CHECK(slot >= 0 && slot < static_cast<SlotId>(slots_.size()));
  Slot& s = slots_[static_cast<size_t>(slot)];
  if (s.armed) {
    s.armed = false;
    AQL_CHECK(live_count_ > 0);
    --live_count_;
  }
}

bool EventQueue::SlotArmed(SlotId slot) const {
  AQL_CHECK(slot >= 0 && slot < static_cast<SlotId>(slots_.size()));
  return slots_[static_cast<size_t>(slot)].armed;
}

void EventQueue::SkimDead() const {
  while (!heap_.empty() && !slab_[heap_.front().index].live) {
    SlabEntry& entry = slab_[heap_.front().index];
    ++entry.generation;  // invalidate any still-outstanding id
    free_.push_back(heap_.front().index);
    std::pop_heap(heap_.begin(), heap_.end(), HeapLater);
    heap_.pop_back();
  }
}

EventQueue::Best EventQueue::FindBest() const {
  SkimDead();
  Best best;
  if (!heap_.empty()) {
    best.when = heap_.front().when;
    best.key = heap_.front().key;
    best.slot = -1;
    best.any = true;
  }
  for (size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    if (s.armed &&
        (!best.any || s.when < best.when || (s.when == best.when && s.key < best.key))) {
      best.when = s.when;
      best.key = s.key;
      best.slot = static_cast<int>(i);
      best.any = true;
    }
  }
  return best;
}

TimeNs EventQueue::NextTime() const {
  const Best best = FindBest();
  return best.any ? best.when : kTimeInfinite;
}

bool EventQueue::RunBest(TimeNs deadline) {
  const auto profile_start = profile_ != nullptr
                                 ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point();
  // Flushes the pop-machinery time into the profile sink; called right
  // before the callback runs, so callback execution stays unattributed here.
  auto flush_profile = [&] {
    if (profile_ != nullptr) {
      profile_->seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - profile_start)
              .count();
      ++profile_->events;
    }
  };
  const Best best = FindBest();
  if (!best.any || best.when > deadline) {
    return false;
  }
  AQL_CHECK(best.when >= now_);
  AQL_CHECK(live_count_ > 0);
  --live_count_;
  now_ = best.when;
  if (best.slot >= 0) {
    Slot& s = slots_[static_cast<size_t>(best.slot)];
    s.armed = false;
    flush_profile();
    // The slot callback is stable storage (RegisterSlot is barred while it
    // runs), and the slot is disarmed, so it may freely re-arm itself.
    slot_callback_active_ = true;
    s.cb(now_);
    slot_callback_active_ = false;
  } else {
    const uint32_t index = heap_.front().index;
    std::pop_heap(heap_.begin(), heap_.end(), HeapLater);
    heap_.pop_back();
    SlabEntry& entry = slab_[index];
    // Move the callback out before recycling: it may schedule new events
    // that reuse this very slab slot.
    Callback cb = std::move(entry.cb);
    entry.live = false;
    entry.cb = nullptr;
    ++entry.generation;
    free_.push_back(index);
    flush_profile();
    cb(now_);
  }
  return true;
}

}  // namespace aql
