// Stress tests for the timer core (src/sim/event_queue.h): the slab/heap
// dynamic path and the per-slot one-outstanding-deadline path must pop in
// exactly the order a plain priority queue over (when, seq) would — ties
// included — under arbitrary schedule/cancel/arm/disarm interleavings. The
// lane tests pin the (when, lane, seq) order multi-socket machines use.

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/event_queue.h"
#include "src/sim/rng.h"

namespace aql {
namespace {

// Reference model: every live event as an explicit (when, seq) record,
// popped by scanning for the lexicographic minimum. Slots are modelled as
// cancel-old + schedule-new with a fresh sequence number, which is exactly
// the contract ArmSlot promises.
class ReferenceQueue {
 public:
  uint64_t Schedule(TimeNs when) {
    const uint64_t token = next_token_++;
    live_[token] = {when, next_seq_++};
    return token;
  }

  bool Cancel(uint64_t token) { return live_.erase(token) != 0; }

  bool Empty() const { return live_.empty(); }
  size_t Size() const { return live_.size(); }

  // Pops the earliest (when, seq) record; returns its token.
  uint64_t PopBest(TimeNs* when_out) {
    auto best = live_.begin();
    for (auto it = live_.begin(); it != live_.end(); ++it) {
      if (it->second.when < best->second.when ||
          (it->second.when == best->second.when && it->second.seq < best->second.seq)) {
        best = it;
      }
    }
    const uint64_t token = best->first;
    *when_out = best->second.when;
    live_.erase(best);
    return token;
  }

  TimeNs NextTime() const {
    TimeNs best = kTimeInfinite;
    uint64_t best_seq = ~0ull;
    for (const auto& [token, rec] : live_) {
      (void)token;
      if (rec.when < best || (rec.when == best && rec.seq < best_seq)) {
        best = rec.when;
        best_seq = rec.seq;
      }
    }
    return best;
  }

 private:
  struct Record {
    TimeNs when;
    uint64_t seq;
  };
  std::map<uint64_t, Record> live_;
  uint64_t next_token_ = 1;
  uint64_t next_seq_ = 1;
};

TEST(TimerCoreStressTest, MatchesReferenceUnderRandomInterleavings) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    EventQueue q;
    ReferenceQueue ref;

    // Token of the reference record -> EventId in the queue under test, and
    // the popped-order log on both sides.
    std::map<uint64_t, EventId> ids;
    std::vector<uint64_t> pending_tokens;
    std::vector<uint64_t> popped;       // tokens, in queue pop order
    std::vector<uint64_t> ref_popped;   // tokens, in reference pop order

    // Fixed slots with their own pop logs.
    constexpr int kSlots = 3;
    EventQueue::SlotId slots[kSlots];
    uint64_t slot_tokens[kSlots] = {0, 0, 0};
    for (int s = 0; s < kSlots; ++s) {
      const int slot_index = s;
      slots[s] = q.RegisterSlot([&popped, &slot_tokens, slot_index](TimeNs) {
        popped.push_back(slot_tokens[slot_index]);
        slot_tokens[slot_index] = 0;
      });
    }

    for (int op = 0; op < 4000; ++op) {
      const int64_t kind = rng.UniformInt(0, 9);
      if (kind <= 3) {
        // Schedule a dynamic event; cluster times to force (when, seq) ties.
        const TimeNs when = q.Now() + rng.UniformInt(0, 12);
        const uint64_t token = ref.Schedule(when);
        ids[token] = q.ScheduleAt(when, [&popped, token](TimeNs) {
          popped.push_back(token);
        });
        pending_tokens.push_back(token);
      } else if (kind <= 5 && !pending_tokens.empty()) {
        // Cancel a random pending-or-fired dynamic event. The two sides must
        // agree on whether it was still live.
        const size_t i = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(pending_tokens.size()) - 1));
        const uint64_t token = pending_tokens[i];
        EXPECT_EQ(q.Cancel(ids[token]), ref.Cancel(token)) << "seed " << seed;
      } else if (kind == 6) {
        // Arm (or re-arm) a slot: reference sees cancel-old + schedule-new.
        const int s = static_cast<int>(rng.UniformInt(0, kSlots - 1));
        const TimeNs when = q.Now() + rng.UniformInt(0, 12);
        if (slot_tokens[s] != 0) {
          ref.Cancel(slot_tokens[s]);
        }
        slot_tokens[s] = ref.Schedule(when);
        q.ArmSlot(slots[s], when);
      } else if (kind == 7) {
        const int s = static_cast<int>(rng.UniformInt(0, kSlots - 1));
        const bool was_armed = q.SlotArmed(slots[s]);
        EXPECT_EQ(was_armed, slot_tokens[s] != 0) << "seed " << seed;
        q.DisarmSlot(slots[s]);
        if (slot_tokens[s] != 0) {
          ref.Cancel(slot_tokens[s]);
          slot_tokens[s] = 0;
        }
      } else {
        // Pop once on both sides; order (including ties) must agree.
        EXPECT_EQ(q.NextTime(), ref.NextTime()) << "seed " << seed;
        EXPECT_EQ(q.LiveCount(), ref.Size()) << "seed " << seed;
        if (!ref.Empty()) {
          TimeNs ref_when = 0;
          ref_popped.push_back(ref.PopBest(&ref_when));
          ASSERT_TRUE(q.RunNext()) << "seed " << seed;
          EXPECT_EQ(q.Now(), ref_when) << "seed " << seed;
        } else {
          EXPECT_FALSE(q.RunNext()) << "seed " << seed;
        }
      }
      ASSERT_EQ(popped, ref_popped) << "seed " << seed << " op " << op;
    }

    // Drain both completely; the full pop order must match.
    while (!ref.Empty()) {
      TimeNs ref_when = 0;
      ref_popped.push_back(ref.PopBest(&ref_when));
      ASSERT_TRUE(q.RunNext());
      EXPECT_EQ(q.Now(), ref_when);
    }
    EXPECT_FALSE(q.RunNext());
    EXPECT_TRUE(q.Empty());
    EXPECT_EQ(popped, ref_popped) << "seed " << seed;
  }
}

TEST(TimerCoreTest, StaleCancelIsACheckedNoOp) {
  EventQueue q;
  int runs = 0;
  const EventId fired = q.ScheduleAt(5, [&](TimeNs) { ++runs; });
  ASSERT_TRUE(q.RunNext());
  EXPECT_EQ(runs, 1);
  // Cancelling an id that already fired must not disturb queue state —
  // in particular it must not leak a tombstone or corrupt the live count.
  EXPECT_FALSE(q.Cancel(fired));
  EXPECT_EQ(q.LiveCount(), 0u);
  EXPECT_TRUE(q.Empty());

  // The slab slot gets recycled by a new event; the stale id must not be
  // able to cancel the newcomer.
  const EventId fresh = q.ScheduleAt(10, [&](TimeNs) { ++runs; });
  EXPECT_FALSE(q.Cancel(fired));
  EXPECT_EQ(q.LiveCount(), 1u);
  ASSERT_TRUE(q.RunNext());
  EXPECT_EQ(runs, 2);
  EXPECT_FALSE(q.Cancel(fresh));  // fired as well by now

  // Double-cancel of a pending event: first wins, second is a no-op.
  const EventId pending = q.ScheduleAt(20, [&](TimeNs) { ++runs; });
  EXPECT_TRUE(q.Cancel(pending));
  EXPECT_FALSE(q.Cancel(pending));
  EXPECT_TRUE(q.Empty());
  EXPECT_FALSE(q.RunNext());
  EXPECT_EQ(runs, 2);
}

TEST(TimerCoreTest, SlotRearmOverwritesDeadline) {
  EventQueue q;
  std::vector<TimeNs> fired;
  const EventQueue::SlotId slot =
      q.RegisterSlot([&](TimeNs now) { fired.push_back(now); });
  EXPECT_FALSE(q.SlotArmed(slot));

  q.ArmSlot(slot, 10);
  EXPECT_TRUE(q.SlotArmed(slot));
  EXPECT_EQ(q.LiveCount(), 1u);
  q.ArmSlot(slot, 30);  // overwrite: one outstanding deadline only
  EXPECT_EQ(q.LiveCount(), 1u);
  EXPECT_EQ(q.NextTime(), 30);

  ASSERT_TRUE(q.RunNext());
  EXPECT_FALSE(q.SlotArmed(slot));
  EXPECT_EQ(fired, (std::vector<TimeNs>{30}));

  // Disarm is an O(1) no-op when unarmed and a real cancel when armed.
  q.DisarmSlot(slot);
  q.ArmSlot(slot, 40);
  q.DisarmSlot(slot);
  EXPECT_TRUE(q.Empty());
  EXPECT_FALSE(q.RunNext());
  EXPECT_EQ(fired.size(), 1u);
}

TEST(TimerCoreTest, SlotAndDynamicEventsShareTheTieBreakOrder) {
  EventQueue q;
  std::vector<int> order;
  const EventQueue::SlotId slot = q.RegisterSlot([&](TimeNs) { order.push_back(100); });
  // seq 1: dynamic at t=5; seq 2: slot armed at t=5; seq 3: dynamic at t=5.
  q.ScheduleAt(5, [&](TimeNs) { order.push_back(1); });
  q.ArmSlot(slot, 5);
  q.ScheduleAt(5, [&](TimeNs) { order.push_back(2); });
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 100, 2}));

  // Re-arming draws a fresh sequence number: the slot moves behind events
  // scheduled between the two arms.
  order.clear();
  q.ArmSlot(slot, 20);
  q.ScheduleAt(20, [&](TimeNs) { order.push_back(3); });
  q.ArmSlot(slot, 20);  // re-arm: now sequenced after "3"
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{3, 100}));
}

TEST(TimerCoreTest, RunNextIfBeforeHonorsDeadline) {
  EventQueue q;
  int runs = 0;
  q.ScheduleAt(10, [&](TimeNs) { ++runs; });
  q.ScheduleAt(20, [&](TimeNs) { ++runs; });
  EXPECT_TRUE(q.RunNextIfBefore(15));
  EXPECT_FALSE(q.RunNextIfBefore(15));  // next event is at 20
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(q.LiveCount(), 1u);
  EXPECT_TRUE(q.RunNextIfBefore(20));  // inclusive deadline
  EXPECT_EQ(runs, 2);
}

// Lanes order events that share a timestamp: ascending lane first, then
// scheduling order within a lane.
TEST(TimerLaneTest, SameTimestampRunsInAscendingLaneThenFifo) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(5, [&](TimeNs) { order.push_back(20); }, 2);
  q.ScheduleAt(5, [&](TimeNs) { order.push_back(10); }, 1);
  q.ScheduleAt(5, [&](TimeNs) { order.push_back(0); });
  q.ScheduleAt(5, [&](TimeNs) { order.push_back(21); }, 2);
  q.ScheduleAt(5, [&](TimeNs) { order.push_back(11); }, 1);
  q.ScheduleAt(5, [&](TimeNs) { order.push_back(1); }, 0);
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11, 20, 21}));
}

// A slot keeps the lane it registered with for every arm.
TEST(TimerLaneTest, SlotObeysItsRegisteredLane) {
  EventQueue q;
  std::vector<int> order;
  const EventQueue::SlotId low = q.RegisterSlot([&](TimeNs) { order.push_back(0); });
  const EventQueue::SlotId high = q.RegisterSlot([&](TimeNs) { order.push_back(3); }, 3);
  q.ArmSlot(high, 5);
  q.ScheduleAt(5, [&](TimeNs) { order.push_back(2); }, 2);
  q.ScheduleAt(5, [&](TimeNs) { order.push_back(4); }, 4);
  q.ArmSlot(low, 5);
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 4}));

  // Re-armed later, the high slot still runs after lane 2 and before lane 4.
  order.clear();
  q.ScheduleAt(9, [&](TimeNs) { order.push_back(4); }, 4);
  q.ArmSlot(high, 9);
  q.ScheduleAt(9, [&](TimeNs) { order.push_back(2); }, 2);
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{2, 3, 4}));
}

// The lane only breaks ties: an earlier timestamp runs first whatever its
// lane.
TEST(TimerLaneTest, LaneNeverReordersDifferentTimestamps) {
  EventQueue q;
  std::vector<TimeNs> fired;
  const auto log = [&fired](TimeNs now) { fired.push_back(now); };
  q.ScheduleAt(7, log, 0);
  q.ScheduleAt(3, log, EventQueue::kLanes - 1);
  q.ScheduleAt(5, log, 1);
  const EventQueue::SlotId slot = q.RegisterSlot(log, 2);
  q.ArmSlot(slot, 4);
  EXPECT_EQ(q.NextTime(), 3);
  while (q.RunNext()) {
  }
  EXPECT_EQ(fired, (std::vector<TimeNs>{3, 4, 5, 7}));
}

// Cancel is lane-blind: ids stay (slab index, generation), so a cancelled
// event in any lane never runs and stale ids stay checked no-ops.
TEST(TimerLaneTest, CancelIsUnaffectedByLanes) {
  EventQueue q;
  std::vector<int> order;
  const EventId a = q.ScheduleAt(5, [&](TimeNs) { order.push_back(1); }, 1);
  q.ScheduleAt(5, [&](TimeNs) { order.push_back(2); }, 2);
  const EventId c = q.ScheduleAt(5, [&](TimeNs) { order.push_back(3); }, 3);
  EXPECT_TRUE(q.Cancel(c));
  EXPECT_FALSE(q.Cancel(c));
  EXPECT_EQ(q.LiveCount(), 2u);
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_FALSE(q.Cancel(a));  // already fired
  EXPECT_TRUE(q.Empty());
}

}  // namespace
}  // namespace aql
