// Unit tests for the discrete-event simulation kernel.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/sim/simulation.h"

namespace aql {
namespace {

TEST(EventQueueTest, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(30, [&](TimeNs) { order.push_back(3); });
  q.ScheduleAt(10, [&](TimeNs) { order.push_back(1); });
  q.ScheduleAt(20, [&](TimeNs) { order.push_back(2); });
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.Now(), 30);
}

TEST(EventQueueTest, FifoWithinSameTimestamp) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(5, [&](TimeNs) { order.push_back(1); });
  q.ScheduleAt(5, [&](TimeNs) { order.push_back(2); });
  q.ScheduleAt(5, [&](TimeNs) { order.push_back(3); });
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventId id = q.ScheduleAt(10, [&](TimeNs) { ran = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // double-cancel is a no-op
  while (q.RunNext()) {
  }
  EXPECT_FALSE(ran);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  EventId early = q.ScheduleAt(10, [](TimeNs) {});
  q.ScheduleAt(20, [](TimeNs) {});
  q.Cancel(early);
  EXPECT_EQ(q.NextTime(), 20);
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.At(i * 100, [&](TimeNs) { ++count; });
  }
  EXPECT_EQ(sim.RunUntil(500), 5u);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.RunUntilIdle(), 5u);
  EXPECT_EQ(count, 10);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, UniformIntWithinBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = r.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  Rng r(99);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += r.Exponential(10.0);
  }
  EXPECT_NEAR(sum / n, 10.0, 0.5);
}

// PortableLog stays within 3 ulp of the C library's log (itself within
// 1 ulp of exact) on a million uniform draws, the inputs Exponential feeds
// it, and at the ends of its range reduction.
TEST(RngTest, PortableLogIsWithinThreeUlpOfLibm) {
  const auto ulps = [](double u) {
    const double ref = std::log(u);
    const double ulp = std::nextafter(std::fabs(ref), INFINITY) - std::fabs(ref);
    return std::fabs(PortableLog(u) - ref) / ulp;
  };
  Rng r(2024);
  double worst = 0.0;
  for (int i = 0; i < 1000000; ++i) {
    const double u = r.NextDouble();
    if (u > 0.0) {
      worst = std::max(worst, ulps(u));
    }
  }
  EXPECT_LE(worst, 3.0);
  EXPECT_EQ(PortableLog(1.0), 0.0);
  EXPECT_EQ(PortableLog(0.5), -std::log(2.0));
  for (const double u : {0x1.0p-53, 0x1.0p-1074, 0x1.6a09e667f3bccp-1,
                         0x1.6a09e667f3bcdp-1, 1.0 - 0x1.0p-53, 1e-300, 1e300}) {
    EXPECT_LE(ulps(u), 3.0) << u;
  }
}

}  // namespace
}  // namespace aql
