// Tests for the placement layer: home assignment (the contract
// Machine::ApplyPoolPlan executes), the migration cost model and the NUMA
// stickiness pass.

#include <vector>

#include <gtest/gtest.h>

#include "src/hv/placement.h"

namespace aql {
namespace {

TEST(PlacementTest, AssignHomesDealsRoundRobinPerPool) {
  PoolPlan plan;
  plan.pools = {PoolSpec{"a", {0, 1}, Ms(1), {10, 11, 12}},
                PoolSpec{"b", {2}, Ms(30), {13, 14}}};
  const std::vector<HomeAssignment> homes = AssignHomes(plan);
  ASSERT_EQ(homes.size(), 5u);
  // Pool 0: 10->pCPU0, 11->pCPU1, 12->pCPU0 (wrap).
  EXPECT_EQ(homes[0].vcpu, 10);
  EXPECT_EQ(homes[0].pool, 0);
  EXPECT_EQ(homes[0].home_pcpu, 0);
  EXPECT_EQ(homes[1].home_pcpu, 1);
  EXPECT_EQ(homes[2].home_pcpu, 0);
  // Pool 1: both on pCPU2.
  EXPECT_EQ(homes[3].pool, 1);
  EXPECT_EQ(homes[3].home_pcpu, 2);
  EXPECT_EQ(homes[4].home_pcpu, 2);
}

TEST(PlacementTest, MigrationCostScalesWithFootprint) {
  Topology dual = MakeE54603Topology();
  dual.sockets = 2;
  EXPECT_EQ(CrossSocketMigrationCost(dual, 0), 0);
  EXPECT_EQ(CrossSocketMigrationCost(MakeI73770Topology(4), 1 << 20), 0);
  const TimeNs one_mib = CrossSocketMigrationCost(dual, 1 << 20);
  EXPECT_GT(one_mib, 0);
  // Twice the footprint, twice the refill cost.
  EXPECT_EQ(CrossSocketMigrationCost(dual, 2 << 20), 2 * one_mib);
  // Every line pays DRAM plus the SLIT surcharge.
  const TimeNs per_line = kLlcMissPenalty + kRemoteMissExtra;
  EXPECT_EQ(one_mib, static_cast<TimeNs>((1 << 20) / kCacheLineBytes) * per_line);
}

PlacementHint Hint(int vcpu, int socket, uint64_t footprint, bool pinned) {
  PlacementHint h;
  h.vcpu = vcpu;
  h.socket = socket;
  h.footprint_bytes = footprint;
  h.pinned = pinned;
  return h;
}

TEST(PlacementTest, StickinessSwapsPinnedVcpuBackToItsNode) {
  Topology dual = MakeE54603Topology();
  dual.sockets = 2;
  // vCPU 3 is pinned to socket 0 but was dealt to socket 1.
  std::vector<std::vector<int>> per_socket = {{1, 2}, {3, 4}};
  const std::vector<PlacementHint> hints = {
      Hint(1, 0, 4 << 20, false),  // expensive to move
      Hint(2, 0, 64 << 10, false),  // cheapest partner on the node
      Hint(3, 0, 1 << 20, true),
      Hint(4, 1, 0, false),
  };
  ApplyNumaStickiness(per_socket, hints, dual);
  // 3 lands on its node, swapping with the cheapest partner (2).
  EXPECT_EQ(per_socket[0], (std::vector<int>{1, 3}));
  EXPECT_EQ(per_socket[1], (std::vector<int>{2, 4}));
}

TEST(PlacementTest, StickinessIsNoOpWhenAlreadyPlacedOrUnpinned) {
  Topology dual = MakeE54603Topology();
  dual.sockets = 2;
  std::vector<std::vector<int>> per_socket = {{1, 2}, {3, 4}};
  const std::vector<std::vector<int>> original = per_socket;
  // Pinned to the socket it is already on + an unpinned hint.
  const std::vector<PlacementHint> hints = {Hint(1, 0, 1 << 20, true),
                                            Hint(3, 0, 1 << 20, false)};
  ApplyNumaStickiness(per_socket, hints, dual);
  EXPECT_EQ(per_socket, original);
  // Single-socket assignments are untouched by construction.
  std::vector<std::vector<int>> single = {{1, 2, 3, 4}};
  ApplyNumaStickiness(single, {Hint(1, 0, 1 << 20, true)}, MakeI73770Topology(4));
  EXPECT_EQ(single, (std::vector<std::vector<int>>{{1, 2, 3, 4}}));
}

TEST(PlacementTest, StickinessNeverDisplacesAnotherPinnedVcpu) {
  Topology dual = MakeE54603Topology();
  dual.sockets = 2;
  std::vector<std::vector<int>> per_socket = {{1}, {2}};
  // Both pinned to socket 0; only one slot there. 1 holds the node, so 2
  // must stay put rather than evict it.
  const std::vector<PlacementHint> hints = {Hint(1, 0, 1 << 20, true),
                                            Hint(2, 0, 1 << 20, true)};
  ApplyNumaStickiness(per_socket, hints, dual);
  EXPECT_EQ(per_socket[0], (std::vector<int>{1}));
  EXPECT_EQ(per_socket[1], (std::vector<int>{2}));
}

}  // namespace
}  // namespace aql
