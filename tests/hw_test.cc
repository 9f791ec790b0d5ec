// Unit tests for the hardware model: topology and the LLC occupancy model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "src/hw/llc_model.h"
#include "src/hw/topology.h"

namespace aql {
namespace {

constexpr uint64_t kMiB = 1024 * 1024;

TEST(TopologyTest, SocketMapping) {
  Topology t = MakeE54603Topology();
  EXPECT_EQ(t.TotalPcpus(), 16);
  EXPECT_EQ(t.SocketOf(0), 0);
  EXPECT_EQ(t.SocketOf(3), 0);
  EXPECT_EQ(t.SocketOf(4), 1);
  EXPECT_EQ(t.SocketOf(15), 3);
}

TEST(TopologyTest, PcpusOfSocket) {
  Topology t = MakeE54603Topology();
  const std::vector<int> s2 = t.PcpusOfSocket(2);
  EXPECT_EQ(s2, (std::vector<int>{8, 9, 10, 11}));
}

TEST(TopologyTest, I73770Preset) {
  Topology t = MakeI73770Topology(4);
  EXPECT_EQ(t.sockets, 1);
  EXPECT_EQ(t.TotalPcpus(), 4);
  EXPECT_EQ(t.llc_bytes, 8ull * kMiB);
}

TEST(TopologyTest, RemoteMissExtraFromDistanceRatio) {
  // 21/10 distance ratio: a remote access costs 2.1x the local penalty,
  // i.e. 1.1x extra on top of an 80 ns miss.
  EXPECT_EQ(kRemoteMissExtra, 88);
}

TEST(MemBusTest, UnmodeledBusNeverStalls) {
  MemBus bus(2, 0.0);
  bus.SetDemand(0, 0, 50.0);
  EXPECT_DOUBLE_EQ(bus.StallFactor(0, 10.0), 1.0);
}

TEST(MemBusTest, FactorGrowsPastSaturation) {
  MemBus bus(2, 1.0);
  EXPECT_DOUBLE_EQ(bus.StallFactor(0, 0.5), 1.0);  // under the limit
  bus.SetDemand(0, 0, 0.8);
  EXPECT_DOUBLE_EQ(bus.TotalDemand(0), 0.8);
  // 0.8 registered + 0.7 incoming = 1.5x the bus.
  EXPECT_DOUBLE_EQ(bus.StallFactor(0, 0.7), 1.5);
  // Sockets are independent.
  EXPECT_DOUBLE_EQ(bus.StallFactor(1, 0.7), 1.0);
}

TEST(MemBusTest, DemandUpdatesAndClears) {
  MemBus bus(1, 1.0);
  bus.SetDemand(0, 0, 0.6);
  bus.SetDemand(0, 1, 0.6);
  EXPECT_DOUBLE_EQ(bus.TotalDemand(0), 1.2);
  bus.SetDemand(0, 0, 0.2);  // re-register replaces, not accumulates
  EXPECT_DOUBLE_EQ(bus.TotalDemand(0), 0.8);
  bus.SetDemand(0, 1, 0.0);
  EXPECT_DOUBLE_EQ(bus.TotalDemand(0), 0.2);
}

class LlcModelTest : public ::testing::Test {
 protected:
  HwParams params_;
  LlcModel llc_{2, 8 * kMiB, HwParams{}};
};

TEST_F(LlcModelTest, ColdCacheHasFullMissRatio) {
  EXPECT_DOUBLE_EQ(llc_.MissRatio(0, 1, 4 * kMiB), 1.0);
}

TEST_F(LlcModelTest, WarmupReducesMissRatio) {
  // Fetch half of a 4 MiB working set: 32768 lines.
  llc_.CommitAccesses(0, 1, 4 * kMiB, 32768);
  EXPECT_NEAR(llc_.MissRatio(0, 1, 4 * kMiB), 0.5, 0.01);
  EXPECT_EQ(llc_.Occupancy(0, 1), 2 * kMiB);
}

TEST_F(LlcModelTest, FullyWarmHitsResidualFloor) {
  llc_.CommitAccesses(0, 1, 4 * kMiB, 70000);
  EXPECT_EQ(llc_.Occupancy(0, 1), 4 * kMiB);  // bounded by WSS
  EXPECT_DOUBLE_EQ(llc_.MissRatio(0, 1, 4 * kMiB), kMinMissRatio);
}

TEST_F(LlcModelTest, OccupancyBoundedByCapacity) {
  llc_.CommitAccesses(0, 1, 6 * kMiB, 1 << 20);
  llc_.CommitAccesses(0, 2, 6 * kMiB, 1 << 20);
  EXPECT_LE(llc_.TotalOccupancy(0), 8 * kMiB);
}

TEST_F(LlcModelTest, OverflowEvictsCoResidents) {
  llc_.CommitAccesses(0, 1, 6 * kMiB, 100000);  // ~6 MiB resident
  const uint64_t before = llc_.Occupancy(0, 1);
  llc_.CommitAccesses(0, 2, 6 * kMiB, 100000);
  EXPECT_LT(llc_.Occupancy(0, 1), before);
  EXPECT_GT(llc_.Occupancy(0, 2), 0u);
  EXPECT_LE(llc_.TotalOccupancy(0), 8 * kMiB);
}

TEST_F(LlcModelTest, RunningVcpuIsRecencyProtected) {
  llc_.CommitAccesses(0, 1, 4 * kMiB, 65536);  // vcpu 1 fully warm
  llc_.CommitAccesses(0, 2, 4 * kMiB, 65536);  // vcpu 2 warm; socket full

  // vcpu 1 running, vcpu 2 descheduled: a third fetcher hits vcpu 2 harder.
  llc_.SetRunning(0, 1, true);
  llc_.CommitAccesses(0, 3, 2 * kMiB, 32768);
  const uint64_t survived_running = llc_.Occupancy(0, 1);
  const uint64_t survived_idle = llc_.Occupancy(0, 2);
  EXPECT_GT(survived_running, survived_idle);
}

TEST_F(LlcModelTest, StreamingInsertionIsDamped) {
  // A streaming workload (WSS > capacity) fetching many lines inserts only
  // a fraction of them.
  llc_.CommitAccesses(0, 1, 16 * kMiB, 65536);  // 4 MiB fetched
  const uint64_t inserted = llc_.Occupancy(0, 1);
  EXPECT_LT(inserted, 4 * kMiB);
  EXPECT_NEAR(static_cast<double>(inserted),
              4.0 * kMiB * params_.stream_insertion_fraction, 64.0 * 1024);
}

TEST_F(LlcModelTest, RemoveDropsFootprint) {
  llc_.CommitAccesses(0, 1, 4 * kMiB, 32768);
  llc_.Remove(0, 1);
  EXPECT_EQ(llc_.Occupancy(0, 1), 0u);
  EXPECT_EQ(llc_.TotalOccupancy(0), 0u);
  // Removing again is a no-op.
  llc_.Remove(0, 1);
}

TEST_F(LlcModelTest, SocketsAreIndependent) {
  llc_.CommitAccesses(0, 1, 4 * kMiB, 32768);
  EXPECT_EQ(llc_.Occupancy(1, 1), 0u);
  EXPECT_EQ(llc_.TotalOccupancy(1), 0u);
}

TEST_F(LlcModelTest, ZeroWssNeverMissesBelowFloor) {
  EXPECT_DOUBLE_EQ(llc_.MissRatio(0, 9, 0), kMinMissRatio);
  llc_.CommitAccesses(0, 9, 0, 1000);  // no-op
  EXPECT_EQ(llc_.Occupancy(0, 9), 0u);
}

// Three victims behind one overflowing commit, computed by hand. Capacity is
// 6400 B (100 lines) and every WSS is 6400 B, so every footprint is
// cache-friendly:
//   vcpu 1: 20 lines = 1280 B, running -> weight 1280 x 0.15 = 192
//   vcpu 2: 30 lines = 1920 B          -> weight 1920
//   vcpu 3: 35 lines = 2240 B          -> weight 2240
// vcpu 4 then fetches 25 lines = 1600 B: the socket holds 7040 B, 640 B over.
// The shares floor(640 x weight / 4352) are 28, 282 and 329 (639 in all), and
// the 1 B residue comes from the lowest id, vcpu 1.
TEST(LlcEvictionTest, HandComputedSharesAndResidue) {
  LlcModel llc(1, 6400, HwParams{});
  llc.CommitAccesses(0, 1, 6400, 20);
  llc.CommitAccesses(0, 2, 6400, 30);
  llc.CommitAccesses(0, 3, 6400, 35);
  llc.SetRunning(0, 1, true);
  llc.CommitAccesses(0, 4, 6400, 25);
  EXPECT_EQ(llc.Occupancy(0, 1), 1280u - 28 - 1);
  EXPECT_EQ(llc.Occupancy(0, 2), 1920u - 282);
  EXPECT_EQ(llc.Occupancy(0, 3), 2240u - 329);
  EXPECT_EQ(llc.Occupancy(0, 4), 1600u);  // the fetcher keeps what it fetched
  EXPECT_EQ(llc.TotalOccupancy(0), 6400u);
}

// Eviction depends on the occupancies, never on the order in which the vCPUs
// became resident: every insertion order of the same four footprints evicts
// identically on the same overflowing commit. Capacity and WSS are 6400 B as
// above; vcpus 1, 2, 3 and 5 hold 1280, 1920, 2240 and 576 B (vcpu 1 running,
// so it weighs 192), and vcpu 4's 1600 B fetch overflows by 1216 B. The
// shares are 47, 473, 552 and 142, and the 2 B residue comes from vcpu 1.
TEST(LlcEvictionTest, IndependentOfInsertionHistory) {
  struct Footprint {
    int vcpu;
    uint64_t lines;
    bool operator<(const Footprint& o) const { return vcpu < o.vcpu; }
  };
  const auto evict_after = [](const std::vector<Footprint>& history) {
    LlcModel llc(1, 6400, HwParams{});
    for (const Footprint& f : history) {
      llc.CommitAccesses(0, f.vcpu, 6400, f.lines);
    }
    llc.SetRunning(0, 1, true);
    llc.CommitAccesses(0, 4, 6400, 25);
    std::vector<uint64_t> occupancy;
    for (int v = 1; v <= 5; ++v) {
      occupancy.push_back(llc.Occupancy(0, v));
    }
    return occupancy;
  };
  const std::vector<uint64_t> expected = {1231, 1447, 1688, 1600, 434};
  std::vector<Footprint> history = {{1, 20}, {2, 30}, {3, 35}, {5, 9}};
  int orders = 0;
  do {
    std::string order;
    for (const Footprint& f : history) {
      order += std::to_string(f.vcpu) + " ";
    }
    EXPECT_EQ(evict_after(history), expected) << "insertion order " << order;
    ++orders;
  } while (std::next_permutation(history.begin(), history.end()));
  EXPECT_EQ(orders, 24);
}

// Naive reference for the eviction rule documented on
// LlcModel::CommitAccesses: ordered maps, totals recomputed from the
// occupancies, and no resident list.
class ReferenceLlc {
 public:
  ReferenceLlc(size_t sockets, uint64_t cap) : capacity_(cap), sockets_(sockets) {}

  void CommitAccesses(int socket, int vcpu, uint64_t wss, uint64_t misses) {
    if (misses == 0 || wss == 0) {
      return;
    }
    Socket& s = sockets_[static_cast<size_t>(socket)];
    s.wss[vcpu] = wss;
    uint64_t fetched = misses * kCacheLineBytes;
    if (wss > capacity_) {
      const double fraction = params_.stream_insertion_fraction;
      fetched = static_cast<uint64_t>(static_cast<double>(fetched) * fraction);
    }
    const uint64_t limit = std::min(wss, capacity_);
    uint64_t& occ = s.occupancy[vcpu];
    occ += std::min(fetched, limit > occ ? limit - occ : 0);
    if (Total(socket) <= capacity_) {
      return;
    }
    ++overflows;
    const uint64_t overflow = Total(socket) - capacity_;
    const double protected_weight = params_.running_eviction_weight;
    std::map<int, double> weights;  // the victims, in ascending id
    double weight_total = 0;
    for (const auto& [id, bytes] : s.occupancy) {
      if (id == vcpu || bytes == 0) {
        continue;
      }
      const bool protect = s.running[id] && s.wss[id] <= capacity_;
      weights[id] = static_cast<double>(bytes) * (protect ? protected_weight : 1.0);
      weight_total += weights[id];
    }
    uint64_t evicted = 0;
    if (weight_total > 0) {
      for (const auto& [id, weight] : weights) {
        const double exact = static_cast<double>(overflow) * weight / weight_total;
        const uint64_t share = std::min(s.occupancy[id], static_cast<uint64_t>(exact));
        s.occupancy[id] -= share;
        evicted += share;
      }
    }
    uint64_t residue = overflow > evicted ? overflow - evicted : 0;
    if (residue > 0) {
      ++residue_drains;
    }
    for (const auto& [id, weight] : weights) {
      const uint64_t take = std::min(residue, s.occupancy[id]);
      s.occupancy[id] -= take;
      residue -= take;
    }
    if (Total(socket) > capacity_) {
      occ -= Total(socket) - capacity_;
    }
  }

  void SetRunning(int socket, int vcpu, bool running) {
    sockets_[static_cast<size_t>(socket)].running[vcpu] = running;
  }

  void Remove(int socket, int vcpu) {
    Socket& s = sockets_[static_cast<size_t>(socket)];
    s.running[vcpu] = false;
    s.occupancy.erase(vcpu);
  }

  uint64_t Occupancy(int socket, int vcpu) const {
    const Socket& s = sockets_[static_cast<size_t>(socket)];
    const auto it = s.occupancy.find(vcpu);
    return it == s.occupancy.end() ? 0 : it->second;
  }

  uint64_t Total(int socket) const {
    uint64_t total = 0;
    for (const auto& [id, bytes] : sockets_[static_cast<size_t>(socket)].occupancy) {
      total += bytes;
    }
    return total;
  }

  double MissRatio(int socket, int vcpu, uint64_t wss) const {
    if (wss == 0) {
      return kMinMissRatio;
    }
    const uint64_t resident = std::min(Occupancy(socket, vcpu), wss);
    const double hit = static_cast<double>(resident) / static_cast<double>(wss);
    return std::max(kMinMissRatio, 1.0 - hit);
  }

  int overflows = 0;
  int residue_drains = 0;

 private:
  struct Socket {
    std::map<int, uint64_t> occupancy;
    std::map<int, bool> running;
    std::map<int, uint64_t> wss;
  };
  HwParams params_;
  uint64_t capacity_;
  std::vector<Socket> sockets_;
};

// The shape of one randomized differential run.
struct LlcShape {
  int sockets;
  int vcpus;
  uint64_t capacity;
  int ops;
  // false: every operation picks its socket at random. true: the ids are
  // dealt to home sockets in blocks, as the four-socket scenario packs its
  // VMs, and ~90% of an id's operations land on its home socket.
  bool homed;
};

void PrintTo(const LlcShape& shape, std::ostream* os) {
  *os << shape.sockets << " sockets x " << shape.vcpus << " ids";
  *os << (shape.homed ? ", homed" : ", random sockets");
}

// Randomized differential test: after every operation, every occupancy, every
// socket total and a miss ratio equal the naive reference, the total equals
// the sum of the occupancies, and no socket exceeds its capacity.
class LlcDifferentialTest : public ::testing::TestWithParam<std::tuple<LlcShape, int>> {};

TEST_P(LlcDifferentialTest, MatchesNaiveReference) {
  const auto& [shape, seed] = GetParam();
  const int sockets = shape.sockets;
  const int vcpus = shape.vcpus;
  const uint64_t capacity = shape.capacity;
  // Friendly working sets up to exactly the capacity, then streaming ones.
  const uint64_t cap_kib = capacity / 1024;
  const uint64_t wss_kib[] = {256, 1024, 3072, 6144, cap_kib, cap_kib + 4096, 32768};
  std::mt19937_64 rng(static_cast<uint64_t>(seed));
  const auto pick = [&rng](uint64_t n) { return rng() % n; };
  const auto pick_wss = [&] { return wss_kib[pick(std::size(wss_kib))] * 1024; };

  LlcModel llc(sockets, capacity, HwParams{});
  ReferenceLlc ref(static_cast<size_t>(sockets), capacity);
  const auto commit = [&](int socket, int vcpu, uint64_t wss) {
    const uint64_t misses = pick(40000);
    llc.CommitAccesses(socket, vcpu, wss, misses);
    ref.CommitAccesses(socket, vcpu, wss, misses);
  };
  const auto set_running = [&](int socket, int vcpu, bool running) {
    llc.SetRunning(socket, vcpu, running);
    ref.SetRunning(socket, vcpu, running);
  };
  const auto remove = [&](int socket, int vcpu) {
    llc.Remove(socket, vcpu);
    ref.Remove(socket, vcpu);
  };
  const auto other_socket = [&](int socket) {
    const int step = 1 + static_cast<int>(pick(static_cast<uint64_t>(sockets - 1)));
    return (socket + step) % sockets;
  };
  std::vector<uint64_t> wss(static_cast<size_t>(vcpus));
  for (uint64_t& w : wss) {
    w = pick_wss();
  }
  const auto query = [&](int socket, int vcpu, uint64_t vcpu_wss) {
    const uint64_t q = pick(2) == 0 ? vcpu_wss : pick(3) * kMiB;
    ASSERT_EQ(llc.MissRatio(socket, vcpu, q), ref.MissRatio(socket, vcpu, q));
  };
  for (int op = 0; op < shape.ops; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    if (!shape.homed) {
      const int socket = static_cast<int>(pick(static_cast<uint64_t>(sockets)));
      const int vcpu = static_cast<int>(pick(static_cast<uint64_t>(vcpus)));
      uint64_t& vcpu_wss = wss[static_cast<size_t>(vcpu)];
      const uint64_t roll = pick(20);
      if (roll < 12) {
        if (pick(8) == 0) {
          vcpu_wss = pick_wss();
        }
        commit(socket, vcpu, vcpu_wss);
      } else if (roll < 16) {
        set_running(socket, vcpu, pick(2) == 0);
      } else if (roll < 18) {
        // A migration: drop the footprint, then refill on either socket.
        remove(socket, vcpu);
        commit(static_cast<int>(pick(static_cast<uint64_t>(sockets))), vcpu, vcpu_wss);
      } else {
        query(socket, vcpu, vcpu_wss);
      }
    } else {
      const int vcpu = static_cast<int>(pick(static_cast<uint64_t>(vcpus)));
      const int home = vcpu / (vcpus / sockets);
      uint64_t& vcpu_wss = wss[static_cast<size_t>(vcpu)];
      const uint64_t roll = pick(20);
      if (roll < 2) {
        // A migration (~10% of operations, the only ones off the home
        // socket): drop the footprint on one socket, refill on another.
        const int from = static_cast<int>(pick(static_cast<uint64_t>(sockets)));
        remove(from, vcpu);
        commit(other_socket(from), vcpu, vcpu_wss);
      } else if (roll < 4) {
        // Churn: the id leaves the home socket's residents and re-enters.
        remove(home, vcpu);
        commit(home, vcpu, vcpu_wss);
      } else if (roll < 5) {
        // A running vCPU's WSS crosses the capacity (checkpoint_restart's
        // solver and write-out phases), flipping its recency protection
        // while it is resident.
        vcpu_wss = vcpu_wss <= capacity ? capacity + 6 * kMiB : 3 * kMiB;
        set_running(home, vcpu, true);
        commit(home, vcpu, vcpu_wss);
      } else if (roll < 12) {
        if (pick(8) == 0) {
          vcpu_wss = pick_wss();
        }
        commit(home, vcpu, vcpu_wss);
      } else if (roll < 16) {
        set_running(home, vcpu, pick(2) == 0);
      } else {
        query(home, vcpu, vcpu_wss);
      }
    }
    if (HasFatalFailure()) {
      return;
    }
    for (int s = 0; s < sockets; ++s) {
      SCOPED_TRACE("socket " + std::to_string(s));
      uint64_t sum = 0;
      for (int v = 0; v < vcpus; ++v) {
        ASSERT_EQ(llc.Occupancy(s, v), ref.Occupancy(s, v)) << "vcpu " << v;
        sum += llc.Occupancy(s, v);
      }
      ASSERT_EQ(llc.TotalOccupancy(s), ref.Total(s));
      ASSERT_EQ(llc.TotalOccupancy(s), sum);
      ASSERT_LE(llc.TotalOccupancy(s), capacity);
    }
  }
  // The run must have exercised eviction and the residue drain.
  EXPECT_GT(ref.overflows, 100);
  EXPECT_GT(ref.residue_drains, 10);
}

using ::testing::ValuesIn;

// Seeds 1-12 of one shape.
std::vector<std::tuple<LlcShape, int>> SeedsOf(const LlcShape& shape) {
  std::vector<std::tuple<LlcShape, int>> runs;
  for (int seed = 1; seed <= 12; ++seed) {
    runs.emplace_back(shape, seed);
  }
  return runs;
}

// Two sockets and ten ids, every operation on a random socket.
constexpr LlcShape kRandomSockets = {2, 10, 8 * kMiB, 600, false};
// The four-socket scenario's machine: three application sockets with a
// 10 MiB LLC each and 48 vCPU ids, 16 per socket.
constexpr LlcShape kMachineShape = {3, 48, 10 * kMiB, 2000, true};

INSTANTIATE_TEST_SUITE_P(Seeds, LlcDifferentialTest, ValuesIn(SeedsOf(kRandomSockets)));
INSTANTIATE_TEST_SUITE_P(MachineShape, LlcDifferentialTest,
                         ValuesIn(SeedsOf(kMachineShape)));

}  // namespace
}  // namespace aql
