#include "src/hv/placement.h"

#include <unordered_map>
#include <utility>

#include "src/sim/check.h"

namespace aql {

std::vector<HomeAssignment> AssignHomes(const PoolPlan& plan) {
  std::vector<HomeAssignment> out;
  for (size_t pool_idx = 0; pool_idx < plan.pools.size(); ++pool_idx) {
    const PoolSpec& spec = plan.pools[pool_idx];
    AQL_CHECK(spec.vcpus.empty() || !spec.pcpus.empty());
    size_t rr = 0;
    for (int vid : spec.vcpus) {
      HomeAssignment a;
      a.vcpu = vid;
      a.pool = static_cast<int>(pool_idx);
      a.home_pcpu = spec.pcpus[rr % spec.pcpus.size()];
      ++rr;
      out.push_back(a);
    }
  }
  return out;
}

TimeNs CrossSocketMigrationCost(const Topology& topology, uint64_t footprint_bytes) {
  if (topology.sockets <= 1 || footprint_bytes == 0) {
    return 0;
  }
  static_assert(kCacheLineBytes > 0);
  const uint64_t lines = (footprint_bytes + kCacheLineBytes - 1) / kCacheLineBytes;
  return static_cast<TimeNs>(lines) * (kLlcMissPenalty + kRemoteMissExtra);
}

void ApplyNumaStickiness(std::vector<std::vector<int>>& per_socket,
                         const std::vector<PlacementHint>& hints,
                         const Topology& topology) {
  const int sockets = static_cast<int>(per_socket.size());
  if (sockets <= 1 || hints.empty()) {
    return;
  }
  std::unordered_map<int, const PlacementHint*> by_vcpu;
  for (const PlacementHint& h : hints) {
    by_vcpu[h.vcpu] = &h;
  }
  auto locate = [&per_socket, sockets](int vcpu, int* socket, size_t* index) {
    for (int s = 0; s < sockets; ++s) {
      for (size_t i = 0; i < per_socket[static_cast<size_t>(s)].size(); ++i) {
        if (per_socket[static_cast<size_t>(s)][i] == vcpu) {
          *socket = s;
          *index = i;
          return true;
        }
      }
    }
    return false;
  };

  // Hints are processed in caller order (vCPU id order from the
  // controller), which keeps the pass deterministic.
  for (const PlacementHint& h : hints) {
    if (!h.pinned || h.socket < 0 || h.socket >= sockets) {
      continue;
    }
    int cur_socket = -1;
    size_t cur_index = 0;
    if (!locate(h.vcpu, &cur_socket, &cur_index) || cur_socket == h.socket) {
      continue;
    }
    // Cheapest partner on the memory node; never displace a vCPU pinned to
    // that node. Ties resolve to the earliest position.
    auto& node = per_socket[static_cast<size_t>(h.socket)];
    int best = -1;
    TimeNs best_cost = 0;
    for (size_t i = 0; i < node.size(); ++i) {
      const auto it = by_vcpu.find(node[i]);
      const PlacementHint* wh = it == by_vcpu.end() ? nullptr : it->second;
      if (wh != nullptr && wh->pinned && wh->socket == h.socket) {
        continue;
      }
      const TimeNs cost =
          CrossSocketMigrationCost(topology, wh == nullptr ? 0 : wh->footprint_bytes);
      if (best < 0 || cost < best_cost) {
        best = static_cast<int>(i);
        best_cost = cost;
      }
    }
    if (best < 0) {
      continue;  // the whole node is pinned; leave the deal as-is
    }
    std::swap(node[static_cast<size_t>(best)],
              per_socket[static_cast<size_t>(cur_socket)][cur_index]);
  }
}

}  // namespace aql
