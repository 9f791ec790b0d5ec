#include "src/fleet/cluster_scheduler.h"

#include "src/sim/check.h"

namespace aql {

const char* ClusterPolicyName(ClusterPolicy policy) {
  switch (policy) {
    case ClusterPolicy::kNaive:
      return "naive";
    case ClusterPolicy::kMemPressure:
      return "mem_pressure";
    case ClusterPolicy::kCacheAware:
      return "cache_aware";
  }
  return "?";
}

namespace {

// Least-loaded eligible host by `score` (ties toward the lowest index).
template <typename Score>
int ArgMinHost(const std::vector<FleetHostView>& hosts, Score score) {
  int best = -1;
  double best_score = 0.0;
  for (const FleetHostView& h : hosts) {
    if (h.draining) {
      continue;
    }
    const double s = score(h);
    if (best < 0 || s < best_score) {
      best = h.host;
      best_score = s;
    }
  }
  AQL_CHECK_MSG(best >= 0, "no eligible host (all draining)");
  return best;
}

template <typename Score>
int ArgMaxHost(const std::vector<FleetHostView>& hosts, Score score) {
  int best = -1;
  double best_score = 0.0;
  for (const FleetHostView& h : hosts) {
    if (h.draining) {
      continue;
    }
    const double s = score(h);
    if (best < 0 || s > best_score) {
      best = h.host;
      best_score = s;
    }
  }
  return best;
}

// The heaviest movable VM of `host` matching `pred` (most vCPUs, ties toward
// the lowest VM index).
template <typename Pred>
int PickVm(const std::vector<FleetVmView>& vms, int host, Pred pred) {
  int best = -1;
  for (const FleetVmView& v : vms) {
    if (v.host != host || !pred(v)) {
      continue;
    }
    if (best < 0 || v.vcpus > vms[static_cast<size_t>(best)].vcpus) {
      best = v.vm;
    }
  }
  return best;
}

// Iterative greedy leveling shared by the aware policies: while the gap
// between the most- and least-loaded hosts (by `load`, an integer host
// score) is >= 2, propose moving the heaviest matching VM and re-score on
// updated working copies. A move is kept only if it strictly shrinks the
// pairwise gap — a mover whose weight matches or exceeds the gap would just
// mirror the imbalance onto the destination and bounce straight back next
// iteration (the classic ping-pong of greedy leveling with multi-unit
// items), proposing the same VM twice in one round. Proposals are capped;
// the fleet applies its own per-epoch budget on top (most urgent first, so
// truncation keeps the best prefix).
template <typename Load, typename Pred, typename Apply>
std::vector<FleetMigration> ProposeMoves(const std::vector<FleetHostView>& hosts,
                                         const std::vector<FleetVmView>& vms, Load load,
                                         Pred pred, Apply apply) {
  constexpr int kMaxProposals = 16;
  std::vector<FleetHostView> h = hosts;
  std::vector<FleetVmView> v = vms;
  std::vector<FleetMigration> out;
  while (static_cast<int>(out.size()) < kMaxProposals) {
    const int from = ArgMaxHost(h, [&load](const FleetHostView& x) {
      return static_cast<double>(load(x));
    });
    const int to = ArgMinHost(h, [&load](const FleetHostView& x) {
      return static_cast<double>(load(x));
    });
    if (from < 0 || from == to) {
      break;
    }
    const int gap = load(h[static_cast<size_t>(from)]) - load(h[static_cast<size_t>(to)]);
    if (gap < 2) {
      break;  // within one VM of level: moving further would oscillate
    }
    const int vm = PickVm(v, from, pred);
    if (vm < 0) {
      break;
    }
    FleetVmView& moved = v[static_cast<size_t>(vm)];
    apply(h[static_cast<size_t>(from)], moved, -1);
    apply(h[static_cast<size_t>(to)], moved, +1);
    const int after =
        load(h[static_cast<size_t>(from)]) - load(h[static_cast<size_t>(to)]);
    if (after >= gap || after <= -gap) {
      // The heaviest mover overshoots: the pair would be no more level than
      // before (or worse). Undo the trial application and stop the round.
      apply(h[static_cast<size_t>(from)], moved, +1);
      apply(h[static_cast<size_t>(to)], moved, -1);
      break;
    }
    out.push_back(FleetMigration{vm, from, to});
    h[static_cast<size_t>(from)].vcpus -= moved.vcpus;
    h[static_cast<size_t>(to)].vcpus += moved.vcpus;
    moved.host = to;
  }
  return out;
}

class NaiveScheduler : public ClusterScheduler {
 public:
  int Place(const FleetVmView& vm, const std::vector<FleetHostView>& hosts) override {
    (void)vm;
    // Spread by vCPU count only: blind to what the vCPUs do, which is
    // exactly the pathology the aware policies fix.
    return ArgMinHost(hosts, [](const FleetHostView& h) {
      return static_cast<double>(h.vcpus);
    });
  }
};

class MemPressureScheduler : public ClusterScheduler {
 public:
  int Place(const FleetVmView& vm, const std::vector<FleetHostView>& hosts) override {
    if (vm.mem_heavy) {
      return ArgMinHost(hosts, [](const FleetHostView& h) {
        // Pressure first, population as the tie-breaking epsilon.
        return static_cast<double>(h.mem_heavy_vcpus) +
               1e-6 * static_cast<double>(h.vcpus);
      });
    }
    return ArgMinHost(hosts, [](const FleetHostView& h) {
      return static_cast<double>(h.vcpus);
    });
  }

  std::vector<FleetMigration> Rebalance(const std::vector<FleetHostView>& hosts,
                                        const std::vector<FleetVmView>& vms) override {
    // Balance the static per-host bandwidth-consumer population (the
    // deterministic stand-in for time-averaged per-VM MemBus attribution;
    // the instantaneous TotalDemand reading ranks identically once steps
    // are in flight but flaps during rebuild warm-up).
    return ProposeMoves(
        hosts, vms, [](const FleetHostView& h) { return h.mem_heavy_vcpus; },
        [](const FleetVmView& v) { return v.mem_heavy; },
        [](FleetHostView& h, const FleetVmView& v, int delta) {
          h.mem_heavy_vcpus += delta * v.vcpus;
        });
  }
};

class CacheAwareScheduler : public ClusterScheduler {
 public:
  int Place(const FleetVmView& vm, const std::vector<FleetHostView>& hosts) override {
    if (vm.llc_trasher) {
      return ArgMinHost(hosts, [](const FleetHostView& h) {
        return static_cast<double>(h.trashers) + 1e-6 * static_cast<double>(h.vcpus);
      });
    }
    // Cache-sensitive VMs flee the trashers: fewest trashers first, then
    // fewest vCPUs.
    return ArgMinHost(hosts, [](const FleetHostView& h) {
      return static_cast<double>(h.trashers) + 1e-3 * static_cast<double>(h.vcpus);
    });
  }

  std::vector<FleetMigration> Rebalance(const std::vector<FleetHostView>& hosts,
                                        const std::vector<FleetVmView>& vms) override {
    return ProposeMoves(
        hosts, vms, [](const FleetHostView& h) { return h.trashers; },
        [](const FleetVmView& v) { return v.llc_trasher; },
        [](FleetHostView& h, const FleetVmView& v, int delta) {
          (void)v;
          h.trashers += delta;
        });
  }
};

}  // namespace

std::unique_ptr<ClusterScheduler> MakeClusterScheduler(ClusterPolicy policy) {
  switch (policy) {
    case ClusterPolicy::kNaive:
      return std::make_unique<NaiveScheduler>();
    case ClusterPolicy::kMemPressure:
      return std::make_unique<MemPressureScheduler>();
    case ClusterPolicy::kCacheAware:
      return std::make_unique<CacheAwareScheduler>();
  }
  AQL_CHECK_MSG(false, "unknown cluster policy");
}

}  // namespace aql
