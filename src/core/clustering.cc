#include "src/core/clustering.h"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>

#include "src/sim/check.h"

namespace aql {
namespace {

// Stable order grouping vCPUs of the same VM together (Algorithm 1 line 3).
void OrderByVm(std::vector<VcpuClass>& vcpus) {
  std::stable_sort(vcpus.begin(), vcpus.end(),
                   [](const VcpuClass& a, const VcpuClass& b) { return a.vm < b.vm; });
}

std::string QuantumLabel(TimeNs q) {
  const double ms = ToMs(q);
  if (ms >= 1.0 && ms == static_cast<double>(static_cast<int64_t>(ms))) {
    return std::to_string(static_cast<int64_t>(ms)) + "ms";
  }
  return std::to_string(static_cast<int64_t>(ToUs(q))) + "us";
}

}  // namespace

SocketAssignment FirstLevelClustering(const std::vector<VcpuClass>& vcpus, int sockets) {
  AQL_CHECK(sockets >= 1);
  SocketAssignment out;
  out.per_socket.resize(static_cast<size_t>(sockets));
  if (vcpus.empty()) {
    return out;
  }

  // Lines 4-10 (with the LLCO predicate correction, see header/DESIGN.md):
  // split into trashing and non-trashing by the CPU-burn cursor maximum.
  std::vector<VcpuClass> trashing;
  std::vector<VcpuClass> non_trashing;
  for (const VcpuClass& v : vcpus) {
    if (IsTrashing(v.avg)) {
      trashing.push_back(v);
    } else {
      non_trashing.push_back(v);
    }
  }

  // Line 3: keep vCPUs of the same VM adjacent within each list.
  OrderByVm(trashing);
  OrderByVm(non_trashing);

  // Line 11: LoLCF first among the non-trashing so that, when a socket mixes
  // both lists, LLCF vCPUs stay away from trashers.
  std::stable_partition(non_trashing.begin(), non_trashing.end(),
                        [](const VcpuClass& v) { return v.type == VcpuType::kLoLcf; });

  // Lines 12-17: deal `n` vCPUs to each socket, trashing list first.
  const size_t total = vcpus.size();
  const size_t base = total / static_cast<size_t>(sockets);
  size_t remainder = total % static_cast<size_t>(sockets);
  std::deque<VcpuClass> tq(trashing.begin(), trashing.end());
  std::deque<VcpuClass> nq(non_trashing.begin(), non_trashing.end());
  for (int s = 0; s < sockets; ++s) {
    size_t want = base + (remainder > 0 ? 1 : 0);
    if (remainder > 0) {
      --remainder;
    }
    auto& bucket = out.per_socket[static_cast<size_t>(s)];
    while (want > 0) {
      std::deque<VcpuClass>* src = !tq.empty() ? &tq : &nq;
      if (src->empty()) {
        break;
      }
      bucket.push_back(src->front().vcpu);
      src->pop_front();
      --want;
    }
  }
  return out;
}

std::vector<PoolSpec> SecondLevelClustering(const std::vector<VcpuClass>& socket_vcpus,
                                            const std::vector<int>& pcpus,
                                            const CalibrationTable& calibration,
                                            const std::string& label_prefix) {
  AQL_CHECK(!pcpus.empty());
  const size_t num_pcpus = pcpus.size();
  const size_t total = socket_vcpus.size();

  // Handle an empty socket: a single default pool owning the pCPUs.
  if (total == 0) {
    PoolSpec def;
    def.label = label_prefix + "C_idle^" + QuantumLabel(calibration.default_quantum);
    def.pcpus = pcpus;
    def.quantum = calibration.default_quantum;
    return {def};
  }

  // Line 11: k = vCPUs per pCPU (fairness unit). Round up so every vCPU can
  // be placed even when the division is ragged.
  const size_t k = std::max<size_t>(1, (total + num_pcpus - 1) / num_pcpus);

  // Lines 2-7: one cluster per calibrated quantum, agnostic types excluded.
  struct Cluster {
    TimeNs quantum;
    std::vector<int> vcpus;
  };
  std::vector<Cluster> clusters;
  for (TimeNs q : calibration.CalibratedQuanta()) {
    clusters.push_back(Cluster{q, {}});
  }
  std::vector<int> ballast;  // LoLCF and LLCO vCPUs (line 5 / line 10)
  for (const VcpuClass& v : socket_vcpus) {
    if (calibration.IsAgnostic(v.type)) {
      ballast.push_back(v.vcpu);
      continue;
    }
    const TimeNs q = calibration.BestQuantum(v.type);
    bool placed = false;
    for (Cluster& c : clusters) {
      if (c.quantum == q) {
        c.vcpus.push_back(v.vcpu);
        placed = true;
        break;
      }
    }
    AQL_CHECK_MSG(placed, "type quantum missing from calibrated set");
  }
  clusters.erase(std::remove_if(clusters.begin(), clusters.end(),
                                [](const Cluster& c) { return c.vcpus.empty(); }),
                 clusters.end());

  // Line 10: use the agnostic vCPUs to round cluster sizes up to multiples
  // of k; distribute any remaining ballast in chunks of k, largest cluster
  // first, so it dissolves into existing pools rather than fragmenting.
  auto take_ballast = [&ballast](size_t n, std::vector<int>* dst) {
    while (n > 0 && !ballast.empty()) {
      dst->push_back(ballast.back());
      ballast.pop_back();
      --n;
    }
  };
  for (Cluster& c : clusters) {
    const size_t deficit = (k - c.vcpus.size() % k) % k;
    take_ballast(deficit, &c.vcpus);
  }
  if (!clusters.empty()) {
    size_t idx = 0;
    while (ballast.size() >= k) {
      take_ballast(k, &clusters[idx % clusters.size()].vcpus);
      ++idx;
    }
  }
  // Whatever ballast is left (less than k, or no typed cluster at all) goes
  // to the default cluster below.
  std::vector<int> default_vcpus = std::move(ballast);

  // Lines 11-29: deal pCPUs to clusters, k vCPUs at a time. Ragged cluster
  // tails are moved to the default cluster C^dq.
  struct PoolBuild {
    TimeNs quantum;
    std::vector<int> pcpus;
    std::vector<int> vcpus;
  };
  std::vector<PoolBuild> built;
  PoolBuild def;
  def.quantum = calibration.default_quantum;

  size_t pcpu_idx = 0;
  for (Cluster& c : clusters) {
    const size_t whole = c.vcpus.size() / k;
    PoolBuild pb;
    pb.quantum = c.quantum;
    for (size_t w = 0; w < whole && pcpu_idx < num_pcpus; ++w) {
      pb.pcpus.push_back(pcpus[pcpu_idx++]);
      for (size_t i = 0; i < k; ++i) {
        pb.vcpus.push_back(c.vcpus[w * k + i]);
      }
    }
    // Tail (size % k) — or overflow if pCPUs ran out — joins the default
    // cluster (line 22).
    for (size_t i = pb.vcpus.size(); i < c.vcpus.size(); ++i) {
      def.vcpus.push_back(c.vcpus[i]);
    }
    if (!pb.pcpus.empty()) {
      built.push_back(std::move(pb));
    }
  }
  for (int v : default_vcpus) {
    def.vcpus.push_back(v);
  }
  // Default cluster gets the remaining pCPUs (at least one if it has vCPUs).
  while (pcpu_idx < num_pcpus) {
    def.pcpus.push_back(pcpus[pcpu_idx++]);
  }
  if (!def.vcpus.empty() && def.pcpus.empty()) {
    // No free pCPU left: borrow one from the last built pool and merge its
    // vCPUs into the default cluster so fairness is preserved.
    AQL_CHECK(!built.empty());
    PoolBuild& last = built.back();
    def.pcpus.push_back(last.pcpus.back());
    last.pcpus.pop_back();
    const size_t keep = last.pcpus.size() * k;
    while (last.vcpus.size() > keep) {
      def.vcpus.push_back(last.vcpus.back());
      last.vcpus.pop_back();
    }
    if (last.pcpus.empty()) {
      def.vcpus.insert(def.vcpus.end(), last.vcpus.begin(), last.vcpus.end());
      built.pop_back();
    }
  }
  if (!def.pcpus.empty()) {
    built.push_back(std::move(def));
  } else {
    AQL_CHECK(def.vcpus.empty());
  }

  // Materialize specs (lines 30-34: the quantum configuration per pool).
  std::vector<PoolSpec> out;
  int idx = 1;
  for (PoolBuild& pb : built) {
    PoolSpec spec;
    spec.label =
        label_prefix + "C" + std::to_string(idx++) + "^" + QuantumLabel(pb.quantum);
    spec.quantum = pb.quantum;
    spec.pcpus = std::move(pb.pcpus);
    spec.vcpus = std::move(pb.vcpus);
    out.push_back(std::move(spec));
  }
  return out;
}

PoolPlan BuildTwoLevelPlan(const std::vector<VcpuClass>& vcpus, const Topology& topology,
                           const CalibrationTable& calibration,
                           const std::vector<PlacementHint>& hints) {
  std::unordered_map<int, VcpuClass> by_id;
  for (const VcpuClass& v : vcpus) {
    by_id[v.vcpu] = v;
  }
  SocketAssignment assignment = FirstLevelClustering(vcpus, topology.sockets);
  ApplyNumaStickiness(assignment.per_socket, hints, topology);

  PoolPlan plan;
  for (int s = 0; s < topology.sockets; ++s) {
    std::vector<VcpuClass> socket_vcpus;
    for (int vid : assignment.per_socket[static_cast<size_t>(s)]) {
      socket_vcpus.push_back(by_id.at(vid));
    }
    const std::string prefix = "S" + std::to_string(s) + ".";
    std::vector<PoolSpec> pools = SecondLevelClustering(
        socket_vcpus, topology.PcpusOfSocket(s), calibration, prefix);
    for (PoolSpec& p : pools) {
      plan.pools.push_back(std::move(p));
    }
  }
  return plan;
}

}  // namespace aql
