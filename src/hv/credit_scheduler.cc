#include "src/hv/credit_scheduler.h"

#include <algorithm>
#include <unordered_map>

#include "src/hv/vm.h"
#include "src/sim/check.h"

namespace aql {

CreditScheduler::CreditScheduler(int num_pcpus, const CreditParams& params)
    : params_(params),
      queues_(static_cast<size_t>(num_pcpus)),
      pcpu_pool_(static_cast<size_t>(num_pcpus), 0) {
  AQL_CHECK(num_pcpus >= 1);
  static_assert(kAccountingPeriod > 0);
  AQL_CHECK(params_.default_quantum > 0);
  PoolState all;
  all.quantum = params_.default_quantum;
  for (int p = 0; p < num_pcpus; ++p) {
    all.pcpus.push_back(p);
  }
  pools_.push_back(std::move(all));
}

void CreditScheduler::SetPools(const std::vector<PoolSpec>& pools) {
  AQL_CHECK(!pools.empty());
  std::vector<PoolState> fresh;
  std::vector<int> mapping(pcpu_pool_.size(), -1);
  for (const PoolSpec& spec : pools) {
    AQL_CHECK(spec.quantum > 0);
    AQL_CHECK(!spec.pcpus.empty());
    const int idx = static_cast<int>(fresh.size());
    PoolState st;
    st.quantum = spec.quantum;
    st.pcpus = spec.pcpus;
    for (int pc : spec.pcpus) {
      AQL_CHECK(pc >= 0 && pc < num_pcpus());
      AQL_CHECK_MSG(mapping[static_cast<size_t>(pc)] == -1, "pCPU in two pools");
      mapping[static_cast<size_t>(pc)] = idx;
    }
    fresh.push_back(std::move(st));
  }
  for (int m : mapping) {
    AQL_CHECK_MSG(m != -1, "pool plan does not cover all pCPUs");
  }
  pools_ = std::move(fresh);
  pcpu_pool_ = std::move(mapping);
}

int CreditScheduler::PoolOf(int pcpu) const {
  AQL_CHECK(pcpu >= 0 && pcpu < num_pcpus());
  return pcpu_pool_[static_cast<size_t>(pcpu)];
}

TimeNs CreditScheduler::PoolQuantum(int pool) const {
  AQL_CHECK(pool >= 0 && pool < NumPools());
  return pools_[static_cast<size_t>(pool)].quantum;
}

const std::vector<int>& CreditScheduler::PoolPcpus(int pool) const {
  AQL_CHECK(pool >= 0 && pool < NumPools());
  return pools_[static_cast<size_t>(pool)].pcpus;
}

void CreditScheduler::SetSocketFilter(std::vector<int> socket_of_pcpu) {
  AQL_CHECK(socket_of_pcpu.empty() ||
            socket_of_pcpu.size() == static_cast<size_t>(num_pcpus()));
  socket_of_ = std::move(socket_of_pcpu);
}

TimeNs CreditScheduler::QuantumFor(int pcpu, const Vcpu& v) const {
  const TimeNs pool_q = PoolQuantum(PoolOf(pcpu));
  if (v.quantum_override > 0) {
    return std::min(pool_q, v.quantum_override);
  }
  return pool_q;
}

void CreditScheduler::Enqueue(Vcpu* v, int pcpu, bool front) {
  AQL_CHECK(v != nullptr);
  AQL_CHECK(v->state == RunState::kRunnable);
  if (front) {
    queue(pcpu).PushFront(v);
  } else {
    queue(pcpu).PushBack(v);
  }
}

Vcpu* CreditScheduler::PickNext(int pcpu) {
  RunQueue& own = queue(pcpu);
  if (!own.Empty()) {
    return own.PopBest();
  }
  // Steal within the pool: pick the peer whose best waiting vCPU has the
  // strongest priority; break ties by longest queue.
  const int pool = PoolOf(pcpu);
  int best_peer = -1;
  Priority best_prio = Priority::kOver;
  size_t best_size = 0;
  for (int peer : PoolPcpus(pool)) {
    if (peer == pcpu || !SameSocket(peer, pcpu)) {
      continue;
    }
    RunQueue& q = queue(peer);
    if (q.Empty()) {
      continue;
    }
    const Priority prio = q.BestPriority();
    if (best_peer == -1 || prio < best_prio ||
        (prio == best_prio && q.Size() > best_size)) {
      best_peer = peer;
      best_prio = prio;
      best_size = q.Size();
    }
  }
  if (best_peer == -1) {
    return nullptr;
  }
  return queue(best_peer).PopBest();
}

bool CreditScheduler::RemoveFromAnyQueue(Vcpu* v) {
  // The intrusive linkage knows the holding queue directly: no scan.
  return v->rq_owner != nullptr && v->rq_owner->Remove(v);
}

RunQueue& CreditScheduler::queue(int pcpu) {
  AQL_CHECK(pcpu >= 0 && pcpu < num_pcpus());
  return queues_[static_cast<size_t>(pcpu)];
}

const RunQueue& CreditScheduler::queue(int pcpu) const {
  AQL_CHECK(pcpu >= 0 && pcpu < num_pcpus());
  return queues_[static_cast<size_t>(pcpu)];
}

int CreditScheduler::ChooseWakePcpu(const Vcpu& v, const std::vector<bool>& idle) const {
  const int pool = v.pool;
  AQL_CHECK(pool >= 0 && pool < NumPools());
  const std::vector<int>& pcpus = pools_[static_cast<size_t>(pool)].pcpus;
  AQL_CHECK(!pcpus.empty());
  // With a socket filter, only pool members on the home socket are
  // candidates (the home itself always qualifies, so one always exists).
  AQL_CHECK(socket_of_.empty() || v.home_pcpu >= 0);
  // Home first if idle, then any idle pool member.
  if (v.home_pcpu >= 0 && PoolOf(v.home_pcpu) == pool &&
      idle[static_cast<size_t>(v.home_pcpu)]) {
    return v.home_pcpu;
  }
  for (int pc : pcpus) {
    if (!socket_of_.empty() && !SameSocket(pc, v.home_pcpu)) {
      continue;
    }
    if (idle[static_cast<size_t>(pc)]) {
      return pc;
    }
  }
  // No idle pCPU: shortest queue; home wins ties.
  int best = -1;
  size_t best_len = 0;
  for (int pc : pcpus) {
    if (!socket_of_.empty() && !SameSocket(pc, v.home_pcpu)) {
      continue;
    }
    const size_t len = queue(pc).Size();
    if (best == -1 || len < best_len || (len == best_len && pc == v.home_pcpu)) {
      best = pc;
      best_len = len;
    }
  }
  AQL_CHECK(best != -1);
  return best;
}

void CreditScheduler::AccountPeriod(const std::vector<Vcpu*>& vcpus) {
  // Group active vCPUs per pool. A vCPU is active if it consumed CPU in the
  // period or is currently competing for it.
  struct PoolAccum {
    double total_weight = 0;
    std::vector<Vcpu*> active;
  };
  std::vector<PoolAccum> acc(static_cast<size_t>(NumPools()));
  for (Vcpu* v : vcpus) {
    if (v->state == RunState::kFinished) {
      continue;
    }
    const bool active = v->period_runtime > 0 || v->state == RunState::kRunnable ||
                        v->state == RunState::kRunning;
    if (!active) {
      v->period_runtime = 0;
      continue;
    }
    AQL_CHECK(v->pool >= 0 && v->pool < NumPools());
    PoolAccum& pa = acc[static_cast<size_t>(v->pool)];
    pa.total_weight += static_cast<double>(v->vm()->weight());
    pa.active.push_back(v);
  }

  for (int pool = 0; pool < NumPools(); ++pool) {
    PoolAccum& pa = acc[static_cast<size_t>(pool)];
    if (pa.active.empty()) {
      continue;
    }
    const double capacity =
        static_cast<double>(kAccountingPeriod) *
        static_cast<double>(pools_[static_cast<size_t>(pool)].pcpus.size());

    // Per-VM cap: pre-compute each VM's maximum entitlement this period.
    std::unordered_map<const Vm*, double> vm_budget;
    for (Vcpu* v : pa.active) {
      const Vm* vm = v->vm();
      if (vm->cap_percent() > 0 && vm_budget.count(vm) == 0) {
        vm_budget[vm] = static_cast<double>(vm->cap_percent()) / 100.0 *
                        static_cast<double>(kAccountingPeriod);
      }
    }

    for (Vcpu* v : pa.active) {
      double share = capacity * static_cast<double>(v->vm()->weight()) / pa.total_weight;
      if (auto it = vm_budget.find(v->vm()); it != vm_budget.end()) {
        // Split the VM budget evenly over its vCPUs active in this pool.
        int n = 0;
        for (Vcpu* u : pa.active) {
          if (u->vm() == v->vm()) {
            ++n;
          }
        }
        share = std::min(share, it->second / static_cast<double>(n));
      }
      v->credits += share - static_cast<double>(v->period_runtime);
      v->credits = std::clamp(v->credits, -capacity, share);
      v->period_runtime = 0;
    }
  }

  for (auto& q : queues_) {
    q.Rebucket();
  }
}

}  // namespace aql
