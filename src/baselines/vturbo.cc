#include "src/baselines/vturbo.h"

#include <algorithm>

#include "src/sim/check.h"

namespace aql {
namespace {

// Dedicated turbo pCPUs, counted from pCPU 0.
constexpr int kTurboPcpus = 1;

}  // namespace

void VTurboController::OnAttach(Machine& machine) {
  const int total = machine.topology().TotalPcpus();
  static_assert(kTurboPcpus >= 1);
  AQL_CHECK(kTurboPcpus < total);

  PoolPlan plan;
  PoolSpec turbo;
  turbo.label = "turbo";
  turbo.quantum = turbo_quantum_;
  for (int p = 0; p < kTurboPcpus; ++p) {
    turbo.pcpus.push_back(p);
  }
  turbo.vcpus = io_vcpus_;

  PoolSpec rest;
  rest.label = "regular";
  rest.quantum = machine.scheduler().params().default_quantum;
  for (int p = kTurboPcpus; p < total; ++p) {
    rest.pcpus.push_back(p);
  }
  for (const Vcpu* v : machine.vcpus()) {
    if (std::find(io_vcpus_.begin(), io_vcpus_.end(), v->id()) == io_vcpus_.end()) {
      rest.vcpus.push_back(v->id());
    }
  }
  plan.pools.push_back(std::move(turbo));
  plan.pools.push_back(std::move(rest));
  machine.ApplyPoolPlan(plan);
}

}  // namespace aql
