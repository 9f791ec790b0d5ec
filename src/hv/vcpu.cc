#include "src/hv/vcpu.h"

#include <utility>

#include "src/sim/check.h"

namespace aql {

Vcpu::Vcpu(int id, Vm* vm, std::unique_ptr<WorkloadModel> workload)
    : id_(id), vm_(vm), workload_(std::move(workload)) {
  AQL_CHECK(vm_ != nullptr);
  AQL_CHECK(workload_ != nullptr);
}

}  // namespace aql
