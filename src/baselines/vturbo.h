// vTurbo baseline (Xu et al., USENIX ATC 2013): a dedicated pool of "turbo"
// pCPUs runs I/O-bound vCPUs with a very short quantum; all other vCPUs
// share the remaining pCPUs with the default quantum. Like vSlicer, the set
// of I/O vCPUs is configured manually (no online recognition).

#ifndef AQLSCHED_SRC_BASELINES_VTURBO_H_
#define AQLSCHED_SRC_BASELINES_VTURBO_H_

#include <string>
#include <vector>

#include "src/hv/machine.h"

namespace aql {

class VTurboController : public SchedController {
 public:
  explicit VTurboController(std::vector<int> io_vcpus, TimeNs turbo_quantum = Ms(1))
      : io_vcpus_(std::move(io_vcpus)), turbo_quantum_(turbo_quantum) {}

  std::string Name() const override { return "vTurbo"; }

  void OnAttach(Machine& machine) override;

 private:
  std::vector<int> io_vcpus_;
  TimeNs turbo_quantum_;
};

}  // namespace aql

#endif  // AQLSCHED_SRC_BASELINES_VTURBO_H_
