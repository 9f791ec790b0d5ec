#include "src/workload/source.h"

#include <utility>

#include "src/sim/check.h"
#include "src/workload/trace_replay.h"

namespace aql {
namespace {

// The catalog backend: models come from the registered factories (exactly
// what MakeApp built before the workload-source layer existed — catalog
// scenarios keep their committed goldens).
class CatalogSource : public WorkloadSource {
 public:
  explicit CatalogSource(const WorkloadSourceSpec& spec)
      : app_(spec.app),
        vcpus_(spec.vcpus),
        options_(spec.options),
        io_int_(FindApp(spec.app).expected_type == VcpuType::kIoInt) {
    AQL_CHECK(vcpus_ >= 1);
  }

  int Streams() const override { return vcpus_; }

  std::vector<std::unique_ptr<WorkloadModel>> MakeModels() override {
    return MakeApp(app_, vcpus_, options_);
  }

  // vSlicer/vTurbo's manual I/O list predates the source layer and covers
  // only the steady IoInt type (BurstyIo applications serve requests too but
  // were never hand-configured as I/O vCPUs) — keep that contract.
  bool StreamHasIo(int stream) const override {
    AQL_CHECK(stream >= 0 && stream < vcpus_);
    return io_int_;
  }

 private:
  std::string app_;
  int vcpus_;
  AppOptions options_;
  bool io_int_;
};

}  // namespace

std::unique_ptr<WorkloadSource> MakeWorkloadSource(const WorkloadSourceSpec& spec,
                                                   std::string* error) {
  if (spec.backend == "trace") {
    return TraceSource::Load(spec.trace_path, error);
  }
  if (spec.backend == "catalog") {
    if (spec.vcpus < 1) {
      if (error != nullptr) {
        *error = "catalog source needs vcpus >= 1";
      }
      return nullptr;
    }
    if (!HasApp(spec.app)) {
      if (error != nullptr) {
        *error = "unknown application: " + spec.app;
      }
      return nullptr;
    }
    return std::make_unique<CatalogSource>(spec);
  }
  if (error != nullptr) {
    *error = "unknown workload backend \"" + spec.backend +
             "\" (expected \"catalog\" or \"trace\")";
  }
  return nullptr;
}

}  // namespace aql
