#include "src/metrics/report.h"

#include "src/sim/check.h"

namespace aql {

double GroupPerf::Metric(const std::string& key) const {
  auto it = metrics.find(key);
  AQL_CHECK_MSG(it != metrics.end(), ("no such metric: " + key).c_str());
  return it->second;
}

std::vector<GroupPerf> GroupReports(const std::vector<PerfReport>& reports) {
  std::vector<GroupPerf> groups;
  auto find = [&groups](const std::string& name) -> GroupPerf& {
    for (GroupPerf& g : groups) {
      if (g.name == name) {
        return g;
      }
    }
    groups.push_back(GroupPerf{name, 0, 0.0, {}});
    return groups.back();
  };
  for (const PerfReport& r : reports) {
    GroupPerf& g = find(r.workload_name);
    ++g.vcpus;
    for (const auto& [k, v] : r.metrics) {
      g.metrics[k] += v;
    }
  }
  for (GroupPerf& g : groups) {
    for (auto& [k, v] : g.metrics) {
      v /= static_cast<double>(g.vcpus);
    }
    if (auto it = g.metrics.find(PerfReport::kPrimaryMetric); it != g.metrics.end()) {
      g.primary = it->second;
    }
  }
  return groups;
}

const GroupPerf& FindGroup(const std::vector<GroupPerf>& groups,
                           const std::string& name) {
  for (const GroupPerf& g : groups) {
    if (g.name == name) {
      return g;
    }
  }
  AQL_CHECK_MSG(false, ("no such group: " + name).c_str());
}

bool HasGroup(const std::vector<GroupPerf>& groups, const std::string& name) {
  for (const GroupPerf& g : groups) {
    if (g.name == name) {
      return true;
    }
  }
  return false;
}

double NormalizedPerf(const GroupPerf& measured, const GroupPerf& baseline) {
  AQL_CHECK(baseline.primary > 0);
  return measured.primary / baseline.primary;
}

}  // namespace aql
