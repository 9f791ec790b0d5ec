#include "src/hw/llc_model.h"

#include <algorithm>

#include "src/sim/check.h"

namespace aql {

LlcModel::LlcModel(int sockets, uint64_t capacity_bytes, const HwParams& params)
    : capacity_(capacity_bytes), params_(params), sockets_(static_cast<size_t>(sockets)) {
  AQL_CHECK(sockets >= 1);
  AQL_CHECK(capacity_bytes > 0);
}

double LlcModel::MissRatio(int socket, int vcpu, uint64_t wss_bytes) const {
  AQL_CHECK(socket >= 0 && socket < static_cast<int>(sockets_.size()));
  if (wss_bytes == 0) {
    return params_.min_miss_ratio;
  }
  const SocketState& s = sockets_[static_cast<size_t>(socket)];
  AQL_CHECK(vcpu >= 0);
  const size_t v = static_cast<size_t>(vcpu);
  if (v >= s.memo.size()) {
    s.memo.resize(v + 1);
  }
  MissMemo& memo = s.memo[v];
  if (memo.epoch == s.epoch && memo.wss == wss_bytes) {
    return memo.ratio;
  }
  const uint64_t occ = v < s.occupancy.size() ? s.occupancy[v] : 0;
  // References are spread uniformly over the working set; the resident part
  // hits. Residency can never exceed the WSS, so the ratio is within [0, 1].
  const double hit = static_cast<double>(std::min(occ, wss_bytes)) /
                     static_cast<double>(wss_bytes);
  memo.epoch = s.epoch;
  memo.wss = wss_bytes;
  memo.ratio = std::max(params_.min_miss_ratio, 1.0 - hit);
  return memo.ratio;
}

void LlcModel::GrowTables(SocketState& s, int vcpu) {
  AQL_CHECK(vcpu >= 0);
  if (static_cast<size_t>(vcpu) >= s.occupancy.size()) {
    s.occupancy.resize(static_cast<size_t>(vcpu) + 1, 0);
    s.running.resize(static_cast<size_t>(vcpu) + 1, 0);
    s.wss.resize(static_cast<size_t>(vcpu) + 1, 0);
  }
}

void LlcModel::CommitAccesses(int socket, int vcpu, uint64_t wss_bytes, uint64_t misses) {
  AQL_CHECK(socket >= 0 && socket < static_cast<int>(sockets_.size()));
  if (misses == 0 || wss_bytes == 0) {
    return;
  }
  SocketState& s = sockets_[static_cast<size_t>(socket)];
  GrowTables(s, vcpu);
  uint64_t& occ = s.occupancy[static_cast<size_t>(vcpu)];
  s.wss[static_cast<size_t>(vcpu)] = wss_bytes;

  const uint64_t limit = std::min(wss_bytes, capacity_);
  uint64_t fetched = misses * params_.cache_line_bytes;
  if (wss_bytes > capacity_) {
    // Streaming fetches carry no reuse; adaptive insertion (DIP/RRIP) admits
    // only a fraction of them at eviction-relevant priority.
    fetched = static_cast<uint64_t>(static_cast<double>(fetched) *
                                    params_.stream_insertion_fraction);
  }
  const uint64_t grow = std::min(fetched, limit > occ ? limit - occ : 0);
  if (grow > 0 && occ == 0) {
    const auto pos = std::lower_bound(s.resident.begin(), s.resident.end(), vcpu);
    s.resident.insert(pos, vcpu);
  }
  occ += grow;
  s.total += grow;
  // Occupancy only changes when something grew (the socket total never
  // exceeds capacity on entry, so eviction below implies grow > 0); advance
  // the epoch exactly then, which is what lets warm steady-state steps keep
  // hitting the MissRatio memo.
  if (grow > 0) {
    ++s.epoch;
  }

  if (s.total <= capacity_) {
    return;
  }
  // Socket overflow: evict from co-resident vCPUs proportionally to a
  // recency-weighted occupancy (the rule is documented on the declaration).
  // The fetching vCPU keeps what it just brought in; vCPUs currently on-CPU
  // keep most of their footprint (LRU keeps hot lines resident), descheduled
  // footprints decay at full weight. The fetcher's weight is 0, which adds
  // nothing to the total and gives it a zero share.
  const uint64_t overflow = s.total - capacity_;
  double weight_total = 0;
  s.weights.resize(s.resident.size());
  for (size_t i = 0; i < s.resident.size(); ++i) {
    const size_t id = static_cast<size_t>(s.resident[i]);
    // Recency protection only applies to cache-friendly working sets: a
    // streaming workload (WSS > capacity) touches each line once, so LRU
    // offers its lines no protection even while it runs. (A resident vCPU
    // has committed, so its WSS is recorded.)
    const bool protect = s.running[id] != 0 && s.wss[id] <= capacity_;
    const double scale = protect ? params_.running_eviction_weight : 1.0;
    const double bytes = static_cast<double>(s.occupancy[id]);
    s.weights[i] = s.resident[i] == vcpu ? 0.0 : bytes * scale;
    weight_total += s.weights[i];
  }
  uint64_t evicted_sum = 0;
  bool emptied = false;
  if (weight_total > 0) {
    for (size_t i = 0; i < s.resident.size(); ++i) {
      uint64_t& bytes = s.occupancy[static_cast<size_t>(s.resident[i])];
      const double exact = static_cast<double>(overflow) * s.weights[i] / weight_total;
      const uint64_t share = std::min(static_cast<uint64_t>(exact), bytes);
      bytes -= share;
      evicted_sum += share;
      emptied |= bytes == 0;
    }
  }
  // Weight caps or rounding may leave a residue; drain it from the victims
  // in ascending id.
  uint64_t residue = overflow > evicted_sum ? overflow - evicted_sum : 0;
  for (auto it = s.resident.begin(); residue > 0 && it != s.resident.end(); ++it) {
    if (*it == vcpu) {
      continue;
    }
    uint64_t& bytes = s.occupancy[static_cast<size_t>(*it)];
    const uint64_t take = std::min(residue, bytes);
    bytes -= take;
    evicted_sum += take;
    residue -= take;
    emptied |= bytes == 0;
  }
  s.total -= evicted_sum;
  if (s.total > capacity_) {
    // All co-residents were drained; trim the fetcher itself.
    const uint64_t trim = s.total - capacity_;
    AQL_CHECK(occ >= trim);
    occ -= trim;
    s.total -= trim;
  }
  if (emptied) {
    const auto empty = [&s](int id) { return s.occupancy[static_cast<size_t>(id)] == 0; };
    s.resident.erase(std::remove_if(s.resident.begin(), s.resident.end(), empty),
                     s.resident.end());
  }
}

void LlcModel::SetRunning(int socket, int vcpu, bool running) {
  AQL_CHECK(socket >= 0 && socket < static_cast<int>(sockets_.size()));
  SocketState& s = sockets_[static_cast<size_t>(socket)];
  GrowTables(s, vcpu);
  s.running[static_cast<size_t>(vcpu)] = running ? 1 : 0;
}

void LlcModel::Remove(int socket, int vcpu) {
  AQL_CHECK(socket >= 0 && socket < static_cast<int>(sockets_.size()));
  SocketState& s = sockets_[static_cast<size_t>(socket)];
  GrowTables(s, vcpu);
  s.running[static_cast<size_t>(vcpu)] = 0;
  uint64_t& occ = s.occupancy[static_cast<size_t>(vcpu)];
  if (occ == 0) {
    return;
  }
  AQL_CHECK(s.total >= occ);
  s.total -= occ;
  occ = 0;
  const auto it = std::lower_bound(s.resident.begin(), s.resident.end(), vcpu);
  AQL_CHECK(it != s.resident.end() && *it == vcpu);
  s.resident.erase(it);
  ++s.epoch;
}

uint64_t LlcModel::Occupancy(int socket, int vcpu) const {
  AQL_CHECK(socket >= 0 && socket < static_cast<int>(sockets_.size()));
  const SocketState& s = sockets_[static_cast<size_t>(socket)];
  const size_t v = static_cast<size_t>(vcpu);
  return vcpu >= 0 && v < s.occupancy.size() ? s.occupancy[v] : 0;
}

uint64_t LlcModel::TotalOccupancy(int socket) const {
  AQL_CHECK(socket >= 0 && socket < static_cast<int>(sockets_.size()));
  return sockets_[static_cast<size_t>(socket)].total;
}

MemBus::MemBus(int sockets, double bw_bytes_per_ns)
    : bw_(bw_bytes_per_ns),
      demand_(static_cast<size_t>(sockets)),
      total_(static_cast<size_t>(sockets), 0.0),
      epoch_(static_cast<size_t>(sockets), 1),
      memo_(static_cast<size_t>(sockets)) {
  AQL_CHECK(sockets >= 1);
  AQL_CHECK(bw_bytes_per_ns >= 0.0);
}

void MemBus::SetDemand(int socket, int pcpu, double bytes_per_ns) {
  AQL_CHECK(socket >= 0 && socket < static_cast<int>(demand_.size()));
  AQL_CHECK(pcpu >= 0);
  AQL_CHECK(bytes_per_ns >= 0.0);
  auto& per_pcpu = demand_[static_cast<size_t>(socket)];
  if (static_cast<size_t>(pcpu) >= per_pcpu.size()) {
    per_pcpu.resize(static_cast<size_t>(pcpu) + 1, 0.0);
  }
  double& slot = per_pcpu[static_cast<size_t>(pcpu)];
  if (bytes_per_ns == slot) {
    // No change: skipping the `total += new - old` of an exact zero delta is
    // bit-safe (totals are never -0.0, so x + 0.0 == x), and it keeps the
    // epoch stable for the StallFactor memo.
    return;
  }
  total_[static_cast<size_t>(socket)] += bytes_per_ns - slot;
  slot = bytes_per_ns;
  ++epoch_[static_cast<size_t>(socket)];
}

double MemBus::TotalDemand(int socket) const {
  AQL_CHECK(socket >= 0 && socket < static_cast<int>(total_.size()));
  return total_[static_cast<size_t>(socket)];
}

double MemBus::StallFactor(int socket, double extra_demand) const {
  if (bw_ <= 0.0) {
    return 1.0;
  }
  AQL_CHECK(socket >= 0 && socket < static_cast<int>(total_.size()));
  StallMemo& memo = memo_[static_cast<size_t>(socket)];
  if (memo.epoch == epoch_[static_cast<size_t>(socket)] && memo.extra == extra_demand) {
    return memo.factor;
  }
  const double demand = total_[static_cast<size_t>(socket)] + extra_demand;
  memo.epoch = epoch_[static_cast<size_t>(socket)];
  memo.extra = extra_demand;
  memo.factor = demand > bw_ ? demand / bw_ : 1.0;
  return memo.factor;
}

}  // namespace aql
