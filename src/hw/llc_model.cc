#include "src/hw/llc_model.h"

#include <algorithm>
#include <cstddef>

#include "src/sim/check.h"

namespace aql {
namespace {

// The eviction walk's conversions. Every byte count it converts is below
// 2^53 (the constructor bounds the capacity), so these give exactly the
// values of the plain unsigned casts, and each is one instruction on x86-64
// where the unsigned casts need a range fix-up.
double AsDouble(uint64_t bytes) {
  return static_cast<double>(static_cast<int64_t>(bytes));
}
uint64_t Truncate(double bytes) {
  return static_cast<uint64_t>(static_cast<int64_t>(bytes));
}

}  // namespace

LlcModel::LlcModel(int sockets, uint64_t capacity_bytes, const HwParams& params)
    : capacity_(capacity_bytes), params_(params), sockets_(static_cast<size_t>(sockets)) {
  AQL_CHECK(sockets >= 1);
  AQL_CHECK(capacity_bytes > 0);
  AQL_CHECK(capacity_bytes < (uint64_t{1} << 53));
}

double LlcModel::MissRatio(int socket, int vcpu, uint64_t wss_bytes) const {
  AQL_CHECK(socket >= 0 && socket < static_cast<int>(sockets_.size()));
  if (wss_bytes == 0) {
    return kMinMissRatio;
  }
  AQL_CHECK(vcpu >= 0);
  const uint64_t occ =
      BytesOf(sockets_[static_cast<size_t>(socket)], static_cast<size_t>(vcpu));
  // References are spread uniformly over the working set; the resident part
  // hits. Residency can never exceed the WSS, so the ratio is within [0, 1].
  const double hit = static_cast<double>(std::min(occ, wss_bytes)) /
                     static_cast<double>(wss_bytes);
  return std::max(kMinMissRatio, 1.0 - hit);
}

uint64_t LlcModel::BytesOf(const SocketState& s, size_t vcpu) {
  const int32_t i = vcpu < s.pos.size() ? s.pos[vcpu] : -1;
  return i < 0 ? 0 : s.bytes[static_cast<size_t>(i)];
}

void LlcModel::GrowTables(SocketState& s, int vcpu) {
  AQL_CHECK(vcpu >= 0);
  const size_t n = static_cast<size_t>(vcpu) + 1;
  AQL_CHECK(n > s.pos.size());
  s.pos.resize(n, -1);
  s.running.resize(n, 0);
  s.wss.resize(n, 0);
}

double LlcModel::EvictionScale(const SocketState& s, size_t vcpu) const {
  // Recency protection only applies to cache-friendly working sets: a
  // streaming workload (WSS > capacity) touches each line once, so LRU
  // offers its lines no protection even while it runs. (A resident vCPU
  // has committed, so its WSS is recorded.)
  const bool protect = s.running[vcpu] != 0 && s.wss[vcpu] <= capacity_;
  return protect ? params_.running_eviction_weight : 1.0;
}

size_t LlcModel::Insert(SocketState& s, int vcpu) {
  s.resident.push_back(vcpu);
  s.bytes.push_back(0);
  s.scale.push_back(0.0);
  // Shift the larger ids up one slot, keeping ascending id.
  size_t i = s.resident.size() - 1;
  for (; i > 0 && s.resident[i - 1] > vcpu; --i) {
    s.resident[i] = s.resident[i - 1];
    s.bytes[i] = s.bytes[i - 1];
    s.scale[i] = s.scale[i - 1];
    s.pos[static_cast<size_t>(s.resident[i])] = static_cast<int32_t>(i);
  }
  const size_t v = static_cast<size_t>(vcpu);
  s.resident[i] = vcpu;
  s.bytes[i] = 0;
  s.scale[i] = EvictionScale(s, v);
  s.pos[v] = static_cast<int32_t>(i);
  return i;
}

void LlcModel::DropEmpty(SocketState& s, size_t from) {
  size_t kept = from;
  for (size_t i = from; i < s.resident.size(); ++i) {
    const size_t id = static_cast<size_t>(s.resident[i]);
    if (s.bytes[i] == 0) {
      s.pos[id] = -1;
      continue;
    }
    s.resident[kept] = s.resident[i];
    s.bytes[kept] = s.bytes[i];
    s.scale[kept] = s.scale[i];
    s.pos[id] = static_cast<int32_t>(kept);
    ++kept;
  }
  s.resident.resize(kept);
  s.bytes.resize(kept);
  s.scale.resize(kept);
}

void LlcModel::CommitAccesses(int socket, int vcpu, uint64_t wss_bytes, uint64_t misses) {
  AQL_CHECK(socket >= 0 && socket < static_cast<int>(sockets_.size()));
  if (misses == 0 || wss_bytes == 0) {
    return;
  }
  SocketState& s = sockets_[static_cast<size_t>(socket)];
  const size_t v = static_cast<size_t>(vcpu);
  if (v >= s.pos.size()) {
    GrowTables(s, vcpu);
  }
  const bool wss_changed = s.wss[v] != wss_bytes;
  s.wss[v] = wss_bytes;

  const uint64_t limit = std::min(wss_bytes, capacity_);
  uint64_t fetched = misses * kCacheLineBytes;
  if (wss_bytes > capacity_) {
    // Streaming fetches carry no reuse; adaptive insertion (DIP/RRIP) admits
    // only a fraction of them at eviction-relevant priority.
    fetched = static_cast<uint64_t>(static_cast<double>(fetched) *
                                    params_.stream_insertion_fraction);
  }
  int32_t at = s.pos[v];
  const uint64_t occ = at < 0 ? 0 : s.bytes[static_cast<size_t>(at)];
  const uint64_t grow = std::min(fetched, limit > occ ? limit - occ : 0);
  if (at < 0) {
    if (grow == 0) {
      return;  // not resident, and nothing grew
    }
    at = static_cast<int32_t>(Insert(s, vcpu));
  } else if (wss_changed) {
    // The new WSS may flip recency protection.
    s.scale[static_cast<size_t>(at)] = EvictionScale(s, v);
  }
  const size_t self = static_cast<size_t>(at);
  s.bytes[self] += grow;
  s.total += grow;

  if (s.total <= capacity_) {
    return;
  }
  ++evictions_;
  // Socket overflow: evict from co-resident vCPUs proportionally to a
  // recency-weighted occupancy (the rule is documented on the declaration).
  // The fetching vCPU keeps what it just brought in; vCPUs currently on-CPU
  // keep most of their footprint (LRU keeps hot lines resident), descheduled
  // footprints decay at full weight. The fetcher's weight is 0, which adds
  // nothing to the total and gives it a zero share. Both loops form each
  // weight the same way, in ascending id, so the second sees the first's
  // values bit for bit.
  const size_t n = s.resident.size();
  uint64_t* const bytes = s.bytes.data();
  const double* const scale = s.scale.data();
  const uint64_t overflow = s.total - capacity_;
  double weight_total = 0;
  for (size_t i = 0; i < n; ++i) {
    weight_total += i == self ? 0.0 : AsDouble(bytes[i]) * scale[i];
  }
  uint64_t evicted_sum = 0;
  bool emptied = false;
  if (weight_total > 0) {
    for (size_t i = 0; i < n; ++i) {
      const double weight = i == self ? 0.0 : AsDouble(bytes[i]) * scale[i];
      const double exact = AsDouble(overflow) * weight / weight_total;
      const uint64_t share = std::min(Truncate(exact), bytes[i]);
      bytes[i] -= share;
      evicted_sum += share;
      emptied |= bytes[i] == 0;
    }
  }
  // Weight caps or rounding may leave a residue; drain it from the victims
  // in ascending id.
  uint64_t residue = overflow > evicted_sum ? overflow - evicted_sum : 0;
  for (size_t i = 0; residue > 0 && i < n; ++i) {
    if (i == self) {
      continue;
    }
    const uint64_t take = std::min(residue, bytes[i]);
    bytes[i] -= take;
    evicted_sum += take;
    residue -= take;
    emptied |= bytes[i] == 0;
  }
  s.total -= evicted_sum;
  if (s.total > capacity_) {
    // All co-residents were drained; trim the fetcher itself.
    const uint64_t trim = s.total - capacity_;
    AQL_CHECK(bytes[self] >= trim);
    bytes[self] -= trim;
    s.total -= trim;
  }
  if (emptied) {
    DropEmpty(s, 0);
  }
}

void LlcModel::SetRunning(int socket, int vcpu, bool running) {
  AQL_CHECK(socket >= 0 && socket < static_cast<int>(sockets_.size()));
  SocketState& s = sockets_[static_cast<size_t>(socket)];
  const size_t v = static_cast<size_t>(vcpu);
  if (v >= s.pos.size()) {
    GrowTables(s, vcpu);
  }
  s.running[v] = running ? 1 : 0;
  if (s.pos[v] >= 0) {
    s.scale[static_cast<size_t>(s.pos[v])] = EvictionScale(s, v);
  }
}

void LlcModel::Remove(int socket, int vcpu) {
  AQL_CHECK(socket >= 0 && socket < static_cast<int>(sockets_.size()));
  SocketState& s = sockets_[static_cast<size_t>(socket)];
  const size_t v = static_cast<size_t>(vcpu);
  if (v >= s.pos.size()) {
    GrowTables(s, vcpu);
  }
  s.running[v] = 0;
  if (s.pos[v] < 0) {
    return;
  }
  const size_t i = static_cast<size_t>(s.pos[v]);
  AQL_CHECK(s.resident[i] == vcpu);
  AQL_CHECK(s.total >= s.bytes[i]);
  s.total -= s.bytes[i];
  s.bytes[i] = 0;
  DropEmpty(s, i);
}

uint64_t LlcModel::Occupancy(int socket, int vcpu) const {
  AQL_CHECK(socket >= 0 && socket < static_cast<int>(sockets_.size()));
  return vcpu < 0 ? 0 : BytesOf(sockets_[static_cast<size_t>(socket)],
                                static_cast<size_t>(vcpu));
}

uint64_t LlcModel::TotalOccupancy(int socket) const {
  AQL_CHECK(socket >= 0 && socket < static_cast<int>(sockets_.size()));
  return sockets_[static_cast<size_t>(socket)].total;
}

MemBus::MemBus(int sockets, double bw_bytes_per_ns)
    : bw_(bw_bytes_per_ns),
      demand_(static_cast<size_t>(sockets)),
      total_(static_cast<size_t>(sockets), 0.0) {
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
    // bit-safe (totals are never -0.0, so x + 0.0 == x), and it keeps
    // updates() a count of calls that changed a demand.
    return;
  }
  total_[static_cast<size_t>(socket)] += bytes_per_ns - slot;
  slot = bytes_per_ns;
  ++updates_;
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
  const double demand = total_[static_cast<size_t>(socket)] + extra_demand;
  return demand > bw_ ? demand / bw_ : 1.0;
}

}  // namespace aql
