// Last-level-cache occupancy and contention model.
//
// The model is the mechanism behind every cache effect in the paper:
//  * A vCPU's working set warms into the LLC by demand-fetching missed lines.
//  * Co-running vCPUs on the same socket evict each other proportionally to
//    their resident occupancy when the cache is full.
//  * The probability that a reference hits is occupancy / WSS, so
//      - LLCF  (WSS <= LLC): warm -> ~0 misses, but every eviction must be
//        re-fetched, which is what punishes small scheduling quanta;
//      - LLCO  (WSS >  LLC): hit ratio is capacity-bound regardless of
//        scheduling, i.e. quantum-agnostic but a strong disturber;
//      - LoLCF (WSS <= L2): makes almost no LLC references at all.
//
// Occupancy is tracked per (socket, vcpu) in bytes; the per-socket total
// never exceeds the LLC capacity. Each socket keeps its residents (vCPUs with
// nonzero occupancy) in ascending id in parallel arrays, which the eviction
// walk reads front to back. Every result is a function of the call sequence
// alone: eviction visits victims in ascending vCPU id, so no container layout
// or insertion history can reorder it.

#ifndef AQLSCHED_SRC_HW_LLC_MODEL_H_
#define AQLSCHED_SRC_HW_LLC_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/hw/topology.h"

namespace aql {

// Residual miss ratio even with a fully warm cache (TLB, cold lines).
inline constexpr double kMinMissRatio = 0.005;

class LlcModel {
 public:
  // `capacity_bytes` must be below 2^53, so every byte count converts to a
  // double exactly.
  LlcModel(int sockets, uint64_t capacity_bytes, const HwParams& params);

  // Expected miss ratio if `vcpu` issues LLC references over a working set of
  // `wss_bytes` on `socket`, given its current resident occupancy.
  double MissRatio(int socket, int vcpu, uint64_t wss_bytes) const;

  // Commits the outcome of a compute step: `misses` lines were fetched by
  // `vcpu` on `socket`; grows its occupancy (bounded by min(wss, capacity))
  // and evicts co-resident vCPUs proportionally if the socket overflows.
  //
  // Eviction rule: the overflow is split over the other resident vCPUs in
  // proportion to weight = bytes x (running_eviction_weight if the victim is
  // running with a cache-friendly WSS <= capacity, else 1); each share is
  // truncated to an integer and capped at the victim's bytes. The rounding
  // residue is then taken from the victims in ascending vCPU id, and
  // whatever still overflows is trimmed from the fetcher itself.
  void CommitAccesses(int socket, int vcpu, uint64_t wss_bytes, uint64_t misses);

  // Drops all of `vcpu`'s occupancy on `socket` (cross-socket migration or
  // teardown).
  void Remove(int socket, int vcpu);

  // Marks `vcpu` as currently running on `socket`. Running vCPUs' occupancy
  // is recency-protected: it is evicted with a reduced weight
  // (HwParams::running_eviction_weight), modelling LRU keeping the active
  // working set hot while descheduled footprints decay.
  void SetRunning(int socket, int vcpu, bool running);

  uint64_t Occupancy(int socket, int vcpu) const;
  uint64_t TotalOccupancy(int socket) const;
  // CommitAccesses calls that overflowed their socket and ran the eviction
  // walk, over the model's lifetime (a work counter, see WorkCounters).
  uint64_t evictions() const { return evictions_; }

 private:
  struct SocketState {
    // Per-vCPU state, indexed by vcpu id (grown on demand; ids are small and
    // dense).
    std::vector<int32_t> pos;      // vcpu -> its index in `resident`, or -1
    std::vector<uint8_t> running;  // vcpu -> on-CPU now
    std::vector<uint64_t> wss;     // vcpu -> last seen WSS
    // The residents, ids with nonzero occupancy in ascending id, as parallel
    // arrays: resident[i] holds bytes[i] and is evicted with weight
    // bytes[i] x scale[i]. scale[i] is running_eviction_weight while the vCPU
    // runs with a WSS <= capacity, else 1; it is refreshed whenever `running`
    // or `wss` changes for a resident. The eviction walk visits victims and
    // drains the residue in this order.
    std::vector<int32_t> resident;
    std::vector<uint64_t> bytes;
    std::vector<double> scale;
    uint64_t total = 0;
  };

  // `vcpu`'s occupancy on `s`: its resident bytes, or 0.
  static uint64_t BytesOf(const SocketState& s, std::size_t vcpu);
  // Grows the by-id tables to hold `vcpu`, which lies beyond them (callers
  // check first, which keeps the check inline on the hot path).
  void GrowTables(SocketState& s, int vcpu);
  // `vcpu`'s eviction weight per byte from its `running` and `wss` entries.
  double EvictionScale(const SocketState& s, std::size_t vcpu) const;
  // Adds `vcpu` as a resident with 0 bytes, in ascending id, and returns its
  // index. DropEmpty removes the residents from index `from` on whose bytes
  // are 0. Both keep `pos` in step.
  std::size_t Insert(SocketState& s, int vcpu);
  static void DropEmpty(SocketState& s, std::size_t from);

  uint64_t capacity_;
  HwParams params_;
  std::vector<SocketState> sockets_;
  uint64_t evictions_ = 0;
};

// Per-socket memory-bus (DRAM bandwidth) contention model.
//
// Each pCPU registers the uncontended fetch-bandwidth demand of its in-flight
// compute step (miss bytes per nanosecond of planned execution). When the
// socket's aggregate demand exceeds the controller's sustainable bandwidth
// (Topology::mem_bw_bytes_per_ns), memory stalls stretch by demand/bandwidth
// — the classic bandwidth-saturation slowdown streaming workloads inflict on
// each other. With mem_bw_bytes_per_ns == 0 the bus is unmodeled and the
// factor is always 1.
//
// Demand lives in flat per-socket vectors indexed by pcpu id (no hash
// traffic on the step hot path), and each socket's running total is kept
// incrementally as `total += new - old`.
class MemBus {
 public:
  MemBus(int sockets, double bw_bytes_per_ns);

  // Registers/updates `pcpu`'s demand on `socket` (0 clears it).
  void SetDemand(int socket, int pcpu, double bytes_per_ns);

  // Aggregate registered demand on `socket`, in bytes per nanosecond.
  double TotalDemand(int socket) const;

  // Multiplier (>= 1) applied to memory-stall time on `socket`, given that a
  // step with `extra_demand` is about to start there on top of the demand
  // already registered.
  double StallFactor(int socket, double extra_demand) const;

  // SetDemand calls that changed a pCPU's demand, over the bus's lifetime
  // (a work counter, see WorkCounters).
  uint64_t updates() const { return updates_; }

 private:
  double bw_;
  // socket -> demand by pcpu id (grown on demand; ids are small and dense).
  std::vector<std::vector<double>> demand_;
  std::vector<double> total_;
  uint64_t updates_ = 0;
};

}  // namespace aql

#endif  // AQLSCHED_SRC_HW_LLC_MODEL_H_
