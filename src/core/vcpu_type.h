// Application/vCPU types recognized by vTRS.
//
// The first five are the paper's catalog (§3.2); the extended types cover
// regimes the paper's envelope does not: memory-bandwidth-bound streaming,
// NUMA-remote memory placement, and bursty/diurnal I/O (see ROADMAP and
// docs/ARCHITECTURE.md).

#ifndef AQLSCHED_SRC_CORE_VCPU_TYPE_H_
#define AQLSCHED_SRC_CORE_VCPU_TYPE_H_

#include <array>

namespace aql {

enum class VcpuType {
  kIoInt = 0,       // I/O intensive, latency-critical
  kConSpin = 1,     // concurrent threads synchronizing through spin-locks
  kLoLcf = 2,       // working set fits low-level caches (L1/L2)
  kLlcf = 3,        // working set fits the LLC (contention-sensitive)
  kLlco = 4,        // working set overflows the LLC ("trashing")
  kMemBw = 5,       // streaming, saturates memory bandwidth, no LLC reuse
  kNumaRemote = 6,  // DRAM accesses dominated by a remote NUMA node
  kBurstyIo = 7,    // diurnal on/off I/O phases
};

// The paper's original catalog size; types below this index are §3.2's.
inline constexpr int kNumPaperVcpuTypes = 5;
inline constexpr int kNumVcpuTypes = 8;

inline constexpr std::array<VcpuType, kNumVcpuTypes> kAllVcpuTypes = {
    VcpuType::kIoInt,  VcpuType::kConSpin,    VcpuType::kLoLcf,
    VcpuType::kLlcf,   VcpuType::kLlco,       VcpuType::kMemBw,
    VcpuType::kNumaRemote, VcpuType::kBurstyIo};

inline const char* VcpuTypeName(VcpuType t) {
  switch (t) {
    case VcpuType::kIoInt:
      return "IOInt";
    case VcpuType::kConSpin:
      return "ConSpin";
    case VcpuType::kLoLcf:
      return "LoLCF";
    case VcpuType::kLlcf:
      return "LLCF";
    case VcpuType::kLlco:
      return "LLCO";
    case VcpuType::kMemBw:
      return "MemBw";
    case VcpuType::kNumaRemote:
      return "NumaRemote";
    case VcpuType::kBurstyIo:
      return "BurstyIo";
  }
  return "?";
}

}  // namespace aql

#endif  // AQLSCHED_SRC_CORE_VCPU_TYPE_H_
