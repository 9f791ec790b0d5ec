#include "src/hw/topology.h"

#include "src/sim/check.h"

namespace aql {

int Topology::SocketOf(int pcpu) const {
  AQL_CHECK(pcpu >= 0 && pcpu < TotalPcpus());
  return pcpu / cores_per_socket;
}

std::vector<int> Topology::PcpusOfSocket(int socket) const {
  AQL_CHECK(socket >= 0 && socket < sockets);
  std::vector<int> out;
  out.reserve(static_cast<size_t>(cores_per_socket));
  for (int c = 0; c < cores_per_socket; ++c) {
    out.push_back(socket * cores_per_socket + c);
  }
  return out;
}

Topology MakeI73770Topology(int cores) {
  AQL_CHECK(cores >= 1 && cores <= 8);
  Topology t;
  t.sockets = 1;
  t.cores_per_socket = cores;
  t.llc_bytes = 8ull * 1024 * 1024;
  return t;
}

Topology MakeE54603Topology() {
  Topology t;
  t.sockets = 4;
  t.cores_per_socket = 4;
  t.llc_bytes = 10ull * 1024 * 1024;
  // Sustainable per-socket DRAM bandwidth. Calibrated against the miss
  // penalty (64 B per 80 ns ≈ 0.8 B/ns asymptotic single-core demand): one
  // streamer fits, two or more co-running streamers saturate the bus.
  t.mem_bw_bytes_per_ns = 1.2;
  return t;
}

}  // namespace aql
