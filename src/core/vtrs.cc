#include "src/core/vtrs.h"

namespace aql {

void Vtrs::Observe(int vcpu, const Levels& levels) {
  static_assert(kVtrsWindow >= 1);
  WindowState& ws = state_[vcpu];
  ws.latest = ComputeCursors(levels);
  ws.window.push_back(ws.latest);
  while (static_cast<int>(ws.window.size()) > kVtrsWindow) {
    ws.window.pop_front();
  }
}

const Vtrs::WindowState* Vtrs::Find(int vcpu) const {
  auto it = state_.find(vcpu);
  return it == state_.end() ? nullptr : &it->second;
}

CursorSet Vtrs::Average(int vcpu) const {
  const WindowState* ws = Find(vcpu);
  CursorSet avg;
  if (ws == nullptr || ws->window.empty()) {
    return avg;
  }
  double io_min = 100.0;
  double io_max = 0.0;
  for (const CursorSet& c : ws->window) {
    avg.io += c.io;
    avg.conspin += c.conspin;
    avg.lolcf += c.lolcf;
    avg.llcf += c.llcf;
    avg.llco += c.llco;
    avg.membw += c.membw;
    avg.remote += c.remote;
    io_min = c.io < io_min ? c.io : io_min;
    io_max = c.io > io_max ? c.io : io_max;
  }
  const double n = static_cast<double>(ws->window.size());
  avg.io /= n;
  avg.conspin /= n;
  avg.lolcf /= n;
  avg.llcf /= n;
  avg.llco /= n;
  avg.membw /= n;
  avg.remote /= n;
  // Bursty-I/O is a dispersion measure over the window: a diurnal on/off
  // I/O phase pattern alternates saturated and zero I/O cursors, while a
  // steady server pins the cursor. Below the noise gate (ramp-up, a single
  // slow period) the cursor stays 0.
  if (ws->window.size() >= 2) {
    const double spread = io_max - io_min;
    avg.bursty = spread >= kBurstySpreadLimit ? spread : 0.0;
  }
  return avg;
}

CursorSet Vtrs::Latest(int vcpu) const {
  const WindowState* ws = Find(vcpu);
  return ws == nullptr ? CursorSet{} : ws->latest;
}

VcpuType Vtrs::TypeOf(int vcpu) const { return Classify(Average(vcpu)); }

int Vtrs::SampleCount(int vcpu) const {
  const WindowState* ws = Find(vcpu);
  return ws == nullptr ? 0 : static_cast<int>(ws->window.size());
}

}  // namespace aql
