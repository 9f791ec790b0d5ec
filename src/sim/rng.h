// Deterministic pseudo-random number generation for the simulator.
//
// Simulations must be reproducible run-to-run, so every stochastic component
// derives its stream from a seeded Rng. The core generator is xoshiro256**,
// seeded through SplitMix64 — small, fast, and adequate for workload
// modelling (we do not need cryptographic quality).

#ifndef AQLSCHED_SRC_SIM_RNG_H_
#define AQLSCHED_SRC_SIM_RNG_H_

#include <cstdint>

#include "src/sim/time.h"

namespace aql {

// ln(u) for a finite u > 0, in plain double arithmetic: the model's draws
// must not depend on the C library's log. Within 3 ulp of the correctly
// rounded value (sim_test bounds it).
double PortableLog(double u);

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform 64-bit value.
  uint64_t NextU64();

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Exponentially distributed value with the given mean (> 0).
  double Exponential(double mean);

  // Exponential inter-arrival duration with the given mean, at least 1 ns.
  TimeNs ExponentialNs(TimeNs mean);

  // Bernoulli trial with success probability p in [0, 1].
  bool Bernoulli(double p);

  // Stateless seed derivation: mixes `base` and `tag` into a well-spread
  // seed, deterministic in its inputs. Used by the sweep engine to give every
  // (scenario, policy) cell its own reproducible stream regardless of how
  // many worker threads execute the sweep.
  static uint64_t DeriveSeed(uint64_t base, uint64_t tag);

 private:
  uint64_t state_[4];
};

}  // namespace aql

#endif  // AQLSCHED_SRC_SIM_RNG_H_
