#include "src/sim/rng.h"

#include <cmath>

#include "src/sim/check.h"

namespace aql {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

// u = f * 2^e with f in [sqrt(1/2), sqrt(2)); then ln f = 2 atanh(s) with
// s = (f - 1) / (f + 1) and |s| < 0.172, summed as a 13-term odd series,
// and ln 2 is split so that e * kLn2Hi is exact.
double PortableLog(double u) {
  AQL_CHECK(u > 0.0);
  constexpr double kSqrtHalf = 0x1.6a09e667f3bcdp-1;
  constexpr double kLn2Hi = 0x1.62e42feep-1;  // low 21 mantissa bits zero
  constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
  int e = 0;
  double f = std::frexp(u, &e);  // exact: u = f * 2^e, f in [1/2, 1)
  if (f < kSqrtHalf) {
    f *= 2.0;
    --e;
  }
  const double s = (f - 1.0) / (f + 1.0);
  const double s2 = s * s;
  // series = s2/3 + s2^2/5 + ... + s2^12/25, by Horner.
  double series = 0.0;
  for (int k = 25; k >= 3; k -= 2) {
    series = s2 * (1.0 / k + series);
  }
  const double ln_f = 2.0 * s + 2.0 * s * series;
  const double de = static_cast<double>(e);
  return de * kLn2Hi + (de * kLn2Lo + ln_f);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) {
    s = SplitMix64(sm);
  }
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 random mantissa bits scaled into [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  AQL_CHECK(lo <= hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) {
    // Full 64-bit range requested.
    return static_cast<int64_t>(NextU64());
  }
  return lo + static_cast<int64_t>(NextU64() % span);
}

double Rng::Uniform(double lo, double hi) {
  AQL_CHECK(lo <= hi);
  return lo + (hi - lo) * NextDouble();
}

double Rng::Exponential(double mean) {
  AQL_CHECK(mean > 0);
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return -mean * PortableLog(u);
}

TimeNs Rng::ExponentialNs(TimeNs mean) {
  const double d = Exponential(static_cast<double>(mean));
  TimeNs out = static_cast<TimeNs>(d);
  return out < 1 ? 1 : out;
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

uint64_t Rng::DeriveSeed(uint64_t base, uint64_t tag) {
  uint64_t x = base ^ Rotl(tag, 29) ^ 0x6c62272e07bb0142ULL;
  // Two SplitMix64 rounds decorrelate nearby (base, tag) pairs.
  SplitMix64(x);
  return SplitMix64(x);
}

}  // namespace aql
