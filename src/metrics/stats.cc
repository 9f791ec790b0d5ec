#include "src/metrics/stats.h"

#include <algorithm>

#include "src/sim/check.h"

namespace aql {

void StatAccumulator::Add(double x) {
  ++count_;
  mean_ += (x - mean_) / static_cast<double>(count_);
}

void StatAccumulator::Reset() { *this = StatAccumulator(); }

SampleStats::SampleStats(size_t max_samples) : max_samples_(max_samples) {
  AQL_CHECK(max_samples_ >= 16);
  samples_.reserve(std::min<size_t>(max_samples_, 4096));
}

void SampleStats::Add(double x) {
  ++total_count_;
  acc_.Add(x);
  if (++seen_since_kept_ < stride_) {
    return;
  }
  seen_since_kept_ = 0;
  if (samples_.size() >= max_samples_) {
    // Halve the retained set and double the stride.
    std::vector<double> thinned;
    thinned.reserve(max_samples_ / 2 + 1);
    for (size_t i = 0; i < samples_.size(); i += 2) {
      thinned.push_back(samples_[i]);
    }
    samples_ = std::move(thinned);
    stride_ *= 2;
  }
  samples_.push_back(x);
  sorted_ = false;
}

void SampleStats::Reset() {
  total_count_ = 0;
  stride_ = 1;
  seen_since_kept_ = 0;
  acc_.Reset();
  samples_.clear();
  sorted_ = true;
}

double SampleStats::Percentile(double p) const {
  if (samples_.empty()) {
    return 0.0;
  }
  AQL_CHECK(p >= 0.0 && p <= 100.0);
  if (!sorted_) {
    auto* self = const_cast<SampleStats*>(this);
    std::sort(self->samples_.begin(), self->samples_.end());
    self->sorted_ = true;
  }
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

}  // namespace aql
