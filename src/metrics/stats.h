// Online statistics helpers used by workload models and benches.

#ifndef AQLSCHED_SRC_METRICS_STATS_H_
#define AQLSCHED_SRC_METRICS_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aql {

// Scalar accumulator: count and running (Welford) mean.
class StatAccumulator {
 public:
  void Add(double x);
  void Reset();

  uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
};

// Sample collector with percentile queries. To bound memory on long runs it
// keeps at most `max_samples` via systematic decimation (every k-th sample is
// kept once the cap is hit), which preserves percentile estimates for the
// stationary workloads we measure.
class SampleStats {
 public:
  explicit SampleStats(size_t max_samples = 1 << 16);

  void Add(double x);
  void Reset();

  uint64_t count() const { return total_count_; }
  double mean() const { return acc_.mean(); }

  // p in [0, 100]. Returns 0 if empty.
  double Percentile(double p) const;

 private:
  size_t max_samples_;
  uint64_t total_count_ = 0;
  uint64_t stride_ = 1;
  uint64_t seen_since_kept_ = 0;
  StatAccumulator acc_;
  std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace aql

#endif  // AQLSCHED_SRC_METRICS_STATS_H_
