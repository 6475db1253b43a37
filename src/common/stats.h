// SampleStats: an exact sample reservoir with percentile/CDF queries, plus
// human-readable duration/byte formatting. All the figure harnesses funnel
// their measurements through this type, so queries are exact (sorted sample
// vector), not streaming sketches.
#ifndef PRETZEL_COMMON_STATS_H_
#define PRETZEL_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pretzel {

class SampleStats {
 public:
  SampleStats() = default;

  void Add(double value);

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double Mean() const;
  double Min() const;
  double Max() const;
  double Median() const { return Percentile(50.0); }
  double P99() const { return Percentile(99.0); }

  // Nearest-rank percentile, pct in [0, 100]. Returns 0 on an empty sample.
  double Percentile(double pct) const;

  // `points` evenly spaced CDF points as (value, cumulative_fraction), ending
  // at (max, 1.0). Empty result on an empty sample.
  std::vector<std::pair<double, double>> Cdf(size_t points) const;

  const std::vector<double>& samples() const { return samples_; }

  // Heap bytes the reservoir holds (capacity, not size; the sorted query
  // cache included).
  size_t HeldBytes() const {
    return (samples_.capacity() + sorted_.capacity()) * sizeof(double);
  }

 private:
  void EnsureSorted() const;

  std::vector<double> samples_;
  double sum_ = 0.0;
  mutable std::vector<double> sorted_;  // Lazily (re)built query cache.
  mutable bool sorted_valid_ = false;
};

// "412ns", "3.18us", "7.42ms", "1.25s".
std::string FormatDurationNs(double ns);

// "512B", "64.0KB", "1.50MB", "2.25GB".
std::string FormatBytes(size_t bytes);

}  // namespace pretzel

#endif  // PRETZEL_COMMON_STATS_H_
