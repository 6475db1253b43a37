// SampleStats: the figure harnesses' exact sample reservoir (sorted-vector
// percentile/CDF queries). Histogram: the Runtime's fixed-size, thread-safe
// per-plan metric. Plus human-readable duration/byte formatting.
#ifndef PRETZEL_COMMON_STATS_H_
#define PRETZEL_COMMON_STATS_H_

#include <array>
#include <atomic>
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

 private:
  void EnsureSorted() const;

  std::vector<double> samples_;
  double sum_ = 0.0;
  mutable std::vector<double> sorted_;  // Lazily (re)built query cache.
  mutable bool sorted_valid_ = false;
};

// A log-linear histogram of whole-unit values in 128 fixed buckets (1 KiB,
// no heap). Record rounds a value to the nearest integer, negatives to 0.
// Integers 0-7 have a bucket each and read back exactly; above, each octave
// [2^k, 2^(k+1)) splits into 4 equal buckets that read back as the midpoint
// of their integers, within kRelativeError of the rounded value. From 2^33
// (about 8.6e9) up, values clamp into the top bucket. Record is one relaxed
// fetch_add, safe from any thread, and counts are lifetime. A copy is a
// relaxed snapshot: a Record racing it may or may not show.
class Histogram {
 public:
  static constexpr size_t kBuckets = 128;
  static constexpr double kRelativeError = 1.0 / 8;

  Histogram() = default;
  Histogram(const Histogram& other) { *this = other; }
  Histogram& operator=(const Histogram& other);

  void Record(double value) {
    buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  }
  // Adds `other`'s counts: the same as recording both inputs into one.
  void Merge(const Histogram& other);

  uint64_t count() const;
  bool empty() const { return count() == 0; }
  // Read bucket midpoints, 0 when empty; Percentile is nearest-rank, like
  // SampleStats', with pct in [0, 100].
  double Mean() const;
  double Percentile(double pct) const;
  // Each recorded value as its bucket midpoint, ascending. Kept only for the
  // serving benchmark, which pools plans' values through SampleStats.
  std::vector<double> samples() const;

 private:
  static size_t BucketOf(double value);
  static double Midpoint(size_t bucket);
  uint64_t Count(size_t bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }

  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
};

// "412ns", "3.18us", "7.42ms", "1.25s".
std::string FormatDurationNs(double ns);

// "512B", "64.0KB", "1.50MB", "2.25GB".
std::string FormatBytes(size_t bytes);

}  // namespace pretzel

#endif  // PRETZEL_COMMON_STATS_H_
