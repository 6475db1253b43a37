#include "src/common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace pretzel {

void SampleStats::Add(double value) {
  samples_.push_back(value);
  sum_ += value;
  sorted_valid_ = false;
}

void SampleStats::EnsureSorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double SampleStats::Mean() const {
  return samples_.empty() ? 0.0 : sum_ / static_cast<double>(samples_.size());
}

double SampleStats::Min() const {
  EnsureSorted();
  return sorted_.empty() ? 0.0 : sorted_.front();
}

double SampleStats::Max() const {
  EnsureSorted();
  return sorted_.empty() ? 0.0 : sorted_.back();
}

double SampleStats::Percentile(double pct) const {
  EnsureSorted();
  if (sorted_.empty()) {
    return 0.0;
  }
  pct = std::min(100.0, std::max(0.0, pct));
  // Nearest-rank: smallest value with at least pct% of the sample at or
  // below it.
  const double rank = pct / 100.0 * static_cast<double>(sorted_.size());
  size_t idx = static_cast<size_t>(std::ceil(rank));
  if (idx > 0) {
    --idx;
  }
  idx = std::min(idx, sorted_.size() - 1);
  return sorted_[idx];
}

std::vector<std::pair<double, double>> SampleStats::Cdf(size_t points) const {
  std::vector<std::pair<double, double>> cdf;
  EnsureSorted();
  if (sorted_.empty() || points == 0) {
    return cdf;
  }
  cdf.reserve(points);
  for (size_t j = 1; j <= points; ++j) {
    const double frac = static_cast<double>(j) / static_cast<double>(points);
    cdf.emplace_back(Percentile(frac * 100.0), frac);
  }
  return cdf;
}

Histogram& Histogram::operator=(const Histogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) {
    buckets_[i].store(other.Count(i), std::memory_order_relaxed);
  }
  return *this;
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) {
    buckets_[i].fetch_add(other.Count(i), std::memory_order_relaxed);
  }
}

// An integer v < 8 is its own bucket. Above, with `shift` = bit_width(v) - 3,
// v >> shift is in [4, 8): octave [2^k, 2^(k+1)) takes buckets (k - 2) * 4 +
// [4, 8), so octave 3 starts at bucket 8 and octave 32 ends at bucket 127.
size_t Histogram::BucketOf(double value) {
  if (!(value >= 0.5)) {
    return 0;  // Negatives and NaN too.
  }
  const auto v = static_cast<uint64_t>(std::min(value, 0x1p33) + 0.5);
  const int shift = std::max(0, static_cast<int>(std::bit_width(v)) - 3);
  return std::min<size_t>(kBuckets - 1, shift * 4 + (v >> shift));
}

double Histogram::Midpoint(size_t bucket) {
  if (bucket < 8) {
    return static_cast<double>(bucket);
  }
  const double width = std::ldexp(1.0, static_cast<int>(bucket / 4) - 1);
  return static_cast<double>(bucket % 4 + 4) * width + (width - 1) / 2;
}

uint64_t Histogram::count() const {
  uint64_t n = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    n += Count(i);
  }
  return n;
}

double Histogram::Mean() const {
  double sum = 0.0;
  for (size_t i = 0; i < kBuckets; ++i) {
    sum += static_cast<double>(Count(i)) * Midpoint(i);
  }
  const uint64_t n = count();
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double Histogram::Percentile(double pct) const {
  const uint64_t n = count();
  if (n == 0) {
    return 0.0;
  }
  pct = std::clamp(pct, 0.0, 100.0);
  const auto rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(pct / 100.0 * static_cast<double>(n))));
  uint64_t seen = 0;
  size_t i = 0;
  while (i + 1 < kBuckets && (seen += Count(i)) < rank) {
    ++i;
  }
  return Midpoint(i);
}

std::vector<double> Histogram::samples() const {
  std::vector<double> out;
  for (size_t i = 0; i < kBuckets; ++i) {
    out.insert(out.end(), Count(i), Midpoint(i));
  }
  return out;
}

std::string FormatDurationNs(double ns) {
  char buf[64];
  const double abs = std::fabs(ns);
  if (abs < 1e3) {
    std::snprintf(buf, sizeof(buf), "%.0fns", ns);
  } else if (abs < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fus", ns / 1e3);
  } else if (abs < 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", ns / 1e9);
  }
  return buf;
}

std::string FormatBytes(size_t bytes) {
  char buf[64];
  const double b = static_cast<double>(bytes);
  if (bytes < (1ull << 10)) {
    std::snprintf(buf, sizeof(buf), "%zuB", bytes);
  } else if (bytes < (1ull << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1fKB", b / (1ull << 10));
  } else if (bytes < (1ull << 30)) {
    std::snprintf(buf, sizeof(buf), "%.2fMB", b / (1ull << 20));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fGB", b / (1ull << 30));
  }
  return buf;
}

}  // namespace pretzel
