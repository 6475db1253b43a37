// SampleStats: percentiles, median, P99, CDF shape, and formatting.
// Histogram: exact small values, the relative-error bound against
// SampleStats, clamping, merge, and concurrent recording beside snapshots.
#include "src/common/stats.h"

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "tests/test_util.h"

using pretzel::FormatBytes;
using pretzel::FormatDurationNs;
using pretzel::Histogram;
using pretzel::Rng;
using pretzel::SampleStats;

namespace {

void TestHistogramEmpty() {
  const Histogram empty;
  CHECK(empty.empty());
  CHECK_EQ(empty.count(), uint64_t{0});
  CHECK_EQ(empty.Mean(), 0.0);
  CHECK_EQ(empty.Percentile(50), 0.0);
  CHECK(empty.samples().empty());
}

// Each integer 0-7 reads back exactly; fractions round to the nearest one.
void TestHistogramSmallValuesExact() {
  Histogram all;
  for (int v = 0; v < 8; ++v) {
    Histogram one;
    one.Record(v);
    CHECK_EQ(one.Percentile(50), static_cast<double>(v));
    CHECK_EQ(one.Mean(), static_cast<double>(v));
    all.Record(v);
  }
  CHECK(all.samples() == std::vector<double>({0, 1, 2, 3, 4, 5, 6, 7}));
  CHECK_EQ(all.Mean(), 3.5);
  Histogram rounded;
  rounded.Record(2.4);
  rounded.Record(2.6);
  CHECK(rounded.samples() == std::vector<double>({2, 3}));
}

// Over integer samples log-uniform on [1, 1e9], the histogram's p50, p90
// and p99 sit within kRelativeError of SampleStats' exact ones.
void TestHistogramRelativeError() {
  Rng rng(2026);
  Histogram hist;
  SampleStats exact;
  for (int i = 0; i < 20000; ++i) {
    const double v = std::round(std::pow(10.0, 9.0 * rng.Uniform01()));
    hist.Record(v);
    exact.Add(v);
  }
  CHECK_EQ(hist.count(), uint64_t{20000});
  for (const double pct : {50.0, 90.0, 99.0}) {
    const double want = exact.Percentile(pct);
    const double got = hist.Percentile(pct);
    CHECK_MSG(std::fabs(got - want) <= Histogram::kRelativeError * want,
              "p%.0f: histogram %g vs exact %g", pct, got, want);
  }
  // Every integer of a wide bucket reads back within the bound too.
  for (const double v : {8.0, 9.0, 15.0, 1000.0, 1023.0, 123456789.0}) {
    Histogram one;
    one.Record(v);
    CHECK_MSG(std::fabs(one.Mean() - v) < Histogram::kRelativeError * v,
              "%g reads %g", v, one.Mean());
  }
}

// Values from 2^33 up share the top bucket; negatives (and NaN) count as 0.
void TestHistogramClamps() {
  Histogram top;
  top.Record(std::ldexp(1.0, 33));
  top.Record(1e12);
  top.Record(1e300);
  CHECK_EQ(top.count(), uint64_t{3});
  CHECK_EQ(top.Percentile(0), top.Percentile(100));
  CHECK(top.Percentile(100) > 7e9 && top.Percentile(100) < std::ldexp(1.0, 33));
  Histogram low;
  low.Record(-5.0);
  low.Record(-1e300);
  low.Record(std::nan(""));
  CHECK(low.samples() == std::vector<double>({0, 0, 0}));
}

// Merge adds bucket by bucket: the same as recording both inputs into one.
void TestHistogramMerge() {
  Rng rng(7);
  Histogram a, b, both;
  for (int i = 0; i < 5000; ++i) {
    const double v = std::pow(10.0, 6.0 * rng.Uniform01());
    (i % 3 == 0 ? a : b).Record(v);
    both.Record(v);
  }
  a.Merge(b);
  CHECK_EQ(a.count(), uint64_t{5000});
  CHECK(a.samples() == both.samples());
  CHECK_EQ(a.Percentile(90), both.Percentile(90));
  const Histogram copy = a;
  CHECK(copy.samples() == a.samples());
  CHECK_EQ(copy.samples().size(), copy.count());
}

// Four threads record while a reader keeps snapshotting: snapshot counts
// never go backwards, and the final count is exact.
void TestHistogramConcurrentRecord() {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  Histogram hist;
  std::atomic<int> running{kThreads};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&hist, &running, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record(static_cast<double>((i * (t + 1)) % 5000));
      }
      running.fetch_sub(1);
    });
  }
  uint64_t last = 0;
  while (running.load() > 0) {
    const Histogram snapshot = hist;
    const uint64_t n = snapshot.count();
    CHECK(n >= last);
    last = n;
    (void)snapshot.Percentile(99);
  }
  for (auto& w : writers) {
    w.join();
  }
  CHECK_EQ(hist.count(), uint64_t{kThreads * kPerThread});
}

}  // namespace

int main() {
  // Empty sample: all queries well-defined.
  SampleStats empty;
  CHECK(empty.empty());
  CHECK_EQ(empty.count(), size_t{0});
  CHECK_EQ(empty.Median(), 0.0);
  CHECK_EQ(empty.P99(), 0.0);
  CHECK(empty.Cdf(10).empty());

  // 1..100 in shuffled-ish order: exact percentiles are known.
  SampleStats stats;
  for (int i = 100; i >= 1; --i) {
    stats.Add(static_cast<double>(i));
  }
  CHECK_EQ(stats.count(), size_t{100});
  CHECK_NEAR(stats.Mean(), 50.5, 1e-9);
  CHECK_NEAR(stats.Median(), 50.0, 1e-9);  // Nearest-rank: ceil(0.5*100)=50.
  CHECK_NEAR(stats.P99(), 99.0, 1e-9);
  CHECK_NEAR(stats.Percentile(0.0), 1.0, 1e-9);
  CHECK_NEAR(stats.Percentile(100.0), 100.0, 1e-9);
  CHECK_NEAR(stats.Percentile(10.0), 10.0, 1e-9);
  CHECK_NEAR(stats.Min(), 1.0, 1e-9);
  CHECK_NEAR(stats.Max(), 100.0, 1e-9);

  // Incremental add invalidates the sorted cache.
  stats.Add(1000.0);
  CHECK_NEAR(stats.Max(), 1000.0, 1e-9);

  // CDF: monotone in both coordinates, ends at (max, 1.0).
  const auto cdf = stats.Cdf(20);
  CHECK_EQ(cdf.size(), size_t{20});
  for (size_t i = 1; i < cdf.size(); ++i) {
    CHECK(cdf[i].first >= cdf[i - 1].first);
    CHECK(cdf[i].second > cdf[i - 1].second);
  }
  CHECK_NEAR(cdf.back().first, 1000.0, 1e-9);
  CHECK_NEAR(cdf.back().second, 1.0, 1e-9);

  // Formatting: unit selection.
  CHECK(FormatDurationNs(412.0) == "412ns");
  CHECK(FormatDurationNs(3180.0) == "3.18us");
  CHECK(FormatDurationNs(7.42e6) == "7.42ms");
  CHECK(FormatDurationNs(1.25e9) == "1.25s");
  CHECK(FormatBytes(512) == "512B");
  CHECK(FormatBytes(64ull << 10) == "64.0KB");
  CHECK(FormatBytes(3ull << 20) == "3.00MB");
  CHECK(FormatBytes(2ull << 30) == "2.00GB");

  TestHistogramEmpty();
  TestHistogramSmallValuesExact();
  TestHistogramRelativeError();
  TestHistogramClamps();
  TestHistogramMerge();
  TestHistogramConcurrentRecord();

  std::printf("stats_test: PASS\n");
  return 0;
}
