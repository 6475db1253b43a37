// Serving benchmark: one workload per process, every answer checked,
// every metric printed by name with its unit; the last stdout line is the
// JSON result. perfbench/README.md says why each workload and metric exists.
//
//   sa-text-open            SA text singles, Poisson arrivals at 10k/s with at
//                           most 4 in flight, through FrontEnd::RequestAsync
//                           -> ShardedBackend -> ShardRouter -> runtime queue.
//   ac-binary-batch-closed  AC dense BinaryRecord batches of 256, two
//                           closed-loop clients on ShardRouter::PredictBatch.
//   sa-churn-open           the sa-text-open stream sent straight to
//                           ShardRouter::PredictAsync while a control thread
//                           cycles Deploy -> hold -> Promote/Rollback ->
//                           MaintainReplication on the hot models.
//
// --trace 1 runs the timed phase twice (untraced, then traced: spans around
// every call the benchmark makes), then a peel phase that replays sampled
// inputs synchronously through nested entry points to get each layer's self
// time, and prints the per-layer metrics instead of the end-to-end ones.
//
// A run whose answers are wrong still completes: it prints correct=false
// (and the wrong scores on stderr) and exits 0. Non-zero exits mean the
// benchmark itself could not run.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/common/rng.h"
#include "src/common/serialize.h"
#include "src/frontend/frontend.h"
#include "src/ops/kernels.h"
#include "src/oven/subplan_cache.h"
#include "src/runtime/exec_context.h"
#include "src/serving/sharded_backend.h"
#include "src/workload/ac_workload.h"
#include "src/workload/load_gen.h"
#include "src/workload/sa_workload.h"

namespace perfbench {
namespace {

using pretzel::ExecContext;
using pretzel::PipelineSpec;
using pretzel::Result;
using pretzel::ShardRouter;
using pretzel::Status;

// Zipf exponent of model popularity over the 250-pipeline suites.
constexpr double kZipfAlpha = 1.2;
// Poisson arrival rate of the SA workloads: about a quarter of the
// FrontEnd path's knee on a 4-thread host, so queues stay short.
constexpr double kArrivalRps = 10'000.0;
// At most this many SA requests in flight. A host stall then delays at most
// this many requests instead of piling up every arrival due during it.
constexpr uint64_t kMaxInFlight = 4;
// Latency limits behind slo_attainment (also stated in BENCHMARK.json).
constexpr int64_t kSingleLimitNs = 5'000'000;
constexpr int64_t kBatchLimitNs = 20'000'000;
constexpr double kWarmupS = 1.5;
constexpr size_t kSaInputs = 1024;  // Sentence pool shared by all models.
constexpr size_t kAcInputs = 512;   // Dense-record pool.
constexpr size_t kAcBatches = 32;   // Pre-built 256-record batches.
constexpr size_t kAcBatch = 256;
constexpr size_t kAcMaxBatch = 64;
constexpr size_t kAcClients = 2;
constexpr float kBatchTolerance = 1e-5f;  // As in datapath_parity_test.
constexpr size_t kPeelSamples = 2000;
constexpr size_t kChurnModels = 16;  // Hot head the control thread cycles.
constexpr int64_t kCanaryHoldNs = 25'000'000;
constexpr size_t kIdleSwapCycles = 200;
constexpr int64_t kSecondNs = 1'000'000'000;

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

double Ratio(uint64_t a, uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

// Ground truth: the reference plan's score for (model, input), computed
// before timing for every pair the run will use.
class Truth {
 public:
  Truth(const Reference* ref, const std::vector<std::string>* inputs)
      : ref_(ref),
        inputs_(inputs),
        table_(ref->plans.size() * inputs->size(),
               std::numeric_limits<float>::quiet_NaN()) {}

  // Fills every pair in `pairs` (see Pair) on Nproc() threads. Returns
  // false if a reference execution fails.
  bool Fill(const std::vector<uint32_t>& pairs) {
    std::vector<uint32_t> todo;
    std::vector<uint8_t> seen(table_.size(), 0);
    for (uint32_t p : pairs) {
      if (!seen[p]) {
        seen[p] = 1;
        todo.push_back(p);
      }
    }
    std::atomic<bool> ok{true};
    std::vector<std::thread> workers;
    const unsigned threads = Nproc();
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        pretzel::VectorPool pool;
        ExecContext ctx(&pool);
        for (size_t i = t; i < todo.size(); i += threads) {
          const size_t m = todo[i] / inputs_->size();
          const size_t k = todo[i] % inputs_->size();
          Result<float> r =
              pretzel::ExecutePlan(*ref_->plans[m], (*inputs_)[k], ctx);
          if (!r.ok()) {
            ok = false;
            return;
          }
          table_[todo[i]] = *r;
        }
      });
    }
    for (auto& w : workers) {
      w.join();
    }
    return ok;
  }

  // Fills every pair the way the runtime scores a dense chunk of two or
  // more records: one ExecutePlanBatch call per model over the whole input
  // pool. Returns false if a reference execution fails.
  bool FillBatchMajor() {
    const size_t n = inputs_->size();
    std::atomic<bool> ok{true};
    std::vector<std::thread> workers;
    const unsigned threads = Nproc();
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        pretzel::VectorPool pool;
        ExecContext ctx(&pool);
        for (size_t m = t; m < ref_->plans.size(); m += threads) {
          Status first_error;
          if (pretzel::ExecutePlanBatch(*ref_->plans[m], inputs_->data(), n,
                                        &table_[Pair(m, 0)], ctx,
                                        &first_error) != 0) {
            ok = false;
            return;
          }
        }
      });
    }
    for (auto& w : workers) {
      w.join();
    }
    return ok;
  }

  // Pairs filled in both tables whose scores lie more than `tolerance`
  // apart.
  std::vector<uint32_t> Apart(const Truth& other, float tolerance) const {
    std::vector<uint32_t> apart;
    for (size_t p = 0; p < table_.size(); ++p) {
      if (std::fabs(table_[p] - other.table_[p]) > tolerance) {
        apart.push_back(static_cast<uint32_t>(p));
      }
    }
    return apart;
  }

  float Get(size_t m, size_t k) const { return table_[Pair(m, k)]; }
  uint32_t Pair(size_t m, size_t k) const {
    return static_cast<uint32_t>(m * inputs_->size() + k);
  }

 private:
  const Reference* ref_;
  const std::vector<std::string>* inputs_;
  std::vector<float> table_;
};

// True if rounding alone explains why a dense plan scores `record` as
// `per_record` through ExecutePlan and as `batch_major` through
// ExecutePlanBatch: the record's features computed with the per-record
// kernels (MatVec, KMeansTransform) and with the batch-major ones (one
// lane) differ by float rounding only, and the final forest on each feature
// vector gives that path's score. A wrong weight, lane or offset on either
// path moves a feature far beyond rounding and fails this.
bool RoundingExplains(const pretzel::ModelPlan& plan, const std::string& record,
                      float per_record, float batch_major) {
  plan.EnsureBound();
  const pretzel::ModelPlan::BoundDense& b = plan.bound_dense();
  pretzel::BinaryRecordView view;
  if (!pretzel::ParseBinaryRecord(record, &view).ok() || !view.valid) {
    return false;
  }
  std::vector<float> row(view.dim);
  pretzel::CopyDenseValues(view, row.data());
  std::vector<float> a(b.feature_dim), c(b.feature_dim);
  pretzel::MatVec(b.pca->matrix.data(), b.pca->out_dim, b.pca->in_dim,
                  row.data(), a.data() + b.pca_off);
  pretzel::KMeansTransform(b.kmeans->centroids.data(), b.kmeans->k,
                           b.kmeans->dim, row.data(), a.data() + b.kmeans_off);
  pretzel::MatVecBatchSoA(b.pca->matrix.data(), b.pca->out_dim, b.pca->in_dim,
                          row.data(), 1, c.data() + b.pca_off);
  pretzel::KMeansTransformBatchSoA(b.kmeans->centroids.data(), b.kmeans->k,
                                   b.kmeans->dim, row.data(), 1,
                                   c.data() + b.kmeans_off);
  const pretzel::Forest& trees = b.tree_feat->forest;
  for (size_t t = 0; t < trees.roots.size(); ++t) {
    a[b.tree_off + t] = c[b.tree_off + t] = trees.EvalTree(t, row.data());
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a[i] - c[i]) > 1e-4f * (1.0f + std::fabs(a[i]))) {
      return false;
    }
  }
  return std::fabs(b.bound_final.Eval(a) - per_record) <= kBatchTolerance &&
         std::fabs(b.bound_final.Eval(c) - batch_major) <= kBatchTolerance;
}

// The suite under test: both variants of every pipeline, the reference
// compile, and the placed router.
struct Suite {
  std::vector<PipelineSpec> a, b;
  Reference ref;
  SampleStats setup_s;
  std::unique_ptr<ShardRouter> router;
  size_t store_bytes0 = 0;
  size_t store_objects0 = 0;

  bool Compile(const std::vector<PipelineSpec>& specs) {
    a = specs;
    b = VariantB(specs);
    return CompileReference(a, &ref);
  }
  bool Place(bool replication) {
    router = SetupRouter(RouterOptions(replication), a, &setup_s);
    if (router == nullptr) {
      return false;
    }
    const pretzel::ShardedMetrics m = router->GetMetrics();
    store_bytes0 = m.store_bytes;
    store_objects0 = m.store_objects;
    return true;
  }
};

// One timed phase: the untraced one, or the traced one that follows it.
struct Phase {
  Phase(int64_t start_ns, int seconds)
      : start_ns(start_ns),
        end_ns(start_ns + seconds * kSecondNs),
        latency(start_ns, seconds),
        attained(start_ns, seconds),
        records(start_ns, seconds) {}
  bool Contains(int64_t at_ns) const { return at_ns >= start_ns && at_ns < end_ns; }
  // Median over windows of the share of attempts that met the limit, so
  // one window in which the host stalled moves it by one rank.
  double Attainment() const { return attained.MedianOfMean(); }

  int64_t start_ns, end_ns;
  uint64_t attempted = 0, failed = 0, right_records = 0;
  SampleStats lag_us;              // Generator lateness (SA).
  SampleStats submit_us;           // Submit-call duration (SA, traced).
  Windows latency;                // Request latency (us), by send time.
  Windows attained;               // 1 per attempt that met the limit, else 0.
  Windows records;                // Correct records, by completion time.
  double cpu_s = 0.0;             // Serving CPU over the phase.
  std::vector<double> ran_share;  // 1 - steal share, per window.

  // Median over windows of each window's p50 latency times the share the
  // vCPUs ran in that window.
  double NetLatencyP50() const {
    return latency.MedianOfPercentile(50, 100, &ran_share);
  }
};

// What a workload's traffic leaves for the verdict and the report.
struct Traffic {
  Traffic(int64_t timed_ns, int seconds)
      : timed(timed_ns, seconds), traced(timed.end_ns, seconds) {}
  Phase timed, traced;
  double steal = -1.0;  // Over the timed phases.
  double rss_peak_mb = 0.0;  // At the end of the traffic.
  uint64_t wrong = 0;       // Answers that did not match the reference.
  bool reconciled = false;  // sent = succeeded + failed, layers agree.
  uint64_t requests = 0;    // Requests (or batch calls) sent, warm-up included.
  RuntimeTotals delta;      // Library counters over the traffic.
  pretzel::ShardedMetrics at_drain;
};

// Steal readings: the share over all timed phases, and the share each
// one-second window of each phase ran.
void AssignSteal(const StealSampler& sampler, int phases, int seconds,
                 Traffic* traffic) {
  const size_t windows = static_cast<size_t>(phases * seconds);
  traffic->steal = sampler.Share(0, windows);
  for (size_t w = 0; w < windows; ++w) {
    Phase& phase = w < static_cast<size_t>(seconds) ? traffic->timed
                                                    : traffic->traced;
    phase.ran_share.push_back(1.0 - std::max(0.0, sampler.Share(w, w + 1)));
  }
}

// Serving CPU at phase boundaries: the process minus the harness threads.
// samples[0] is taken at timed.start, [1] at timed.end, [2] at traced.end.
void AssignCpu(const std::vector<double>& samples, Traffic* traffic) {
  if (samples.size() >= 2) {
    traffic->timed.cpu_s = samples[1] - samples[0];
  }
  if (samples.size() >= 3) {
    traffic->traced.cpu_s = samples[2] - samples[1];
  }
}

SampleStats ControlDurationsUs(const SpanLog& log, const char* name,
                               int64_t from_ns, int64_t to_ns) {
  SampleStats out;
  for (const Span& s : log.spans()) {
    if (s.start_ns >= from_ns && s.start_ns < to_ns &&
        std::strcmp(s.name, name) == 0) {
      out.Add(Us(s.end_ns - s.start_ns));
    }
  }
  return out;
}

// Host-noise record printed with every run: CPU stolen by the hypervisor,
// how late the generator released requests, and the ungated tail.
void PrintHostNoise(double steal, const Phase& phase) {
  const SampleStats pooled = phase.latency.Pooled();
  std::printf("  host.steal_share %.6f  harness.gen_lag_us p90 %.3f p99 %.3f  "
              "harness.latency_p90_us %.3f p99 %.3f (ungated)\n",
              steal, phase.lag_us.Percentile(90), phase.lag_us.Percentile(99),
              pooled.Percentile(90), pooled.Percentile(99));
}

// Peel: each sampled input goes through four nested synchronous entry
// points, outermost first (frontend, serving, runtime, ops); a layer's self
// time is its call minus the next one in. `call(layer, sample)` runs one
// entry point and returns false on a wrong or failed answer.
using PeelCall = std::function<bool(int, size_t)>;
constexpr const char* kPeelNames[4] = {"peel.frontend", "peel.serving",
                                       "peel.runtime", "peel.ops"};

bool RunPeel(const PeelCall& call, SpanLog* spans, Report* report) {
  SampleStats us[4];
  bool ok = true;
  for (size_t s = 0; s < kPeelSamples && ok; ++s) {
    for (int layer = 0; layer < 4; ++layer) {
      ok &= call(layer, s);  // Warm every layer's caches for this input.
    }
    int64_t start[4], end[4];
    for (int layer = 0; layer < 4; ++layer) {
      start[layer] = NowNs();
      ok &= call(layer, s);
      end[layer] = NowNs();
    }
    const uint64_t root = spans->Add("peel.sample", 0, s + 1, start[0], end[3]);
    for (int layer = 0; layer < 4; ++layer) {
      spans->Add(kPeelNames[layer], root, s + 1, start[layer], end[layer]);
      us[layer].Add(Us(end[layer] - start[layer]));
    }
  }
  const auto self = [&](int layer) {
    SampleStats d;
    for (size_t s = 0; s < us[layer].count(); ++s) {
      d.Add(us[layer].samples()[s] - us[layer + 1].samples()[s]);
    }
    return d.Median();
  };
  report->Add("frontend.self_us_p50", self(0), "us");
  report->Add("serving.self_us_p50", self(1), "us");
  report->Add("runtime.self_us_p50", self(2), "us");
  report->Add("ops.exec_us_p50", us[3].Median(), "us");
  return ok;
}

// ExecutePlanBatch at 64 records, per record (median over repetitions),
// with a warm sub-plan cache as an executor has.
double BatchUsPerRecord(const pretzel::ModelPlan& plan,
                        const std::vector<std::string>& inputs) {
  constexpr size_t kN = 64;
  std::vector<std::string> batch(inputs.begin(), inputs.begin() + kN);
  std::vector<float> scores(kN);
  pretzel::VectorPool pool;
  ExecContext ctx(&pool);
  pretzel::SubPlanCache cache(pretzel::RuntimeOptions{}.subplan_cache_bytes);
  ctx.subplan_cache = &cache;
  pretzel::ExecutePlanBatch(plan, batch.data(), kN, scores.data(), ctx, nullptr);
  SampleStats per_record;
  for (int rep = 0; rep < 60; ++rep) {
    const int64_t t0 = NowNs();
    pretzel::ExecutePlanBatch(plan, batch.data(), kN, scores.data(), ctx,
                              nullptr);
    per_record.Add(Us(NowNs() - t0) / kN);
  }
  return per_record.Median();
}

// ParseBinaryRecord per record, timed over chunks of 64 calls.
double ValidateNsPerRecord(const std::vector<std::string>& records) {
  SampleStats per_record;
  size_t valid = 0;
  for (int rep = 0; rep < 50; ++rep) {
    for (size_t base = 0; base + 64 <= records.size(); base += 64) {
      const int64_t t0 = NowNs();
      for (size_t i = base; i < base + 64; ++i) {
        pretzel::BinaryRecordView view;
        valid += pretzel::ParseBinaryRecord(records[i], &view).ok() ? 1 : 0;
      }
      per_record.Add(static_cast<double>(NowNs() - t0) / 64.0);
    }
  }
  std::printf("  validated %zu records\n", valid);
  return per_record.Median();
}

// Everything after the traffic that every workload shares: idle
// control-plane cycles (unless they ran under load), the settle and store
// check, the verdict, and the report. `report` arrives holding the
// workload's own per-layer metrics.
int Conclude(const Args& args, const char* workload, bool churn, Suite& suite,
             Traffic& traffic, ControlLoop& control, const SpanLog& control_spans,
             const PeelCall& peel_call, const SpanLog& request_spans,
             int64_t origin_ns, Report report) {
  ShardRouter& router = *suite.router;
  int64_t swaps_from = 0, swaps_to = std::numeric_limits<int64_t>::max();
  if (churn) {
    swaps_from = traffic.timed.start_ns;
    swaps_to = traffic.timed.end_ns;
  } else {
    const std::atomic<bool> no_stop{false};
    control.Run(no_stop, 0, kIdleSwapCycles);
  }
  const ControlStats& cs = control.stats();
  SampleStats swaps;
  for (size_t i = 0; i < cs.swap_ms.size(); ++i) {
    if (cs.swap_start_ns[i] >= swaps_from && cs.swap_start_ns[i] < swaps_to) {
      swaps.Add(cs.swap_ms[i]);
    }
  }
  std::printf("  control: %zu cycles, %zu promotes, %zu rollbacks, %zu killed "
              "promotes, %zu deploy failures, %llu auto rollbacks\n",
              cs.cycles, cs.promotes, cs.rollbacks, cs.killed_promotes,
              cs.deploy_failures,
              static_cast<unsigned long long>(router.GetMetrics().auto_rollbacks));
  const bool settled = control.Settle();
  const int64_t residual = static_cast<int64_t>(router.GetMetrics().store_bytes) -
                           static_cast<int64_t>(suite.store_bytes0);
  std::printf("  store: %zu bytes after placement, residual %lld after "
              "settle%s\n",
              suite.store_bytes0, static_cast<long long>(residual),
              settled ? "" : " (settle FAILED)");
  bool correct = traffic.wrong == 0 && traffic.reconciled && settled &&
                 residual == 0 && cs.deploy_failures == 0;

  const Phase& timed = traffic.timed;
  const Phase& traced = traffic.traced;
  // Untraced phase. The spinners keep every vCPU busy, so the steal share
  // is the share of time the host ran something else on the vCPUs' physical
  // CPUs, whatever the program does; a request's wall time stretches with
  // it. The gated latency therefore scales each window's p50 by the share
  // the vCPUs ran in that window. CPU per record also grows with the host's
  // load, and not in step with the steal share, so it is reported but not
  // gated.
  const double latency_p50_us = timed.latency.MedianOfPercentile(50);
  const double cpu_us_per_record =
      timed.cpu_s * 1e6 /
      static_cast<double>(std::max<uint64_t>(1, timed.right_records));
  if (!args.trace) {
    PrintHostNoise(traffic.steal, timed);
    std::printf("  harness.latency_p50_us %.3f  harness.cpu_us_per_record %.3f "
                "(raw, ungated)\n", latency_p50_us, cpu_us_per_record);
    report.Add("net_latency_p50_us", timed.NetLatencyP50(), "us");
    report.Add("slo_attainment", timed.Attainment(), "ratio");
    report.Add("setup_s", suite.setup_s.Median(), "s");
    report.Add("rss_peak_mb", traffic.rss_peak_mb, "MB");
    report.Add("swap_p50_ms", swaps.Median(), "ms");
    if (!correct) {
      std::fprintf(stderr, "%s: CORRECTNESS FAILURE (see above)\n", workload);
    }
    report.Print(correct, timed.attempted, timed.failed);
    return 0;
  }

  SpanLog peel_spans(uint64_t{3} << 56, 5 * kPeelSamples);
  correct &= RunPeel(peel_call, &peel_spans, &report);
  const std::string path = args.trace_dir + "/" + workload + "-seed" +
                           std::to_string(args.seed) + ".spans.tsv";
  const bool written =
      WriteSpans(path, {&request_spans, &control_spans, &peel_spans}, origin_ns);
  std::printf("  spans: %zu request, %zu control, %zu peel -> %s%s\n",
              request_spans.spans().size(), control_spans.spans().size(),
              peel_spans.spans().size(), path.c_str(),
              written ? "" : " (WRITE FAILED)");
  correct &= written;

  PrintHostNoise(traffic.steal, traced);
  const double net_traced = traced.NetLatencyP50();
  const double net_untraced = timed.NetLatencyP50();
  std::printf("  tracing overhead: net_latency_p50 %.3f us traced vs %.3f us "
              "untraced\n", net_traced, net_untraced);

  const pretzel::ShardedMetrics& m = traffic.at_drain;
  const RuntimeTotals& d = traffic.delta;
  // Control spans: the traced phase under churn, the idle cycles otherwise.
  const int64_t from = churn ? traced.start_ns : traced.end_ns;
  const int64_t to = churn ? traced.end_ns : std::numeric_limits<int64_t>::max();
  const auto control_p50 = [&](const char* name) {
    return ControlDurationsUs(control_spans, name, from, to).Median();
  };
  report.Add("serving.queue_delay_imbalance", m.queue_delay_imbalance, "ratio");
  report.Add("serving.replicated_plans", static_cast<double>(m.replicated_plans),
             "count");
  report.Add("serving.deploy_ms_p50", control_p50("serving.Deploy") / 1e3, "ms");
  report.Add("serving.promote_ms_p50", control_p50("serving.Promote") / 1e3, "ms");
  report.Add("serving.rollback_ms_p50", control_p50("serving.Rollback") / 1e3,
             "ms");
  report.Add("serving.maintain_us_p50",
             control_p50("serving.MaintainReplication"), "us");
  report.Add("serving.breaker_rejected", static_cast<double>(d.breaker_rejected),
             "count");
  SampleStats waits, batch;
  for (const auto& p : m.merged.plans) {
    for (double v : p.queue_wait_us.samples()) {
      waits.Add(v);
    }
    for (double v : p.batch_records.samples()) {
      batch.Add(v);
    }
  }
  report.Add("runtime.queue_wait_us_p50", waits.Percentile(50), "us");
  report.Add("runtime.queue_wait_us_p99", waits.Percentile(99), "us");
  report.Add("runtime.batch_records_mean", batch.Mean(), "records");
  report.Add("runtime.dispatches_per_request",
             Ratio(d.dispatches, traffic.requests), "ratio");
  report.Add("runtime.shed", static_cast<double>(d.shed), "count");
  report.Add("runtime.expired", static_cast<double>(d.expired), "count");
  report.Add("runtime.rejected", static_cast<double>(d.rejected), "count");
  report.Add("runtime.vector_pool_hit_ratio",
             Ratio(d.pool_hits, d.pool_hits + d.pool_misses), "ratio");
  report.Add("oven.subplan_hit_ratio", Ratio(d.cache_hits, d.cache_lookups),
             "ratio");
  report.Add("oven.compile_ms_p50", suite.ref.plan_ms.Median(), "ms");
  SampleStats stages;
  for (const auto& plan : suite.ref.plans) {
    stages.Add(static_cast<double>(plan->NumStages()));
  }
  report.Add("oven.stages_mean", stages.Mean(), "stages");
  report.Add("flour.from_pipeline_ms_p50", suite.ref.from_pipeline_ms.Median(),
             "ms");
  report.Add("store.bytes", static_cast<double>(suite.store_bytes0), "B");
  report.Add("store.objects", static_cast<double>(suite.store_objects0), "count");
  report.Add("store.dedup_ratio",
             Ratio(suite.ref.parameter_bytes, suite.store_bytes0), "ratio");
  report.Add("store.residual_bytes", static_cast<double>(residual), "B");
  report.Add("harness.gen_lag_us_p90", traced.lag_us.Percentile(90), "us");
  report.Add("harness.gen_lag_us_p99", traced.lag_us.Percentile(99), "us");
  const SampleStats pooled = timed.latency.Pooled();
  report.Add("harness.latency_p50_us", latency_p50_us, "us");
  report.Add("harness.latency_p90_us", pooled.Percentile(90), "us");
  report.Add("harness.latency_p99_us", pooled.Percentile(99), "us");
  report.Add("harness.records_per_s", timed.records.MedianSum(), "1/s");
  report.Add("harness.cpu_us_per_record", cpu_us_per_record, "us");
  report.Add("harness.trace_overhead_us", net_traced - net_untraced, "us");
  report.Add("host.steal_share", traffic.steal, "ratio");
  if (!correct) {
    std::fprintf(stderr, "%s: CORRECTNESS FAILURE (see above)\n", workload);
  }
  report.Print(correct, traced.attempted, traced.failed);
  return 0;
}

std::vector<size_t> HotModels() {
  std::vector<size_t> hot(kChurnModels);
  for (size_t i = 0; i < kChurnModels; ++i) {
    hot[i] = i;  // Zipf rank i is model i.
  }
  return hot;
}

// ---------------------------------------------------------------------------
// SA: sa-text-open and sa-churn-open.

// One request's completion slot, written once by its callback.
struct Slot {
  int64_t send_ns = 0;
  int64_t submit_end_ns = 0;  // Traced phase only.
  int64_t done_ns = 0;
  float score = 0.0f;
  std::atomic<uint8_t> completions{0};
  std::atomic<uint8_t> state{0};  // 0 pending, 1 ok, 2 failed, 3 refused.
};

int RunSa(const Args& args, bool churn) {
  const char* workload = churn ? "sa-churn-open" : "sa-text-open";
  std::printf("workload %s\n  thread budget: generator 1 + %s + executors 2 "
              "(2 shards x 1) = 4 threads, plus idle spinners and a steal "
              "sampler; nproc = %u\n",
              workload, churn ? "control 1" : "frontend IO 1", Nproc());
  const pretzel::SaWorkload sa =
      pretzel::SaWorkload::Generate(pretzel::SaWorkloadOptions{});
  Suite suite;
  Reference ref_b;
  if (!suite.Compile(sa.pipelines()) ||
      (churn && !CompileReference(suite.b, &ref_b))) {
    return 1;
  }
  const std::vector<PipelineSpec>& specs = suite.a;
  const size_t n = specs.size();

  // Inputs, all from the seed: the sentence pool, the Poisson gaps and Zipf
  // models, and which sentence each request carries.
  pretzel::Rng rng(args.seed);
  std::vector<std::string> inputs;
  for (size_t k = 0; k < kSaInputs; ++k) {
    inputs.push_back(sa.SampleInput(rng));
  }
  const int phases = args.trace ? 2 : 1;
  const double duration_s = kWarmupS + phases * args.seconds;
  // Arrivals for more requests than the run can send.
  const std::vector<pretzel::LoadEvent> arrivals = pretzel::GenerateLoadSchedule(
      n, kArrivalRps, 1.2 * duration_s, kZipfAlpha, pretzel::SplitMix64(args.seed));
  std::vector<uint32_t> input_of(arrivals.size());
  Truth truth_a(&suite.ref, &inputs), truth_b(&ref_b, &inputs);
  std::vector<uint32_t> pairs;
  for (size_t m = 0; m < n; ++m) {
    pairs.push_back(truth_a.Pair(m, 0));  // Sync warm-up input.
  }
  for (size_t i = 0; i < arrivals.size(); ++i) {
    input_of[i] = static_cast<uint32_t>(rng.UniformInt(kSaInputs));
    pairs.push_back(truth_a.Pair(arrivals[i].model_index, input_of[i]));
  }
  if (!truth_a.Fill(pairs) || (churn && !truth_b.Fill(pairs))) {
    std::fprintf(stderr, "reference execution failed\n");
    return 1;
  }
  // Singles match bit for bit; under churn either variant is a whole
  // version, anything else is a torn read.
  const auto matches = [&](size_t m, size_t k, float score) {
    return score == truth_a.Get(m, k) || (churn && score == truth_b.Get(m, k));
  };

  if (!suite.Place(churn)) {
    return 1;
  }
  ShardRouter& router = *suite.router;
  pretzel::ShardedBackend backend(&router);
  pretzel::FrontEndOptions fe_opts;
  fe_opts.network_delay_us = 0;  // The emulated hop is a sleep: OS timer, not code.
  fe_opts.num_io_threads = 1;
  pretzel::FrontEnd frontend(&backend, fe_opts);

  uint64_t wrong = 0;
  for (size_t m = 0; m < n; ++m) {  // Untimed: first touch of every plan.
    Result<float> r = router.Predict(specs[m].name, inputs[0]);
    if (!r.ok() || !matches(m, 0, *r)) {
      ++wrong;
    }
  }
  const RuntimeTotals totals0 = Totals(router.GetMetrics());
  const pretzel::FrontEndMetrics fe0 = frontend.GetMetrics();

  SpanLog control_spans(uint64_t{2} << 56, 1 << 14);
  ControlLoop control(&router, &suite.a, &suite.b, HotModels(), &control_spans);
  std::atomic<bool> stop_control{false};
  std::thread control_thread;
  if (churn) {
    control_thread = std::thread([&] {
      control.Run(stop_control, kCanaryHoldNs,
                  std::numeric_limits<size_t>::max());
    });
  }

  // The generator: each request is due one Poisson gap after the previous
  // send and waits while kMaxInFlight are outstanding.
  std::vector<Slot> slots(arrivals.size());
  std::atomic<uint64_t> completed{0};
  uint64_t accepted = 0;
  size_t sent = 0;
  const int64_t t0 = NowNs() + 5'000'000;
  Traffic traffic(t0 + static_cast<int64_t>(kWarmupS * 1e9), args.seconds);
  const int64_t end_ns = args.trace ? traffic.traced.end_ns : traffic.timed.end_ns;
  std::vector<int64_t> due(arrivals.size());
  KeepCpusAwake awake;
  StealSampler sampler(traffic.timed.start_ns, phases * args.seconds);
  const auto serving_cpu = [&] {
    return ProcessCpuS() - ThreadCpuS(pthread_self()) - awake.CpuS() -
           sampler.CpuS();
  };
  std::vector<double> cpu_at;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const double gap_s = arrivals[i].arrival_seconds -
                         (i == 0 ? 0.0 : arrivals[i - 1].arrival_seconds);
    due[i] = (i == 0 ? t0 : slots[i - 1].send_ns) +
             static_cast<int64_t>(gap_s * 1e9);
    if (due[i] >= end_ns) {
      break;
    }
    int64_t now = WaitUntil(due[i]);
    while (accepted - completed.load(std::memory_order_acquire) >= kMaxInFlight) {
      now = NowNs();
    }
    if (cpu_at.size() < static_cast<size_t>(phases) &&
        now >= (cpu_at.empty() ? traffic.timed.start_ns : traffic.traced.start_ns)) {
      cpu_at.push_back(serving_cpu());
    }
    Slot* slot = &slots[i];
    slot->send_ns = now;
    ++sent;
    auto done = [slot, &completed](Result<float> r) {
      slot->done_ns = NowNs();
      if (r.ok()) {
        slot->score = *r;
      }
      slot->completions.fetch_add(1, std::memory_order_relaxed);
      slot->state.store(r.ok() ? 1 : 2, std::memory_order_release);
      completed.fetch_add(1, std::memory_order_release);
    };
    const size_t m = arrivals[i].model_index;
    const Status st =
        churn ? router.PredictAsync(specs[m].name, inputs[input_of[i]], done)
              : frontend.RequestAsync(specs[m].name, inputs[input_of[i]], done);
    if (traffic.traced.Contains(now)) {
      slot->submit_end_ns = NowNs();
    }
    if (st.ok()) {
      ++accepted;
    } else {
      slot->state.store(3, std::memory_order_relaxed);
    }
  }
  cpu_at.push_back(serving_cpu());
  const int64_t drain_deadline = NowNs() + 60 * kSecondNs;
  while (completed.load(std::memory_order_acquire) < accepted &&
         NowNs() < drain_deadline) {
    pretzel::SleepUs(200);
  }
  // Before the verdict's bookkeeping, which grows with the requests served.
  traffic.rss_peak_mb = RssPeakMb();
  sampler.Join();
  AssignSteal(sampler, phases, args.seconds, &traffic);
  if (control_thread.joinable()) {
    stop_control.store(true, std::memory_order_release);
    control_thread.join();
  }
  const bool drained = completed.load(std::memory_order_acquire) == accepted;
  if (sent == 0) {
    std::fprintf(stderr, "no request was sent\n");
    return 1;
  }
  AssignCpu(cpu_at, &traffic);
  traffic.at_drain = router.GetMetrics();
  traffic.delta = Totals(traffic.at_drain) - totals0;
  traffic.requests = sent;
  const pretzel::FrontEndMetrics fe1 = frontend.GetMetrics();

  // Verdict on every request, then the phase statistics.
  uint64_t ok_total = 0, failed_total = 0, unreconciled = 0;
  for (size_t i = 0; i < sent; ++i) {
    const Slot& s = slots[i];
    const uint8_t state = s.state.load(std::memory_order_acquire);
    if (state != 3 && s.completions.load(std::memory_order_relaxed) != 1) {
      ++unreconciled;  // Lost or double completion.
      continue;
    }
    const size_t m = arrivals[i].model_index;
    const bool ok = state == 1;
    const bool right = ok && matches(m, input_of[i], s.score);
    ok_total += ok ? 1 : 0;
    failed_total += ok ? 0 : 1;
    if (ok && !right) {
      ++wrong;
      std::fprintf(stderr, "wrong score: %s input %u: got %.9g, reference %.9g\n",
                   specs[m].name.c_str(), input_of[i], s.score,
                   truth_a.Get(m, input_of[i]));
    }
    Phase* phase = traffic.timed.Contains(s.send_ns)    ? &traffic.timed
                   : traffic.traced.Contains(s.send_ns) ? &traffic.traced
                                                        : nullptr;
    if (phase == nullptr) {
      continue;  // Warm-up.
    }
    ++phase->attempted;
    phase->failed += ok ? 0 : 1;
    phase->lag_us.Add(Us(s.send_ns - due[i]));
    if (s.submit_end_ns != 0) {
      phase->submit_us.Add(Us(s.submit_end_ns - s.send_ns));
    }
    const int64_t latency = s.done_ns - s.send_ns;
    phase->attained.Add(s.send_ns, right && latency <= kSingleLimitNs ? 1.0 : 0.0);
    if (right) {
      phase->latency.Add(s.send_ns, Us(latency));
      phase->records.Add(s.done_ns, 1.0);
      ++phase->right_records;
    }
  }
  traffic.wrong = wrong;
  // Accounting: sent = succeeded + failed, and every layer agrees.
  const uint64_t fe_failed = (fe1.dropped_backpressure - fe0.dropped_backpressure) +
                             (fe1.dropped_error - fe0.dropped_error) +
                             (fe1.expired - fe0.expired);
  const RuntimeTotals& d = traffic.delta;
  // Under churn nothing else fails, so any failure is a request that
  // reached a retired version.
  traffic.reconciled = drained && unreconciled == 0 &&
                       ok_total + failed_total == sent &&
                       d.successes == ok_total && d.enqueued == accepted &&
                       d.errors == 0 && fe_failed == (churn ? 0 : failed_total) &&
                       (!churn || failed_total == 0);
  std::printf("  sent %zu = succeeded %llu + failed %llu; router successes %llu, "
              "runtime enqueued %llu (accepted %llu); wrong %llu%s\n",
              sent, static_cast<unsigned long long>(ok_total),
              static_cast<unsigned long long>(failed_total),
              static_cast<unsigned long long>(d.successes),
              static_cast<unsigned long long>(d.enqueued),
              static_cast<unsigned long long>(accepted),
              static_cast<unsigned long long>(wrong),
              churn ? " (torn: matches neither variant)" : "");

  Report report;
  SpanLog request_spans(uint64_t{1} << 56, args.trace ? 2 * sent : 0);
  if (args.trace) {
    for (size_t i = 0; i < sent; ++i) {
      const Slot& s = slots[i];
      if (!traffic.traced.Contains(s.send_ns) || s.state.load() == 3) {
        continue;
      }
      const uint64_t root =
          request_spans.Add("request", 0, i + 1, s.send_ns, s.done_ns);
      request_spans.Add(churn ? "serving.PredictAsync" : "frontend.RequestAsync",
                        root, i + 1, s.send_ns, s.submit_end_ns);
    }
    const double submit_p50 = traffic.traced.submit_us.Median();
    report.Add("frontend.submit_us_p50", churn ? 0.0 : submit_p50, "us");
    report.Add("serving.submit_us_p50", churn ? submit_p50 : 0.0, "us");
    report.Add("frontend.dropped", static_cast<double>(fe_failed), "count");
    report.Add("runtime.coalesced_share", Ratio(d.coalesced, d.enqueued), "ratio");
    report.Add("ops.batch_us_per_record",
               BatchUsPerRecord(*suite.ref.plans[0], inputs), "us");
    std::vector<std::string> records;
    for (size_t k = 0; k < 256; ++k) {
      records.push_back(sa.BinaryFromText(inputs[k], 0));
    }
    report.Add("common.validate_ns_p50", ValidateNsPerRecord(records), "ns");
    // Text plans never run batch-major, so their data paths cannot part.
    report.Add("ops.batch_scalar_apart_pairs", 0.0, "count");
  }

  pretzel::VectorPool peel_pool;
  ExecContext ctx(&peel_pool);
  pretzel::SubPlanCache peel_cache(pretzel::RuntimeOptions{}.subplan_cache_bytes);
  ctx.subplan_cache = &peel_cache;
  const size_t stride = std::max<size_t>(1, sent / kPeelSamples);
  const PeelCall peel = [&](int layer, size_t s) {
    const size_t i = (s * stride) % sent;
    const size_t m = arrivals[i].model_index;
    const std::string& name = specs[m].name;
    const std::string& input = inputs[input_of[i]];
    Result<float> r = Status::Error("unset");
    if (layer == 0) {
      r = frontend.Request(name, input);
    } else if (layer == 1) {
      r = router.Predict(name, input);
    } else if (layer == 2) {
      auto where = router.Placement(name);
      if (!where.ok()) {
        return false;
      }
      r = router.runtime(where->shard)->Predict(where->plan_id, input);
    } else {
      r = pretzel::ExecutePlan(*suite.ref.plans[m], input, ctx);
    }
    // The peel runs after the settle: every plan is variant A again.
    return r.ok() && *r == truth_a.Get(m, input_of[i]);
  };
  return Conclude(args, workload, churn, suite, traffic, control, control_spans,
                  peel, request_spans, t0, std::move(report));
}

// ---------------------------------------------------------------------------
// AC: ac-binary-batch-closed.

struct Call {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool ok = false;
  bool right = false;
};

int RunAcClosed(const Args& args) {
  const char* workload = "ac-binary-batch-closed";
  std::printf("workload %s\n  thread budget: clients 2 + executors 2 (2 shards "
              "x 1) = 4 threads, plus idle spinners and a steal sampler; "
              "nproc = %u\n",
              workload, Nproc());
  const pretzel::AcWorkload ac =
      pretzel::AcWorkload::Generate(pretzel::AcWorkloadOptions{});
  Suite suite;
  if (!suite.Compile(ac.pipelines())) {
    return 1;
  }
  const std::vector<PipelineSpec>& specs = suite.a;
  const size_t n = specs.size();

  // Inputs from the seed: the record pool and the pre-built batches.
  pretzel::Rng rng(args.seed);
  std::vector<std::string> records;
  for (size_t k = 0; k < kAcInputs; ++k) {
    records.push_back(ac.SampleInput(rng, pretzel::WireFormat::kBinary));
  }
  std::vector<std::vector<uint32_t>> batch_idx(kAcBatches);
  std::vector<std::vector<std::string>> batches(kAcBatches);
  for (size_t b = 0; b < kAcBatches; ++b) {
    for (size_t j = 0; j < kAcBatch; ++j) {
      batch_idx[b].push_back(static_cast<uint32_t>(rng.UniformInt(kAcInputs)));
      batches[b].push_back(records[batch_idx[b].back()]);
    }
  }
  Truth truth(&suite.ref, &records);
  std::vector<uint32_t> pairs;
  for (size_t m = 0; m < n; ++m) {
    for (size_t k = 0; k < kAcInputs; ++k) {
      pairs.push_back(truth.Pair(m, k));
    }
  }
  // The runtime scores each 64-record chunk batch-major, and single records
  // (the first touch, the peel) per record, so each call is checked against
  // the reference compile run through the same entry point. The two entry
  // points sum the PCA/KMeans dot products in different orders; where a
  // feature lies within rounding of a tree split, the forest takes the other
  // branch. Those pairs are counted and reported, not hidden.
  Truth batch_truth(&suite.ref, &records);
  if (!truth.Fill(pairs) || !batch_truth.FillBatchMajor()) {
    std::fprintf(stderr, "reference execution failed\n");
    return 1;
  }
  const std::vector<uint32_t> apart = batch_truth.Apart(truth, kBatchTolerance);
  uint64_t unexplained = 0;
  for (size_t i = 0; i < apart.size(); ++i) {
    const size_t m = apart[i] / kAcInputs, k = apart[i] % kAcInputs;
    const bool rounding = RoundingExplains(*suite.ref.plans[m], records[k],
                                           truth.Get(m, k), batch_truth.Get(m, k));
    unexplained += rounding ? 0 : 1;
    if (i >= 8) {
      continue;  // The count below says how many more.
    }
    std::fprintf(stderr,
                 "data paths apart: %s record %zu: per record %.9g, "
                 "batch-major %.9g (%s)\n",
                 specs[m].name.c_str(), k, truth.Get(m, k), batch_truth.Get(m, k),
                 rounding ? "feature rounding at a split" : "NOT rounding");
  }
  std::printf("  data paths: %zu of %zu (model, record) pairs score more than "
              "%g apart batch-major vs per record, %llu not explained by "
              "rounding\n",
              apart.size(), pairs.size(), kBatchTolerance,
              static_cast<unsigned long long>(unexplained));
  const auto near = [&](size_t m, size_t k, float score) {
    return std::fabs(score - truth.Get(m, k)) <= kBatchTolerance;
  };
  const auto near_batch = [&](size_t m, size_t k, float score) {
    return std::fabs(score - batch_truth.Get(m, k)) <= kBatchTolerance;
  };

  if (!suite.Place(false)) {
    return 1;
  }
  ShardRouter& router = *suite.router;
  uint64_t wrong = unexplained;  // A split rounding cannot explain is a fault.
  for (size_t m = 0; m < n; ++m) {  // Untimed: first touch of every plan.
    Result<float> r = router.PredictBinary(specs[m].name, Bytes(records[0]));
    if (!r.ok() || !near(m, 0, *r)) {
      ++wrong;
    }
  }
  const RuntimeTotals totals0 = Totals(router.GetMetrics());

  const int64_t t0 = NowNs() + 5'000'000;
  Traffic traffic(t0 + static_cast<int64_t>(kWarmupS * 1e9), args.seconds);
  const int64_t end_ns = args.trace ? traffic.traced.end_ns : traffic.timed.end_ns;
  std::vector<std::vector<Call>> calls(kAcClients);
  std::vector<std::thread> clients;
  KeepCpusAwake awake;
  const int phases = args.trace ? 2 : 1;
  StealSampler sampler(traffic.timed.start_ns, phases * args.seconds);
  std::atomic<bool> release_clients{false};
  for (size_t c = 0; c < kAcClients; ++c) {
    clients.emplace_back([&, c] {
      const std::vector<size_t> models = pretzel::ZipfModelSequence(
          n, 1 << 16, kZipfAlpha, pretzel::SplitMix64(args.seed + 101 * (c + 1)));
      pretzel::Rng pick(args.seed ^ (0xB0B0ull + c));
      std::vector<Call>& out = calls[c];
      out.reserve(1 << 16);
      WaitUntil(t0);
      for (size_t i = 0;; ++i) {
        const size_t m = models[i % models.size()];
        const size_t b = pick.UniformInt(kAcBatches);
        Call call;
        call.start_ns = NowNs();
        if (call.start_ns >= end_ns) {
          break;
        }
        Result<std::vector<float>> r =
            router.PredictBatch(specs[m].name, batches[b], kAcMaxBatch);
        call.end_ns = NowNs();
        call.ok = r.ok() && r->size() == kAcBatch;
        call.right = call.ok;
        for (size_t j = 0; call.ok && j < kAcBatch; ++j) {
          if (!near_batch(m, batch_idx[b][j], (*r)[j])) {
            call.right = false;
            std::fprintf(stderr,
                         "wrong score: %s batch %zu record %zu (pool %u): "
                         "got %.9g, reference %.9g\n",
                         specs[m].name.c_str(), b, j, batch_idx[b][j], (*r)[j],
                         batch_truth.Get(m, batch_idx[b][j]));
          }
        }
        out.push_back(call);
      }
      while (!release_clients.load(std::memory_order_acquire)) {
        pretzel::SleepUs(1000);  // Stay alive for the last CPU sample.
      }
    });
  }
  // Serving CPU at the phase boundaries: the process minus this thread,
  // the clients, the spinners and the steal sampler.
  const auto serving_cpu = [&] {
    double harness = ThreadCpuS(pthread_self()) + awake.CpuS() + sampler.CpuS();
    for (std::thread& t : clients) {
      harness += ThreadCpuS(t.native_handle());
    }
    return ProcessCpuS() - harness;
  };
  std::vector<double> cpu_at;
  for (int64_t at : {traffic.timed.start_ns, traffic.timed.end_ns,
                     traffic.traced.end_ns}) {
    if (at <= end_ns) {
      pretzel::SleepUs((at - NowNs()) / 1000);
      cpu_at.push_back(serving_cpu());
    }
  }
  release_clients.store(true, std::memory_order_release);
  for (auto& t : clients) {
    t.join();
  }
  traffic.rss_peak_mb = RssPeakMb();
  sampler.Join();
  AssignSteal(sampler, phases, args.seconds, &traffic);
  AssignCpu(cpu_at, &traffic);
  traffic.at_drain = router.GetMetrics();
  traffic.delta = Totals(traffic.at_drain) - totals0;

  uint64_t ok_total = 0, failed_total = 0;
  SpanLog request_spans(uint64_t{1} << 56, 1 << 16);
  for (const auto& per_client : calls) {
    for (const Call& call : per_client) {
      ++traffic.requests;
      ok_total += call.ok ? 1 : 0;
      failed_total += call.ok ? 0 : 1;
      wrong += call.ok && !call.right ? 1 : 0;
      Phase* phase = traffic.timed.Contains(call.start_ns)    ? &traffic.timed
                     : traffic.traced.Contains(call.start_ns) ? &traffic.traced
                                                              : nullptr;
      if (phase == nullptr) {
        continue;  // Warm-up.
      }
      if (args.trace && phase == &traffic.traced) {
        request_spans.Add("serving.PredictBatch", 0, traffic.requests,
                          call.start_ns, call.end_ns);
      }
      ++phase->attempted;
      phase->failed += call.ok ? 0 : 1;
      const int64_t latency = call.end_ns - call.start_ns;
      phase->attained.Add(call.start_ns,
                          call.right && latency <= kBatchLimitNs ? 1.0 : 0.0);
      if (call.right) {
        phase->latency.Add(call.start_ns, Us(latency));
        phase->records.Add(call.end_ns, static_cast<double>(kAcBatch));
        phase->right_records += kAcBatch;
      }
    }
  }
  traffic.wrong = wrong;
  const RuntimeTotals& d = traffic.delta;
  const uint64_t chunks = (kAcBatch + kAcMaxBatch - 1) / kAcMaxBatch;
  traffic.reconciled = ok_total + failed_total == traffic.requests &&
                       d.successes == ok_total &&
                       d.enqueued == traffic.requests * chunks && d.errors == 0;
  std::printf("  sent %llu = succeeded %llu + failed %llu batch calls; router "
              "successes %llu, runtime enqueued %llu chunks; wrong %llu\n",
              static_cast<unsigned long long>(traffic.requests),
              static_cast<unsigned long long>(ok_total),
              static_cast<unsigned long long>(failed_total),
              static_cast<unsigned long long>(d.successes),
              static_cast<unsigned long long>(d.enqueued),
              static_cast<unsigned long long>(wrong));

  // Per-layer metrics this workload measures its own way (or not at all:
  // the frontend and singles are off its path).
  Report report;
  if (args.trace) {
    report.Add("frontend.submit_us_p50", 0.0, "us");
    report.Add("serving.submit_us_p50", 0.0, "us");
    report.Add("frontend.dropped", 0.0, "count");
    report.Add("runtime.coalesced_share", 0.0, "ratio");
    report.Add("ops.batch_us_per_record",
               BatchUsPerRecord(*suite.ref.plans[0], records), "us");
    report.Add("common.validate_ns_p50", ValidateNsPerRecord(records), "ns");
    report.Add("ops.batch_scalar_apart_pairs", static_cast<double>(apart.size()),
               "count");
  }
  SpanLog control_spans(uint64_t{2} << 56, 1 << 10);
  ControlLoop control(&router, &suite.a, &suite.b, HotModels(), &control_spans);

  // The peel's frontend tier exists only for the peel: it is not on this
  // workload's serving path.
  pretzel::ShardedBackend backend(&router);
  pretzel::FrontEndOptions fe_opts;
  fe_opts.network_delay_us = 0;
  fe_opts.num_io_threads = 1;
  pretzel::FrontEnd frontend(&backend, fe_opts);
  pretzel::VectorPool peel_pool;
  ExecContext ctx(&peel_pool);
  pretzel::Rng peel_rng(args.seed ^ 0x9EE1ull);
  const std::vector<size_t> peel_models = pretzel::ZipfModelSequence(
      n, kPeelSamples, kZipfAlpha, pretzel::SplitMix64(args.seed + 7));
  std::vector<size_t> peel_records(kPeelSamples);
  for (size_t& k : peel_records) {
    k = peel_rng.UniformInt(kAcInputs);
  }
  const PeelCall peel = [&](int layer, size_t s) {
    const size_t m = peel_models[s];
    const std::string& name = specs[m].name;
    const std::string& record = records[peel_records[s]];
    Result<float> r = Status::Error("unset");
    if (layer == 0) {
      r = frontend.RequestBinary(name, Bytes(record));
    } else if (layer == 1) {
      r = router.PredictBinary(name, Bytes(record));
    } else if (layer == 2) {
      auto where = router.Placement(name);
      if (!where.ok()) {
        return false;
      }
      r = router.runtime(where->shard)->PredictBinary(where->plan_id, Bytes(record));
    } else {
      r = pretzel::ExecutePlan(*suite.ref.plans[m], record, ctx);
    }
    return r.ok() && near(m, peel_records[s], *r);
  };
  return Conclude(args, workload, false, suite, traffic, control, control_spans,
                  peel, request_spans, t0, std::move(report));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    return 2;
  }
  if (args.workload == "sa-text-open") {
    return perfbench::RunSa(args, /*churn=*/false);
  }
  if (args.workload == "sa-churn-open") {
    return perfbench::RunSa(args, /*churn=*/true);
  }
  if (args.workload == "ac-binary-batch-closed") {
    return perfbench::RunAcClosed(args);
  }
  std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
  return 2;
}
