// Section 5.2.1 ablations. The paper's AOT ablation has no subject here:
// compiling a plan binds views of its interned parameters, so there is no
// deferred work for a first prediction to pay.
//  - Vector pooling: without pooled buffers/contexts, allocation returns to
//    the data path (paper: hot +47.1%, cold +24.7%).
#include "bench/bench_util.h"
#include "src/common/clock.h"
#include "src/flour/flour.h"
#include "src/oven/model_plan.h"

namespace pretzel {
namespace {

struct AblationResult {
  SampleStats cold;
  SampleStats hot;
  // Per-plan means in generation order, for paired comparisons across
  // configurations (robust to machine drift between measurement passes).
  std::vector<double> hot_per_plan;
  std::vector<double> cold_per_plan;
};

// Median of pairwise ratios b[i]/a[i].
double PairedRatio(const std::vector<double>& a, const std::vector<double>& b) {
  SampleStats ratios;
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] > 0) {
      ratios.Add(b[i] / a[i]);
    }
  }
  return ratios.empty() ? 0.0 : ratios.Median();
}

template <typename Workload>
AblationResult Measure(const Workload& workload, bool pooling, int hot_preds,
                       uint64_t seed) {
  AblationResult result;
  ObjectStore store;
  FlourContext ctx(&store);
  VectorPool::Options popts;
  popts.pooling_enabled = pooling;

  std::vector<std::shared_ptr<ModelPlan>> plans;
  for (const auto& spec : workload.pipelines()) {
    auto program = ctx.FromPipeline(spec);
    auto plan = Plan(*program, spec.name);
    plans.push_back(*plan);
  }

  Rng rng(seed);
  VectorPool pool(popts);
  ExecContextPool ctx_pool(&pool, /*reuse_enabled=*/pooling);
  for (const auto& plan : plans) {
    const std::string input = workload.SampleInput(rng);
    // Cold: first prediction (a fresh context models the unpooled path).
    int64_t t0 = NowNs();
    {
      auto exec = ctx_pool.Acquire();
      auto r = ExecutePlan(*plan, input, *exec);
      if (!r.ok()) {
        continue;
      }
      ctx_pool.Release(std::move(exec));
    }
    result.cold.Add(static_cast<double>(NowNs() - t0));
    result.cold_per_plan.push_back(static_cast<double>(NowNs() - t0));
    // Warm up, then hot.
    for (int i = 0; i < 10; ++i) {
      auto exec = ctx_pool.Acquire();
      (void)ExecutePlan(*plan, workload.SampleInput(rng), *exec);
      ctx_pool.Release(std::move(exec));
    }
    t0 = NowNs();
    for (int i = 0; i < hot_preds; ++i) {
      auto exec = ctx_pool.Acquire();
      (void)ExecutePlan(*plan, workload.SampleInput(rng), *exec);
      ctx_pool.Release(std::move(exec));
    }
    result.hot.Add(static_cast<double>(NowNs() - t0) / hot_preds);
    result.hot_per_plan.push_back(static_cast<double>(NowNs() - t0) / hot_preds);
  }
  return result;
}

template <typename Workload>
void RunCategory(const char* name, const Workload& workload, int hot_preds,
                 uint64_t seed) {
  std::printf("  --- %s ---\n", name);
  // Untimed warm pass: faults in the shared dictionaries/forests so the
  // first measured configuration is not penalized by cold page caches.
  (void)Measure(workload, /*pooling=*/true, 5, seed);
  auto base = Measure(workload, /*pooling=*/true, hot_preds, seed);
  auto no_pool = Measure(workload, /*pooling=*/false, hot_preds, seed);

  PrintCdfSummary("baseline hot", base.hot);
  PrintCdfSummary("baseline cold", base.cold);
  PrintCdfSummary("no-pooling hot", no_pool.hot);
  PrintCdfSummary("no-pooling cold", no_pool.cold);

  // Paired per-plan ratios (median): each plan compares against itself, so
  // machine drift between the measurement passes cancels out.
  const double pool_hot_ratio = PairedRatio(base.hot_per_plan, no_pool.hot_per_plan);
  const double pool_cold_ratio =
      PairedRatio(base.cold_per_plan, no_pool.cold_per_plan);
  std::printf("  no-pooling hot inflation:  %.2fx (paper: +47.1%%)\n",
              pool_hot_ratio);
  std::printf("  no-pooling cold inflation: %.2fx (paper: +24.7%%)\n",
              pool_cold_ratio);
  ShapeCheck(pool_hot_ratio > 1.0 || pool_cold_ratio > 1.0,
             "disabling pooling inflates latency");
}

}  // namespace
}  // namespace pretzel

int main(int argc, char** argv) {
  using namespace pretzel;
  BenchFlags flags(argc, argv);
  const int hot_preds = static_cast<int>(flags.GetInt("hot_preds", 50));
  PrintHeader("Section 5.2.1 ablations", "vector pooling");
  auto sa = SaWorkload::Generate(DefaultSaOptions(flags));
  RunCategory("Sentiment Analysis (SA)", sa, hot_preds, 2001);
  auto ac = AcWorkload::Generate(DefaultAcOptions(flags));
  RunCategory("Attendee Count (AC)", ac, hot_preds, 2002);
  return 0;
}
