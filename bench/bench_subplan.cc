// Figure 10: sub-plan materialization. Hot SA latency with and without the
// materialization cache, under a request mix where popular inputs repeat
// across similar pipelines (the regime the optimization targets). The paper
// reports ~2x average speedup for ~80% of SA pipelines, no regressions.
#include "bench/bench_util.h"
#include "src/common/clock.h"
#include "src/flour/flour.h"
#include "src/oven/model_plan.h"
#include "src/oven/subplan_cache.h"

namespace pretzel {
namespace {

// Per-pipeline mean hot latency with an optional cache, over a shared set
// of inputs (the same inputs hit every pipeline, as A/B-tested variants of
// one service would see).
std::vector<double> MeasurePerPipeline(const SaWorkload& sa, SubPlanCache* cache,
                                       const std::vector<std::string>& inputs,
                                       int reps) {
  ObjectStore store;
  FlourContext ctx(&store);
  std::vector<std::shared_ptr<ModelPlan>> plans;
  for (const auto& spec : sa.pipelines()) {
    auto program = ctx.FromPipeline(spec);
    plans.push_back(*Plan(*program, spec.name));
  }
  VectorPool pool;
  ExecContext exec(&pool);
  exec.subplan_cache = cache;

  // Warm: one pass over all plans and inputs (populates the cache).
  for (const auto& plan : plans) {
    for (const auto& input : inputs) {
      (void)ExecutePlan(*plan, input, exec);
    }
  }
  std::vector<double> mean_ns;
  for (const auto& plan : plans) {
    const int64_t t0 = NowNs();
    for (int r = 0; r < reps; ++r) {
      for (const auto& input : inputs) {
        (void)ExecutePlan(*plan, input, exec);
      }
    }
    mean_ns.push_back(static_cast<double>(NowNs() - t0) /
                      (reps * inputs.size()));
  }
  return mean_ns;
}

}  // namespace
}  // namespace pretzel

int main(int argc, char** argv) {
  using namespace pretzel;
  BenchFlags flags(argc, argv);
  PrintHeader("Figure 10", "SA hot latency with/without sub-plan materialization");
  auto sa_opts = DefaultSaOptions(flags);
  // Fewer pipelines, same sharing structure, keeps runtime modest.
  sa_opts.num_pipelines = static_cast<size_t>(flags.GetInt("pipelines", 100));
  auto sa = SaWorkload::Generate(sa_opts);

  Rng rng(3001);
  std::vector<std::string> inputs;
  for (int i = 0; i < static_cast<int>(flags.GetInt("inputs", 20)); ++i) {
    inputs.push_back(sa.SampleInput(rng));
  }
  const int reps = static_cast<int>(flags.GetInt("reps", 5));

  auto without = MeasurePerPipeline(sa, nullptr, inputs, reps);
  SubPlanCache cache(512ull << 20);
  auto with = MeasurePerPipeline(sa, &cache, inputs, reps);

  SampleStats speedups;
  size_t above_2x = 0;
  size_t regressions = 0;
  for (size_t i = 0; i < with.size(); ++i) {
    const double speedup = without[i] / with[i];
    speedups.Add(speedup);
    above_2x += speedup > 2.0 ? 1 : 0;
    regressions += speedup < 0.95 ? 1 : 0;
  }
  std::printf("  pipelines=%zu inputs=%zu reps=%d\n", with.size(), inputs.size(),
              reps);
  std::printf("  speedup: mean=%.2fx median=%.2fx p10=%.2fx p90=%.2fx\n",
              speedups.Mean(), speedups.Median(), speedups.Percentile(10),
              speedups.Percentile(90));
  std::printf("  pipelines with >2x speedup: %zu/%zu (paper: ~80%%)\n", above_2x,
              with.size());
  std::printf("  cache: %zu entries, %s, hit-rate %.1f%%\n", cache.NumEntries(),
              FormatBytes(cache.SizeBytes()).c_str(),
              100.0 * cache.GetStats().hits /
                  std::max<uint64_t>(1, cache.GetStats().lookups));
  ShapeCheck(speedups.Mean() > 1.5,
             "sub-plan materialization speeds up SA hot latency (paper: 2.0x avg)");
  ShapeCheck(regressions < with.size() / 10,
             "no meaningful performance deterioration (paper: none)");
  return 0;
}
