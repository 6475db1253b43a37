// Figure 12: batch throughput scaling with CPU cores, PRETZEL's batch engine
// vs the black-box baseline where each worker thread owns a private model
// replica (the paper's observation: per-thread copies defeat cache sharing
// and scaling). Sweeps cores from 1 up to the host's hardware threads; the
// paper's 13-core sweep needs a matching machine — on smaller hosts the
// sweep is clamped and the per-core comparison still holds.
#include <condition_variable>
#include <mutex>
#include <span>
#include <thread>

#include "bench/bench_util.h"
#include "src/blackbox/blackbox_server.h"
#include "src/common/clock.h"
#include "src/flour/flour.h"
#include "src/oven/model_plan.h"
#include "src/runtime/runtime.h"

namespace pretzel {
namespace {

struct Throughput {
  double qps = 0.0;
};

// PRETZEL: all plans in one runtime; batch engine over `cores` executors.
template <typename Workload>
Throughput MeasurePretzel(const Workload& workload, size_t cores, size_t batch,
                          uint64_t seed) {
  ObjectStore store;
  FlourContext ctx(&store);
  RuntimeOptions opts;
  opts.num_executors = cores;
  Runtime runtime(&store, opts);
  std::vector<Runtime::PlanId> ids;
  for (const auto& spec : workload.pipelines()) {
    auto program = ctx.FromPipeline(spec);
    ids.push_back(*runtime.Register(*Plan(*program, spec.name)));
  }
  Rng rng(seed);
  std::vector<std::string> inputs;
  for (size_t i = 0; i < batch; ++i) {
    inputs.push_back(workload.SampleInput(rng));
  }
  // Each plan's batch goes through PredictBatchAsync and the caller waits,
  // so only the `cores` executors compute: a synchronous PredictBatch
  // caller would run chunks of its own batch too and add a thread. The
  // input copies are made before the clock starts.
  std::vector<std::vector<std::string>> batches(ids.size() + 1, inputs);
  const auto run = [&](Runtime::PlanId id, std::vector<std::string>& batch) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    size_t scored = 0;
    const Status submitted = runtime.PredictBatchAsync(
        id, std::move(batch),
        [&](Status status, std::span<const float> scores) {
          std::lock_guard<std::mutex> lock(mu);
          scored = status.ok() ? scores.size() : 0;
          done = true;
          cv.notify_one();  // Under the lock: the waiter owns `cv`.
        },
        64);
    if (!submitted.ok()) {
      return size_t{0};
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
    return scored;
  };
  (void)run(ids[0], batches.back());  // Warm.
  size_t total = 0;
  const int64_t t0 = NowNs();
  for (size_t i = 0; i < ids.size(); ++i) {
    total += run(ids[i], batches[i]);
  }
  const double secs = static_cast<double>(NowNs() - t0) / 1e9;
  return Throughput{static_cast<double>(total) / secs};
}

// Black-box: `cores` worker threads, each with its own model replicas
// (parameters duplicated per thread).
template <typename Workload>
Throughput MeasureBlackBox(const Workload& workload, size_t cores, size_t batch,
                           uint64_t seed) {
  BlackBoxOptions options;
  options.per_model_runtime_bytes = kPerModelRuntimeBytes;
  BlackBoxServer server(options);
  for (const auto& spec : workload.pipelines()) {
    (void)server.AddModelImage(spec.name, SaveModelImage(spec));
  }
  Rng rng(seed);
  std::vector<std::string> inputs;
  for (size_t i = 0; i < batch; ++i) {
    inputs.push_back(workload.SampleInput(rng));
  }
  const auto names = server.ModelNames();

  // Pre-create per-thread replicas (not timed: the baseline would have them
  // resident in steady state).
  std::vector<std::vector<std::unique_ptr<BlackBoxModel>>> replicas(cores);
  for (size_t t = 0; t < cores; ++t) {
    for (const auto& name : names) {
      auto r = server.CreateReplica(name);
      if (r.ok()) {
        replicas[t].push_back(std::move(*r));
      }
    }
  }

  std::atomic<size_t> total{0};
  const int64_t t0 = NowNs();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < cores; ++t) {
    threads.emplace_back([&, t] {
      // Threads split the model set.
      for (size_t m = t; m < replicas[t].size(); m += cores) {
        for (const auto& input : inputs) {
          if (replicas[t][m]->Predict(input).ok()) {
            total.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  const double secs = static_cast<double>(NowNs() - t0) / 1e9;
  return Throughput{static_cast<double>(total.load()) / secs};
}

template <typename Workload>
void RunCategory(const char* name, const Workload& workload, size_t batch,
                 const std::vector<size_t>& core_counts, uint64_t seed) {
  std::printf("  --- %s (batch=%zu, %zu models) ---\n", name, batch,
              workload.pipelines().size());
  std::printf("  %-8s %-16s %-16s %-10s\n", "cores", "PRETZEL QPS", "ML.Net QPS",
              "speedup");
  double p1 = 0.0, pN = 0.0, m1 = 0.0;
  for (size_t cores : core_counts) {
    auto pretzel = MeasurePretzel(workload, cores, batch, seed);
    auto mlnet = MeasureBlackBox(workload, cores, batch, seed);
    std::printf("  %-8zu %-16.0f %-16.0f %.2fx\n", cores, pretzel.qps, mlnet.qps,
                pretzel.qps / mlnet.qps);
    if (cores == core_counts.front()) {
      p1 = pretzel.qps;
      m1 = mlnet.qps;
    }
    pN = pretzel.qps;
  }
  ShapeCheck(p1 > m1, "PRETZEL outperforms ML.Net per core (paper: 2.6x SA, 10x AC)");
  if (core_counts.size() > 1) {
    const double scaling = pN / p1;
    std::printf("  PRETZEL scaling %zu->%zu cores: %.2fx (ideal %.1fx)\n",
                core_counts.front(), core_counts.back(), scaling,
                static_cast<double>(core_counts.back()) / core_counts.front());
    ShapeCheck(scaling > 0.6 * core_counts.back() / core_counts.front(),
               "PRETZEL throughput scales with cores (paper: linear)");
  } else {
    std::printf("  (single-core host: the paper's 1..13-core scaling sweep "
                "requires more hardware threads)\n");
  }
}

}  // namespace
}  // namespace pretzel

int main(int argc, char** argv) {
  using namespace pretzel;
  BenchFlags flags(argc, argv);
  PrintHeader("Figure 12", "Throughput scaling vs CPU cores, batch engine");
  std::printf(
      "  (PRETZEL batches go through PredictBatchAsync: a synchronous "
      "PredictBatch caller runs its own batch's chunks too, so a `cores` "
      "row would count one more computing thread)\n");

  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<size_t> core_counts;
  for (size_t c : {size_t{1}, size_t{2}, size_t{4}, size_t{8}, size_t{13}}) {
    if (c <= hw) {
      core_counts.push_back(c);
    }
  }
  const size_t batch = static_cast<size_t>(flags.GetInt("batch", 200));

  auto sa_opts = DefaultSaOptions(flags);
  sa_opts.num_pipelines = static_cast<size_t>(flags.GetInt("pipelines", 40));
  auto sa = SaWorkload::Generate(sa_opts);
  RunCategory("Sentiment Analysis (SA)", sa, batch, core_counts, 4001);

  auto ac_opts = DefaultAcOptions(flags);
  ac_opts.num_pipelines = static_cast<size_t>(flags.GetInt("pipelines", 40));
  auto ac = AcWorkload::Generate(ac_opts);
  RunCategory("Attendee Count (AC)", ac, batch, core_counts, 4002);
  return 0;
}
