// Event-driven per-plan scheduler: exactly-once callbacks under per-record
// errors, no head-of-line blocking across plans, reserved-plan isolation
// under shared-pool saturation, backpressure (Runtime and FrontEnd caps),
// and a Register-while-predicting race (run under TSan in CI).
#include <array>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/flour/flour.h"
#include "src/frontend/backends.h"
#include "src/frontend/frontend.h"
#include "src/oven/model_plan.h"
#include "src/runtime/runtime.h"
#include "src/workload/ac_workload.h"
#include "src/workload/sa_workload.h"
#include "tests/test_util.h"

using namespace pretzel;

namespace {

SaWorkload SmallSa(size_t pipelines) {
  SaWorkloadOptions opts;
  opts.num_pipelines = pipelines;
  opts.char_dict_entries = 400;
  opts.word_dict_entries = 120;
  opts.vocabulary_size = 250;
  return SaWorkload::Generate(opts);
}

std::vector<Runtime::PlanId> RegisterAll(Runtime& runtime, FlourContext& flour,
                                         const SaWorkload& sa,
                                         size_t reserve_first_cores) {
  std::vector<Runtime::PlanId> ids;
  for (size_t i = 0; i < sa.pipelines().size(); ++i) {
    auto program = flour.FromPipeline(sa.pipelines()[i]);
    auto plan = Plan(*program, sa.pipelines()[i].name);
    CHECK(plan.ok());
    PlanRegistration reg;
    if (i == 0) {
      reg.reserve_cores = reserve_first_cores;
    }
    auto id = runtime.Register(*plan, reg);
    CHECK(id.ok());
    ids.push_back(*id);
  }
  return ids;
}

// A batch with failing records completes exactly once, with an error status
// and with the healthy records still scored; a failing single's callback
// also fires exactly once.
void TestErrorCallbackExactlyOnce() {
  AcWorkloadOptions opts;
  opts.num_pipelines = 2;
  opts.featurizer_trees = 8;
  opts.final_trees = 6;
  auto ac = AcWorkload::Generate(opts);

  ObjectStore store;
  FlourContext flour(&store);
  RuntimeOptions ropts;
  ropts.num_executors = 2;
  Runtime runtime(&store, ropts);
  auto program = flour.FromPipeline(ac.pipelines()[0]);
  auto id = runtime.Register(*Plan(*program, "ac0"));
  CHECK(id.ok());

  Rng rng(11);
  std::vector<std::string> inputs;
  for (int i = 0; i < 10; ++i) {
    // Records 3, 6, 9 are malformed (too narrow for the pipeline).
    inputs.push_back(i % 3 == 0 && i > 0 ? "1.0,2.0" : ac.SampleInput(rng));
  }
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<int> fired{0};
  bool done = false;
  Status batch_status;
  size_t batch_size = 0;
  Status st = runtime.PredictBatchAsync(
      *id, inputs,
      [&](Status status, std::span<const float> results) {
        fired.fetch_add(1);
        std::lock_guard<std::mutex> lock(mu);
        batch_status = std::move(status);
        batch_size = results.size();
        done = true;
        cv.notify_one();
      },
      /*max_batch=*/2);
  CHECK(st.ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  }
  // Give any duplicate invocation a window to show up.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  CHECK_EQ(fired.load(), 1);
  CHECK(!batch_status.ok());
  CHECK_EQ(batch_size, inputs.size());

  // Failing async single: callback fires exactly once with the error.
  std::atomic<int> single_fired{0};
  bool single_done = false;
  Status single_status;
  st = runtime.PredictAsync(*id, "nope", [&](Result<float> r, int64_t) {
    single_fired.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    single_status = r.status();
    single_done = true;
    cv.notify_one();
  });
  CHECK(st.ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return single_done; });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  CHECK_EQ(single_fired.load(), 1);
  CHECK(!single_status.ok());

  const RuntimeMetrics m = runtime.GetMetrics();
  CHECK(m.plans[*id].errors >= 4);  // 3 batch records + 1 single.
}

// Round-robin across plan queues: singles enqueued AFTER a huge batch on
// another plan finish long before the batch does.
void TestNoHeadOfLineBlocking() {
  auto sa = SmallSa(2);
  ObjectStore store;
  FlourContext flour(&store);
  RuntimeOptions ropts;
  ropts.num_executors = 1;  // One executor: interleaving is pure scheduling.
  // No cache: identical batch records must cost real work, or the batch
  // drains too fast for the interleaving assertion to observe anything.
  ropts.subplan_cache_bytes = 0;
  Runtime runtime(&store, ropts);
  auto ids = RegisterAll(runtime, flour, sa, /*reserve_first_cores=*/0);

  Rng rng(21);
  std::vector<std::string> big(5000, sa.SampleInput(rng));
  std::mutex mu;
  std::condition_variable cv;
  bool batch_done = false;
  int64_t batch_done_ns = 0;
  Status st = runtime.PredictBatchAsync(
      ids[0], std::move(big),
      [&](Status status, std::span<const float>) {
        CHECK(status.ok());
        std::lock_guard<std::mutex> lock(mu);
        batch_done_ns = NowNs();
        batch_done = true;
        cv.notify_one();
      },
      /*max_batch=*/64);
  CHECK(st.ok());

  const int kSingles = 40;
  std::atomic<int> singles_left{kSingles};
  std::atomic<int64_t> last_single_ns{0};
  bool singles_done = false;
  for (int i = 0; i < kSingles; ++i) {
    Status s = runtime.PredictAsync(ids[1], sa.SampleInput(rng),
                                    [&](Result<float> r, int64_t) {
                                      CHECK(r.ok());
                                      last_single_ns.store(NowNs());
                                      if (singles_left.fetch_sub(1) == 1) {
                                        std::lock_guard<std::mutex> lock(mu);
                                        singles_done = true;
                                        cv.notify_one();
                                      }
                                    });
    CHECK(s.ok());
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return batch_done && singles_done; });
  }
  // The singles (enqueued second) must complete before the 5000-record
  // batch: they interleave per quantum instead of waiting it out.
  CHECK_MSG(last_single_ns.load() < batch_done_ns,
            "singles finished %.2fms after the batch",
            (last_single_ns.load() - batch_done_ns) / 1e6);

  const RuntimeMetrics m = runtime.GetMetrics();
  CHECK(m.plans[ids[0]].dispatches >= 5000 / 64);  // Chunked, not monolithic.
}

// With the shared pool saturated by batch work, a reserved plan's sync
// predictions are served by its dedicated executor — accounted against the
// reserved queue, never inline, and done while the shared backlog persists.
void TestReservedIsolationUnderSaturation() {
  auto sa = SmallSa(4);
  ObjectStore store;
  FlourContext flour(&store);
  RuntimeOptions ropts;
  ropts.num_executors = 1;
  // No cache: the repeated-input backlog must cost real work so the shared
  // pool stays saturated while the reserved predictions run.
  ropts.subplan_cache_bytes = 0;
  Runtime runtime(&store, ropts);
  auto ids = RegisterAll(runtime, flour, sa, /*reserve_first_cores=*/1);
  CHECK_EQ(runtime.reservations().size(), size_t{1});

  Rng rng(31);
  std::mutex mu;
  std::condition_variable cv;
  int batches_left = 3;
  for (size_t p = 1; p <= 3; ++p) {
    std::vector<std::string> inputs(20000, sa.SampleInput(rng));
    Status st = runtime.PredictBatchAsync(
        ids[p], std::move(inputs),
        [&](Status status, std::span<const float>) {
          CHECK(status.ok());
          std::lock_guard<std::mutex> lock(mu);
          if (--batches_left == 0) {
            cv.notify_one();
          }
        },
        /*max_batch=*/64);
    CHECK(st.ok());
  }

  const int kPredicts = 30;
  for (int i = 0; i < kPredicts; ++i) {
    auto r = runtime.Predict(ids[0], sa.SampleInput(rng));
    CHECK(r.ok());
  }
  // All reserved predictions are done; the shared pool must still be
  // backlogged (the reserved executor did not wait behind it).
  const RuntimeMetrics mid = runtime.GetMetrics();
  size_t shared_backlog = 0;
  for (size_t p = 1; p <= 3; ++p) {
    shared_backlog += mid.plans[ids[p]].queue_depth;
  }
  CHECK_MSG(shared_backlog > 0,
            "shared pool drained before the reserved predicts finished");
  const PlanMetrics& reserved = mid.plans[ids[0]];
  CHECK_EQ(reserved.inline_predictions, uint64_t{0});
  CHECK_EQ(reserved.enqueued_events, uint64_t{kPredicts});
  // Latency samples flush after the waiter wakes, so the newest predict's
  // sample may not have landed yet.
  CHECK(reserved.single_latency_us.count() >= size_t{kPredicts - 1});
  CHECK(reserved.single_latency_us.count() <= size_t{kPredicts});

  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return batches_left == 0; });
}

// Backpressure: a per-plan event cap rejects oversized submissions with
// ResourceExhausted and surfaces the drop count in metrics.
void TestRuntimeBackpressure() {
  auto sa = SmallSa(1);
  ObjectStore store;
  FlourContext flour(&store);
  RuntimeOptions ropts;
  ropts.num_executors = 1;
  ropts.max_queued_events_per_plan = 4;
  Runtime runtime(&store, ropts);
  auto ids = RegisterAll(runtime, flour, sa, 0);

  Rng rng(41);
  // 1000 records at max_batch 64 => 16 chunk events > cap 4: rejected whole.
  std::vector<std::string> inputs(1000, sa.SampleInput(rng));
  Status st = runtime.PredictBatchAsync(
      ids[0], std::move(inputs),
      [](Status, std::span<const float>) {
        CHECK_MSG(false, "rejected batch must not invoke its callback");
      },
      64);
  CHECK(st.IsResourceExhausted());
  // The rejection carries a retry-after hint (the plan's queue-delay
  // estimate, floored at 1us so presence is testable).
  CHECK_MSG(st.retry_after_us() >= 1, "rejection carried no retry-after");
  // A small batch still fits.
  auto ok = runtime.PredictBatch(ids[0], {sa.SampleInput(rng)}, 4);
  CHECK(ok.ok());
  const RuntimeMetrics m = runtime.GetMetrics();
  CHECK(m.plans[ids[0]].rejected_events >= 16);
  CHECK(m.plans[ids[0]].queue_delay_ewma_us >= 0);
}

// Deep backlog through the plan's event queue, a chain of per-event nodes
// (Vyukov intrusive MPSC): every callback still fires exactly once, in
// order per producer. Run under TSan in CI.
void TestEventChainDeepBacklog() {
  auto sa = SmallSa(2);
  ObjectStore store;
  FlourContext flour(&store);
  RuntimeOptions ropts;
  ropts.num_executors = 2;
  Runtime runtime(&store, ropts);
  auto ids = RegisterAll(runtime, flour, sa, /*reserve_first_cores=*/0);

  constexpr size_t kProducers = 4;
  constexpr size_t kPerProducer = 2000;
  std::atomic<size_t> completed{0};
  std::vector<std::array<std::atomic<uint32_t>, kPerProducer>> fired(kProducers);
  for (auto& per_producer : fired) {
    for (auto& f : per_producer) {
      f.store(0);
    }
  }
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(61 + p);
      for (size_t i = 0; i < kPerProducer; ++i) {
        Status st = runtime.PredictAsync(
            ids[(p + i) % ids.size()], sa.SampleInput(rng),
            [&, p, i](Result<float> r, int64_t) {
              CHECK(r.ok());
              CHECK_EQ(fired[p][i].exchange(1), uint32_t{0});  // Exactly once.
              completed.fetch_add(1);
            });
        CHECK(st.ok());
        // A mid-stream batch sends chunk events through the same queue.
        if (i % 512 == 0) {
          auto batch = runtime.PredictBatch(
              ids[p % ids.size()],
              std::vector<std::string>(20, sa.SampleInput(rng)), 4);
          CHECK(batch.ok());
        }
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  while (completed.load() < kProducers * kPerProducer) {
    std::this_thread::yield();
  }
  for (auto& per_producer : fired) {
    for (auto& f : per_producer) {
      CHECK_EQ(f.load(), uint32_t{1});  // None lost in the chain.
    }
  }
}

// FrontEnd admission control: over max_pending in-flight async requests,
// RequestAsync fails fast with ResourceExhausted and counts the drop.
void TestFrontEndBackpressure() {
  struct GatedBackend : Backend {
    std::mutex mu;
    std::condition_variable cv;
    bool open = false;
    Result<float> Predict(const std::string&, std::string_view,
                          int64_t) override {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [this] { return open; });
      return 0.5f;
    }
    void Open() {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
      cv.notify_all();
    }
  } backend;

  FrontEndOptions fopts;
  fopts.network_delay_us = 0;
  fopts.num_io_threads = 1;
  fopts.max_pending = 4;
  FrontEnd frontend(&backend, fopts);

  std::mutex mu;
  std::condition_variable cv;
  int completions = 0;
  size_t admitted = 0, rejected = 0;
  for (int i = 0; i < 10; ++i) {
    Status st = frontend.RequestAsync("m", "x", [&](Result<float> r) {
      CHECK(r.ok());
      std::lock_guard<std::mutex> lock(mu);
      ++completions;
      cv.notify_one();
    });
    if (st.ok()) {
      ++admitted;
    } else {
      CHECK(st.IsResourceExhausted());
      CHECK_MSG(st.retry_after_us() >= 1,
                "frontend drop carried no retry-after");
      ++rejected;
    }
  }
  CHECK_EQ(admitted, size_t{4});  // Exactly max_pending admitted.
  CHECK_EQ(rejected, size_t{6});
  CHECK_EQ(frontend.dropped(), uint64_t{6});
  backend.Open();
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return completions == 4; });
}

// Registration races serving: new plans (reserved and not) appear while
// other threads predict sync, async, and batched on existing ones.
void TestRegisterWhilePredicting() {
  auto sa = SmallSa(8);
  ObjectStore store;
  RuntimeOptions ropts;
  ropts.num_executors = 2;
  Runtime runtime(&store, ropts);
  FlourContext flour(&store);
  auto ids = RegisterAll(runtime, flour, sa, 0);

  std::atomic<bool> registering{true};
  std::atomic<size_t> outstanding{0};
  std::thread registrar([&] {
    FlourContext local_flour(&store);
    for (int i = 0; i < 40; ++i) {
      const auto& spec = sa.pipelines()[i % sa.pipelines().size()];
      auto program = local_flour.FromPipeline(spec);
      PlanRegistration reg;
      reg.reserve_cores = i % 8 == 0 ? 1 : 0;
      auto id = runtime.Register(*Plan(*program, spec.name), reg);
      CHECK(id.ok());
      auto r = runtime.Predict(*id, "warm");
      CHECK(r.ok());
    }
    registering.store(false);
  });
  std::thread sync_caller([&] {
    Rng rng(51);
    while (registering.load()) {
      auto r = runtime.Predict(ids[0], sa.SampleInput(rng));
      CHECK(r.ok());
    }
  });
  std::thread async_caller([&] {
    Rng rng(52);
    while (registering.load()) {
      outstanding.fetch_add(1);
      Status st = runtime.PredictAsync(ids[1], sa.SampleInput(rng),
                                       [&](Result<float> r, int64_t) {
                                         CHECK(r.ok());
                                         outstanding.fetch_sub(1);
                                       });
      CHECK(st.ok());
      auto batch = runtime.PredictBatch(
          ids[2], std::vector<std::string>(6, sa.SampleInput(rng)), 2);
      CHECK(batch.ok());
    }
  });
  registrar.join();
  sync_caller.join();
  async_caller.join();
  while (outstanding.load() > 0) {
    std::this_thread::yield();
  }
  CHECK(runtime.GetMetrics().plans.size() >= size_t{48});
}

}  // namespace

int main() {
  TestErrorCallbackExactlyOnce();
  TestNoHeadOfLineBlocking();
  TestReservedIsolationUnderSaturation();
  TestRuntimeBackpressure();
  TestEventChainDeepBacklog();
  TestFrontEndBackpressure();
  TestRegisterWhilePredicting();
  std::printf("scheduler_test: PASS\n");
  return 0;
}
