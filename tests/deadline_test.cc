// Deadline propagation through the serving stack: already-expired work is
// refused at admission, queued singles expire at dispatch, batch chunks
// expire between quanta (with per-record attribution), and the binary
// framed-batch path honors the same budget. A deadline that fits changes
// nothing about the scores.
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/flour/flour.h"
#include "src/oven/model_plan.h"
#include "src/runtime/runtime.h"
#include "src/workload/ac_workload.h"
#include "src/workload/sa_workload.h"
#include "tests/test_util.h"

using namespace pretzel;

namespace {

constexpr int64_t kMs = 1'000'000;  // ns

PlanMetrics MetricsFor(Runtime& runtime, Runtime::PlanId id) {
  for (const PlanMetrics& pm : runtime.GetMetrics().plans) {
    if (pm.plan_id == id) {
      return pm;
    }
  }
  CHECK_MSG(false, "plan %zu has no metrics", id);
  return {};
}

// A small deterministic serving setup: SA pipelines, shared store/runtime.
struct Harness {
  explicit Harness(size_t executors, size_t pipelines = 2) {
    SaWorkloadOptions opts;
    opts.num_pipelines = pipelines;
    opts.char_dict_entries = 400;
    opts.word_dict_entries = 120;
    opts.vocabulary_size = 250;
    workload = SaWorkload::Generate(opts);
    RuntimeOptions ropts;
    ropts.num_executors = executors;
    runtime = std::make_unique<Runtime>(&store, ropts);
    FlourContext flour(&store);
    for (const auto& spec : workload.pipelines()) {
      auto program = flour.FromPipeline(spec);
      auto plan = Plan(*program, spec.name);
      CHECK(plan.ok());
      auto id = runtime->Register(*plan);
      CHECK(id.ok());
      ids.push_back(*id);
    }
  }
  SaWorkload workload;
  ObjectStore store;
  std::unique_ptr<Runtime> runtime;
  std::vector<Runtime::PlanId> ids;
};

// Edge case 1: a deadline already in the past is refused at every admission
// point — before any execution, queueing, or callback scheduling.
void TestExpiredAtAdmission() {
  Harness h(/*executors=*/2);
  Rng rng(11);
  const std::string input = h.workload.SampleInput(rng);
  const int64_t past = NowNs() - 5 * kMs;

  // Sync single (inline fast path).
  auto singleton = h.runtime->Predict(h.ids[0], input, past);
  CHECK(!singleton.ok());
  CHECK(singleton.status().IsDeadlineExceeded());
  CHECK(singleton.status().message().find("at admission") != std::string::npos);

  // Async single: rejected synchronously, the callback never runs.
  std::atomic<int> fired{0};
  Status submitted = h.runtime->PredictAsync(
      h.ids[0], input, [&](Result<float>, int64_t) { fired.fetch_add(1); },
      past);
  CHECK(!submitted.ok());
  CHECK(submitted.IsDeadlineExceeded());

  // Batch: the whole batch is refused and counted per record.
  std::vector<std::string> inputs(6, input);
  auto batch = h.runtime->PredictBatch(h.ids[0], inputs, 3, past);
  CHECK(!batch.ok());
  CHECK(batch.status().IsDeadlineExceeded());

  SleepUs(20'000);  // Nothing should fire late.
  CHECK_EQ(fired.load(), 0);
  const PlanMetrics pm = MetricsFor(*h.runtime, h.ids[0]);
  CHECK(pm.expired_admission >= 1 + 1 + 6);
  CHECK_EQ(pm.errors, uint64_t{0});  // Expiry is not an execution error.
}

// Blocks the sole executor for `hold_us` by parking it inside an async
// callback, guaranteeing anything submitted meanwhile sits in queue. The
// callback is a 1-record batch's: batches always run on an executor, while
// an async single on an idle group may run inline on this thread.
struct ExecutorBlocker {
  ExecutorBlocker(Runtime& runtime, Runtime::PlanId id,
                  const std::string& input, int64_t hold_us) {
    Status st = runtime.PredictBatchAsync(
        id, {input},
        [this, hold_us](Status status, std::span<const float>) {
          CHECK(status.ok());
          entered.store(true);
          SleepUs(hold_us);
          done.store(true);
        },
        /*max_batch=*/1);
    CHECK(st.ok());
    while (!entered.load()) {
      SleepUs(100);  // Wait until the executor is provably inside.
    }
  }
  std::atomic<bool> entered{false};
  std::atomic<bool> done{false};
};

// Edge case 2: queued singles — including ones the scheduler would coalesce
// into a batched-singles quantum — expire at dispatch with per-event
// callbacks, not a batch-wide error.
void TestSinglesExpireAtDispatch() {
  Harness h(/*executors=*/1);
  Rng rng(23);
  const std::string input = h.workload.SampleInput(rng);

  ExecutorBlocker blocker(*h.runtime, h.ids[0], input, /*hold_us=*/120'000);
  // Submitted while the executor is held: a 15ms budget cannot survive a
  // 120ms stall, so every one of these expires in queue.
  const int kDoomed = 5;
  std::mutex mu;
  std::condition_variable cv;
  int completed = 0;
  int expired = 0;
  const int64_t deadline = NowNs() + 15 * kMs;
  for (int i = 0; i < kDoomed; ++i) {
    Status st = h.runtime->PredictAsync(
        h.ids[1], input,
        [&](Result<float> r, int64_t) {
          std::lock_guard<std::mutex> lock(mu);
          ++completed;
          if (!r.ok() && r.status().IsDeadlineExceeded()) {
            CHECK(r.status().message().find("at dispatch") !=
                  std::string::npos);
            // Attribution: time spent queued is named in the message.
            CHECK(r.status().message().find("queued") != std::string::npos);
            ++expired;
          }
          cv.notify_one();
        },
        deadline);
    CHECK(st.ok());  // Admitted: the budget was alive at admission.
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return completed == kDoomed; });
  }
  CHECK_EQ(expired, kDoomed);
  const PlanMetrics pm = MetricsFor(*h.runtime, h.ids[1]);
  CHECK(pm.expired_dequeue >= static_cast<uint64_t>(kDoomed));
}

// Edge case 3: a chunked batch whose budget dies mid-flight — expired
// chunks complete with 0.0f scores and the batch status attributes the
// overrun to the inter-quantum wait.
void TestBatchExpiresBetweenQuanta() {
  Harness h(/*executors=*/1);
  Rng rng(37);
  const std::string input = h.workload.SampleInput(rng);

  ExecutorBlocker blocker(*h.runtime, h.ids[0], input, /*hold_us=*/120'000);
  std::vector<std::string> inputs(4, input);
  std::mutex mu;
  std::condition_variable cv;
  bool fired = false;
  Status batch_status;
  std::vector<float> scores;
  Status st = h.runtime->PredictBatchAsync(
      h.ids[1], std::move(inputs),
      [&](Status status, std::span<const float> results) {
        std::lock_guard<std::mutex> lock(mu);
        batch_status = status;
        scores.assign(results.begin(), results.end());
        fired = true;
        cv.notify_one();
      },
      /*max_batch=*/1, NowNs() + 15 * kMs);
  CHECK(st.ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return fired; });
  }
  CHECK(!batch_status.ok());
  CHECK(batch_status.IsDeadlineExceeded());
  CHECK(batch_status.message().find("between batch quanta") !=
        std::string::npos);
  CHECK_EQ(scores.size(), size_t{4});
  for (const float s : scores) {
    CHECK_NEAR(s, 0.0f, 1e-9);  // Expired records score 0, by contract.
  }
  const PlanMetrics pm = MetricsFor(*h.runtime, h.ids[1]);
  CHECK(pm.expired_quantum >= uint64_t{4});
}

// Edge case 4: the zero-parse binary framed-batch path carries the same
// deadline — refused when expired, score-identical when it fits.
void TestBinaryBatchDeadline() {
  AcWorkloadOptions opts;
  opts.num_pipelines = 1;
  opts.featurizer_trees = 6;
  opts.featurizer_depth = 4;
  opts.final_trees = 4;
  opts.final_depth = 3;
  auto ac = AcWorkload::Generate(opts);
  ObjectStore store;
  FlourContext flour(&store);
  RuntimeOptions ropts;
  ropts.num_executors = 2;
  Runtime runtime(&store, ropts);
  auto program = flour.FromPipeline(ac.pipelines()[0]);
  auto plan = Plan(*program, ac.pipelines()[0].name);
  CHECK(plan.ok());
  auto id = runtime.Register(*plan);
  CHECK(id.ok());

  Rng rng(41);
  std::string frame;
  std::vector<float> want;
  for (int i = 0; i < 8; ++i) {
    const std::string text = ac.SampleInput(rng);
    frame += AcWorkload::BinaryFromText(text);
    auto score = runtime.Predict(*id, text);
    CHECK(score.ok());
    want.push_back(*score);
  }
  const auto bytes = std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(frame.data()), frame.size());

  // Generous deadline: byte-identical behavior to the no-deadline path.
  std::vector<float> out(want.size(), -1.0f);
  Status ok_status = runtime.PredictBinary(*id, bytes, /*max_batch=*/3,
                                           std::span<float>(out),
                                           NowNs() + 2'000 * kMs);
  CHECK_MSG(ok_status.ok(), "%s", ok_status.ToString().c_str());
  for (size_t i = 0; i < want.size(); ++i) {
    CHECK_NEAR(out[i], want[i], 1e-5);
  }

  // Expired: refused at admission, outputs untouched by execution.
  std::vector<float> cold(want.size(), -7.0f);
  Status expired = runtime.PredictBinary(*id, bytes, /*max_batch=*/3,
                                         std::span<float>(cold),
                                         NowNs() - kMs);
  CHECK(!expired.ok());
  CHECK(expired.IsDeadlineExceeded());
  for (const float s : cold) {
    CHECK_NEAR(s, -7.0f, 1e-9);
  }
  const auto metrics = runtime.GetMetrics();
  CHECK(metrics.plans[0].expired_admission >= want.size());
}

// Deadline-aware admission: once the queue-delay estimate exceeds the
// remaining budget, new work is shed early (retryable ResourceExhausted)
// instead of being queued to die (late DeadlineExceeded).
void TestDoomedByEstimateShedsEarly() {
  Harness h(/*executors=*/1);
  Rng rng(53);
  const std::string input = h.workload.SampleInput(rng);

  ExecutorBlocker blocker(*h.runtime, h.ids[0], input, /*hold_us=*/100'000);
  // Build up a queue-delay estimate on plan 1: these expire at dispatch,
  // but their queue wait feeds the EWMA all the same.
  std::mutex mu;
  std::condition_variable cv;
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    Status st = h.runtime->PredictAsync(
        h.ids[1], input,
        [&](Result<float>, int64_t) {
          std::lock_guard<std::mutex> lock(mu);
          ++completed;
          cv.notify_one();
        },
        0);
    CHECK(st.ok());
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return completed == 4; });
  }
  const PlanMetrics pm = MetricsFor(*h.runtime, h.ids[1]);
  CHECK_MSG(pm.queue_delay_ewma_us > 1'000,
            "queue-delay EWMA %lld too small to drive the shed",
            static_cast<long long>(pm.queue_delay_ewma_us));

  // A hot estimate alone must NOT shed: with an empty queue the EWMA is
  // history, not forecast (a stuck valve would starve an idle plan). The
  // 20ms budget sits far below the ~100ms estimate (so only the empty-queue
  // guard admits it) yet far above a real idle dispatch (so it completes).
  {
    std::mutex m2;
    std::condition_variable cv2;
    bool idle_done = false;
    Status idle = h.runtime->PredictAsync(
        h.ids[1], input,
        [&](Result<float> r, int64_t) {
          CHECK(r.ok());
          std::lock_guard<std::mutex> lock(m2);
          idle_done = true;
          cv2.notify_one();
        },
        NowNs() + 20 * kMs);
    CHECK(idle.ok());
    std::unique_lock<std::mutex> lock(m2);
    cv2.wait(lock, [&] { return idle_done; });
  }

  // Park the executor again and put live work in the queue: NOW the
  // estimate forecasts a real wait, so a 1ms budget sheds with a hint.
  ExecutorBlocker reblock(*h.runtime, h.ids[0], input, /*hold_us=*/100'000);
  std::mutex m3;
  std::condition_variable cv3;
  int drained = 0;
  CHECK(h.runtime
            ->PredictAsync(
                h.ids[1], input,
                [&](Result<float>, int64_t) {
                  std::lock_guard<std::mutex> lock(m3);
                  ++drained;
                  cv3.notify_one();
                },
                0)
            .ok());
  Status shed;
  for (int i = 0; i < 3 && !shed.IsResourceExhausted(); ++i) {
    shed = h.runtime->PredictAsync(h.ids[1], input,
                                   [](Result<float>, int64_t) {},
                                   NowNs() + kMs);
  }
  CHECK(shed.IsResourceExhausted());
  CHECK(shed.retry_after_us() > 0);
  const PlanMetrics after = MetricsFor(*h.runtime, h.ids[1]);
  CHECK(after.shed_deadline >= 1);
  // Drain before teardown.
  std::unique_lock<std::mutex> lock(m3);
  cv3.wait(lock, [&] { return drained == 1; });
}

}  // namespace

int main() {
  TestExpiredAtAdmission();
  std::printf("TestExpiredAtAdmission: PASS\n");
  TestSinglesExpireAtDispatch();
  std::printf("TestSinglesExpireAtDispatch: PASS\n");
  TestBatchExpiresBetweenQuanta();
  std::printf("TestBatchExpiresBetweenQuanta: PASS\n");
  TestBinaryBatchDeadline();
  std::printf("TestBinaryBatchDeadline: PASS\n");
  TestDoomedByEstimateShedsEarly();
  std::printf("TestDoomedByEstimateShedsEarly: PASS\n");
  return 0;
}
