// Runtime: registration (and what it allocates), inline predict, batch
// fan-out ordering, async completion, error propagation, reservations, the
// inline-when-idle rule for async singles, caller-assisted synchronous
// batches, the batch check order, coalescing around a queued chunk, metric
// histograms that count every dispatch across Retire, and bit-exact dense
// scores on every batch path.
#include "src/runtime/runtime.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>

#include "src/common/clock.h"
#include "src/common/fault.h"
#include "src/common/serialize.h"
#include "src/flour/flour.h"
#include "src/oven/model_plan.h"
#include "src/runtime/exec_context.h"
#include "src/workload/ac_workload.h"
#include "src/workload/sa_workload.h"
#include "tests/counting_alloc.h"
#include "tests/executor_hold.h"
#include "tests/test_util.h"

using namespace pretzel;

namespace {

PlanMetrics MetricsOf(const Runtime& runtime, Runtime::PlanId id) {
  for (const PlanMetrics& pm : runtime.GetMetrics().plans) {
    if (pm.plan_id == id) {
      return pm;
    }
  }
  CHECK_MSG(false, "plan %zu has no metrics", id);
  return {};
}

// A fresh Runtime over small SA plans; `reserve_first` dedicates an
// executor to plan 0.
struct Harness {
  Harness(size_t executors, size_t pipelines, bool reserve_first = false,
          RuntimeOptions ropts = {}) {
    SaWorkloadOptions opts;
    opts.num_pipelines = pipelines;
    opts.char_dict_entries = 400;
    opts.word_dict_entries = 120;
    opts.vocabulary_size = 250;
    workload = SaWorkload::Generate(opts);
    ropts.num_executors = executors;
    runtime = std::make_unique<Runtime>(&store, ropts);
    FlourContext flour(&store);
    for (size_t i = 0; i < workload.pipelines().size(); ++i) {
      const auto& spec = workload.pipelines()[i];
      auto program = flour.FromPipeline(spec);
      auto plan = Plan(*program, spec.name);
      CHECK(plan.ok());
      PlanRegistration reg;
      reg.reserve_cores = reserve_first && i == 0 ? 1 : 0;
      auto id = runtime->Register(*plan, reg);
      CHECK(id.ok());
      ids.push_back(*id);
    }
  }
  PlanMetrics Metrics(Runtime::PlanId id) const {
    return MetricsOf(*runtime, id);
  }
  SaWorkload workload;
  ObjectStore store;
  std::unique_ptr<Runtime> runtime;
  std::vector<Runtime::PlanId> ids;
  // Short, so a quantum stays under the inline ceiling even in sanitizer
  // builds.
  std::string input = "a fine film";
};

// Completion bookkeeping for one async single.
struct Completion {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool ok = false;
  std::thread::id thread;

  void Fire(bool result_ok) {
    std::lock_guard<std::mutex> lock(mu);
    ok = result_ok;
    thread = std::this_thread::get_id();
    done = true;
    cv.notify_all();
  }
  void Await() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  }
};

// Submits one async single. True when its callback ran on this thread
// before PredictAsync returned (the inline branch); otherwise waits for
// the completion and returns false.
bool SubmitRanInline(Runtime& runtime, Runtime::PlanId id,
                     const std::string& input) {
  Completion c;
  CHECK(runtime
            .PredictAsync(id, input,
                          [&c](Result<float> r) { c.Fire(r.ok()); })
            .ok());
  bool inline_done;
  {
    std::lock_guard<std::mutex> lock(c.mu);
    inline_done = c.done && c.thread == std::this_thread::get_id();
  }
  c.Await();
  CHECK(c.ok);
  return inline_done;
}

// Executors park moments after they start or finish work; returns once an
// async single on `id` has run inline, i.e. its group is provably idle.
// Retries also ride out a transiently high exec-time EWMA (a cold first
// quantum, a descheduled caller).
void AwaitIdleGroup(Runtime& runtime, Runtime::PlanId id,
                    const std::string& input) {
  for (int attempt = 0; attempt < 2000; ++attempt) {
    if (SubmitRanInline(runtime, id, input)) {
      return;
    }
    SleepUs(1000);
  }
  CHECK_MSG(false, "plan %zu never ran inline on an idle group", id);
}

// Idle group: the callback runs on the caller's thread before PredictAsync
// returns, with the executor's accounting — enqueued_events, dispatches and
// caller_dispatches each move by exactly 1 — and the same score.
void TestIdleGroupRunsInline() {
  Harness h(/*executors=*/2, /*pipelines=*/2);
  const Runtime::PlanId id = h.ids[1];
  auto want = h.runtime->Predict(id, h.input);
  CHECK(want.ok());
  // Until the group is idle a submission may enqueue; every one that runs
  // inline must show exactly the executor's accounting.
  for (int attempt = 0; attempt < 2000; ++attempt) {
    const PlanMetrics before = h.Metrics(id);
    Completion c;
    float score = -1.0f;
    CHECK(h.runtime
              ->PredictAsync(id, h.input,
                             [&](Result<float> r) {
                               score = r.ok() ? *r : -1.0f;
                               c.Fire(r.ok());
                             })
              .ok());
    bool ran_inline;
    {
      std::lock_guard<std::mutex> lock(c.mu);
      ran_inline = c.done && c.thread == std::this_thread::get_id();
    }
    c.Await();
    CHECK(c.ok);
    CHECK_NEAR(score, *want, 1e-6);
    if (!ran_inline) {
      SleepUs(1000);
      continue;
    }
    const PlanMetrics after = h.Metrics(id);
    CHECK_EQ(after.enqueued_events, before.enqueued_events + 1);
    CHECK_EQ(after.dispatches, before.dispatches + 1);
    CHECK_EQ(after.caller_dispatches, before.caller_dispatches + 1);
    CHECK_EQ(after.coalesced_singles, before.coalesced_singles + 1);
    CHECK_EQ(after.queue_depth, size_t{0});
    CHECK_EQ(after.errors, uint64_t{0});
    return;
  }
  CHECK_MSG(false, "no async single ran inline on an idle group");
}

// Busy group: with its only executor held, singles enqueue, run on the
// executor once it frees up, and still coalesce into shared quanta.
void TestBusyGroupEnqueuesAndCoalesces() {
  Harness h(/*executors=*/1, /*pipelines=*/2);
  const Runtime::PlanId id = h.ids[1];
  constexpr int kSingles = 8;
  std::vector<std::unique_ptr<Completion>> done;
  {
    ExecutorHold hold(*h.runtime, {h.ids[0]});
    for (int i = 0; i < kSingles; ++i) {
      done.push_back(std::make_unique<Completion>());
      Completion* c = done.back().get();
      CHECK(h.runtime
                ->PredictAsync(id, h.input,
                               [c](Result<float> r) { c->Fire(r.ok()); })
                .ok());
    }
    CHECK_EQ(h.Metrics(id).queue_depth, static_cast<size_t>(kSingles));
  }
  for (auto& c : done) {
    c->Await();
    CHECK(c->ok);
    CHECK(c->thread != std::this_thread::get_id());
  }
  const PlanMetrics pm = h.Metrics(id);
  CHECK_EQ(pm.caller_dispatches, uint64_t{0});
  CHECK_EQ(pm.enqueued_events, static_cast<uint64_t>(kSingles));
  CHECK_EQ(pm.coalesced_singles, static_cast<uint64_t>(kSingles));
  CHECK_MSG(pm.dispatches < static_cast<uint64_t>(kSingles),
            "%llu dispatches for %d queued singles: no coalescing",
            static_cast<unsigned long long>(pm.dispatches), kSingles);
}

// A reserved plan keeps its isolation: its async singles always ride the
// dedicated executor, even when that executor is parked.
void TestReservedPlanNeverInline() {
  Harness h(/*executors=*/1, /*pipelines=*/2, /*reserve_first=*/true);
  AwaitIdleGroup(*h.runtime, h.ids[1], h.input);  // Shared group idle too.
  for (int i = 0; i < 20; ++i) {
    SleepUs(200);  // Let the dedicated executor park again.
    CHECK(!SubmitRanInline(*h.runtime, h.ids[0], h.input));
  }
  const PlanMetrics pm = h.Metrics(h.ids[0]);
  CHECK(pm.reserved);
  CHECK_EQ(pm.caller_dispatches, uint64_t{0});
  CHECK(pm.dispatches >= 20);
}

// A plan whose exec-time EWMA exceeds the inline ceiling enqueues even on
// an idle group. One slow quantum inflates the EWMA: the
// runtime.executor_stall fault site where fault injection is compiled in,
// else a record long enough that featurizing it takes milliseconds.
void TestSlowPlanEnqueues() {
  Harness h(/*executors=*/1, /*pipelines=*/1);
  const Runtime::PlanId id = h.ids[0];
  AwaitIdleGroup(*h.runtime, id, h.input);
#if defined(PRETZEL_FAULT_INJECT)
  fault::DisarmAll();
  fault::Spec stall;
  stall.latency_us = 2'000;
  stall.budget = 1;
  stall.arg = static_cast<int64_t>(id);
  fault::Arm("runtime.executor_stall", stall);
  const std::string slow = h.input;
#else
  std::string slow;
  while (slow.size() < (1u << 19)) {
    slow += h.input + " ";
  }
#endif
  SubmitRanInline(*h.runtime, id, slow);  // Either branch feeds the EWMA.
  fault::DisarmAll();
  const uint64_t caller_before = h.Metrics(id).caller_dispatches;
  SleepUs(2'000);  // The executor is parked again.
  CHECK(!SubmitRanInline(*h.runtime, id, h.input));
  CHECK_EQ(h.Metrics(id).caller_dispatches, caller_before);
}

// A callback that resubmits to its own plan: the resubmission comes from a
// thread already doing runtime work, so it enqueues instead of nesting — a
// 100,000-long chain completes on a flat stack.
void TestResubmittingCallbackDoesNotRecurse() {
  Harness h(/*executors=*/1, /*pipelines=*/1);
  const Runtime::PlanId id = h.ids[0];
  AwaitIdleGroup(*h.runtime, id, h.input);
  const uint64_t enqueued_before = h.Metrics(id).enqueued_events;
  constexpr int kChain = 100'000;
  std::atomic<int> fired{0};
  std::atomic<int> on_caller{0};
  std::atomic<uintptr_t> sp_lo{UINTPTR_MAX};
  std::atomic<uintptr_t> sp_hi{0};
  const std::thread::id caller = std::this_thread::get_id();
  std::function<void(Result<float>)> step = [&](Result<float> r) {
    CHECK(r.ok());
    int local = 0;
    const auto sp = reinterpret_cast<uintptr_t>(&local);
    if (std::this_thread::get_id() == caller) {
      on_caller.fetch_add(1);
    } else {
      // Executor-side frames only: they must all sit at one depth.
      sp_lo.store(std::min(sp_lo.load(), sp));
      sp_hi.store(std::max(sp_hi.load(), sp));
    }
    if (fired.fetch_add(1) + 1 < kChain) {
      CHECK(h.runtime->PredictAsync(id, h.input, step).ok());
    }
  };
  CHECK(h.runtime->PredictAsync(id, h.input, step).ok());
  while (fired.load() < kChain) {
    SleepUs(1000);
  }
  CHECK(on_caller.load() <= 1);  // Only the first ran inline.
  CHECK_MSG(sp_hi.load() - sp_lo.load() < 64 * 1024,
            "callback frames spread over %llu bytes of stack",
            static_cast<unsigned long long>(sp_hi.load() - sp_lo.load()));
  const PlanMetrics pm = h.Metrics(id);
  CHECK_EQ(pm.enqueued_events - enqueued_before, static_cast<uint64_t>(kChain));
}

// Retire racing an in-flight quantum waits for it, then drops the plan.
// Returns whether that quantum ran inline on the submitting thread.
bool RetireWaitsForQuantum(Harness& h, Runtime::PlanId id) {
  AwaitIdleGroup(*h.runtime, id, h.input);
  std::atomic<bool> entered{false};
  std::atomic<bool> retiring{false};
  std::atomic<bool> exited{false};
  std::atomic<bool> ran_inline{false};
  std::thread submitter([&] {
    const std::thread::id self = std::this_thread::get_id();
    CHECK(h.runtime
              ->PredictAsync(id, h.input,
                             [&](Result<float> r) {
                               CHECK(r.ok());
                               ran_inline.store(std::this_thread::get_id() ==
                                                self);
                               entered.store(true);
                               while (!retiring.load()) {
                                 SleepUs(100);
                               }
                               SleepUs(30'000);  // Retire must outwait this.
                               exited.store(true);
                             })
              .ok());
  });
  while (!entered.load()) {
    SleepUs(100);
  }
  retiring.store(true);
  CHECK(h.runtime->Retire(id).ok());
  CHECK(exited.load());
  submitter.join();
  CHECK(h.Metrics(id).retired);
  Status refused = h.runtime->PredictAsync(id, h.input, [](Result<float>) {});
  CHECK(refused.code() == StatusCode::kNotFound);
  return ran_inline.load();
}

// One plan per attempt (Retire is final): the idle group's next single
// almost always runs inline, and every attempt must drain either way.
void TestRetireWaitsForInlineQuantum() {
  Harness h(/*executors=*/1, /*pipelines=*/4);
  bool saw_inline = false;
  for (size_t i = 0; i < h.ids.size() && !saw_inline; ++i) {
    saw_inline = RetireWaitsForQuantum(h, h.ids[i]);
  }
  CHECK_MSG(saw_inline, "no retired quantum ran inline");
}

// A record long enough that featurizing it takes milliseconds. `salt`
// makes it unique, so no sub-plan cache entry from an earlier call can
// shortcut it.
std::string SlowRecord(const std::string& input, int salt) {
  std::string slow = "salt" + std::to_string(salt);
  while (slow.size() < (1u << 21)) {
    slow += " " + input;
  }
  return slow;
}

// Waits for `id`'s queued events — stale chunk tickets included — to drain.
PlanMetrics AwaitEmptyQueue(const Runtime& runtime, Runtime::PlanId id) {
  for (int spin = 0; spin < 20'000; ++spin) {
    PlanMetrics pm = MetricsOf(runtime, id);
    if (pm.queue_depth == 0) {
      return pm;
    }
    SleepUs(100);
  }
  CHECK_MSG(false, "plan %zu never drained its queue", id);
  return {};
}

// With the group's only executor held, a synchronous batch of 4 chunks
// completes on the calling thread: every chunk is still enqueued, the
// caller runs all 4, and the scores are bit-equal to the same batch through
// PredictBatchAsync, over every AC pipeline shape built here and all three
// synchronous entry points (span, vector-returning, binary wire). Once the
// hold lifts, the stale tickets drain with nothing recorded, and the async
// batch's chunks all run on the executor.
void TestHeldExecutorCallerRunsSyncBatch() {
  AcWorkloadOptions aopts;
  aopts.num_pipelines = 4;
  aopts.featurizer_trees = 6;
  aopts.featurizer_depth = 4;
  aopts.final_trees = 4;
  aopts.final_depth = 3;
  const AcWorkload ac = AcWorkload::Generate(aopts);
  ObjectStore store;
  RuntimeOptions ropts;
  ropts.num_executors = 1;
  Runtime runtime(&store, ropts);
  FlourContext flour(&store);
  std::vector<Runtime::PlanId> ids;
  for (const auto& spec : ac.pipelines()) {
    auto program = flour.FromPipeline(spec);
    auto plan = Plan(*program, spec.name);
    CHECK(plan.ok());
    auto id = runtime.Register(*plan);
    CHECK(id.ok());
    ids.push_back(*id);
  }
  // 32 records, max_batch 8, one executor: 4 chunks of 8.
  constexpr size_t kRecords = 32;
  constexpr size_t kMaxBatch = 8;
  constexpr uint64_t kChunks = 4;
  Rng rng(41);
  std::vector<std::string> inputs;
  std::string wire;
  for (size_t i = 0; i < kRecords; ++i) {
    inputs.push_back(ac.SampleInput(rng, WireFormat::kBinary));
    wire += inputs.back();
  }
  const std::span<const uint8_t> wire_span(
      reinterpret_cast<const uint8_t*>(wire.data()), wire.size());
  // Plan 0 holds the executor; the others are under test.
  const std::vector<Runtime::PlanId> tested(ids.begin() + 1, ids.end());
  // The three synchronous entry points: span, vector-returning, binary.
  constexpr uint64_t kSyncCalls = 3;
  std::vector<std::vector<float>> sync_scores, vector_scores, binary_scores;
  std::vector<PlanMetrics> held;
  {
    ExecutorHold hold(runtime, {ids[0]});
    for (const Runtime::PlanId id : tested) {
      const PlanMetrics before = MetricsOf(runtime, id);
      std::vector<float> out(kRecords, -1.0f);
      CHECK(runtime.PredictBatch(id, inputs, kMaxBatch, out).ok());
      auto returned = runtime.PredictBatch(id, inputs, kMaxBatch);
      CHECK(returned.ok());
      CHECK_EQ(returned->size(), kRecords);
      std::vector<float> out_binary(kRecords, -1.0f);
      CHECK(runtime.PredictBinary(id, wire_span, kMaxBatch, out_binary).ok());
      const PlanMetrics after = MetricsOf(runtime, id);
      CHECK_EQ(after.enqueued_events,
               before.enqueued_events + kSyncCalls * kChunks);
      CHECK_EQ(after.caller_dispatches,
               before.caller_dispatches + kSyncCalls * kChunks);
      CHECK_EQ(after.dispatches, before.dispatches + kSyncCalls * kChunks);
      CHECK_EQ(after.batch_records.count(),
               before.batch_records.count() + kSyncCalls * kChunks);
      // Every ticket still waits for the held executor.
      CHECK_EQ(after.queue_depth, static_cast<size_t>(kSyncCalls * kChunks));
      CHECK_EQ(after.errors, uint64_t{0});
      sync_scores.push_back(std::move(out));
      vector_scores.push_back(std::move(*returned));
      binary_scores.push_back(std::move(out_binary));
      held.push_back(after);
    }
  }
  // Stale tickets: queue occupancy settles, and nothing else moves — no
  // dispatch, no batch-size or queue-wait sample, no queue-delay sample.
  for (size_t k = 0; k < tested.size(); ++k) {
    const PlanMetrics drained = AwaitEmptyQueue(runtime, tested[k]);
    CHECK_EQ(drained.dispatches, held[k].dispatches);
    CHECK_EQ(drained.caller_dispatches, held[k].caller_dispatches);
    CHECK_EQ(drained.batch_records.count(), held[k].batch_records.count());
    CHECK_EQ(drained.queue_wait_us.count(), held[k].queue_wait_us.count());
    CHECK_EQ(drained.queue_delay_ewma_us, held[k].queue_delay_ewma_us);
  }
  // The same batch through the async path, run by the executor: every
  // chunk is enqueued and dispatched there, none by this caller.
  for (size_t k = 0; k < tested.size(); ++k) {
    const PlanMetrics before = MetricsOf(runtime, tested[k]);
    Completion c;
    std::vector<float> async_scores;
    CHECK(runtime
              .PredictBatchAsync(
                  tested[k], inputs,
                  [&](Status status, std::span<const float> scores) {
                    async_scores.assign(scores.begin(), scores.end());
                    c.Fire(status.ok());
                  },
                  kMaxBatch)
              .ok());
    c.Await();
    CHECK(c.ok);
    CHECK(c.thread != std::this_thread::get_id());
    const PlanMetrics after = MetricsOf(runtime, tested[k]);
    CHECK_EQ(after.enqueued_events, before.enqueued_events + kChunks);
    CHECK_EQ(after.dispatches, before.dispatches + kChunks);
    CHECK_EQ(after.caller_dispatches, before.caller_dispatches);
    CHECK_EQ(after.errors, uint64_t{0});
    CHECK_EQ(async_scores.size(), kRecords);
    for (size_t i = 0; i < kRecords; ++i) {
      CHECK_MSG(Bits(sync_scores[k][i]) == Bits(async_scores[i]) &&
                    Bits(vector_scores[k][i]) == Bits(async_scores[i]) &&
                    Bits(binary_scores[k][i]) == Bits(async_scores[i]),
                "plan %zu record %zu: sync %a, vector %a, binary %a, "
                "async %a",
                tested[k], i, sync_scores[k][i], vector_scores[k][i],
                binary_scores[k][i], async_scores[i]);
    }
  }
}

// The batch check order, shared by every batch entry point: an unknown
// plan is NotFound before anything else is looked at; an empty batch is OK
// and moves no counter (an async one still completes, once, with no
// scores); a narrow output span is InvalidArgument before the deadline
// gate sees the batch.
void TestBatchCheckOrder() {
  Harness h(/*executors=*/1, /*pipelines=*/1);
  const Runtime::PlanId id = h.ids[0];
  const Runtime::PlanId unknown = 9999;
  const std::vector<std::string> none;
  const std::vector<std::string> two(2, h.input);
  std::vector<float> out(2, -1.0f);
  const std::span<const uint8_t> no_records;
  const auto code = [](const Status& s) { return s.code(); };
  const auto async_batch = [&](Runtime::PlanId plan,
                               std::vector<std::string> inputs,
                               size_t* fired, size_t* scores) {
    return h.runtime->PredictBatchAsync(
        plan, std::move(inputs),
        [fired, scores](Status status, std::span<const float> s) {
          CHECK(status.ok());
          ++*fired;
          *scores = s.size();
        },
        /*max_batch=*/8);
  };

  // Unknown plan, even with an empty batch or a null async callback.
  CHECK(code(h.runtime->PredictBatch(unknown, two, 8, out)) ==
        StatusCode::kNotFound);
  CHECK(code(h.runtime->PredictBatch(unknown, none, 8, out)) ==
        StatusCode::kNotFound);
  CHECK(code(h.runtime->PredictBatch(unknown, two, 8).status()) ==
        StatusCode::kNotFound);
  CHECK(code(h.runtime->PredictBinary(unknown, no_records, 8, out)) ==
        StatusCode::kNotFound);
  CHECK(code(h.runtime->PredictBatchAsync(unknown, two, nullptr, 8)) ==
        StatusCode::kNotFound);
  size_t fired = 0, scores = 0;
  CHECK(code(async_batch(unknown, two, &fired, &scores)) ==
        StatusCode::kNotFound);
  CHECK_EQ(fired, size_t{0});

  // Empty: OK, even with an empty output span and an expired deadline, and
  // no counter moves.
  const PlanMetrics before = h.Metrics(id);
  const int64_t expired = NowNs() - 1;
  CHECK(h.runtime->PredictBatch(id, none, 8, std::span<float>(), expired)
            .ok());
  auto empty = h.runtime->PredictBatch(id, none, 8, expired);
  CHECK(empty.ok());
  CHECK(empty->empty());
  CHECK(h.runtime->PredictBinary(id, no_records, 8, {}, expired).ok());
  CHECK(async_batch(id, none, &fired, &scores).ok());
  CHECK_EQ(fired, size_t{1});
  CHECK_EQ(scores, size_t{0});
  // Narrow span: InvalidArgument, ahead of the expired deadline.
  CHECK(code(h.runtime->PredictBatch(id, two, 8, std::span<float>(out).first(1),
                                     expired)) ==
        StatusCode::kInvalidArgument);
  const std::string wire = EncodeDenseRecord(std::vector<float>(4).data(), 4) +
                           EncodeDenseRecord(std::vector<float>(4).data(), 4);
  const std::span<const uint8_t> two_records(
      reinterpret_cast<const uint8_t*>(wire.data()), wire.size());
  CHECK(code(h.runtime->PredictBinary(id, two_records, 8,
                                      std::span<float>(out).first(1),
                                      expired)) ==
        StatusCode::kInvalidArgument);
  const PlanMetrics after = h.Metrics(id);
  CHECK_EQ(after.enqueued_events, before.enqueued_events);
  CHECK_EQ(after.dispatches, before.dispatches);
  CHECK_EQ(after.caller_dispatches, before.caller_dispatches);
  CHECK_EQ(after.errors, before.errors);
  CHECK_EQ(after.expired_admission, before.expired_admission);
  CHECK_EQ(after.shed_deadline, before.shed_deadline);
  CHECK_EQ(after.batch_records.count(), before.batch_records.count());
  // The same expired deadline on a well-formed batch is refused at
  // admission, so the checks above really did come first.
  CHECK(h.runtime->PredictBatch(id, two, 8, out, expired)
            .IsDeadlineExceeded());
  CHECK_EQ(h.Metrics(id).expired_admission,
           before.expired_admission + two.size());
}

// A reserved plan keeps all its work on its dedicated executor: its
// synchronous batch never runs a chunk on the caller.
void TestReservedSyncBatchStaysOnExecutors() {
  Harness h(/*executors=*/1, /*pipelines=*/2, /*reserve_first=*/true);
  const Runtime::PlanId id = h.ids[0];
  auto scores = h.runtime->PredictBatch(
      id, std::vector<std::string>(8, h.input), /*max_batch=*/2);
  CHECK(scores.ok());
  const PlanMetrics pm = h.Metrics(id);
  CHECK(pm.reserved);
  CHECK_EQ(pm.caller_dispatches, uint64_t{0});
  CHECK_EQ(pm.enqueued_events, uint64_t{4});
  CHECK_EQ(pm.dispatches, uint64_t{4});
}

// A deadline that dies while the caller is mid-batch. With the executor
// held, the caller takes the slow tail chunk first; the budget expires
// inside it, and the three chunks left are dropped between quanta. Every
// record completes exactly once: the tail keeps its score, the rest score
// 0.0f, the batch is DeadlineExceeded, and expired_quantum counts exactly
// the dropped records.
void TestDeadlineExpiresMidCallerBatch() {
  Harness h(/*executors=*/1, /*pipelines=*/2);
  const Runtime::PlanId id = h.ids[1];
  // Time a record of the slow record's size, so the budget scales with the
  // build (sanitizers included).
  const int64_t t0 = NowNs();
  CHECK(h.runtime->Predict(id, SlowRecord(h.input, 0)).ok());
  const int64_t slow_ns = NowNs() - t0;
  const std::vector<std::string> inputs = {h.input, h.input, h.input,
                                           SlowRecord(h.input, 1)};
  std::vector<float> out(inputs.size(), -1.0f);
  const PlanMetrics before = h.Metrics(id);
  Status status;
  {
    ExecutorHold hold(*h.runtime, {h.ids[0]});
    status = h.runtime->PredictBatch(id, inputs, /*max_batch=*/1, out,
                                     NowNs() + slow_ns / 8);
  }
  CHECK_MSG(status.IsDeadlineExceeded(), "%s", status.ToString().c_str());
  const PlanMetrics after = h.Metrics(id);
  CHECK_EQ(after.caller_dispatches - before.caller_dispatches, uint64_t{4});
  CHECK_EQ(after.expired_quantum - before.expired_quantum, uint64_t{3});
  auto tail = h.runtime->Predict(id, inputs[3]);
  CHECK(tail.ok());
  CHECK_BITS(out[3], *tail);
  for (size_t i = 0; i < 3; ++i) {
    CHECK_BITS(out[i], 0.0f);
  }
  AwaitEmptyQueue(*h.runtime, id);
}

// Retire racing a synchronous batch whose caller is mid-chunk waits for the
// caller (its scores are all written when Retire returns), then drops the
// plan.
void TestRetireWaitsForHelpingCaller() {
  Harness h(/*executors=*/1, /*pipelines=*/2);
  const Runtime::PlanId id = h.ids[1];
  const std::vector<std::string> inputs = {SlowRecord(h.input, 2),
                                           SlowRecord(h.input, 3)};
  std::vector<float> out(inputs.size(), std::nanf(""));
  Status status = Status::Error("unset");
  std::thread caller([&] {
    status = h.runtime->PredictBatch(id, inputs, /*max_batch=*/1, out);
  });
  // The executor takes chunk 0 from the head; the caller takes chunk 1.
  int spin = 0;
  while (h.Metrics(id).caller_dispatches == 0 && ++spin < 100'000) {
    SleepUs(10);
  }
  CHECK_MSG(h.Metrics(id).caller_dispatches >= 1,
            "the caller never took its tail chunk");
  CHECK(h.runtime->Retire(id).ok());
  for (const float score : out) {
    CHECK(!std::isnan(score));
  }
  caller.join();
  CHECK(status.ok());
  CHECK(h.Metrics(id).retired);
  CHECK(h.runtime->PredictBatch(id, inputs, 1).status().code() ==
        StatusCode::kNotFound);
}

// A synchronous batch issued from a completion on the group's only
// executor: the caller runs every chunk itself, so the call returns instead
// of waiting on the thread that would have to run it.
void TestSyncBatchFromExecutorThread() {
  Harness h(/*executors=*/1, /*pipelines=*/2);
  Completion c;
  CHECK(h.runtime
            ->PredictBatchAsync(
                h.ids[0], {h.input},
                [&](Status, std::span<const float>) {
                  auto scores = h.runtime->PredictBatch(
                      h.ids[1], std::vector<std::string>(4, h.input),
                      /*max_batch=*/1);
                  c.Fire(scores.ok() && scores->size() == 4);
                },
                /*max_batch=*/1)
            .ok());
  c.Await();
  CHECK(c.ok);
  CHECK(c.thread != std::this_thread::get_id());
  CHECK_EQ(h.Metrics(h.ids[1]).caller_dispatches, uint64_t{4});
}

// Stale chunk tickets cost no rotation turn: an executor that pops one
// drops every stale ticket behind it in the same quantum. With the only
// executor held, a closed-loop synchronous client runs 10 batches of 4
// chunks itself, leaving 40 stale tickets on plan P; an async batch of 4
// chunks on plan A queues behind them. When the hold lifts, P's first turn
// drops all 40, so by the time A's batch completes P's queue is empty (one
// ticket per turn would leave ~36).
void TestStaleTicketsDrainInOneTurn() {
  Harness h(/*executors=*/1, /*pipelines=*/3);
  const Runtime::PlanId p = h.ids[1];
  const Runtime::PlanId a = h.ids[2];
  const std::vector<std::string> inputs(4, h.input);
  Completion c;
  size_t p_depth_at_a = 0;
  {
    ExecutorHold hold(*h.runtime, {h.ids[0]});
    for (int call = 0; call < 10; ++call) {
      CHECK(h.runtime->PredictBatch(p, inputs, /*max_batch=*/1).ok());
    }
    CHECK_EQ(h.Metrics(p).queue_depth, size_t{40});
    CHECK(h.runtime
              ->PredictBatchAsync(
                  a, inputs,
                  [&](Status status, std::span<const float>) {
                    p_depth_at_a = h.Metrics(p).queue_depth;
                    c.Fire(status.ok());
                  },
                  /*max_batch=*/1)
              .ok());
  }
  c.Await();
  CHECK(c.ok);
  CHECK_MSG(p_depth_at_a == 0,
            "%zu stale tickets still queued when A's batch completed",
            p_depth_at_a);
  const PlanMetrics pm = h.Metrics(p);
  CHECK_EQ(pm.dispatches, uint64_t{40});
  CHECK_EQ(pm.caller_dispatches, uint64_t{40});
}

// The cap counts live work only: stale chunk tickets do not count against
// it, so a closed-loop synchronous client that outruns a held executor is
// never rejected. Cap 8, 4 chunks per call: counting stale tickets would
// reject the third call.
void TestCapIgnoresStaleTickets() {
  RuntimeOptions ropts;
  ropts.max_queued_events_per_plan = 8;
  Harness h(/*executors=*/1, /*pipelines=*/2, /*reserve_first=*/false, ropts);
  const Runtime::PlanId p = h.ids[1];
  const std::vector<std::string> inputs(4, h.input);
  {
    ExecutorHold hold(*h.runtime, {h.ids[0]});
    for (int call = 0; call < 10; ++call) {
      auto scores = h.runtime->PredictBatch(p, inputs, /*max_batch=*/1);
      CHECK_MSG(scores.ok(), "call %d: %s", call,
                scores.status().ToString().c_str());
    }
    const PlanMetrics pm = h.Metrics(p);
    CHECK_EQ(pm.rejected_events, uint64_t{0});
    CHECK_EQ(pm.queue_depth, size_t{40});  // The tickets are still there.
  }
  AwaitEmptyQueue(*h.runtime, p);
}

// One executor saturated by closed-loop async batches on two other plans
// (chunks of 16 records) while a closed-loop synchronous client on plan P
// runs its own 1-record chunks.
// Under a cap of 2x its chunks per call, P is never rejected and every
// score is exact. (P's queue depth is not bounded here: while the executor
// is descheduled the client keeps running its own chunks, so the stale
// backlog tracks the host's scheduling; TestStaleTicketsDrainInOneTurn
// pins that an executor turn clears it.)
void TestSyncBatchBesideSaturatedExecutor() {
  constexpr size_t kChunks = 4;
  RuntimeOptions ropts;
  ropts.max_queued_events_per_plan = 2 * kChunks;
  Harness h(/*executors=*/1, /*pipelines=*/3, /*reserve_first=*/false, ropts);
  const std::vector<std::string> inputs(kChunks, h.input);
  auto expected = h.runtime->Predict(h.ids[0], h.input);
  CHECK(expected.ok());
  const std::vector<std::string> feed(kChunks * 16, h.input);
  std::atomic<bool> stop{false};
  std::vector<std::thread> feeders;
  for (const Runtime::PlanId id : {h.ids[1], h.ids[2]}) {
    feeders.emplace_back([&, id] {
      while (!stop.load()) {
        Completion c;
        CHECK(h.runtime
                  ->PredictBatchAsync(
                      id, feed,
                      [&](Status status, std::span<const float>) {
                        c.Fire(status.ok());
                      },
                      /*max_batch=*/16)
                  .ok());
        c.Await();
        CHECK(c.ok);
      }
    });
  }
  const Runtime::PlanId p = h.ids[0];
  for (int call = 0; call < 400; ++call) {
    std::vector<float> out(kChunks, -1.0f);
    Status status = h.runtime->PredictBatch(p, inputs, /*max_batch=*/1, out);
    CHECK_MSG(status.ok(), "call %d: %s", call, status.ToString().c_str());
    for (const float score : out) {
      CHECK_BITS(score, *expected);
    }
  }
  stop.store(true);
  for (auto& feeder : feeders) {
    feeder.join();
  }
  CHECK_EQ(h.Metrics(p).rejected_events, uint64_t{0});
  AwaitEmptyQueue(*h.runtime, p);
}

// A chunk the coalescing loop meets at the cursor stays there for the
// plan's next quantum. With the only executor held, plan P queues 3 async
// singles, an async batch of 2 one-record chunks, then 2 more singles; on
// release the executor runs the 3 singles as one quantum, then each chunk,
// then the last 2 singles as one quantum.
void TestChunkAtCursorWaitsForNextQuantum() {
  Harness h(/*executors=*/1, /*pipelines=*/2);
  const Runtime::PlanId p = h.ids[1];
  std::mutex mu;
  std::vector<std::string> order;
  const auto record = [&](std::string what) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(std::move(what));
  };
  std::vector<std::unique_ptr<Completion>> singles;
  const auto single = [&] {
    singles.push_back(std::make_unique<Completion>());
    Completion* c = singles.back().get();
    const std::string name = "s" + std::to_string(singles.size());
    CHECK(h.runtime
              ->PredictAsync(p, h.input,
                             [&record, c, name](Result<float> r) {
                               record(name);
                               c->Fire(r.ok());
                             })
              .ok());
  };
  Completion batch;
  {
    ExecutorHold hold(*h.runtime, {h.ids[0]});
    single();
    single();
    single();
    CHECK(h.runtime
              ->PredictBatchAsync(
                  p, {h.input, h.input},
                  [&](Status status, std::span<const float>) {
                    record("batch");
                    batch.Fire(status.ok());
                  },
                  /*max_batch=*/1)
              .ok());
    single();
    single();
    const PlanMetrics queued = h.Metrics(p);
    CHECK_EQ(queued.queue_depth, size_t{7});
    CHECK_EQ(queued.queued_chunks, size_t{2});
  }
  batch.Await();
  CHECK(batch.ok);
  for (auto& c : singles) {
    c->Await();
    CHECK(c->ok);
  }
  const std::vector<std::string> want = {"s1", "s2", "s3", "batch", "s4",
                                         "s5"};
  CHECK(order == want);
  const PlanMetrics pm = h.Metrics(p);
  CHECK_EQ(pm.dispatches, uint64_t{4});
  CHECK_EQ(pm.coalesced_singles, uint64_t{5});
  CHECK_EQ(pm.queue_depth, size_t{0});
  CHECK_EQ(pm.queued_chunks, size_t{0});
  // Batch sizes 1 twice, 2 once and 3 once: the four nearest ranks.
  CHECK_EQ(pm.batch_records.count(), uint64_t{4});
  CHECK_EQ(pm.batch_records.Percentile(25), 1.0);
  CHECK_EQ(pm.batch_records.Percentile(50), 1.0);
  CHECK_EQ(pm.batch_records.Percentile(75), 2.0);
  CHECK_EQ(pm.batch_records.Percentile(100), 3.0);
}

// Registering a plan allocates its scheduler bookkeeping (queue head,
// counters, metric histograms, name) and no per-plan event storage: events
// live only in the segments their enqueue calls allocate.
void TestRegisterAllocationBound() {
  Harness h(/*executors=*/1, /*pipelines=*/1);
  const auto& spec = h.workload.pipelines()[0];
  FlourContext flour(&h.store);
  auto program = flour.FromPipeline(spec);
  auto plan = Plan(*program, spec.name);
  CHECK(plan.ok());
  std::shared_ptr<ModelPlan> given = std::move(*plan);
  t_alloc_bytes = 0;
  t_count_allocs = true;
  auto id = h.runtime->Register(std::move(given));
  t_count_allocs = false;
  CHECK(id.ok());
  std::printf("  Register allocated %zu bytes beyond its plan\n",
              t_alloc_bytes);
  CHECK_MSG(t_alloc_bytes < 4096, "Register allocated %zu bytes",
            t_alloc_bytes);
}

// The metric histograms are lifetime counts: over more than 4096 dispatches
// of one plan (inline async singles, executor singles queued behind a held
// executor, and the one-record chunks of a synchronous batch),
// batch_records and queue_wait_us each count exactly `dispatches`,
// single_latency_us every singles dispatch, and batch_records' bucket
// midpoints sum to the records served within Histogram::kRelativeError.
// Retire keeps all of it readable, unchanged.
void TestHistogramsCountEveryDispatch() {
  Harness h(/*executors=*/1, /*pipelines=*/2);
  const Runtime::PlanId p = h.ids[1];
  constexpr uint64_t kInlineSingles = 600;
  constexpr uint64_t kQueuedSingles = 200;
  constexpr uint64_t kChunks = 4000;  // One record each.
  AwaitIdleGroup(*h.runtime, p, h.input);
  const PlanMetrics idle = h.Metrics(p);
  for (uint64_t i = 0; i < kInlineSingles; ++i) {
    (void)SubmitRanInline(*h.runtime, p, h.input);
  }
  std::vector<std::unique_ptr<Completion>> queued;
  {
    ExecutorHold hold(*h.runtime, {h.ids[0]});
    for (uint64_t i = 0; i < kQueuedSingles; ++i) {
      queued.push_back(std::make_unique<Completion>());
      Completion* c = queued.back().get();
      CHECK(h.runtime
                ->PredictAsync(p, h.input,
                               [c](Result<float> r) { c->Fire(r.ok()); })
                .ok());
    }
  }
  for (auto& c : queued) {
    c->Await();
    CHECK(c->ok);
  }
  const std::vector<std::string> inputs(kChunks, h.input);
  CHECK(h.runtime->PredictBatch(p, inputs, /*max_batch=*/1).ok());
  const PlanMetrics before = AwaitEmptyQueue(*h.runtime, p);
  const uint64_t records = idle.dispatches + kInlineSingles + kQueuedSingles +
                           kChunks;  // AwaitIdleGroup's singles ran alone.
  CHECK(before.dispatches > 4096);
  CHECK_EQ(before.errors, uint64_t{0});
  CHECK_EQ(before.batch_records.count(), before.dispatches);
  CHECK_EQ(before.queue_wait_us.count(), before.dispatches);
  CHECK_EQ(before.single_latency_us.count(), before.dispatches - kChunks);
  const double served = before.batch_records.Mean() *
                        static_cast<double>(before.batch_records.count());
  CHECK_MSG(std::fabs(served - static_cast<double>(records)) <=
                Histogram::kRelativeError * static_cast<double>(records),
            "batch records sum to %.1f, served %llu", served,
            static_cast<unsigned long long>(records));

  CHECK(h.runtime->Retire(p).ok());
  const PlanMetrics after = h.Metrics(p);
  CHECK(after.retired);
  CHECK_EQ(after.dispatches, before.dispatches);
  CHECK_EQ(after.caller_dispatches, before.caller_dispatches);
  CHECK_EQ(after.enqueued_events, before.enqueued_events);
  CHECK_EQ(after.coalesced_singles, before.coalesced_singles);
  CHECK_EQ(after.inline_predictions, before.inline_predictions);
  CHECK_EQ(after.rejected_events, before.rejected_events);
  CHECK_EQ(after.errors, before.errors);
  CHECK_EQ(after.expired_admission + after.expired_dequeue +
               after.expired_quantum + after.shed_deadline,
           uint64_t{0});
  CHECK_EQ(after.queue_delay_ewma_us, before.queue_delay_ewma_us);
  CHECK_EQ(after.batch_records.count(), before.batch_records.count());
  CHECK_EQ(after.queue_wait_us.count(), before.queue_wait_us.count());
  CHECK_EQ(after.single_latency_us.count(), before.single_latency_us.count());
  CHECK_EQ(after.batch_records.Mean(), before.batch_records.Mean());
  std::printf("  %llu dispatches, %.1f of %llu records by histogram\n",
              static_cast<unsigned long long>(after.dispatches), served,
              static_cast<unsigned long long>(records));
}

// Every dense path scores with the per-record kernels: an AC synchronous
// batch whose caller runs all its chunks (the executor is held), and a
// coalesced group of async dense singles run by the executor, both return
// each record's ExecutePlan score bit for bit. Text and binary records
// alternate.
void TestDenseBatchPathsMatchExecutePlan() {
  constexpr size_t kRecords = 16;
  constexpr size_t kMaxBatch = 4;
  AcWorkloadOptions aopts;
  aopts.num_pipelines = 2;
  const AcWorkload ac = AcWorkload::Generate(aopts);
  ObjectStore store;
  RuntimeOptions ropts;
  ropts.num_executors = 1;
  Runtime runtime(&store, ropts);
  FlourContext flour(&store);
  std::vector<std::shared_ptr<ModelPlan>> plans;
  std::vector<Runtime::PlanId> ids;
  for (const auto& spec : ac.pipelines()) {
    auto program = flour.FromPipeline(spec);
    auto plan = Plan(*program, spec.name);
    CHECK(plan.ok());
    plans.push_back(*plan);
    auto id = runtime.Register(*plan);
    CHECK(id.ok());
    ids.push_back(*id);
  }
  Rng rng(53);
  std::vector<std::string> inputs;
  std::vector<float> expected;
  VectorPool pool;
  ExecContext ctx(&pool);
  for (size_t i = 0; i < kRecords; ++i) {
    inputs.push_back(ac.SampleInput(
        rng, i % 2 == 0 ? WireFormat::kText : WireFormat::kBinary));
    auto r = ExecutePlan(*plans[1], inputs.back(), ctx);
    CHECK(r.ok());
    expected.push_back(*r);
  }
  const Runtime::PlanId id = ids[1];
  std::vector<float> singles(kRecords, -1.0f);
  std::vector<std::unique_ptr<Completion>> done;
  {
    ExecutorHold hold(runtime, {ids[0]});
    std::vector<float> out(kRecords, -1.0f);
    CHECK(runtime.PredictBatch(id, inputs, kMaxBatch, out).ok());
    CHECK_EQ(MetricsOf(runtime, id).caller_dispatches,
             uint64_t{kRecords / kMaxBatch});
    for (size_t i = 0; i < kRecords; ++i) {
      CHECK_BITS(out[i], expected[i]);
    }
    // Queued behind the hold, so they coalesce once it lifts.
    for (size_t i = 0; i < kRecords; ++i) {
      done.push_back(std::make_unique<Completion>());
      Completion* c = done.back().get();
      CHECK(runtime
                .PredictAsync(id, inputs[i],
                              [&singles, c, i](Result<float> r) {
                                if (r.ok()) {
                                  singles[i] = *r;
                                }
                                c->Fire(r.ok());
                              })
                .ok());
    }
  }
  for (auto& c : done) {
    c->Await();
    CHECK(c->ok);
  }
  const PlanMetrics pm = MetricsOf(runtime, id);
  CHECK_EQ(pm.coalesced_singles, uint64_t{kRecords});
  CHECK_MSG(pm.dispatches - pm.caller_dispatches < kRecords,
            "%llu executor dispatches for %zu queued singles: no coalescing",
            static_cast<unsigned long long>(pm.dispatches -
                                            pm.caller_dispatches),
            kRecords);
  for (size_t i = 0; i < kRecords; ++i) {
    CHECK_BITS(singles[i], expected[i]);
  }
}

}  // namespace

int main() {
  SaWorkloadOptions opts;
  opts.num_pipelines = 4;
  opts.char_dict_entries = 500;
  opts.word_dict_entries = 150;
  opts.vocabulary_size = 300;
  auto sa = SaWorkload::Generate(opts);

  ObjectStore store;
  FlourContext flour(&store);
  RuntimeOptions ropts;
  ropts.num_executors = 2;
  Runtime runtime(&store, ropts);

  std::vector<Runtime::PlanId> ids;
  for (size_t i = 0; i < sa.pipelines().size(); ++i) {
    auto program = flour.FromPipeline(sa.pipelines()[i]);
    auto plan = Plan(*program, sa.pipelines()[i].name);
    CHECK(plan.ok());
    PlanRegistration reg;
    if (i == 0) {
      reg.reserve_cores = 1;  // Reserved plan: dedicated executor.
    }
    auto id = runtime.Register(*plan, reg);
    CHECK(id.ok());
    ids.push_back(*id);
  }
  CHECK_EQ(runtime.reservations().size(), size_t{1});
  CHECK_EQ(runtime.reservations()[0].plan_id, ids[0]);

  // Inline predict matches direct plan execution.
  VectorPool pool;
  ExecContext ctx(&pool);
  Rng rng(7);
  {
    auto program = flour.FromPipeline(sa.pipelines()[1]);
    auto plan = Plan(*program, "direct");
    const std::string input = sa.SampleInput(rng);
    auto direct = ExecutePlan(**plan, input, ctx);
    auto served = runtime.Predict(ids[1], input);
    CHECK(direct.ok() && served.ok());
    CHECK_NEAR(*served, *direct, 1e-6);
  }

  // Unknown plan id fails cleanly.
  CHECK(!runtime.Predict(9999, "x").ok());

  // Batch: scores come back in input order, equal to one-at-a-time scores.
  {
    std::vector<std::string> inputs;
    for (int i = 0; i < 37; ++i) {
      inputs.push_back(sa.SampleInput(rng));
    }
    auto batch = runtime.PredictBatch(ids[2], inputs, /*max_batch=*/8);
    CHECK(batch.ok());
    CHECK_EQ(batch->size(), inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
      auto single = runtime.Predict(ids[2], inputs[i]);
      CHECK(single.ok());
      CHECK_NEAR((*batch)[i], *single, 1e-6);
    }
    // Empty batch completes immediately.
    auto empty = runtime.PredictBatch(ids[2], {}, 8);
    CHECK(empty.ok());
    CHECK(empty->empty());
  }

  // Async: callback fires exactly once, including for the reserved plan.
  {
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<int> fired{0};
    int pending = 2;
    for (const Runtime::PlanId id : {ids[0], ids[3]}) {
      std::vector<std::string> inputs(5, sa.SampleInput(rng));
      Status st = runtime.PredictBatchAsync(
          id, std::move(inputs),
          [&](Status status, std::span<const float> results) {
            CHECK(status.ok());
            CHECK_EQ(results.size(), size_t{5});
            fired.fetch_add(1);
            std::lock_guard<std::mutex> lock(mu);
            if (--pending == 0) {
              cv.notify_one();
            }
          },
          2);
      CHECK(st.ok());
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return pending == 0; });
    CHECK_EQ(fired.load(), 2);
  }

  // Reserved sync Predict rides the dedicated queue (no reservation bypass)
  // and still matches direct execution.
  {
    auto program = flour.FromPipeline(sa.pipelines()[0]);
    auto plan = Plan(*program, "direct0");
    const std::string input = sa.SampleInput(rng);
    auto direct = ExecutePlan(**plan, input, ctx);
    auto served = runtime.Predict(ids[0], input);
    CHECK(direct.ok() && served.ok());
    CHECK_NEAR(*served, *direct, 1e-6);
  }

  // Metrics: the scheduler exposes per-plan counters, and a default Runtime
  // has the sub-plan materialization cache active in the serving path.
  {
    // The sync waiter above wakes before its executor records the latency
    // sample (samples land after the callback), so give that write a
    // bounded window to flush instead of racing it.
    RuntimeMetrics m = runtime.GetMetrics();
    for (int spin = 0;
         m.plans[ids[0]].single_latency_us.empty() && spin < 2000; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      m = runtime.GetMetrics();
    }
    CHECK_EQ(m.plans.size(), ids.size());
    const PlanMetrics& reserved = m.plans[ids[0]];
    CHECK(reserved.reserved);
    CHECK_EQ(reserved.inline_predictions, uint64_t{0});  // Sync rode the queue.
    CHECK(reserved.enqueued_events > 0);
    CHECK(reserved.dispatches > 0);
    CHECK(!reserved.batch_records.empty());
    CHECK(!reserved.single_latency_us.empty());
    CHECK(!reserved.queue_wait_us.empty());
    CHECK_EQ(reserved.errors, uint64_t{0});
    const PlanMetrics& unreserved = m.plans[ids[1]];
    CHECK(!unreserved.reserved);
    CHECK(unreserved.inline_predictions > 0);  // Inline fast path kept.
    // The async batches above repeated one input 5x, so the executor-owned
    // caches saw both misses (insertions) and hits.
    CHECK(m.subplan_cache.lookups > 0);
    CHECK(m.subplan_cache.insertions > 0);
    CHECK(m.subplan_cache.hits > 0);
    CHECK(m.subplan_cache_bytes > 0);
    CHECK(m.subplan_cache_entries > 0);
  }

  TestIdleGroupRunsInline();
  TestBusyGroupEnqueuesAndCoalesces();
  TestReservedPlanNeverInline();
  TestSlowPlanEnqueues();
  TestResubmittingCallbackDoesNotRecurse();
  TestRetireWaitsForInlineQuantum();
  TestHeldExecutorCallerRunsSyncBatch();
  TestBatchCheckOrder();
  TestReservedSyncBatchStaysOnExecutors();
  TestDeadlineExpiresMidCallerBatch();
  TestRetireWaitsForHelpingCaller();
  TestSyncBatchFromExecutorThread();
  TestStaleTicketsDrainInOneTurn();
  TestCapIgnoresStaleTickets();
  TestSyncBatchBesideSaturatedExecutor();
  TestChunkAtCursorWaitsForNextQuantum();
  TestRegisterAllocationBound();
  TestHistogramsCountEveryDispatch();
  TestDenseBatchPathsMatchExecutePlan();

  std::printf("runtime_test: PASS\n");
  return 0;
}
