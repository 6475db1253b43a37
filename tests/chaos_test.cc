// Chaos suite: every fault-injection site in src/ armed deterministically,
// with the serving invariants asserted under fire — exactly-once completion,
// bounded in-flight, and recovery to baseline once the fault clears. Built
// only under -DPRETZEL_FAULT_INJECT=ON (CI runs it in Release, and under
// ASan and TSan);
// tools/lint_invariants.py enforces that every site named in src/ appears
// here. Sites covered:
//   runtime.pool_exhausted     — vector-pool acquires take the miss path
//   runtime.executor_stall     — a quantum stalls before dispatching (also
//                                under concurrent caller-assisted batches,
//                                and as a canary's latency regression)
//   serving.shard_unresponsive — a shard faults every request it is routed
//                                (also under a canary deployed there)
//   serialize.corrupt_record   — binary records arrive failing validation
//   ops.slow_kernel            — plan execution stalls inside the operator
//   oven.compile_fail          — a versioned deploy's compile blows up
//   store.swap_stall           — version reclamation stalls before draining
// and, with no fault armed, exactly-once completion through a plan's event
// queue while its executors are held, and a same-spec canary whose requests
// queue behind a held executor surviving to Promote.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/fault.h"
#include "src/common/rng.h"
#include "src/flour/flour.h"
#include "src/oven/model_plan.h"
#include "src/runtime/runtime.h"
#include "src/serving/shard_router.h"
#include "src/workload/ac_workload.h"
#include "src/workload/load_gen.h"
#include "src/workload/sa_workload.h"
#include "tests/executor_hold.h"
#include "tests/test_util.h"

#if !defined(PRETZEL_FAULT_INJECT)
#error "chaos_test requires -DPRETZEL_FAULT_INJECT=ON"
#endif

using namespace pretzel;

namespace {

constexpr int64_t kMs = 1'000'000;  // ns

SaWorkload SmallSa(size_t pipelines) {
  SaWorkloadOptions opts;
  opts.num_pipelines = pipelines;
  opts.char_dict_entries = 400;
  opts.word_dict_entries = 120;
  opts.vocabulary_size = 250;
  return SaWorkload::Generate(opts);
}

// One runtime, every SA pipeline registered. Each scenario builds a fresh
// harness AFTER disarming, so construction never runs under fire.
struct Harness {
  explicit Harness(size_t executors, size_t pipelines,
                   RuntimeOptions ropts = {})
      : workload(SmallSa(pipelines)) {
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

PlanMetrics MetricsFor(Runtime& runtime, Runtime::PlanId id) {
  for (const PlanMetrics& pm : runtime.GetMetrics().plans) {
    if (pm.plan_id == id) {
      return pm;
    }
  }
  CHECK_MSG(false, "plan %zu has no metrics", id);
  return {};
}

// Completion rendezvous for async scenarios.
struct Waiter {
  std::mutex mu;
  std::condition_variable cv;
  size_t done = 0;
  void Signal() {
    std::lock_guard<std::mutex> lock(mu);
    ++done;
    cv.notify_all();
  }
  void Await(size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done >= n; });
  }
};

// The seam itself: for a fixed seed the decision stream is a pure function
// of the hit index, budgets cap fires exactly, and arg filters discriminate.
void TestDeterministicDecisions() {
  fault::DisarmAll();
  const char* kSite = "test.determinism";

  auto run_stream = [&](uint64_t seed) {
    fault::DisarmAll();
    fault::SetSeed(seed);
    fault::Spec spec;
    spec.probability = 0.5;
    fault::Arm(kSite, spec);
    std::vector<bool> decisions;
    for (int i = 0; i < 256; ++i) {
      decisions.push_back(fault::Hit(kSite));
    }
    return decisions;
  };
  const auto first = run_stream(0xC0FFEE);
  const auto second = run_stream(0xC0FFEE);
  CHECK(first == second);  // Same seed, same stream — bit for bit.
  size_t fired = 0;
  for (const bool b : first) {
    fired += b ? 1 : 0;
  }
  // p = 0.5 over 256 draws: 5 sigma is 40 — both tails prove the
  // probability knob is neither stuck-off nor stuck-on.
  CHECK_MSG(fired > 88 && fired < 168, "p=0.5 fired %zu/256 times", fired);
  const auto other_seed = run_stream(0xBADF00D);
  CHECK(first != other_seed);  // The seed actually matters.

  // Budgets are exact: 3 fires out of any number of eligible hits.
  fault::DisarmAll();
  fault::Spec budgeted;
  budgeted.budget = 3;
  fault::Arm(kSite, budgeted);
  size_t granted = 0;
  for (int i = 0; i < 50; ++i) {
    granted += fault::Hit(kSite) ? 1 : 0;
  }
  CHECK_EQ(granted, size_t{3});
  CHECK_EQ(fault::Fires(kSite), uint64_t{3});

  // Arg filters: spec.arg pins the site to one discriminator value.
  fault::DisarmAll();
  fault::Spec pinned;
  pinned.arg = 2;
  fault::Arm(kSite, pinned);
  CHECK(!fault::Hit(kSite, 1));
  CHECK(fault::Hit(kSite, 2));
  fault::DisarmAll();
}

// The one event queue, with no fault armed: both executors held while
// Zipf-skewed async singles arrive, so every request queues as its own
// node behind the others. Each must complete exactly once with the
// correct score, and plain predictions score the same afterwards.
void TestHeldQueueExactlyOnce() {
  fault::DisarmAll();
  Harness h(2, 4);
  const std::string input = "service was outstanding and the food dreadful";
  std::vector<float> baseline;
  for (const auto id : h.ids) {
    auto r = h.runtime->Predict(id, input);
    CHECK(r.ok());
    baseline.push_back(*r);
  }

  constexpr size_t kRequests = 200;
  const auto models = ZipfModelSequence(h.ids.size(), kRequests, 2.0, 7);
  std::vector<std::atomic<int>> completions(kRequests);
  Waiter waiter;
  {
    // Both executors held while the requests arrive, so every one queues.
    ExecutorHold hold(*h.runtime, {h.ids[0], h.ids[1]});
    for (size_t i = 0; i < kRequests; ++i) {
      const size_t m = models[i];
      const float expect = baseline[m];
      auto status = h.runtime->PredictAsync(
          h.ids[m], input, [&, i, expect](Result<float> r, int64_t) {
            CHECK(r.ok());
            CHECK_NEAR(*r, expect, 1e-6);
            completions[i].fetch_add(1);
            waiter.Signal();
          });
      CHECK(status.ok());
    }
  }
  waiter.Await(kRequests);
  for (size_t i = 0; i < kRequests; ++i) {
    CHECK_EQ(completions[i].load(), 1);  // Exactly once, never zero or twice.
  }
  for (size_t m = 0; m < h.ids.size(); ++m) {
    auto r = h.runtime->Predict(h.ids[m], input);
    CHECK(r.ok());
    CHECK_NEAR(*r, baseline[m], 1e-6);
  }
}

// runtime.pool_exhausted: acquires see an empty free list and take the
// allocation-miss path. Correctness must not depend on the pool; the miss
// counter books every faulted acquire; hits resume after disarm. Uses the
// dense AC family — sparse SA scoring never touches the float pool.
void TestPoolExhaustedMissPath() {
  fault::DisarmAll();
  AcWorkloadOptions aopts;
  aopts.num_pipelines = 1;
  aopts.featurizer_trees = 6;
  aopts.featurizer_depth = 4;
  aopts.final_trees = 4;
  aopts.final_depth = 3;
  auto ac = AcWorkload::Generate(aopts);
  ObjectStore store;
  FlourContext flour(&store);
  RuntimeOptions ropts;
  ropts.num_executors = 1;
  Runtime runtime(&store, ropts);
  auto program = flour.FromPipeline(ac.pipelines()[0]);
  auto plan = Plan(*program, ac.pipelines()[0].name);
  CHECK(plan.ok());
  auto id = runtime.Register(*plan);
  CHECK(id.ok());

  Rng rng(17);
  const std::string input = ac.SampleInput(rng);
  auto baseline = runtime.Predict(*id, input);
  CHECK(baseline.ok());

  // Pool-level: a released buffer would normally be re-acquired as a hit;
  // under the fault the same acquire takes the miss path, still returning a
  // usable buffer. (End-to-end predicts only reach the pool on cold
  // contexts — warm ExecContexts keep their leased storage — so the site's
  // accounting is pinned here, at the code that actually runs.)
  VectorPool pool{VectorPool::Options{}};
  pool.ReleaseFloats(pool.AcquireFloats(64));
  fault::Arm("runtime.pool_exhausted", fault::Spec{});
  std::vector<float> faulted = pool.AcquireFloats(64);
  CHECK_EQ(faulted.size(), size_t{64});
  CHECK_EQ(pool.GetStats().misses, uint64_t{2});  // Cold miss + faulted miss.
  CHECK_EQ(pool.GetStats().hits, uint64_t{0});
  CHECK(fault::Fires("runtime.pool_exhausted") > 0);

  // End-to-end: scores cannot depend on where buffers come from.
  for (int i = 0; i < 20; ++i) {
    auto r = runtime.Predict(*id, input);
    CHECK(r.ok());
    CHECK_NEAR(*r, *baseline, 1e-6);
  }

  fault::DisarmAll();
  // Recovery: the free list serves again.
  pool.ReleaseFloats(std::move(faulted));
  pool.ReleaseFloats(pool.AcquireFloats(64));
  CHECK(pool.GetStats().hits >= 1);
  CHECK(runtime.Predict(*id, input).ok());
}

// runtime.executor_stall: quanta stall while producers flood one plan with
// a tight queue cap. In-flight work stays bounded by the cap (observed
// queue depth never exceeds it, backpressure rejections occur), and every
// admitted request completes exactly once.
void TestExecutorStallBoundedInFlight() {
  fault::DisarmAll();
  RuntimeOptions ropts;
  ropts.max_queued_events_per_plan = 8;
  Harness h(1, 1, ropts);
  const std::string input = "stalled but never unbounded";
  auto baseline = h.runtime->Predict(h.ids[0], input);
  CHECK(baseline.ok());

  fault::Spec stall;
  stall.latency_us = 2'000;
  stall.budget = 16;  // Long enough to flood against, bounded so we drain.
  fault::Arm("runtime.executor_stall", stall);

  constexpr size_t kFlood = 120;
  std::vector<std::atomic<int>> completions(kFlood);
  Waiter waiter;
  size_t accepted = 0;
  size_t rejected = 0;
  size_t max_observed_depth = 0;
  for (size_t i = 0; i < kFlood; ++i) {
    auto status = h.runtime->PredictAsync(
        h.ids[0], input, [&, i](Result<float> r, int64_t) {
          CHECK(r.ok());
          completions[i].fetch_add(1);
          waiter.Signal();
        });
    if (status.ok()) {
      ++accepted;
    } else {
      CHECK(status.IsResourceExhausted());  // The only rejection reason.
      CHECK(status.retry_after_us() >= 0);
      ++rejected;
    }
    const size_t depth = MetricsFor(*h.runtime, h.ids[0]).queue_depth;
    max_observed_depth = std::max(max_observed_depth, depth);
  }
  CHECK_MSG(rejected > 0, "flood of %zu never hit the cap", kFlood);
  CHECK_EQ(accepted + rejected, kFlood);
  CHECK_MSG(max_observed_depth <= ropts.max_queued_events_per_plan,
            "queue depth reached %zu with cap %zu", max_observed_depth,
            ropts.max_queued_events_per_plan);
  waiter.Await(accepted);
  for (size_t i = 0; i < kFlood; ++i) {
    CHECK(completions[i].load() <= 1);  // Rejected requests never complete,
  }
  size_t total = 0;  // admitted ones complete exactly once.
  for (size_t i = 0; i < kFlood; ++i) {
    total += static_cast<size_t>(completions[i].load());
  }
  CHECK_EQ(total, accepted);
  CHECK(fault::Fires("runtime.executor_stall") > 0);

  fault::DisarmAll();
  auto r = h.runtime->Predict(h.ids[0], input);
  CHECK(r.ok());
  CHECK_NEAR(*r, *baseline, 1e-6);
}

// runtime.executor_stall under concurrent synchronous batches: executors
// stall mid-quantum while three callers each take their own batches' chunks
// from the job's cursor beside them, under a queue cap. Every batch
// completes exactly once with exact scores — each of its chunks ran once,
// whoever took it (dispatches == chunks submitted, and no ticket is left
// once the executors pop the exhausted ones). Live work is the callers'
// untaken chunks, at most 12 in flight, under the cap of 16, so no batch is
// rejected however many exhausted tickets the stalls leave queued.
void TestExecutorStallUnderSyncBatches() {
  fault::DisarmAll();
  RuntimeOptions ropts;
  ropts.max_queued_events_per_plan = 16;
  Harness h(2, 1, ropts);
  const Runtime::PlanId id = h.ids[0];
  // Long records, and below a per-record ops.slow_kernel stall, so a chunk
  // outlasts an executor's wake-up and the executors win (and stall on)
  // some chunks in every build: without it, a Release build's callers
  // often took every chunk first.
  Rng rng(0x5B);
  std::vector<std::string> inputs(8);
  for (std::string& input : inputs) {
    for (int k = 0; k < 24; ++k) {
      input += h.workload.SampleInput(rng) + " ";
    }
  }
  std::vector<float> baseline;
  for (const std::string& input : inputs) {
    auto r = h.runtime->Predict(id, input);
    CHECK(r.ok());
    baseline.push_back(*r);
  }

  fault::Spec stall;
  stall.latency_us = 1'000;
  stall.budget = 48;
  fault::Arm("runtime.executor_stall", stall);
  fault::Spec slow;
  slow.latency_us = 200;
  fault::Arm("ops.slow_kernel", slow);

  constexpr int kCallers = 3;
  constexpr int kBatches = 20;
  constexpr size_t kMaxBatch = 2;  // 8 records: 4 chunks per batch.
  constexpr uint64_t kChunks = 4;
  std::atomic<uint64_t> accepted{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int b = 0; b < kBatches; ++b) {
        std::vector<float> out(inputs.size(), -1.0f);
        const Status status = h.runtime->PredictBatch(id, inputs, kMaxBatch,
                                                      std::span<float>(out));
        CHECK_MSG(status.ok(), "%s", status.ToString().c_str());
        accepted.fetch_add(1);
        for (size_t i = 0; i < inputs.size(); ++i) {
          CHECK_MSG(out[i] == baseline[i], "record %zu: %a, want %a", i,
                    out[i], baseline[i]);
        }
      }
    });
  }
  for (std::thread& caller : callers) {
    caller.join();
  }
  CHECK_EQ(accepted.load(), static_cast<uint64_t>(kCallers * kBatches));
  CHECK(fault::Fires("runtime.executor_stall") > 0);

  fault::DisarmAll();
  PlanMetrics pm = MetricsFor(*h.runtime, id);
  for (int spin = 0;
       (pm.queue_depth > 0 || pm.batch_tickets > 0) && spin < 20'000;
       ++spin) {
    SleepUs(100);
    pm = MetricsFor(*h.runtime, id);
  }
  CHECK_EQ(pm.queue_depth, size_t{0});
  CHECK_EQ(pm.batch_tickets, size_t{0});
  CHECK_EQ(pm.enqueued_events, kChunks * accepted.load());
  CHECK_EQ(pm.rejected_events, uint64_t{0});
  CHECK_EQ(pm.dispatches, kChunks * accepted.load());
  CHECK(pm.caller_dispatches > 0);
  CHECK(pm.caller_dispatches < pm.dispatches);  // The executors ran some.
  CHECK_EQ(pm.errors, uint64_t{0});
}

// serving.shard_unresponsive: one shard faults every routed request. The
// breaker trips after the failure threshold, the hot plan fails over to a
// healthy shard (bounded by the migration budget), open-circuit requests
// fail fast with a retry hint — and once the fault clears, half-open
// probes close the breaker again.
void TestShardBreakerTripFailoverRecover() {
  fault::DisarmAll();
  ShardRouterOptions sopts;
  sopts.num_shards = 3;
  sopts.runtime.num_executors = 1;
  sopts.breaker.failure_threshold = 3;
  sopts.breaker.cooldown_us = 50'000;
  sopts.breaker.probe_quota = 2;
  sopts.max_failover_placements = 1;  // Only the first victim migrates.
  ShardRouter router(sopts);
  auto sa = SmallSa(9);
  for (const auto& spec : sa.pipelines()) {
    CHECK(router.Place(spec).ok());
  }
  const std::string input = "unresponsive shard, responsive system";
  // Pick two plans on the same shard: one to migrate, one to ride out the
  // outage in place.
  const size_t sick = router.Placement(sa.pipelines()[0].name)->shard;
  std::string mover = sa.pipelines()[0].name;
  std::string stayer;
  for (const auto& spec : sa.pipelines()) {
    if (spec.name != mover && router.Placement(spec.name)->shard == sick) {
      stayer = spec.name;
      break;
    }
  }
  CHECK_MSG(!stayer.empty(), "no second plan landed on shard %zu", sick);

  fault::Spec down;
  down.latency_us = 100;
  down.arg = static_cast<int64_t>(sick);
  fault::Arm("serving.shard_unresponsive", down);

  // Failures accumulate until the breaker trips...
  for (size_t i = 0; i < sopts.breaker.failure_threshold; ++i) {
    auto r = router.Predict(mover, input);
    CHECK(!r.ok());
    CHECK_EQ(static_cast<int>(r.status().code()),
             static_cast<int>(StatusCode::kError));
  }
  CHECK(router.breaker(sick).state() == CircuitBreaker::State::kOpen);
  (void)router.MaintainReplication();  // Opens a fresh hotness interval.
  // ...then the next request fails over and succeeds on a healthy shard.
  auto moved = router.Predict(mover, input);
  CHECK(moved.ok());
  CHECK(router.Placement(mover)->shard != sick);
  // The failed-over request re-routed once, but it is one request: it
  // counts once in its plan's hotness share.
  CHECK_EQ(router.MaintainReplication().interval_requests, uint64_t{1});
  // The migration budget is spent: the stayer fails fast (no 100us stall,
  // no executor touched) with a retry hint, instead of failing over too.
  auto fast_fail = router.Predict(stayer, input);
  CHECK(!fast_fail.ok());
  CHECK(fast_fail.status().IsResourceExhausted());
  CHECK(fast_fail.status().retry_after_us() > 0);
  CHECK_EQ(router.Placement(stayer)->shard, sick);

  const auto metrics = router.GetMetrics();
  const auto& sick_health = metrics.shard_health[sick];
  CHECK(sick_health.errors >= sopts.breaker.failure_threshold);
  CHECK(sick_health.trips >= 1);
  CHECK_EQ(sick_health.failovers, uint64_t{1});
  CHECK(sick_health.rejected >= 1);
  CHECK(sick_health.failure_ewma > 0.0);
  CHECK(fault::Fires("serving.shard_unresponsive") >=
        sopts.breaker.failure_threshold);

  // Recovery: fault cleared, cooldown elapsed — half-open probes succeed
  // and close the breaker; the stayer serves from its original shard.
  fault::DisarmAll();
  SleepUs(static_cast<int64_t>(sopts.breaker.cooldown_us) + 10'000);
  for (int i = 0; i < 8 &&
                  router.breaker(sick).state() != CircuitBreaker::State::kClosed;
       ++i) {
    auto probe = router.Predict(stayer, input);
    CHECK(probe.ok());  // The shard was only fault-sick, never broken.
  }
  CHECK(router.breaker(sick).state() == CircuitBreaker::State::kClosed);
  for (const auto& spec : sa.pipelines()) {
    CHECK(router.Predict(spec.name, input).ok());
  }
}

// serialize.corrupt_record: binary records fail validation at parse. The
// rejection is InvalidArgument — a caller-visible data error that must NOT
// feed the breaker (a poisoned client would otherwise take the shard down
// for everyone) — and clean records parse again once the budget is spent.
void TestCorruptRecordRejectedWithoutTrip() {
  fault::DisarmAll();
  ShardRouterOptions sopts;
  sopts.num_shards = 1;
  sopts.runtime.num_executors = 1;
  ShardRouter router(sopts);
  auto sa = SmallSa(1);
  CHECK(router.Place(sa.pipelines()[0]).ok());
  const std::string& name = sa.pipelines()[0].name;

  Rng rng(99);
  const std::string record = sa.SampleInput(rng, WireFormat::kBinary, 0);
  auto as_span = [&record] {
    return std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(record.data()), record.size());
  };
  auto baseline = router.PredictBinary(name, as_span());
  CHECK(baseline.ok());

  fault::Spec corrupt;
  corrupt.budget = 2;
  fault::Arm("serialize.corrupt_record", corrupt);
  for (int i = 0; i < 2; ++i) {
    auto r = router.PredictBinary(name, as_span());
    CHECK(!r.ok());
    CHECK_EQ(static_cast<int>(r.status().code()),
             static_cast<int>(StatusCode::kInvalidArgument));
  }
  // Budget spent: the same bytes parse clean again (it was never the data).
  auto after = router.PredictBinary(name, as_span());
  CHECK(after.ok());
  CHECK_NEAR(*after, *baseline, 1e-6);
  CHECK_EQ(fault::Fires("serialize.corrupt_record"), uint64_t{2});

  // Caller errors are not shard faults: breaker closed, zero errors booked.
  const auto health = router.GetMetrics().shard_health[0];
  CHECK(health.breaker_state == CircuitBreaker::State::kClosed);
  CHECK_EQ(health.errors, uint64_t{0});
  CHECK_EQ(health.trips, uint64_t{0});
  fault::DisarmAll();
}

// ops.slow_kernel: execution stalls inside the operator. A deadlined batch
// loses its remaining quanta (expired records, DeadlineExceeded), while an
// undeadlined request just runs slow — and the same batch fits its budget
// again once the stall clears.
void TestSlowKernelExpiresQuanta() {
  fault::DisarmAll();
  Harness h(1, 1);
  const std::string input = "slow is fine, late is not";
  auto baseline = h.runtime->Predict(h.ids[0], input);
  CHECK(baseline.ok());

  fault::Spec slow;
  slow.latency_us = 30'000;
  fault::Arm("ops.slow_kernel", slow);

  // No deadline: slow but correct.
  auto slow_ok = h.runtime->Predict(h.ids[0], input);
  CHECK(slow_ok.ok());
  CHECK_NEAR(*slow_ok, *baseline, 1e-6);

  // Deadlined batch, max_batch=1: the first 30ms quantum eats the 10ms
  // budget, so the later records expire between quanta.
  const std::vector<std::string> inputs(4, input);
  Waiter waiter;
  Status batch_status;
  size_t scores_seen = 0;
  auto cb = [&](Status status, std::span<const float> scores) {
    batch_status = status;
    scores_seen = scores.size();
    waiter.Signal();
  };
  CHECK(h.runtime
            ->PredictBatchAsync(h.ids[0], inputs, cb, /*max_batch=*/1,
                                NowNs() + 10 * kMs)
            .ok());
  waiter.Await(1);
  CHECK(batch_status.IsDeadlineExceeded());
  CHECK_EQ(scores_seen, inputs.size());
  CHECK(MetricsFor(*h.runtime, h.ids[0]).expired_quantum >= 1);
  CHECK(fault::Fires("ops.slow_kernel") > 0);

  fault::DisarmAll();
  // Recovery: the identical deadlined batch now completes in budget.
  Waiter again;
  Status healthy_status = Status::Error("unset");
  auto cb2 = [&](Status status, std::span<const float>) {
    healthy_status = status;
    again.Signal();
  };
  CHECK(h.runtime
            ->PredictBatchAsync(h.ids[0], inputs, cb2, /*max_batch=*/1,
                                NowNs() + 200 * kMs)
            .ok());
  again.Await(1);
  CHECK(healthy_status.ok());
}

// serving.shard_unresponsive under a canary: the shard hosting both the
// canary and the stable primary goes down. Once its breaker opens, the
// canary's share of requests falls through to the stable version, which
// fails over once; every later request scores as stable, the canary takes
// no more traffic, and Rollback still returns the canary's bytes.
void TestCanaryOnTrippedShard() {
  fault::DisarmAll();
  ShardRouterOptions sopts;
  sopts.num_shards = 2;
  sopts.runtime.num_executors = 1;
  sopts.rollout.canary_fraction_bp = 5000;
  sopts.breaker.failure_threshold = 3;
  sopts.breaker.cooldown_us = 60'000'000;  // No half-open probe mid-test.
  ShardRouter router(sopts);
  auto sa = SmallSa(6);
  for (const auto& spec : sa.pipelines()) {
    CHECK(router.Place(spec).ok());
  }
  const PipelineSpec& target = sa.pipelines()[0];
  const size_t sick = router.Placement(target.name)->shard;
  // v2 takes the linear weights of a plan homed on the other shard, so its
  // scores differ from v1's and its compile adds bytes to `sick`.
  PipelineSpec v2 = target;
  for (const auto& spec : sa.pipelines()) {
    if (router.Placement(spec.name)->shard != sick) {
      v2.nodes[4].params = spec.nodes[4].params;
      break;
    }
  }
  CHECK(v2.nodes[4].params != target.nodes[4].params);
  Rng rng(67);
  const std::string input = sa.SampleInput(rng);
  auto stable = router.Predict(target.name, input);
  CHECK(stable.ok());
  const size_t sick_bytes = router.GetMetrics().shards[sick].store_bytes;
  CHECK(router.Deploy(v2).ok());
  CHECK(router.GetMetrics().shards[sick].store_bytes > sick_bytes);
  for (int i = 0; i < 16; ++i) {
    CHECK(router.Predict(target.name, input).ok());
  }
  CHECK(router.VersionInfo(target.name)->canary_routed > 0);

  fault::Spec down;
  down.latency_us = 100;
  down.arg = static_cast<int64_t>(sick);
  fault::Arm("serving.shard_unresponsive", down);
  for (size_t i = 0; i < sopts.breaker.failure_threshold; ++i) {
    auto r = router.Predict(target.name, input);
    CHECK(!r.ok());
    CHECK_EQ(static_cast<int>(r.status().code()),
             static_cast<int>(StatusCode::kError));
  }
  CHECK(router.breaker(sick).state() == CircuitBreaker::State::kOpen);
  const uint64_t canary_seen = router.VersionInfo(target.name)->canary_routed;

  for (int i = 0; i < 200; ++i) {
    auto r = router.Predict(target.name, input);
    CHECK(r.ok());
    CHECK_EQ(*r, *stable);
  }
  const auto info = router.VersionInfo(target.name);
  CHECK(info->rollout_in_flight);
  CHECK_EQ(info->canary_fraction_bp, uint32_t{5000});  // Never killed.
  CHECK_EQ(info->canary_routed, canary_seen);
  CHECK(router.Placement(target.name)->shard != sick);
  const ShardedMetrics tripped = router.GetMetrics();
  CHECK_EQ(tripped.shard_health[sick].failovers, uint64_t{1});
  CHECK_EQ(fault::Fires("serving.shard_unresponsive"),
           uint64_t{sopts.breaker.failure_threshold});

  // The canary's registration lives on the tripped shard; its teardown
  // needs no request to reach it.
  CHECK(router.Rollback(target.name).ok());
  const ShardedMetrics after = router.GetMetrics();
  for (size_t shard = 0; shard < sopts.num_shards; ++shard) {
    CHECK_EQ(after.shards[shard].store_bytes,
             shard == sick ? sick_bytes : tripped.shards[shard].store_bytes);
  }
  auto served = router.Predict(target.name, input);
  CHECK(served.ok());
  CHECK_EQ(*served, *stable);
  fault::DisarmAll();
}

// oven.compile_fail under a flash crowd: versioned deploys blow up in the
// Oven while predictors hammer the plan. Every failed Deploy must surface
// as a clean error with the live version untouched — zero dropped requests,
// zero torn scores, ObjectStore bytes exactly where they started (the
// aborted compile's intern pins are unwound) — and once the fault budget is
// spent, the SAME deploy succeeds and promotes under the same load.
void TestCompileFailDeployKeepsServing() {
  fault::DisarmAll();
  ShardRouterOptions sopts;
  sopts.num_shards = 2;
  sopts.runtime.num_executors = 1;
  sopts.rollout.canary_fraction_bp = 5000;
  ShardRouter router(sopts);
  auto sa = SmallSa(4);
  for (const auto& spec : sa.pipelines()) {
    CHECK(router.Place(spec).ok());
  }
  const PipelineSpec& target = sa.pipelines()[0];
  Rng rng(41);
  std::vector<std::string> inputs;
  std::vector<float> expected;
  for (int i = 0; i < 4; ++i) {
    inputs.push_back(sa.SampleInput(rng));
    auto score = router.Predict(target.name, inputs.back());
    CHECK(score.ok());
    expected.push_back(*score);
  }
  const size_t baseline_bytes = router.GetMetrics().store_bytes;

  // The flash crowd: requests must keep completing, exactly scored, across
  // every failed deploy and through the eventual promote.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> crowd_ok{0};
  std::vector<std::thread> crowd;
  for (int t = 0; t < 3; ++t) {
    crowd.emplace_back([&, t] {
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t which = (static_cast<size_t>(t) + i++) % inputs.size();
        auto got = router.Predict(target.name, inputs[which]);
        CHECK(got.ok());  // Zero dropped requests, ever.
        CHECK_EQ(*got, expected[which]);
        crowd_ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  fault::SetSeed(0x5EED);
  fault::Spec boom;
  boom.budget = 3;
  fault::Arm("oven.compile_fail", boom);
  for (int i = 0; i < 3; ++i) {
    auto failed = router.Deploy(target);
    CHECK(!failed.ok());
    CHECK_EQ(static_cast<int>(failed.status().code()),
             static_cast<int>(StatusCode::kError));
    auto info = router.VersionInfo(target.name);
    CHECK(info.ok());
    CHECK(!info->rollout_in_flight);  // The blown deploy left no residue...
    CHECK_EQ(info->active_version, uint64_t{1});  // ...and the live version
  }                                               // never moved.
  CHECK_EQ(fault::Fires("oven.compile_fail"), uint64_t{3});
  CHECK_EQ(router.GetMetrics().store_bytes, baseline_bytes);  // Pins unwound.

  // Budget spent: the identical deploy now lands and promotes under load.
  auto deployed = router.Deploy(target);
  CHECK(deployed.ok());
  CHECK(router.Promote(target.name).ok());
  const uint64_t before_settle = crowd_ok.load(std::memory_order_relaxed);
  while (crowd_ok.load(std::memory_order_relaxed) < before_settle + 50) {
    std::this_thread::yield();  // The crowd keeps scoring on the new version.
  }
  stop.store(true);
  for (auto& thread : crowd) {
    thread.join();
  }
  auto info = router.VersionInfo(target.name);
  CHECK_EQ(info->active_version, *deployed);
  CHECK_EQ(router.GetMetrics().store_bytes, baseline_bytes);
  CHECK_EQ(router.GetMetrics().deploys, uint64_t{1});  // Failures don't count.
  fault::DisarmAll();
}

// Health-gated auto-rollback: a canary whose shard faults every request it
// serves must be killed by the rollout controller — from the data path,
// with no operator in the loop. The kill switch fires once the canary's
// failure EWMA crosses the gate with enough routed signal, the rollout is
// reclaimed, and the stable version is still version 1 when the dust
// settles.
void TestCanaryAutoRollbackOnFaults() {
  fault::DisarmAll();
  ShardRouterOptions sopts;
  sopts.num_shards = 1;
  sopts.runtime.num_executors = 1;
  sopts.rollout.canary_fraction_bp = 5000;
  sopts.rollout.min_canary_requests = 8;
  // Keep the breaker out of the story: this scenario is about the VERSION
  // health gate, not the shard one.
  sopts.breaker.failure_threshold = 100000;
  ShardRouter router(sopts);
  auto sa = SmallSa(2);
  for (const auto& spec : sa.pipelines()) {
    CHECK(router.Place(spec).ok());
  }
  const PipelineSpec& target = sa.pipelines()[0];
  Rng rng(47);
  const std::string input = sa.SampleInput(rng);
  auto baseline = router.Predict(target.name, input);
  CHECK(baseline.ok());
  CHECK(router.Deploy(target).ok());

  fault::Spec down;
  down.latency_us = 50;
  fault::Arm("serving.shard_unresponsive", down);

  // Drive faulting traffic until the controller pulls the canary. Every
  // request errors (the whole shard is sick) — what matters is that the
  // canary's share of them trips the version gate.
  bool rolled_back = false;
  for (int i = 0; i < 400 && !rolled_back; ++i) {
    auto r = router.Predict(target.name, input);
    CHECK(!r.ok());
    rolled_back = !router.VersionInfo(target.name)->rollout_in_flight;
  }
  CHECK_MSG(rolled_back, "400 faulted requests never tripped the rollback");
  const auto metrics = router.GetMetrics();
  CHECK_EQ(metrics.auto_rollbacks, uint64_t{1});
  CHECK_EQ(metrics.rollbacks, uint64_t{1});
  auto info = router.VersionInfo(target.name);
  CHECK_EQ(info->active_version, uint64_t{1});  // Stable never moved.

  // Fault cleared: version 1 serves, scored exactly as before the deploy.
  fault::DisarmAll();
  auto after = router.Predict(target.name, input);
  CHECK(after.ok());
  CHECK_EQ(*after, *baseline);
}

// One async predict through the router, awaited. Async singles run in an
// ExecuteQuantum (inline or on the executor), where runtime.executor_stall
// fires; the synchronous single path never reaches it.
Result<float> AwaitPredict(ShardRouter& router, const std::string& name,
                           const std::string& input) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Result<float> result = Status::Error("unset");
  CHECK(router
            .PredictAsync(name, input,
                          [&](Result<float> r) {
                            std::lock_guard<std::mutex> lock(mu);
                            result = std::move(r);
                            done = true;
                            cv.notify_one();
                          })
            .ok());
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  return result;
}

// A one-shard router with a same-spec canary deployed at a 50% split, the
// stable version's latency EWMA warmed first. Returns the canary's runtime
// plan id (the plan registered last).
Runtime::PlanId DeploySameSpecCanary(ShardRouter& router,
                                     const PipelineSpec& target,
                                     const std::string& input) {
  for (int i = 0; i < 64; ++i) {
    CHECK(AwaitPredict(router, target.name, input).ok());
  }
  CHECK(router.Deploy(target).ok());
  Runtime::PlanId canary = 0;
  const ShardedMetrics metrics = router.GetMetrics();
  for (const PlanMetrics& pm : metrics.shards[0].runtime.plans) {
    canary = std::max(canary, pm.plan_id);
  }
  return canary;
}

ShardRouterOptions CanaryRouterOptions() {
  ShardRouterOptions sopts;
  sopts.num_shards = 1;
  sopts.runtime.num_executors = 1;
  sopts.rollout.canary_fraction_bp = 5000;
  sopts.breaker.failure_threshold = 100000;
  return sopts;
}

// runtime.executor_stall as a latency regression: stalls every canary
// request 20x the stable version's latency EWMA, through async requests,
// until the latency verdict flips the canary's kill switch. An async
// completion only flips it (the canary's split drops to 0); the teardown
// is left to the control plane. Every answer scores as `baseline`.
void StallCanaryUntilKilled(ShardRouter& router, const std::string& name,
                            const std::string& input, Runtime::PlanId canary,
                            float baseline) {
  const double stable_us = router.VersionInfo(name)->stable_latency_ewma_us;
  fault::Spec slow;
  slow.latency_us = std::max<int64_t>(20, static_cast<int64_t>(20 * stable_us));
  slow.arg = static_cast<int64_t>(canary);
  fault::Arm("runtime.executor_stall", slow);
  bool killed = false;
  for (int i = 0; i < 400 && !killed; ++i) {
    auto r = AwaitPredict(router, name, input);
    CHECK(r.ok());
    CHECK_EQ(*r, baseline);
    killed = router.VersionInfo(name)->canary_fraction_bp == 0;
  }
  fault::DisarmAll();
  CHECK_MSG(killed,
            "a canary stalled %lld us per request (stable %.1f us) survived "
            "400 requests",
            static_cast<long long>(slow.latency_us), stable_us);
  CHECK(router.VersionInfo(name)->rollout_in_flight);
}

// The latency verdict kills the canary and the stable version serves on,
// scoring as before; Promote finishes the rollback and reports it.
void TestCanaryLatencyRegressionRollsBack() {
  fault::DisarmAll();
  ShardRouterOptions sopts = CanaryRouterOptions();
  sopts.rollout.min_canary_requests = 8;
  ShardRouter router(sopts);
  auto sa = SmallSa(2);
  for (const auto& spec : sa.pipelines()) {
    CHECK(router.Place(spec).ok());
  }
  const PipelineSpec& target = sa.pipelines()[0];
  Rng rng(53);
  const std::string input = sa.SampleInput(rng);
  auto baseline = router.Predict(target.name, input);
  CHECK(baseline.ok());
  const Runtime::PlanId canary = DeploySameSpecCanary(router, target, input);
  StallCanaryUntilKilled(router, target.name, input, canary, *baseline);
  const Status promoted = router.Promote(target.name);
  CHECK(promoted.code() == StatusCode::kError);
  CHECK_MSG(promoted.message().find("killed by the health gate") !=
                std::string::npos,
            "%s", promoted.ToString().c_str());
  CHECK_EQ(router.GetMetrics().auto_rollbacks, uint64_t{1});
  CHECK_EQ(router.VersionInfo(target.name)->active_version, uint64_t{1});
  auto after = router.Predict(target.name, input);
  CHECK(after.ok());
  CHECK_EQ(*after, *baseline);
}

// The maintenance backstop: with no Promote or sync request to finish it, a
// canary killed from async completions is rolled back by the next
// MaintainReplication scan, which still scans every placed plan.
void TestMaintenanceFinishesKilledCanary() {
  fault::DisarmAll();
  ShardRouterOptions sopts = CanaryRouterOptions();
  sopts.rollout.min_canary_requests = 8;
  ShardRouter router(sopts);
  auto sa = SmallSa(2);
  for (const auto& spec : sa.pipelines()) {
    CHECK(router.Place(spec).ok());
  }
  const PipelineSpec& target = sa.pipelines()[0];
  Rng rng(61);
  const std::string input = sa.SampleInput(rng);
  std::vector<float> stable;
  for (const auto& spec : sa.pipelines()) {
    auto score = router.Predict(spec.name, input);
    CHECK(score.ok());
    stable.push_back(*score);
  }
  const Runtime::PlanId canary = DeploySameSpecCanary(router, target, input);
  StallCanaryUntilKilled(router, target.name, input, canary, stable[0]);
  const MaintenanceReport report = router.MaintainReplication();
  CHECK_EQ(report.plans_scanned, sa.pipelines().size());
  const auto info = router.VersionInfo(target.name);
  CHECK(!info->rollout_in_flight);
  CHECK_EQ(info->active_version, uint64_t{1});
  CHECK_EQ(router.GetMetrics().auto_rollbacks, uint64_t{1});
  for (size_t i = 0; i < sa.pipelines().size(); ++i) {
    auto after = router.Predict(sa.pipelines()[i].name, input);
    CHECK(after.ok());
    CHECK_EQ(*after, stable[i]);
  }
}

// runtime.executor_stall as one preempted canary request: a 2 ms stall on
// a single request shortly before the verdict may first fire. One slow
// request is no regression — the canary survives and Promote succeeds.
void TestCanaryOutlierNotKilled() {
  fault::DisarmAll();
  ShardRouterOptions sopts = CanaryRouterOptions();
  ShardRouter router(sopts);
  auto sa = SmallSa(2);
  for (const auto& spec : sa.pipelines()) {
    CHECK(router.Place(spec).ok());
  }
  const PipelineSpec& target = sa.pipelines()[0];
  Rng rng(59);
  const std::string input = sa.SampleInput(rng);
  const Runtime::PlanId canary = DeploySameSpecCanary(router, target, input);
  while (router.VersionInfo(target.name)->canary_routed + 8 <
         sopts.rollout.min_canary_requests) {
    CHECK(AwaitPredict(router, target.name, input).ok());
  }
  fault::Spec outlier;
  outlier.latency_us = 2'000;
  outlier.budget = 1;
  outlier.arg = static_cast<int64_t>(canary);
  fault::Arm("runtime.executor_stall", outlier);
  for (int i = 0; i < 200; ++i) {
    CHECK(AwaitPredict(router, target.name, input).ok());
  }
  CHECK_EQ(fault::Fires("runtime.executor_stall"), uint64_t{1});
  fault::DisarmAll();
  const Status promoted = router.Promote(target.name);
  CHECK_MSG(promoted.ok(), "%s", promoted.ToString().c_str());
  CHECK_EQ(router.GetMetrics().auto_rollbacks, uint64_t{0});
}

// A same-spec canary whose every request waits out a held executor: the
// stable version's requests run inline (sync), the canary's queue behind
// an ExecutorHold for about 1 ms. End to end the canary reads far slower
// than 8x the stable version, yet its service time does not, and the
// verdict judges service time: the canary survives, and Promote succeeds.
void TestQueuedCanaryNotKilled() {
  fault::DisarmAll();
  const ShardRouterOptions sopts = CanaryRouterOptions();
  ShardRouter router(sopts);
  auto sa = SmallSa(2);
  for (const auto& spec : sa.pipelines()) {
    CHECK(router.Place(spec).ok());
  }
  const PipelineSpec& target = sa.pipelines()[0];
  const Runtime::PlanId other =
      router.Placement(sa.pipelines()[1].name)->plan_id;
  Runtime& runtime = *router.runtime(0);
  Rng rng(67);
  const std::string input = sa.SampleInput(rng);
  DeploySameSpecCanary(router, target, input);
  // The router's request count for the plan since Place: the warm-up's 64.
  uint64_t seq = 64;
  uint64_t canary_requests = 0;
  while (canary_requests < 2 * sopts.rollout.min_canary_requests) {
    if (!CanarySplit::InCanary(seq++, sopts.rollout.canary_fraction_bp)) {
      CHECK(router.Predict(target.name, input).ok());
      continue;
    }
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    {
      ExecutorHold hold(runtime, {other});
      CHECK(router
                .PredictAsync(target.name, input,
                              [&](Result<float> r) {
                                CHECK(r.ok());
                                std::lock_guard<std::mutex> lock(mu);
                                done = true;
                                cv.notify_one();
                              })
                .ok());
      SleepUs(1'000);
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
    ++canary_requests;
  }
  const PlanVersionInfo info = *router.VersionInfo(target.name);
  std::printf(
      "queued canary: end to end %.1f vs %.1f us, service %.1f vs %.1f us\n",
      info.canary_latency_ewma_us, info.stable_latency_ewma_us,
      info.canary_service_ewma_us, info.stable_service_ewma_us);
  CHECK_EQ(info.canary_routed, canary_requests);
  CHECK(info.canary_latency_ewma_us > 8 * info.stable_latency_ewma_us);
  CHECK(info.canary_service_ewma_us < 8 * info.stable_service_ewma_us);
  const Status promoted = router.Promote(target.name);
  CHECK_MSG(promoted.ok(), "%s", promoted.ToString().c_str());
  CHECK_EQ(router.GetMetrics().auto_rollbacks, uint64_t{0});
}

// store.swap_stall: version reclamation stalls at the head of the epoch
// sweep. The stall must be CONTROL-PLANE ONLY — Promote blocks, but the
// data path keeps serving the already-published new version the whole time
// (the table swap happens before reclamation starts), and the retired
// version's bytes still leave the process once the stall clears.
void TestSwapStallServesThrough() {
  fault::DisarmAll();
  ShardRouterOptions sopts;
  sopts.num_shards = 1;
  sopts.runtime.num_executors = 1;
  sopts.rollout.canary_fraction_bp = 0;  // Dark deploy: promote is the swap.
  ShardRouter router(sopts);
  auto sa = SmallSa(2);
  for (const auto& spec : sa.pipelines()) {
    CHECK(router.Place(spec).ok());
  }
  const PipelineSpec& target = sa.pipelines()[0];
  Rng rng(43);
  const std::string input = sa.SampleInput(rng);
  auto baseline = router.Predict(target.name, input);
  CHECK(baseline.ok());
  const size_t baseline_bytes = router.GetMetrics().store_bytes;
  CHECK(router.Deploy(target).ok());

  fault::Spec stall;
  stall.latency_us = 100'000;
  stall.budget = 1;
  fault::Arm("store.swap_stall", stall);

  std::atomic<bool> promoted{false};
  std::thread promote([&] {
    CHECK(router.Promote(target.name).ok());
    promoted.store(true, std::memory_order_release);
  });
  // While the promote thread sits in the injected reclamation stall, the
  // data path must not miss a beat: predictions flow against the new
  // version with no lock, no stall, no error.
  uint64_t served_during_stall = 0;
  while (!promoted.load(std::memory_order_acquire)) {
    auto got = router.Predict(target.name, input);
    CHECK(got.ok());
    CHECK_EQ(*got, *baseline);  // Same spec, same score: never torn.
    ++served_during_stall;
  }
  promote.join();
  CHECK_MSG(served_during_stall >= 20,
            "only %llu predicts completed during a 100ms reclamation stall",
            static_cast<unsigned long long>(served_during_stall));
  CHECK_EQ(fault::Fires("store.swap_stall"), uint64_t{1});
  // The stalled reclamation still completed: old version gone, bytes back.
  CHECK_EQ(router.GetMetrics().store_bytes, baseline_bytes);
  CHECK_EQ(router.VersionInfo(target.name)->active_version, uint64_t{2});
  CHECK(router.Predict(target.name, input).ok());
  fault::DisarmAll();
}

}  // namespace

int main() {
  TestDeterministicDecisions();
  std::printf("TestDeterministicDecisions: PASS\n");
  TestHeldQueueExactlyOnce();
  std::printf("TestHeldQueueExactlyOnce: PASS\n");
  TestPoolExhaustedMissPath();
  std::printf("TestPoolExhaustedMissPath: PASS\n");
  TestExecutorStallBoundedInFlight();
  std::printf("TestExecutorStallBoundedInFlight: PASS\n");
  TestExecutorStallUnderSyncBatches();
  std::printf("TestExecutorStallUnderSyncBatches: PASS\n");
  TestShardBreakerTripFailoverRecover();
  std::printf("TestShardBreakerTripFailoverRecover: PASS\n");
  TestCorruptRecordRejectedWithoutTrip();
  std::printf("TestCorruptRecordRejectedWithoutTrip: PASS\n");
  TestSlowKernelExpiresQuanta();
  std::printf("TestSlowKernelExpiresQuanta: PASS\n");
  TestCanaryOnTrippedShard();
  std::printf("TestCanaryOnTrippedShard: PASS\n");
  TestCompileFailDeployKeepsServing();
  std::printf("TestCompileFailDeployKeepsServing: PASS\n");
  TestCanaryAutoRollbackOnFaults();
  std::printf("TestCanaryAutoRollbackOnFaults: PASS\n");
  TestCanaryLatencyRegressionRollsBack();
  std::printf("TestCanaryLatencyRegressionRollsBack: PASS\n");
  TestMaintenanceFinishesKilledCanary();
  std::printf("TestMaintenanceFinishesKilledCanary: PASS\n");
  TestCanaryOutlierNotKilled();
  std::printf("TestCanaryOutlierNotKilled: PASS\n");
  TestQueuedCanaryNotKilled();
  std::printf("TestQueuedCanaryNotKilled: PASS\n");
  TestSwapStallServesThrough();
  std::printf("TestSwapStallServesThrough: PASS\n");
  return 0;
}
