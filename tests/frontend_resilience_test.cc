// FrontEnd resilience: the retry policy (hinted waits, jittered backoff,
// deadline-bounded), the dropped_backpressure / dropped_error / expired
// outcome split, deadline admission at the tier's edge, and the dispatch
// rules — which thread hands a request to the backend and which delivers
// its callback — including re-entrant requests from callbacks and teardown
// with executor-thread completions in flight. Also the binary record path
// through both zero-parse backends. The retry-wait tests run on a fake
// clock injected through FrontEndOptions, so every wait is observed
// exactly, not timed.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/flour/flour.h"
#include "src/frontend/backends.h"
#include "src/frontend/frontend.h"
#include "src/oven/model_plan.h"
#include "src/runtime/exec_context.h"
#include "src/serving/shard_router.h"
#include "src/serving/sharded_backend.h"
#include "src/workload/ac_workload.h"
#include "src/workload/sa_workload.h"
#include "tests/executor_hold.h"
#include "tests/test_util.h"

using namespace pretzel;

namespace {

// Deterministic time: now_ns only advances when something sleeps, and every
// sleep is recorded. With network_delay_us = 0 the only non-zero sleeps a
// sync Request performs are its retry backoffs.
struct FakeClock {
  std::atomic<int64_t> now_ns{1'000'000'000};
  std::mutex mu;
  std::vector<int64_t> sleeps_us;

  void Install(FrontEndOptions* options) {
    options->now_ns = [this] { return now_ns.load(); };
    options->sleep_us = [this](int64_t us) {
      {
        std::lock_guard<std::mutex> lock(mu);
        sleeps_us.push_back(us);
      }
      now_ns.fetch_add(us * 1000);
    };
  }
  std::vector<int64_t> RecordedWaits() {
    std::lock_guard<std::mutex> lock(mu);
    std::vector<int64_t> waits;
    for (const int64_t us : sleeps_us) {
      if (us > 0) {
        waits.push_back(us);
      }
    }
    return waits;
  }
};

// Rejects the first `fail_first` calls (ResourceExhausted, optionally with a
// retry-after hint), then succeeds.
struct FlakyBackend : Backend {
  std::atomic<int> calls{0};
  int fail_first = 0;
  int64_t hint_us = 0;
  Result<float> Predict(const std::string&, std::string_view,
                        int64_t) override {
    if (calls.fetch_add(1) < fail_first) {
      Status shed = Status::ResourceExhausted("backend busy");
      return hint_us > 0 ? shed.WithRetryAfterUs(hint_us) : shed;
    }
    return 0.25f;
  }
};

// The contract under test: a hinted rejection is never retried before the
// hint — the wait is max(hint, backoff), pinned on fake time.
void TestRetryWaitHonorsHint() {
  FlakyBackend backend;
  backend.fail_first = 2;
  backend.hint_us = 7'000;

  FrontEndOptions options;
  options.network_delay_us = 0;
  options.num_io_threads = 1;
  options.max_retries = 3;
  options.retry_base_us = 100;  // Backoff alone would be far below the hint.
  options.retry_seed = 42;
  FakeClock clock;
  clock.Install(&options);
  FrontEnd frontend(&backend, options);

  Result<float> result = frontend.Request("m", "x");
  CHECK(result.ok());
  CHECK_EQ(backend.calls.load(), 3);  // 1 initial + 2 retries.
  const auto waits = clock.RecordedWaits();
  CHECK_EQ(waits.size(), size_t{2});
  for (const int64_t wait : waits) {
    CHECK_MSG(wait >= backend.hint_us, "retry waited %lldus < %lldus hint",
              static_cast<long long>(wait),
              static_cast<long long>(backend.hint_us));
  }
  CHECK_EQ(frontend.GetMetrics().retries, uint64_t{2});
  // The request ultimately succeeded: nothing dropped.
  CHECK_EQ(frontend.GetMetrics().dropped_backpressure, uint64_t{0});
}

// Without a hint, waits follow jittered exponential backoff: attempt k
// lands in [backoff/2, backoff] with backoff = base << k, capped.
void TestRetryBackoffEnvelope() {
  FlakyBackend backend;
  backend.fail_first = 3;

  FrontEndOptions options;
  options.network_delay_us = 0;
  options.num_io_threads = 1;
  options.max_retries = 3;
  options.retry_base_us = 1'000;
  options.retry_max_us = 3'000;  // The third attempt hits the cap.
  options.retry_seed = 7;
  FakeClock clock;
  clock.Install(&options);
  FrontEnd frontend(&backend, options);

  CHECK(frontend.Request("m", "x").ok());
  const auto waits = clock.RecordedWaits();
  CHECK_EQ(waits.size(), size_t{3});
  const int64_t ceilings[] = {1'000, 2'000, 3'000};  // base<<k, capped.
  for (size_t k = 0; k < waits.size(); ++k) {
    CHECK_MSG(waits[k] >= ceilings[k] / 2 && waits[k] <= ceilings[k],
              "attempt %zu wait %lldus outside [%lld, %lld]", k,
              static_cast<long long>(waits[k]),
              static_cast<long long>(ceilings[k] / 2),
              static_cast<long long>(ceilings[k]));
  }
}

// Retries stop when the next backoff would cross the deadline: the caller
// gets the shed (retryable) status with budget left, not a late expiry.
void TestRetryRespectsDeadline() {
  FlakyBackend backend;
  backend.fail_first = 1'000'000;  // Never recovers.
  backend.hint_us = 20'000;

  FrontEndOptions options;
  options.network_delay_us = 0;
  options.num_io_threads = 1;
  options.max_retries = 100;
  options.retry_base_us = 100;
  FakeClock clock;
  clock.Install(&options);
  FrontEnd frontend(&backend, options);

  // 30ms budget, 20ms hinted waits: exactly one retry fits.
  const int64_t deadline = clock.now_ns.load() + 30'000'000;
  Result<float> result = frontend.Request("m", "x", deadline);
  CHECK(!result.ok());
  CHECK(result.status().IsResourceExhausted());
  CHECK_EQ(backend.calls.load(), 2);
  CHECK(clock.now_ns.load() < deadline);  // Shed with budget to fail over.
  CHECK_EQ(frontend.GetMetrics().dropped_backpressure, uint64_t{1});
}

// The async path books final outcomes into the split counters, and the
// retry machinery works through the IO loop as well.
void TestAsyncOutcomeSplit() {
  struct ScriptedBackend : Backend {
    Result<float> Predict(const std::string& name, std::string_view,
                          int64_t) override {
      if (name == "shed") {
        return Status::ResourceExhausted("backend full").WithRetryAfterUs(500);
      }
      if (name == "broken") {
        return Status::Error("model exploded");
      }
      return 1.5f;
    }
  } backend;

  FrontEndOptions options;
  options.network_delay_us = 0;
  options.num_io_threads = 2;
  options.max_retries = 1;  // "shed" gets one retry, then counts as dropped.
  options.retry_base_us = 200;
  options.retry_max_us = 1'000;
  FrontEnd frontend(&backend, options);

  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  auto wait_for = [&](int n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done >= n; });
  };
  auto completion = [&](Status expect_code) {
    return [&, expect_code](Result<float> r) {
      CHECK_EQ(static_cast<int>(r.status().code()),
               static_cast<int>(expect_code.code()));
      std::lock_guard<std::mutex> lock(mu);
      ++done;
      cv.notify_all();
    };
  };

  CHECK(frontend.RequestAsync("ok", "x", completion(Status::OK())).ok());
  CHECK(frontend
            .RequestAsync("shed", "x",
                          completion(Status::ResourceExhausted("")))
            .ok());
  CHECK(frontend.RequestAsync("broken", "x", completion(Status::Error(""))).ok());
  wait_for(3);

  // Expired at admission: rejected synchronously, never counted as pending.
  std::atomic<int> fired{0};
  Status expired = frontend.RequestAsync(
      "ok", "x", [&](Result<float>) { fired.fetch_add(1); }, NowNs() - 1);
  CHECK(expired.IsDeadlineExceeded());
  CHECK_EQ(fired.load(), 0);

  const FrontEndMetrics metrics = frontend.GetMetrics();
  CHECK_EQ(metrics.dropped_backpressure, uint64_t{1});  // "shed", post-retry.
  CHECK_EQ(metrics.dropped_error, uint64_t{1});         // "broken".
  CHECK_EQ(metrics.expired, uint64_t{1});               // Admission refusal.
  CHECK_EQ(metrics.retries, uint64_t{1});
  // Legacy view stays the backpressure count.
  CHECK_EQ(frontend.dropped(), metrics.dropped_backpressure);
}

// A retry serving out its backoff must never stall runnable work. With one
// IO thread and a retry parked behind a 2s hinted backoff, a fresh request
// admitted behind it completes within a poll slice or two — the IO thread
// skips the future-dated retry instead of sleeping its backoff inline. The
// retry itself still never fires before the hint.
void TestBackoffDoesNotStallQueue() {
  struct NameScriptedBackend : Backend {
    int64_t hint_us = 2'000'000;
    Result<float> Predict(const std::string& name, std::string_view,
                          int64_t) override {
      if (name == "shed") {
        return Status::ResourceExhausted("busy").WithRetryAfterUs(hint_us);
      }
      return 2.0f;
    }
  } backend;

  FrontEndOptions options;
  options.network_delay_us = 0;
  options.num_io_threads = 1;
  options.max_retries = 1;  // "shed" retries once, then counts as dropped.
  options.retry_base_us = 100;
  FakeClock clock;
  clock.Install(&options);
  FrontEnd frontend(&backend, options);

  std::mutex mu;
  std::condition_variable cv;
  int64_t ok_done_ns = 0;
  int64_t shed_done_ns = 0;

  const int64_t start_ns = clock.now_ns.load();
  CHECK(frontend
            .RequestAsync("shed", "x",
                          [&](Result<float> r) {
                            CHECK(r.status().IsResourceExhausted());
                            std::lock_guard<std::mutex> lock(mu);
                            shed_done_ns = clock.now_ns.load();
                            cv.notify_all();
                          })
            .ok());
  // The retry is booked before it is queued; once visible, the single IO
  // thread is (at most a slice from) waiting out the 2s backoff.
  while (frontend.GetMetrics().retries < 1) {
    std::this_thread::yield();
  }
  const int64_t t0 = clock.now_ns.load();
  CHECK(frontend
            .RequestAsync("ok", "x",
                          [&](Result<float> r) {
                            CHECK(r.ok());
                            std::lock_guard<std::mutex> lock(mu);
                            ok_done_ns = clock.now_ns.load();
                            cv.notify_all();
                          })
            .ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return ok_done_ns != 0; });
  }
  // Far under the backoff horizon: the fresh request was not queued behind
  // the parked retry's sleep (pre-fix, this waited the full 2s fake).
  CHECK_MSG(ok_done_ns - t0 < backend.hint_us * 1000 / 2,
            "fresh request stalled %lldus behind an in-backoff retry",
            static_cast<long long>((ok_done_ns - t0) / 1000));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return shed_done_ns != 0; });
  }
  // Queue-side waiting still honors the hint: the retry never fired early.
  CHECK_MSG(shed_done_ns - start_ns >= backend.hint_us * 1000,
            "retry fired %lldus after admission, before the %lldus hint",
            static_cast<long long>((shed_done_ns - start_ns) / 1000),
            static_cast<long long>(backend.hint_us));
  CHECK_EQ(frontend.GetMetrics().dropped_backpressure, uint64_t{1});
}

// An async backend with its own completion thread standing in for a
// runtime executor. PredictAsync records the submitting thread and either
// enqueues the completion for that thread, or (reject_at_submit) rejects
// synchronously on the caller's thread, as the runtime does over its cap.
class ThreadedBackend : public Backend {
 public:
  explicit ThreadedBackend(bool never_blocks)
      : never_blocks_(never_blocks), worker_([this] { Run(); }) {}
  ~ThreadedBackend() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }

  Result<float> Predict(const std::string&, std::string_view,
                        int64_t) override {
    return 1.0f;
  }
  void PredictAsync(const std::string&, std::string_view,
                    std::function<void(Result<float>)> callback,
                    int64_t) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      submit_threads_.push_back(std::this_thread::get_id());
      if (now_ns) {
        submit_ns_.push_back(now_ns());
      }
      if (!reject_at_submit) {
        jobs_.push_back(std::move(callback));
        cv_.notify_all();
        return;
      }
    }
    callback(Status::ResourceExhausted("ring full").WithRetryAfterUs(hint_us));
  }
  bool PredictAsyncNeverBlocks() const override { return never_blocks_; }

  std::thread::id worker_id() const { return worker_.get_id(); }
  std::vector<std::thread::id> submit_threads() {
    std::lock_guard<std::mutex> lock(mu_);
    return submit_threads_;
  }
  std::vector<int64_t> submit_ns() {
    std::lock_guard<std::mutex> lock(mu_);
    return submit_ns_;
  }

  std::atomic<bool> reject_at_submit{false};
  int64_t hint_us = 0;
  std::function<int64_t()> now_ns;  // Stamps each submit when set.

 private:
  void Run() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
      if (jobs_.empty()) {
        return;
      }
      auto job = std::move(jobs_.front());
      jobs_.pop_front();
      lock.unlock();
      job(0.75f);
      lock.lock();
    }
  }

  const bool never_blocks_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void(Result<float>)>> jobs_;
  std::vector<std::thread::id> submit_threads_;
  std::vector<int64_t> submit_ns_;
  bool stop_ = false;
  std::thread worker_;
};

// Records the thread each callback ran on and how often it fired.
struct CallbackProbe {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::thread::id> threads;
  std::vector<Result<float>> results;

  std::function<void(Result<float>)> Callback() {
    return [this](Result<float> r) {
      std::lock_guard<std::mutex> lock(mu);
      threads.push_back(std::this_thread::get_id());
      results.push_back(std::move(r));
      cv.notify_all();
    };
  }
  void WaitFor(size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return threads.size() >= n; });
  }
  size_t fired() {
    std::lock_guard<std::mutex> lock(mu);
    return threads.size();
  }
};

// Zero hop + enqueue-only backend: the hand-off runs on the RequestAsync
// caller's thread and the callback on the thread that completed the
// request (here the backend's executor stand-in), with no IO-pool hop.
void TestZeroHopSubmitsOnCallerThread() {
  ThreadedBackend backend(/*never_blocks=*/true);
  FrontEndOptions options;
  options.network_delay_us = 0;
  options.num_io_threads = 1;
  FrontEnd frontend(&backend, options);

  CallbackProbe probe;
  for (int i = 0; i < 8; ++i) {
    CHECK(frontend.RequestAsync("m", "x", probe.Callback()).ok());
  }
  probe.WaitFor(8);
  const auto submits = backend.submit_threads();
  CHECK_EQ(submits.size(), size_t{8});
  for (const auto& id : submits) {
    CHECK(id == std::this_thread::get_id());
  }
  std::lock_guard<std::mutex> lock(probe.mu);
  for (size_t i = 0; i < probe.threads.size(); ++i) {
    CHECK(probe.threads[i] == backend.worker_id());
    CHECK(probe.results[i].ok());
  }
}

// A blocking backend (the default PredictAsync) or an owed hop keeps the
// hand-off on the IO pool, and RequestAsync never blocks the caller.
void TestBlockingOrHopDispatchesOnIoPool() {
  // Blocking default: Predict waits on a gate the caller opens only after
  // RequestAsync returned. An inline hand-off would block the caller until
  // the gate's timeout, then complete before RequestAsync returns.
  struct GatedBackend : Backend {
    std::mutex mu;
    std::condition_variable cv;
    bool open = false;
    std::thread::id predict_thread;
    Result<float> Predict(const std::string&, std::string_view,
                          int64_t) override {
      std::unique_lock<std::mutex> lock(mu);
      predict_thread = std::this_thread::get_id();
      if (!cv.wait_for(lock, std::chrono::seconds(5),
                       [this] { return open; })) {
        return Status::Error("gate never opened");
      }
      return 0.5f;
    }
  } gated;
  {
    FrontEndOptions options;
    options.network_delay_us = 0;
    options.num_io_threads = 1;
    FrontEnd frontend(&gated, options);
    CallbackProbe probe;
    CHECK(frontend.RequestAsync("m", "x", probe.Callback()).ok());
    CHECK_EQ(probe.fired(), size_t{0});
    {
      std::lock_guard<std::mutex> lock(gated.mu);
      gated.open = true;
    }
    gated.cv.notify_all();
    probe.WaitFor(1);
    std::lock_guard<std::mutex> lock(gated.mu);
    CHECK(gated.predict_thread != std::thread::id());
    CHECK(gated.predict_thread != std::this_thread::get_id());
  }

  // Owed hop, enqueue-only backend: both hops are IO-pool sleeps, so the
  // hand-off leaves the caller and the callback leaves the executor.
  ThreadedBackend backend(/*never_blocks=*/true);
  FrontEndOptions options;
  options.network_delay_us = 50;
  options.num_io_threads = 1;
  FakeClock clock;
  clock.Install(&options);
  FrontEnd frontend(&backend, options);
  CallbackProbe probe;
  CHECK(frontend.RequestAsync("m", "x", probe.Callback()).ok());
  probe.WaitFor(1);
  const auto submits = backend.submit_threads();
  CHECK_EQ(submits.size(), size_t{1});
  CHECK(submits[0] != std::this_thread::get_id());
  {
    std::lock_guard<std::mutex> lock(probe.mu);
    CHECK(probe.threads[0] != std::this_thread::get_id());
    CHECK(probe.threads[0] != backend.worker_id());
    CHECK(probe.results[0].ok());
  }
  CHECK(clock.RecordedWaits() == (std::vector<int64_t>{50, 50}));
}

// A rejection at submit on the inline path completes exactly once. Without
// retries it fires before RequestAsync returns, on the caller's thread;
// with a retry budget the retry is queued for the IO pool and waits out
// the hinted backoff there. Either way dropped_backpressure counts it once.
void TestSubmitRejectionInline() {
  ThreadedBackend backend(/*never_blocks=*/true);
  backend.reject_at_submit = true;
  backend.hint_us = 5'000;
  {
    FrontEndOptions options;
    options.network_delay_us = 0;
    options.num_io_threads = 1;
    FrontEnd frontend(&backend, options);
    CallbackProbe probe;
    CHECK(frontend.RequestAsync("m", "x", probe.Callback()).ok());
    CHECK_EQ(probe.fired(), size_t{1});  // Before RequestAsync returned.
    std::lock_guard<std::mutex> lock(probe.mu);
    CHECK(probe.threads[0] == std::this_thread::get_id());
    CHECK(probe.results[0].status().IsResourceExhausted());
    CHECK_EQ(frontend.GetMetrics().dropped_backpressure, uint64_t{1});
    CHECK_EQ(frontend.GetMetrics().retries, uint64_t{0});
  }

  FrontEndOptions options;
  options.network_delay_us = 0;
  options.num_io_threads = 1;
  options.max_retries = 1;
  options.retry_base_us = 100;  // The hint dominates the backoff.
  FakeClock clock;
  clock.Install(&options);
  backend.now_ns = [&clock] { return clock.now_ns.load(); };
  FrontEnd frontend(&backend, options);
  CallbackProbe probe;
  CHECK(frontend.RequestAsync("m", "x", probe.Callback()).ok());
  probe.WaitFor(1);
  // Give a stray second delivery the chance to show.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  CHECK_EQ(probe.fired(), size_t{1});
  {
    std::lock_guard<std::mutex> lock(probe.mu);
    CHECK(probe.results[0].status().IsResourceExhausted());
  }
  const auto threads = backend.submit_threads();
  const auto stamps = backend.submit_ns();
  CHECK_EQ(threads.size(), size_t{3});  // Earlier no-retry call + 2 here.
  CHECK(threads[1] == std::this_thread::get_id());
  CHECK(threads[2] != std::this_thread::get_id());  // Retry on the IO pool.
  CHECK_MSG(stamps[1] - stamps[0] >= backend.hint_us * 1000,
            "retry resubmitted %lldus after the rejection, before the %lldus "
            "hint",
            static_cast<long long>((stamps[1] - stamps[0]) / 1000),
            static_cast<long long>(backend.hint_us));
  const FrontEndMetrics metrics = frontend.GetMetrics();
  CHECK_EQ(metrics.retries, uint64_t{1});
  CHECK_EQ(metrics.dropped_backpressure, uint64_t{1});
}

SaWorkload SmallSa(size_t pipelines) {
  SaWorkloadOptions opts;
  opts.num_pipelines = pipelines;
  opts.char_dict_entries = 400;
  opts.word_dict_entries = 120;
  opts.vocabulary_size = 250;
  return SaWorkload::Generate(opts);
}

std::unique_ptr<ShardRouter> SmallRouter(const SaWorkload& sa) {
  ShardRouterOptions sopts;
  sopts.num_shards = 2;
  sopts.runtime.num_executors = 1;
  auto router = std::make_unique<ShardRouter>(sopts);
  for (const auto& spec : sa.pipelines()) {
    CHECK(router->Place(spec).ok());
  }
  return router;
}

// RequestAsync issued from inside a completion callback — here on a shard
// executor thread — is served: every chain runs to its end, each request
// completing exactly once.
void TestRequestFromCallback() {
  auto sa = SmallSa(4);
  auto router = SmallRouter(sa);
  ShardedBackend backend(router.get());
  FrontEndOptions options;
  options.network_delay_us = 0;
  options.num_io_threads = 1;
  FrontEnd frontend(&backend, options);

  constexpr int kChains = 4;
  constexpr int kLength = 50;
  Rng rng(5);
  std::vector<std::string> inputs;
  for (int i = 0; i < 16; ++i) {
    inputs.push_back(sa.SampleInput(rng));
  }
  std::vector<std::atomic<int>> fired(kChains * kLength);
  std::atomic<int> done{0};
  std::function<void(int, int)> send = [&](int chain, int step) {
    const auto& spec = sa.pipelines()[(chain + step) % sa.pipelines().size()];
    const Status st = frontend.RequestAsync(
        spec.name, inputs[(chain * 7 + step) % inputs.size()],
        [&, chain, step](Result<float> r) {
          CHECK(r.ok());
          fired[chain * kLength + step].fetch_add(1);
          if (step + 1 < kLength) {
            send(chain, step + 1);
          }
          done.fetch_add(1);
        });
    CHECK(st.ok());
  };
  for (int c = 0; c < kChains; ++c) {
    send(c, 0);
  }
  while (done.load() < kChains * kLength) {
    std::this_thread::yield();
  }
  for (const auto& f : fired) {
    CHECK_EQ(f.load(), 1);
  }
}

// Teardown with executor-thread completions in flight: the destructor
// drains every admitted request, and the completing threads touch nothing
// of the FrontEnd once it may be gone (ASan/UBSan builds run this loop).
// Odd rounds destroy it the moment the last callback fired, racing the
// tail of that completion on its executor thread.
void TestDestroyWithCompletionsInFlight() {
  auto sa = SmallSa(4);
  auto router = SmallRouter(sa);
  ShardedBackend backend(router.get());
  Rng rng(9);
  const std::string input = sa.SampleInput(rng);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> fired{0};
    int admitted = 0;
    FrontEndOptions options;
    options.network_delay_us = 0;
    options.num_io_threads = 1;
    auto frontend = std::make_unique<FrontEnd>(&backend, options);
    for (int i = 0; i < 16; ++i) {
      const auto& spec = sa.pipelines()[(round + i) % sa.pipelines().size()];
      if (frontend->RequestAsync(spec.name, input, [&fired](Result<float> r) {
            CHECK(r.ok());
            fired.fetch_add(1);
          }).ok()) {
        ++admitted;
      }
    }
    while (round % 2 == 1 && fired.load() < admitted) {
      std::this_thread::yield();
    }
    frontend.reset();
    CHECK_EQ(fired.load(), admitted);
  }
}

// The binary record path through both zero-parse backends. For every AC
// plan, a text record and its BinaryRecord twin score bit-equal to
// ExecutePlan through FrontEnd::Request and FrontEnd::RequestBinary, over
// ShardedBackend and over PretzelBackend. A synchronous ResourceExhausted
// on the binary path counts exactly once in ShardedBackend::dropped().
void TestBinaryRequestsThroughBackends() {
  AcWorkloadOptions aopts;
  aopts.num_pipelines = 4;
  aopts.featurizer_trees = 6;
  aopts.featurizer_depth = 4;
  aopts.final_trees = 4;
  aopts.final_depth = 3;
  const AcWorkload ac = AcWorkload::Generate(aopts);
  ShardRouterOptions sopts;
  sopts.num_shards = 2;
  sopts.runtime.num_executors = 1;
  ShardRouter router(sopts);
  ObjectStore store;
  RuntimeOptions ropts;
  ropts.num_executors = 1;
  Runtime runtime(&store, ropts);
  PretzelBackend pretzel(&runtime);
  FlourContext flour(&store);
  std::vector<std::shared_ptr<ModelPlan>> plans;
  for (const auto& spec : ac.pipelines()) {
    CHECK(router.Place(spec).ok());
    auto plan = Plan(*flour.FromPipeline(spec), spec.name);
    CHECK(plan.ok());
    auto id = runtime.Register(*plan);
    CHECK(id.ok());
    pretzel.AddRoute(spec.name, *id);
    plans.push_back(*plan);
  }
  ShardedBackend sharded(&router);
  FrontEndOptions options;
  options.network_delay_us = 0;
  options.num_io_threads = 1;
  FrontEnd via_shards(&sharded, options);
  FrontEnd via_runtime(&pretzel, options);
  VectorPool pool;
  ExecContext ctx(&pool);
  Rng rng(61);
  const auto bytes_of = [](const std::string& s) {
    return std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(s.data()), s.size());
  };
  for (size_t m = 0; m < plans.size(); ++m) {
    const std::string& name = ac.pipelines()[m].name;
    for (int i = 0; i < 8; ++i) {
      const std::string text = ac.SampleInput(rng);
      const std::string binary = AcWorkload::BinaryFromText(text);
      const Result<float> expected = ExecutePlan(*plans[m], text, ctx);
      CHECK(expected.ok());
      const Result<float> served[] = {
          via_shards.Request(name, text),
          via_shards.RequestBinary(name, bytes_of(binary)),
          via_runtime.Request(name, text),
          via_runtime.RequestBinary(name, bytes_of(binary)),
      };
      for (const Result<float>& r : served) {
        CHECK_MSG(r.ok(), "%s", r.status().ToString().c_str());
        CHECK_BITS(*r, *expected);
      }
    }
  }
  CHECK_EQ(sharded.dropped(), uint64_t{0});

  // A reserved plan rides its queue even for synchronous requests: with its
  // executor held and its one-event queue full, the binary request is shed
  // at enqueue.
  ShardRouterOptions capped = sopts;
  capped.num_shards = 1;
  capped.runtime.max_queued_events_per_plan = 1;
  ShardRouter capped_router(capped);
  PlanRegistration reserved;
  reserved.reserve_cores = 1;
  const std::string& name = ac.pipelines()[0].name;
  auto where = capped_router.Place(ac.pipelines()[0], reserved);
  CHECK(where.ok());
  ShardedBackend capped_backend(&capped_router);
  FrontEnd frontend(&capped_backend, options);
  Runtime* shard = capped_router.runtime(where->shard);
  const std::string binary =
      AcWorkload::BinaryFromText(ac.SampleInput(rng));
  std::atomic<bool> queued_done{false};
  {
    ExecutorHold hold(*shard, {where->plan_id});
    CHECK(shard
              ->PredictAsync(where->plan_id, binary,
                             [&queued_done](Result<float> r, int64_t) {
                               CHECK(r.ok());
                               queued_done.store(true);
                             })
              .ok());
    const Result<float> shed = frontend.RequestBinary(name, bytes_of(binary));
    CHECK_MSG(shed.status().IsResourceExhausted(), "%s",
              shed.status().ToString().c_str());
    CHECK_EQ(capped_backend.dropped(), uint64_t{1});
    CHECK_EQ(frontend.GetMetrics().dropped_backpressure, uint64_t{1});
  }
  while (!queued_done.load()) {
    std::this_thread::yield();
  }
  CHECK_EQ(capped_backend.dropped(), uint64_t{1});
}

// A retried async request resends the bytes it was admitted with. The
// backend reads the FrontEnd's admission copy in place, so a request longer
// than the SSO buffer must survive the caller reusing its own string, a
// completion from another thread and a retry from the IO queue — on the
// caller-thread hand-off and on the IO pool alike, and through
// ShardedBackend, whose submit-time rejection completes through its own
// copy of the callback.
void TestRetryResendsAdmittedBytes() {
  // Records every attempt's bytes; the first attempt's callback is held
  // until the test releases it with a shed.
  struct RecordingBackend : Backend {
    explicit RecordingBackend(bool never_blocks) : never_blocks_(never_blocks) {}
    Result<float> Predict(const std::string&, std::string_view,
                          int64_t) override {
      return Status::Error("async only");
    }
    void PredictAsync(const std::string& name, std::string_view input,
                      std::function<void(Result<float>)> callback,
                      int64_t) override {
      std::lock_guard<std::mutex> lock(mu);
      seen.emplace_back(std::string(name) + "|" + std::string(input));
      if (seen.size() == 1) {
        held = std::move(callback);
        return;
      }
      callback(0.5f);
    }
    bool PredictAsyncNeverBlocks() const override { return never_blocks_; }
    void ReleaseShed() {
      std::function<void(Result<float>)> callback;
      {
        std::lock_guard<std::mutex> lock(mu);
        callback = std::move(held);
      }
      callback(Status::ResourceExhausted("busy").WithRetryAfterUs(100));
    }
    std::mutex mu;
    std::vector<std::string> seen;
    std::function<void(Result<float>)> held;
    const bool never_blocks_;
  };

  const std::string admitted =
      "a sentence well past the fifteen-byte small-string buffer";
  for (const bool never_blocks : {true, false}) {
    RecordingBackend backend(never_blocks);
    FrontEndOptions options;
    options.network_delay_us = 0;
    options.num_io_threads = 1;
    options.max_retries = 2;
    options.retry_base_us = 100;
    FrontEnd frontend(&backend, options);
    CallbackProbe probe;
    std::string name = "model-name-longer-than-sso";
    std::string input = admitted;
    CHECK(frontend.RequestAsync(name, input, probe.Callback()).ok());
    name.assign(name.size(), '#');
    input.assign(input.size(), '#');
    while (true) {
      std::lock_guard<std::mutex> lock(backend.mu);
      if (backend.held) {
        break;
      }
    }
    backend.ReleaseShed();
    probe.WaitFor(1);
    CHECK(probe.results[0].ok());
    std::lock_guard<std::mutex> lock(backend.mu);
    CHECK_EQ(backend.seen.size(), size_t{2});
    for (const std::string& bytes : backend.seen) {
      CHECK(bytes == "model-name-longer-than-sso|" + admitted);
    }
    CHECK_EQ(frontend.GetMetrics().retries, uint64_t{1});
  }

  // Through ShardedBackend: a reserved plan with its executor held and its
  // one-event queue full sheds the first attempt at submit; the retries
  // score the admitted record once the hold ends.
  SaWorkloadOptions sopts;
  sopts.num_pipelines = 1;
  sopts.char_dict_entries = 300;
  sopts.word_dict_entries = 100;
  sopts.vocabulary_size = 200;
  const SaWorkload sa = SaWorkload::Generate(sopts);
  ShardRouterOptions ropts;
  ropts.num_shards = 1;
  ropts.runtime.num_executors = 1;
  ropts.runtime.max_queued_events_per_plan = 1;
  ShardRouter router(ropts);
  PlanRegistration reserved;
  reserved.reserve_cores = 1;
  const PipelineSpec& spec = sa.pipelines()[0];
  auto where = router.Place(spec, reserved);
  CHECK(where.ok());
  ObjectStore store;
  FlourContext flour(&store);
  auto plan = Plan(*flour.FromPipeline(spec), spec.name);
  CHECK(plan.ok());
  Rng rng(62);
  std::string input = sa.SampleInput(rng);
  while (input.size() <= 15) {
    input += ' ';
    input += sa.SampleInput(rng);
  }
  VectorPool pool;
  ExecContext ctx(&pool);
  const Result<float> expected = ExecutePlan(**plan, input, ctx);
  CHECK(expected.ok());

  ShardedBackend backend(&router);
  FrontEndOptions options;
  options.network_delay_us = 0;
  options.num_io_threads = 1;
  options.max_retries = 1000;
  options.retry_base_us = 200;
  options.retry_max_us = 1'000;
  FrontEnd frontend(&backend, options);
  Runtime* shard = router.runtime(where->shard);
  CallbackProbe probe;
  std::atomic<bool> queued_done{false};
  {
    ExecutorHold hold(*shard, {where->plan_id});
    CHECK(shard
              ->PredictAsync(where->plan_id, input,
                             [&queued_done](Result<float> r, int64_t) {
                               CHECK(r.ok());
                               queued_done.store(true);
                             })
              .ok());
    CHECK(frontend.RequestAsync(spec.name, input, probe.Callback()).ok());
    input.assign(input.size(), '#');
    while (frontend.GetMetrics().retries == 0) {
      std::this_thread::yield();
    }
  }
  probe.WaitFor(1);
  CHECK_MSG(probe.results[0].ok(), "%s",
            probe.results[0].status().ToString().c_str());
  CHECK_BITS(*probe.results[0], *expected);
  CHECK(backend.dropped() >= 1);
  while (!queued_done.load()) {
    std::this_thread::yield();
  }
}

}  // namespace

int main() {
  TestRetryWaitHonorsHint();
  std::printf("TestRetryWaitHonorsHint: PASS\n");
  TestRetryBackoffEnvelope();
  std::printf("TestRetryBackoffEnvelope: PASS\n");
  TestRetryRespectsDeadline();
  std::printf("TestRetryRespectsDeadline: PASS\n");
  TestAsyncOutcomeSplit();
  std::printf("TestAsyncOutcomeSplit: PASS\n");
  TestBackoffDoesNotStallQueue();
  std::printf("TestBackoffDoesNotStallQueue: PASS\n");
  TestZeroHopSubmitsOnCallerThread();
  std::printf("TestZeroHopSubmitsOnCallerThread: PASS\n");
  TestBlockingOrHopDispatchesOnIoPool();
  std::printf("TestBlockingOrHopDispatchesOnIoPool: PASS\n");
  TestSubmitRejectionInline();
  std::printf("TestSubmitRejectionInline: PASS\n");
  TestRequestFromCallback();
  std::printf("TestRequestFromCallback: PASS\n");
  TestDestroyWithCompletionsInFlight();
  std::printf("TestDestroyWithCompletionsInFlight: PASS\n");
  TestBinaryRequestsThroughBackends();
  std::printf("TestBinaryRequestsThroughBackends: PASS\n");
  TestRetryResendsAdmittedBytes();
  std::printf("TestRetryResendsAdmittedBytes: PASS\n");
  return 0;
}
