// FrontEnd: the client-facing serving tier (the paper's ASP.Net front-end).
// Every request pays an emulated client<->frontend network hop each way.
// Asynchronous requests are admitted against a bound (backpressure: over
// max_pending they fail fast with ResourceExhausted instead of growing
// memory without limit) and handed to the backend's async path, which for
// the PRETZEL backends rides the Runtime's event scheduler rather than
// blocking a thread.
//
// Who runs what. The IO pool only carries work that must wait: an owed hop
// (network_delay_us > 0), a retry serving out its backoff, or a hand-off to
// a backend whose PredictAsync blocks (the default, and the container
// baseline). With no hop owed and a backend whose async entry never blocks
// (Backend::PredictAsyncNeverBlocks), RequestAsync submits on the caller's
// thread and the completion is delivered on whichever thread completed it:
// a runtime executor, or the caller itself (before RequestAsync returns)
// when the backend rejects at submit or the Runtime runs the request
// inline on an idle executor group. Callbacks therefore must not block,
// and must not take a lock the caller holds across RequestAsync.
//
// Backpressure composition with the Runtime's per-plan event queues: a
// backend enqueue that fails (e.g. the per-plan ResourceExhausted cap,
// enforced ahead of the lock-free queue) surfaces through the async
// callback with that status, so callers see the same fail-fast semantics on
// both admission tiers. The Runtime's queue itself is unbounded; only that
// cap rejects.
#ifndef PRETZEL_FRONTEND_FRONTEND_H_
#define PRETZEL_FRONTEND_FRONTEND_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"

namespace pretzel {

// Anything that can answer a named prediction request. A record is a view
// of its wire bytes, a text record or a BinaryRecord
// (src/common/serialize.h), so one entry point serves both: a zero-parse
// backend hands the borrowed bytes to the runtime, which tells the formats
// apart. `deadline_ns` is an absolute deadline (NowNs() domain, 0 = none)
// propagated down the stack so every tier below can drop work that can no
// longer make it.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual Result<float> Predict(const std::string& name,
                                std::string_view input,
                                int64_t deadline_ns = 0) = 0;
  // Asynchronous entry point. The default blocks the calling thread on the
  // sync path; scheduler-backed backends override it to enqueue instead.
  // `callback` must be invoked exactly once, from any thread: an executor
  // thread on completion, or the calling thread itself before PredictAsync
  // returns — on a submit-time rejection, or when the Runtime runs the
  // request inline because its executor group is idle. `name` and `input`
  // are borrowed until the callback is invoked or PredictAsync returns,
  // whichever comes first; a backend that completes later copies what it
  // keeps.
  virtual void PredictAsync(const std::string& name, std::string_view input,
                            std::function<void(Result<float>)> callback,
                            int64_t deadline_ns = 0) {
    callback(Predict(name, input, deadline_ns));
  }
  // True when PredictAsync never blocks the caller: it enqueues, or at most
  // runs one prediction on the caller's thread whose measured cost is below
  // the Runtime's inline ceiling (kInlineMaxExecNs, about one executor
  // wake-up), so the FrontEnd may call it on the client's thread. Backends
  // that keep the blocking default must leave this false.
  virtual bool PredictAsyncNeverBlocks() const { return false; }
};

struct FrontEndOptions {
  int64_t network_delay_us = 150;  // One-way client <-> frontend hop.
  size_t num_io_threads = 2;
  // Cap on admitted-but-uncompleted async requests; 0 = unbounded.
  // RequestAsync over the cap fails fast with ResourceExhausted.
  size_t max_pending = 0;
  // Retry policy for backpressure rejections (ResourceExhausted) from the
  // backend: up to max_retries re-submissions, waiting
  // max(status.retry_after_us() hint, jittered exponential backoff) between
  // attempts, never past the request's deadline. 0 disables retries.
  size_t max_retries = 0;
  int64_t retry_base_us = 500;
  int64_t retry_max_us = 50'000;
  uint64_t retry_seed = 1;
  // Test seams: every clock read / wait the retry-and-hop machinery performs
  // goes through these, so tests can pin wait behavior on fake time.
  // Defaults (unset) are the real NowNs / SleepUs.
  std::function<int64_t()> now_ns;
  std::function<void(int64_t)> sleep_us;
};

// Final-outcome counters for the tier, split by why requests failed.
struct FrontEndMetrics {
  uint64_t dropped_backpressure = 0;  // Admission cap + backend sheds (final).
  uint64_t dropped_error = 0;         // Non-retryable failures.
  uint64_t expired = 0;               // Deadline-exceeded outcomes.
  uint64_t retries = 0;               // Re-submissions scheduled.
  int64_t latency_ewma_us = 0;        // Admission -> completion estimate.
};

class FrontEnd {
 public:
  FrontEnd(Backend* backend, const FrontEndOptions& options);
  // Drains all admitted async requests before stopping the IO pool.
  ~FrontEnd();

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  // Synchronous request on the caller's thread (hop + predict + hop), with
  // the retry policy applied inline. `input` is a record's wire bytes (text
  // or BinaryRecord), borrowed for the call and handed to the backend
  // as-is. `deadline_ns`: absolute, 0 = none.
  Result<float> Request(const std::string& name, std::string_view input,
                        int64_t deadline_ns = 0);

  // Request of one BinaryRecord.
  Result<float> RequestBinary(const std::string& name,
                              std::span<const uint8_t> record,
                              int64_t deadline_ns = 0);

  // Admits the request and hands it to the backend. With a hop owed or a
  // blocking backend, the hand-off and the callback (after the response hop)
  // run on the IO pool. Otherwise the hand-off runs on this thread and the
  // callback runs on the thread that completed the request: a runtime
  // executor, or this thread before RequestAsync returns (a rejection at
  // submit, or a request the Runtime ran inline on an idle executor group).
  // Either way it fires exactly once per OK return, so it must not
  // block, nor take a lock the caller holds across this call. Fails fast
  // (callback never runs) with ResourceExhausted when max_pending admitted
  // requests are in flight, or DeadlineExceeded when the deadline already
  // passed at admission.
  Status RequestAsync(const std::string& name, const std::string& input,
                      std::function<void(Result<float>)> callback,
                      int64_t deadline_ns = 0);

  // Requests rejected or shed by backpressure since construction (the
  // backward-compatible view; GetMetrics splits the full breakdown).
  uint64_t dropped() const {
    return dropped_backpressure_.load(std::memory_order_relaxed);
  }

  FrontEndMetrics GetMetrics() const {
    FrontEndMetrics m;
    m.dropped_backpressure =
        dropped_backpressure_.load(std::memory_order_relaxed);
    m.dropped_error = dropped_error_.load(std::memory_order_relaxed);
    m.expired = expired_.load(std::memory_order_relaxed);
    m.retries = retries_.load(std::memory_order_relaxed);
    m.latency_ewma_us = latency_ewma_us_.load(std::memory_order_relaxed);
    return m;
  }

  // Current retry-after hint (us): EWMA of admitted requests' admission->
  // completion latency, attached to this tier's ResourceExhausted drops.
  // Backend-tier rejections pass through with the backend's own hint.
  int64_t retry_after_hint_us() const {
    return std::max<int64_t>(1, latency_ewma_us_.load(std::memory_order_relaxed));
  }

 private:
  // An admitted async request: awaiting its backend hand-off (possibly a
  // scheduled retry), or, on the IO queue with is_completion set, a
  // finished request awaiting its response hop + user callback. It lives at
  // one heap address from admission to delivery, so the backend reads its
  // name and input in place: the admission copy is the FrontEnd's only one.
  struct Work {
    bool is_completion = false;
    std::string name;
    std::string input;
    std::function<void(Result<float>)> callback;
    Result<float> result = Status::Error("pending");
    int64_t admit_ns = 0;  // Admission stamp, feeds the retry-after EWMA.
    int64_t deadline_ns = 0;
    uint32_t attempt = 0;       // 0 = first hand-off, >0 = retry.
    int64_t not_before_ns = 0;  // Retry backoff target; 0 = immediately.
  };

  void IoLoop() EXCLUDES(mu_);
  // The one hand-off path, on the caller's thread or an IO thread: request
  // hop (first attempt), queue-expiry check, backend PredictAsync.
  void Dispatch(std::unique_ptr<Work> work) EXCLUDES(mu_);
  // Backend-result hook: queues a retry for the IO pool when the status is a
  // retryable shed and budget remains, else completes.
  void RetryOrComplete(std::unique_ptr<Work> work, Result<float> result)
      EXCLUDES(mu_);
  // The one completion path, on the thread that finished the request. Books
  // the outcome and the EWMA; with a hop owed, queues the rest for the IO
  // pool, else delivers in place.
  void Complete(std::unique_ptr<Work> work, Result<float> result)
      EXCLUDES(mu_);
  // Response hop (when owed), user callback, then releases pending_.
  void Deliver(std::unique_ptr<Work> work) EXCLUDES(mu_);
  // Books a failed final outcome: backpressure / expired / error.
  void CountOutcome(const Status& status);
  // max(retry-after hint, jittered exponential backoff) for `attempt`.
  int64_t RetryWaitUs(const Status& status, uint32_t attempt);
  bool Retryable(const Status& status, uint32_t attempt) const {
    return !status.ok() && status.IsResourceExhausted() &&
           attempt < options_.max_retries;
  }

  Backend* backend_;
  const FrontEndOptions options_;
  const bool hop_owed_;       // network_delay_us > 0.
  const bool submit_inline_;  // No hop owed and an enqueue-only backend.
  // Resolved clock/wait seams (options_ hooks or the real clock).
  const std::function<int64_t()> now_ns_;
  const std::function<void(int64_t)> sleep_us_;
  Mutex mu_;
  // IO threads wait on cv_ (work available / stop); the draining destructor
  // waits on drained_cv_ (pending_ == 0), so completions delivered off the
  // IO pool never wake idle IO threads.
  std::condition_variable cv_;
  std::condition_variable drained_cv_;
  std::deque<std::unique_ptr<Work>> queue_ GUARDED_BY(mu_);
  // Admitted async requests not yet completed.
  size_t pending_ GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> dropped_backpressure_{0};
  std::atomic<uint64_t> dropped_error_{0};
  std::atomic<uint64_t> expired_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> retry_nonce_{0};  // Jitter stream position.
  std::atomic<int64_t> latency_ewma_us_{0};  // Admission -> completion.
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> io_threads_;
};

}  // namespace pretzel

#endif  // PRETZEL_FRONTEND_FRONTEND_H_
