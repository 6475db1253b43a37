#include "src/frontend/frontend.h"

#include <algorithm>

#include "src/common/clock.h"
#include "src/common/serialize.h"

namespace pretzel {

namespace {

// splitmix64: cheap, stateless jitter for the retry backoff.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

FrontEnd::FrontEnd(Backend* backend, const FrontEndOptions& options)
    : backend_(backend),
      options_(options),
      hop_owed_(options.network_delay_us > 0),
      submit_inline_(!hop_owed_ && backend->PredictAsyncNeverBlocks()),
      now_ns_(options.now_ns ? options.now_ns : [] { return NowNs(); }),
      sleep_us_(options.sleep_us ? options.sleep_us
                                 : [](int64_t us) { SleepUs(us); }) {
  const size_t threads = std::max<size_t>(1, options_.num_io_threads);
  io_threads_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    io_threads_.emplace_back([this] { IoLoop(); });
  }
}

FrontEnd::~FrontEnd() {
  {
    // Drain first: admitted requests may still be in flight inside an async
    // backend, whose completion will call back into this FrontEnd.
    MutexLock lock(mu_);
    while (pending_ != 0) {
      drained_cv_.wait(lock.native());
    }
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& thread : io_threads_) {
    thread.join();
  }
}

int64_t FrontEnd::RetryWaitUs(const Status& status, uint32_t attempt) {
  // Exponential backoff with "equal jitter" ([backoff/2, backoff]) so
  // synchronized rejections don't re-arrive as a synchronized herd.
  const int64_t shift = std::min<uint32_t>(attempt, 20);
  int64_t backoff = std::min(options_.retry_max_us,
                             options_.retry_base_us << shift);
  backoff = std::max<int64_t>(1, backoff);
  const uint64_t nonce =
      retry_nonce_.fetch_add(1, std::memory_order_relaxed);
  const int64_t jittered = backoff / 2 +
      static_cast<int64_t>(Mix64(options_.retry_seed ^ nonce) %
                           static_cast<uint64_t>(backoff / 2 + 1));
  // Never wait less than the rejecting tier's own hint: retrying before the
  // hinted horizon just re-joins the queue it was shed from.
  return std::max(status.retry_after_us(), jittered);
}

void FrontEnd::CountOutcome(const Status& status) {
  if (status.ok()) {
    return;
  }
  if (status.IsResourceExhausted()) {
    dropped_backpressure_.fetch_add(1, std::memory_order_relaxed);
  } else if (status.IsDeadlineExceeded()) {
    expired_.fetch_add(1, std::memory_order_relaxed);
  } else {
    dropped_error_.fetch_add(1, std::memory_order_relaxed);
  }
}

Result<float> FrontEnd::Request(const std::string& name,
                                std::string_view input, int64_t deadline_ns) {
  sleep_us_(options_.network_delay_us);  // Client -> frontend.
  Result<float> result = Status::Error("unsent");
  for (uint32_t attempt = 0;; ++attempt) {
    if (deadline_ns > 0 && now_ns_() >= deadline_ns) {
      result = Status::DeadlineExceeded("expired at frontend before send")
                   .WithDeadlineStage(DeadlineStage::kAdmission);
      break;
    }
    result = backend_->Predict(name, input, deadline_ns);
    if (!Retryable(result.status(), attempt)) {
      break;
    }
    const int64_t wait_us = RetryWaitUs(result.status(), attempt);
    if (deadline_ns > 0 && now_ns_() + wait_us * 1000 >= deadline_ns) {
      break;  // The backoff alone would blow the budget; keep the shed.
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    sleep_us_(wait_us);
  }
  CountOutcome(result.status());
  sleep_us_(options_.network_delay_us);  // Frontend -> client.
  return result;
}

Result<float> FrontEnd::RequestBinary(const std::string& name,
                                      std::span<const uint8_t> record,
                                      int64_t deadline_ns) {
  return Request(name, WireView(record), deadline_ns);
}

Status FrontEnd::RequestAsync(const std::string& name, const std::string& input,
                              std::function<void(Result<float>)> callback,
                              int64_t deadline_ns) {
  if (deadline_ns > 0 && now_ns_() >= deadline_ns) {
    // Shed at the door: admitting work that already missed its deadline
    // only burns frontend time producing a late failure.
    expired_.fetch_add(1, std::memory_order_relaxed);
    return Status::DeadlineExceeded("expired at frontend admission")
        .WithDeadlineStage(DeadlineStage::kAdmission);
  }
  auto work = std::make_unique<Work>();
  work->name = name;
  work->input = input;
  work->callback = std::move(callback);
  work->admit_ns = now_ns_();
  work->deadline_ns = deadline_ns;
  {
    MutexLock lock(mu_);
    if (stop_) {
      return Status::Error("frontend shutting down");
    }
    if (options_.max_pending > 0 && pending_ >= options_.max_pending) {
      dropped_backpressure_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted(
                 "frontend over " + std::to_string(options_.max_pending) +
                 " pending requests")
          .WithRetryAfterUs(retry_after_hint_us());
    }
    ++pending_;
    if (!submit_inline_) {
      queue_.push_back(std::move(work));
    }
  }
  if (submit_inline_) {
    // No hop owed and the backend never blocks: hand off right here rather
    // than paying a wake-up per thread crossing. A rejection at submit, or
    // a request the Runtime runs inline on an idle executor group, may
    // complete (callback included) before this returns.
    Dispatch(std::move(work));
    return Status::OK();
  }
  // Safe outside the lock: the caller holds this FrontEnd alive, and only
  // IO threads wait on cv_.
  cv_.notify_all();
  return Status::OK();
}

void FrontEnd::Dispatch(std::unique_ptr<Work> work) {
  if (work->attempt == 0 && hop_owed_) {
    sleep_us_(options_.network_delay_us);  // Client -> frontend.
  }
  // A popped retry is already due: its backoff was served queue-side.
  if (work->deadline_ns > 0 && now_ns_() >= work->deadline_ns) {
    // Expired before the hand-off (typically while queued here): don't
    // burn a backend slot on it.
    Complete(std::move(work),
             Status::DeadlineExceeded("expired in frontend queue")
                 .WithDeadlineStage(DeadlineStage::kQueue));
    return;
  }
  // The completion owns the Work from here on. The backend invokes it
  // exactly once, and only after it is done with the borrowed name and
  // input, so any copy of the callback carries two pointers, not the bytes.
  // The result hook may schedule a retry instead of completing.
  Work* owned = work.release();
  backend_->PredictAsync(
      owned->name, owned->input,
      [this, owned](Result<float> result) {
        RetryOrComplete(std::unique_ptr<Work>(owned), std::move(result));
      },
      owned->deadline_ns);
}

void FrontEnd::RetryOrComplete(std::unique_ptr<Work> work,
                               Result<float> result) {
  if (Retryable(result.status(), work->attempt)) {
    const int64_t wait_us = RetryWaitUs(result.status(), work->attempt);
    const int64_t now = now_ns_();
    if (work->deadline_ns == 0 || now + wait_us * 1000 < work->deadline_ns) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      work->attempt += 1;
      work->not_before_ns = now + wait_us * 1000;
      MutexLock lock(mu_);
      // Retries go to the back: fresher work shouldn't starve behind a
      // request the backend just shed.
      queue_.push_back(std::move(work));
      // Notify under the lock: this may run on a backend thread (see
      // Deliver for the lifetime rule).
      cv_.notify_all();
      return;
    }
  }
  Complete(std::move(work), std::move(result));
}

void FrontEnd::Complete(std::unique_ptr<Work> work, Result<float> result) {
  CountOutcome(result.status());
  // Admission -> backend-completion latency feeds the retry-after hint this
  // tier attaches to its own drops. Racy EWMA updates are fine (estimate).
  const int64_t sample_us = (now_ns_() - work->admit_ns) / 1000;
  const int64_t prev = latency_ewma_us_.load(std::memory_order_relaxed);
  latency_ewma_us_.store(prev + (sample_us - prev) / 8,
                         std::memory_order_relaxed);
  work->result = std::move(result);
  if (!hop_owed_) {
    Deliver(std::move(work));
    return;
  }
  // The response hop is a sleep: never on a backend executor thread.
  work->is_completion = true;
  MutexLock lock(mu_);
  // Completions jump the queue: finishing in-flight work beats admitting
  // more of the backlog.
  queue_.push_front(std::move(work));
  cv_.notify_all();  // Under the lock, as in RetryOrComplete.
}

void FrontEnd::Deliver(std::unique_ptr<Work> work) {
  if (hop_owed_) {
    sleep_us_(options_.network_delay_us);  // Frontend -> client.
  }
  // Destroyed before pending_ drops: a drained FrontEnd holds no user
  // closure.
  work->callback(std::move(work->result));
  work.reset();
  MutexLock lock(mu_);
  // Lifetime rule: notify UNDER the lock. Off the IO pool, the draining
  // destructor may destroy this FrontEnd the moment pending_ hits zero and
  // mu_ is released, so nothing here may touch a member after the unlock.
  if (--pending_ == 0) {
    drained_cv_.notify_all();
  }
}

void FrontEnd::IoLoop() {
  // In-backoff retries must never stall runnable work: with few IO threads,
  // sleeping a popped retry's remaining backoff inline (up to retry_max_us)
  // would block fresh admissions AND completions — which ride this same
  // queue — exactly when overload makes retries common. The pop instead
  // scans for the first DUE item (not_before_ns reached; completions and
  // fresh work are always due), and only when every queued item is a
  // future-dated retry does the thread wait — in short slices through the
  // sleep seam, so newly runnable work is picked up within one slice.
  constexpr int64_t kBackoffSliceUs = 200;
  while (true) {
    std::unique_ptr<Work> work;
    int64_t poll_us = 0;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) {
        cv_.wait(lock.native());
      }
      if (queue_.empty()) {
        if (stop_) {
          return;
        }
        continue;
      }
      const int64_t now = now_ns_();
      auto due = queue_.end();
      int64_t earliest_ns = queue_.front()->not_before_ns;
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if ((*it)->not_before_ns <= now) {
          due = it;
          break;
        }
        earliest_ns = std::min(earliest_ns, (*it)->not_before_ns);
      }
      if (due == queue_.end()) {
        // Every item is a retry still serving out its backoff (the waits
        // honor the rejecting tier's retry-after hint; see RetryWaitUs).
        poll_us = std::min<int64_t>((earliest_ns - now + 999) / 1000,
                                    kBackoffSliceUs);
      } else {
        work = std::move(*due);
        queue_.erase(due);
      }
    }
    if (poll_us > 0) {
      sleep_us_(poll_us);
    } else if (work->is_completion) {
      Deliver(std::move(work));
    } else {
      Dispatch(std::move(work));
    }
  }
}

}  // namespace pretzel
