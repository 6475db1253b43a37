#include "src/serving/sharded_backend.h"

#include <utility>

namespace pretzel {

Result<float> ShardedBackend::Predict(const std::string& name,
                                      std::string_view input,
                                      int64_t deadline_ns) {
  Result<float> result = router_->Predict(name, input, deadline_ns);
  if (!result.ok() && result.status().IsResourceExhausted()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

void ShardedBackend::PredictAsync(const std::string& name,
                                  std::string_view input,
                                  std::function<void(Result<float>)> callback,
                                  int64_t deadline_ns) {
  // Captured by copy: the outer `callback` must stay callable for the
  // rejected-at-submit path below, where the wrapper never runs. The record
  // is copied once, into the string that moves into the shard's event.
  Status submitted = router_->PredictAsync(
      name, std::string(input),
      [this, callback](Result<float> result) mutable {
        if (!result.ok() && result.status().IsResourceExhausted()) {
          dropped_.fetch_add(1, std::memory_order_relaxed);
        }
        callback(std::move(result));
      },
      deadline_ns);
  if (!submitted.ok()) {
    // Rejected before enqueue: the wrapped callback above never runs, so
    // count and complete here (exactly once either way).
    if (submitted.IsResourceExhausted()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    callback(submitted);
  }
}

}  // namespace pretzel
