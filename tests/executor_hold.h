// Test helper: keeps runtime executors busy so async singles queue instead
// of running inline on an idle executor group.
#ifndef PRETZEL_TESTS_EXECUTOR_HOLD_H_
#define PRETZEL_TESTS_EXECUTOR_HOLD_H_

#include <atomic>
#include <span>
#include <thread>
#include <vector>

#include "src/runtime/runtime.h"
#include "tests/test_util.h"

namespace pretzel {

// Holds one executor per plan in `plans` inside a 1-record batch callback
// until destroyed (async batches never run on the submitting thread).
// Async singles submitted meanwhile queue, where an idle group would run
// each inline on the submitting thread and skip the queue paths a test
// exercises.
class ExecutorHold {
 public:
  ExecutorHold(Runtime& runtime, const std::vector<Runtime::PlanId>& plans)
      : count_(plans.size()) {
    for (const Runtime::PlanId id : plans) {
      CHECK(runtime
                .PredictBatchAsync(
                    id, {"hold"},
                    [this](Status, std::span<const float>) {
                      entered_.fetch_add(1);
                      while (!release_.load()) {
                        std::this_thread::yield();
                      }
                      exited_.fetch_add(1);
                    },
                    /*max_batch=*/1)
                .ok());
    }
    while (entered_.load() < count_) {
      std::this_thread::yield();
    }
  }
  ~ExecutorHold() {
    release_.store(true);
    while (exited_.load() < count_) {
      std::this_thread::yield();
    }
  }
  ExecutorHold(const ExecutorHold&) = delete;
  ExecutorHold& operator=(const ExecutorHold&) = delete;

 private:
  const size_t count_;
  std::atomic<size_t> entered_{0};
  std::atomic<size_t> exited_{0};
  std::atomic<bool> release_{false};
};

}  // namespace pretzel

#endif  // PRETZEL_TESTS_EXECUTOR_HOLD_H_
