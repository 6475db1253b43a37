// Concrete FrontEnd backends: PRETZEL's in-process Runtime and the
// ML.Net+Clipper container cluster, so the two systems are compared behind
// the same client-facing tier (Figures 11 and 14). A request's record is a
// view of its wire bytes (text or BinaryRecord): PretzelBackend hands it to
// the Runtime as-is, ClipperBackend copies it into the container's string.
#ifndef PRETZEL_FRONTEND_BACKENDS_H_
#define PRETZEL_FRONTEND_BACKENDS_H_

#include <string>
#include <string_view>
#include <unordered_map>

#include "src/clipper/container.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/frontend/frontend.h"
#include "src/runtime/runtime.h"

namespace pretzel {

class PretzelBackend : public Backend {
 public:
  explicit PretzelBackend(Runtime* runtime) : runtime_(runtime) {}

  // Routes are added during deployment, before serving starts.
  void AddRoute(const std::string& name, Runtime::PlanId id);

  // The borrowed record bytes go straight to Runtime::Predict (a
  // BinaryRecord is validated in place, never converted).
  Result<float> Predict(const std::string& name, std::string_view input,
                        int64_t deadline_ns = 0) override;

  // Rides the Runtime's event scheduler (coalescible single-prediction
  // event, or one inline quantum on an idle executor group) instead of
  // blocking the calling IO thread. The deadline travels with the event so
  // expiry is enforced inside the scheduler's queues.
  void PredictAsync(const std::string& name, std::string_view input,
                    std::function<void(Result<float>)> callback,
                    int64_t deadline_ns = 0) override;
  bool PredictAsyncNeverBlocks() const override { return true; }

 private:
  Result<Runtime::PlanId> Route(const std::string& name) const EXCLUDES(mu_);

  Runtime* runtime_;
  mutable SharedMutex mu_;
  std::unordered_map<std::string, Runtime::PlanId> routes_ GUARDED_BY(mu_);
};

class ClipperBackend : public Backend {
 public:
  explicit ClipperBackend(ClipperCluster* cluster) : cluster_(cluster) {}

  // The container cluster has no deadline plumbing; the parameter is
  // accepted (interface) and ignored — the baseline serves every request.
  // The record bytes are copied at the container boundary (the baseline
  // owns its inputs).
  Result<float> Predict(const std::string& name, std::string_view input,
                        int64_t deadline_ns = 0) override;

 private:
  ClipperCluster* cluster_;
};

}  // namespace pretzel

#endif  // PRETZEL_FRONTEND_BACKENDS_H_
