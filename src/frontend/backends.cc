#include "src/frontend/backends.h"

namespace pretzel {

void PretzelBackend::AddRoute(const std::string& name, Runtime::PlanId id) {
  WriterMutexLock lock(mu_);
  routes_[name] = id;
}

Result<Runtime::PlanId> PretzelBackend::Route(const std::string& name) const {
  ReaderMutexLock lock(mu_);
  auto it = routes_.find(name);
  if (it == routes_.end()) {
    return Status::NotFound(name);
  }
  return it->second;
}

Result<float> PretzelBackend::Predict(const std::string& name,
                                      std::string_view input,
                                      int64_t deadline_ns) {
  Result<Runtime::PlanId> id = Route(name);
  if (!id.ok()) {
    return id.status();
  }
  return runtime_->Predict(*id, input, deadline_ns);
}

void PretzelBackend::PredictAsync(const std::string& name,
                                  std::string_view input,
                                  std::function<void(Result<float>)> callback,
                                  int64_t deadline_ns) {
  Result<Runtime::PlanId> id = Route(name);
  if (!id.ok()) {
    callback(id.status());
    return;
  }
  // The one owned copy of the record: it moves into the Runtime's event.
  Status submitted = runtime_->PredictAsync(
      *id, std::string(input),
      [callback](Result<float> r, int64_t) { callback(std::move(r)); },
      deadline_ns);
  if (!submitted.ok()) {
    callback(submitted);
  }
}

Result<float> ClipperBackend::Predict(const std::string& name,
                                      std::string_view input,
                                      int64_t deadline_ns) {
  (void)deadline_ns;  // No deadline plumbing in the container baseline.
  return cluster_->Predict(name, std::string(input));
}

}  // namespace pretzel
