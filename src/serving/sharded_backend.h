// Backend adapter: puts the sharded serving stack behind the FrontEnd's
// client-facing Backend interface, so the same tier that fronted one
// Runtime (PretzelBackend) or the container cluster (ClipperBackend) can
// front N shards. Routing is one placement lookup in the router; the async
// path rides the owning shard's event scheduler. A record of either wire
// format (text or BinaryRecord) passes through as its borrowed bytes, so
// there is no separate binary path.
//
// The backend also aggregates admission drops across shards: every
// ResourceExhausted outcome — a sync result, a rejection at submit, or one
// surfaced through the async callback — lands in one dropped() counter,
// the shard-side analog of FrontEnd::dropped(), so operators see total shed
// load without walking per-shard metrics.
#ifndef PRETZEL_SERVING_SHARDED_BACKEND_H_
#define PRETZEL_SERVING_SHARDED_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "src/frontend/frontend.h"
#include "src/serving/shard_router.h"

namespace pretzel {

class ShardedBackend : public Backend {
 public:
  explicit ShardedBackend(ShardRouter* router) : router_(router) {}

  // The borrowed record bytes (text or BinaryRecord) route to the owning
  // shard as-is.
  Result<float> Predict(const std::string& name, std::string_view input,
                        int64_t deadline_ns = 0) override;

  // Submits to the owning shard's event scheduler (which may run it inline
  // when that shard's executors are idle); never blocks.
  void PredictAsync(const std::string& name, std::string_view input,
                    std::function<void(Result<float>)> callback,
                    int64_t deadline_ns = 0) override;
  bool PredictAsyncNeverBlocks() const override { return true; }

  // Predictions shed by any shard's admission control, summed router-wide.
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  // ---- Versioned lifecycle passthrough: the client-facing face of the
  // router's zero-downtime deploys. Serving traffic through this backend is
  // never interrupted by any of these (the router swaps snapshots; readers
  // hold no locks).
  Result<uint64_t> Deploy(const PipelineSpec& spec) {
    return router_->Deploy(spec);
  }
  Status Promote(const std::string& name) { return router_->Promote(name); }
  Status Rollback(const std::string& name) { return router_->Rollback(name); }
  Result<PlanVersionInfo> VersionInfo(const std::string& name) const {
    return router_->VersionInfo(name);
  }

 private:
  ShardRouter* router_;
  std::atomic<uint64_t> dropped_{0};
};

}  // namespace pretzel

#endif  // PRETZEL_SERVING_SHARDED_BACKEND_H_
