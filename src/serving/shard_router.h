// Serving layer: scale-out across Runtimes. The white-box layers below
// (Flour/Oven/ObjectStore/Runtime) share state *within* one Runtime; this
// layer multiplies independent Runtimes — shards — behind a thin routing
// tier so nothing (no lock, cache, registry, or executor group) is shared
// cross-shard.
//
// ShardRouter owns N shards, each a {ObjectStore segment, Runtime} pair,
// and maps plan names to shards with a jump consistent hash (Lamping &
// Veach), whose defining property drives the deploy story: growing the
// shard count from S to S+1 remaps only ~1/(S+1) of the keys, and every
// remapped key lands on the NEW shard — resize never reshuffles traffic
// between surviving shards.
//
// Placement is the routing function: Place() compiles the pipeline against
// the owning shard's segment (Flour intern + Oven compile) and registers it
// with that shard's Runtime, so a plan's parameters are resident exactly
// where its requests land. The segment intern scope decides what "resident"
// shares: per-segment keeps checksum-dedup local to the shard (zero
// cross-shard coupling, duplicated hot dictionaries), router-global
// delegates dedup to one shared store (one resident copy system-wide, at
// the cost of a shared deploy-time intern point). Serving never touches the
// store either way — plans hold their params.
//
// Hot-plan replication: jump hash pins each plan to ONE shard, so under
// Zipf-skewed traffic the shard owning the head of the distribution
// saturates while siblings idle. MaintainReplication() watches each plan's
// routed-traffic share, replicates plans above a hotness threshold onto
// extra shards (the same Flour/Oven compile path as Place, once per
// replica), and routes replicated plans with power-of-two-choices over the
// replicas' live queue-delay EWMAs — the balanced-allocations result:
// sampling two queues and taking the shorter collapses max load from
// Θ(log n / log log n) to Θ(log log n). Plans that cool are de-replicated
// (deactivated, not torn down: the Runtime registration stays materialized
// so re-heating re-activates for free, and residency stays bounded by
// max_replicas_per_plan).
//
// Versioned lifecycle (zero-downtime model swaps): Deploy() compiles v(n+1)
// of an already-placed plan against the shard where v(n) lives, so the
// ObjectStore intern resolves every unchanged parameter to the resident
// blob — the swap costs O(changed params) bytes, not O(model). The new
// version starts as a CANARY taking a deterministic hash-fraction of the
// plan's traffic (exact in the count domain, like the fault layer's
// probabilities), watched by per-version failure and service-time EWMAs
// fed from each request's one completion (the Runtime reports its
// ExecutePlan time, so a queued request and an inline one weigh the same);
// a degraded canary flips its CanarySplit kill switch from the data path
// and rolls back, a healthy one is Promote()d. Retiring the losing version
// is epoch-ordered: publish a table that no longer routes to it (RCU grace),
// close its VersionGate and wait out the stragglers that routed before the
// swap, drain its Runtime registrations (Runtime::Retire), then Release its
// ObjectStore pins and Sweep — resident bytes return to the pre-deploy
// baseline, and no request can ever observe a torn or retired version.
//
// The routing table is an immutable snapshot behind an RcuCell: the predict
// path takes NO mutex — one RCU read (two counter RMWs + a pointer load)
// covers the name lookup, the canary split, the p2c pick, and the breaker
// gate. Writers (Place / Deploy / Promote / Rollback / Replicate / Failover
// / maintenance) copy-update under mu_ and swap the snapshot, with an epoch
// grace period before reclaiming the old table. See src/common/rcu.h for
// the memory-order argument. An update copies only what it changes (the
// path-copying discipline of RCU balanced trees): each plan's routing
// entry is an immutable heap object shared by every snapshot until that
// plan changes, and every snapshot shares one insert-only name index
// (NameIndex, src/common/lockfree.h) that a new name enters with one
// release store — no publish copies the index. A publish builds ONE entry
// and copies a pointer array, whatever the number of placed plans; the
// index's cells are copied only when they double, O(names) over a
// router's life.
//
// Each plan version is one record on each side: the control plane's
// Version (spec, replicas, lifecycle handles) and the snapshot's
// VersionRouting. A plan holds its active version and at most one canary
// beside it; the route path admits a request to either through one Admit
// step, and Promote is an exchange of the two records.
//
// GetMetrics() folds every shard's RuntimeMetrics into one cross-shard
// snapshot (MergeRuntimeMetrics) while retaining the per-shard breakdown;
// the fold merges replicas of one plan BY NAME so a replicated plan is
// counted once, and the per-replica load breakdown is reported separately.
#ifndef PRETZEL_SERVING_SHARD_ROUTER_H_
#define PRETZEL_SERVING_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/lockfree.h"
#include "src/common/mutex.h"
#include "src/common/rcu.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/ops/params.h"
#include "src/runtime/runtime.h"
#include "src/serving/health.h"
#include "src/serving/lifecycle_gate.h"
#include "src/store/object_store.h"

namespace pretzel {

// A plan at or above this share of the router's routed requests since the
// previous maintenance scan is hot: MaintainReplication replicates it to
// clamp(ceil(share * num_shards), 2, max_replicas_per_plan). A replicated
// plan cools (back to 1 active replica) at a lower share, and the gap
// between the two keeps a plan at the boundary from flapping.
inline constexpr double kHotShareThreshold = 0.08;

// Hot-plan replication policy.
struct ReplicationOptions {
  bool enabled = false;
  // Residency bound: a plan's parameters are materialized on at most this
  // many shards, ever (de-replication deactivates but keeps the
  // registration, so the bound is what ObjectStore residency pays).
  size_t max_replicas_per_plan = 4;
  // A maintenance scan is a no-op (no signal) until the router has routed
  // at least this many requests since the previous scan.
  uint64_t min_interval_requests = 256;
};

// Canary rollout policy for Deploy()ed plan versions.
struct RolloutOptions {
  // Canary share of the plan's traffic while a rollout is in flight, in
  // basis points (of 10000). 0 deploys dark: the version is compiled and
  // registered but takes no traffic until Promote().
  uint32_t canary_fraction_bp = 500;
  // The auto-rollback verdict needs at least this many canary-routed
  // requests of signal before it may fire.
  uint64_t min_canary_requests = 64;
  // false disables the controller: rollouts end only by explicit
  // Promote()/Rollback() calls. Its verdict (shard_router.cc) fires at a
  // canary failure EWMA of 0.5, or once half of the canary's recent
  // requests each took over 8x the stable version's service-time EWMA
  // (ExecutePlan time, queue wait excluded).
  bool auto_rollback = true;
};

struct ShardRouterOptions {
  size_t num_shards = 1;
  // Applied to every shard's Runtime (shards are symmetric; executors,
  // caches, and backpressure caps are per-shard).
  RuntimeOptions runtime;
  // Where checksum-dedup happens at deploy time.
  enum class InternScope {
    kPerSegment,  // Each shard dedups privately; shards share no bytes.
    kGlobal,      // Segments delegate to one router-global store.
  };
  InternScope intern_scope = InternScope::kPerSegment;
  // Dedup policy for each segment (per-segment scope) or the global store.
  ObjectStore::Options store;
  // Per-shard circuit breaker (trips on consecutive shard faults — errors
  // and deadline blowouts inside the shard; backpressure, caller errors,
  // and requests that arrived already expired never count).
  CircuitBreakerOptions breaker;
  // When a shard's breaker is open, its plans fail over onto healthy shards
  // (re-Placed through the normal Flour/Oven compile path). Bounded
  // movement: at most this many plans ever migrate off one shard, so a
  // flapping breaker cannot churn the whole placement map.
  size_t max_failover_placements = 4;
  // Hot-plan replication + power-of-two-choices routing.
  ReplicationOptions replication;
  // Versioned-deploy canary policy.
  RolloutOptions rollout;
};

// Where a deployed plan lives.
struct ShardPlacement {
  size_t shard = 0;
  Runtime::PlanId plan_id = 0;
};

// One shard's slice of a cross-shard snapshot.
struct ShardMetrics {
  size_t shard = 0;
  RuntimeMetrics runtime;
  size_t store_objects = 0;  // Objects resident in this shard's segment.
  size_t store_bytes = 0;
};

// One shard's health as seen by the routing tier.
struct ShardHealthSnapshot {
  CircuitBreaker::State breaker_state = CircuitBreaker::State::kClosed;
  uint64_t successes = 0;
  uint64_t errors = 0;    // Shard faults (unresponsive, internal).
  uint64_t timeouts = 0;  // Deadline blowouts attributed to the shard.
  uint64_t rejected = 0;  // Fast-failed while the breaker was open.
  uint64_t failovers = 0; // Plans migrated off this shard.
  uint64_t trips = 0;
  double failure_ewma = 0.0;  // Smoothed fault indicator in [0,1].
};

// One replica's slice of a plan's load breakdown.
struct ReplicaMetrics {
  size_t shard = 0;
  Runtime::PlanId plan_id = 0;
  bool active = false;           // Inactive = cooled, kept materialized.
  uint64_t routed = 0;           // Requests this replica was chosen for.
  int64_t queue_delay_ewma_us = 0;  // Live p2c signal at snapshot time.
};

// A logical plan's replica set (primary first).
struct PlanReplicaMetrics {
  std::string name;
  std::vector<ReplicaMetrics> replicas;
};

struct ShardedMetrics {
  std::vector<ShardMetrics> shards;  // Per-shard breakdown, index == shard.
  // Cross-shard fold of the above. Replicas of one plan merge BY NAME into
  // a single logical row (counters summed, EWMAs event-weighted) — a plan
  // replicated onto K shards is one plan, not K.
  RuntimeMetrics merged;
  size_t unique_plans = 0;       // == merged.plans.size(), deduplicated.
  size_t replicated_plans = 0;   // Plans with > 1 active replica.
  uint64_t replications = 0;     // Replica activations, lifetime.
  uint64_t dereplications = 0;   // Replica deactivations, lifetime.
  // Per-plan, per-replica load breakdown (primary first): where each
  // logical plan's traffic actually landed.
  std::vector<PlanReplicaMetrics> plan_replicas;
  // Resident parameter state: sum of the segments (per-segment scope) or
  // the global store's uniques (global scope).
  size_t store_objects = 0;
  size_t store_bytes = 0;
  // Versioned-lifecycle counters, lifetime.
  uint64_t deploys = 0;         // Canary versions registered.
  uint64_t promotes = 0;        // Canaries promoted to active.
  uint64_t rollbacks = 0;       // Rollouts aborted (manual + auto).
  uint64_t auto_rollbacks = 0;  // Subset fired by the health controller.
  // Routing-snapshot publication, lifetime: snapshots swapped in, and the
  // per-plan routing entries built for them (one per publish — a publish
  // rebuilds only the plan it changed).
  uint64_t routing_publishes = 0;
  uint64_t routing_entries_built = 0;
  // Per-shard load (index == shard): the event-weighted mean of the shard's
  // plan queue-delay EWMAs — hot plans dominate their shard's number, which
  // is exactly the hot-shard bound Zipf skew produces. `imbalance` is
  // max/mean across shards (1.0 = perfectly balanced; meaningless — and
  // left at 1.0 — when no shard has observed queue delay).
  std::vector<double> shard_queue_delay_us;
  double max_shard_queue_delay_us = 0.0;
  double mean_shard_queue_delay_us = 0.0;
  double queue_delay_imbalance = 1.0;
  size_t hottest_shard = 0;
  // Routing-tier health (index == shard).
  std::vector<ShardHealthSnapshot> shard_health;
};

// What one MaintainReplication() scan did.
struct MaintenanceReport {
  size_t plans_scanned = 0;
  uint64_t interval_requests = 0;  // Routed since the previous scan.
  size_t replications = 0;         // Replicas activated this scan.
  size_t dereplications = 0;       // Replicas deactivated this scan.
};

// One plan's lifecycle state, for tests and benches.
struct PlanVersionInfo {
  uint64_t active_version = 0;
  uint64_t next_version = 0;
  bool rollout_in_flight = false;
  uint64_t rollout_version = 0;
  // Live canary split; 0 once the kill switch fired (or a dark deploy).
  uint32_t canary_fraction_bp = 0;
  uint64_t canary_routed = 0;
  uint64_t canary_faults = 0;
  double canary_failure_ewma = 0.0;
  // End-to-end latency EWMAs (routing to completion, queue wait included)
  // and service-time EWMAs (the Runtime's exec_ns, which the verdict reads).
  double canary_latency_ewma_us = 0.0;
  double stable_latency_ewma_us = 0.0;
  double canary_service_ewma_us = 0.0;
  double stable_service_ewma_us = 0.0;
  int64_t stable_inflight = 0;  // Requests currently inside the version gate.
};

class ShardRouter {
 public:
  explicit ShardRouter(const ShardRouterOptions& options);

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  // Jump consistent hash (Lamping & Veach 2014): uniform over buckets, and
  // raising num_buckets moves a key only into the newly added buckets.
  static uint32_t JumpConsistentHash(uint64_t key, uint32_t num_buckets);
  // FNV-1a, the stable name->key step in front of the jump hash.
  static uint64_t HashName(const std::string& name);

  size_t ShardForKey(uint64_t key) const;
  size_t ShardFor(const std::string& name) const;

  // Compiles `spec` against the owning shard's segment and registers the
  // plan with that shard's Runtime. Names must be unique across the router.
  Result<ShardPlacement> Place(const PipelineSpec& spec,
                               const PlanRegistration& registration = {});

  // Request routing: one snapshot lookup (no mutex), breaker-gated; a
  // replicated plan picks its replica by power-of-two-choices over live
  // queue delay. `deadline_ns` (absolute, NowNs() domain; 0 = none) is
  // forwarded so expiry is enforced inside the shard's queues, not just at
  // the edge.
  // `input` is a record's wire bytes (text or BinaryRecord), borrowed for
  // the call.
  Result<float> Predict(const std::string& name, std::string_view input,
                        int64_t deadline_ns = 0);
  // Predict of one BinaryRecord.
  Result<float> PredictBinary(const std::string& name,
                              std::span<const uint8_t> record,
                              int64_t deadline_ns = 0);
  Status PredictAsync(const std::string& name, std::string input,
                      std::function<void(Result<float>)> callback,
                      int64_t deadline_ns = 0);
  Result<std::vector<float>> PredictBatch(const std::string& name,
                                          const std::vector<std::string>& inputs,
                                          size_t max_batch,
                                          int64_t deadline_ns = 0);

  // ---- Versioned lifecycle ----------------------------------------------
  // Begins a canary rollout of a new version of the already-placed plan
  // named `spec.name`: compiles against the shard where the active version
  // lives (so the ObjectStore intern shares every unchanged parameter —
  // the swap moves O(changed params) bytes), registers it with that shard's
  // Runtime, and splits rollout.canary_fraction_bp of the plan's traffic
  // onto it. One rollout per plan at a time. A compile or registration
  // failure surfaces here and leaves the active version untouched. Returns
  // the new version number.
  Result<uint64_t> Deploy(const PipelineSpec& spec);
  // Commits the rollout: the canary becomes the active version in one
  // snapshot swap, then the old version is epoch-reclaimed — its gate
  // drains, its Runtime registrations retire, and its ObjectStore pins are
  // released and swept. Blocking, control-plane only.
  Status Promote(const std::string& name);
  // Aborts the rollout: canary traffic stops in one snapshot swap and the
  // canary version is epoch-reclaimed. The active version never moved.
  Status Rollback(const std::string& name);
  // Lifecycle snapshot of one plan.
  Result<PlanVersionInfo> VersionInfo(const std::string& name) const;

  // The plan's primary replica (replica 0 — its jump-hash home until a
  // failover moves it).
  Result<ShardPlacement> Placement(const std::string& name) const;
  // Every ACTIVE replica, primary first.
  std::vector<ShardPlacement> Replicas(const std::string& name) const;

  // Pins `name`'s active replica count to `target_replicas` (clamped to
  // [1, min(max_replicas_per_plan, num_shards)]), compiling onto new shards
  // or re-activating materialized ones as needed. The admin/test face of
  // the machinery MaintainReplication() drives from traffic.
  Status Replicate(const std::string& name, size_t target_replicas);

  // One hotness scan: first finishes any canary whose kill switch fired on
  // a thread that could not run the teardown, then computes each plan's
  // share of requests routed since the previous scan, replicates plans at
  // or above kHotShareThreshold, and de-replicates plans that cooled. The
  // replica pass is a cheap no-op when the interval carried fewer than
  // min_interval_requests. Runs inline on the caller.
  MaintenanceReport MaintainReplication();

  // Cross-shard snapshot: per-shard breakdown plus the merged fold.
  ShardedMetrics GetMetrics() const;

  size_t num_shards() const { return shards_.size(); }
  Runtime* runtime(size_t shard) const { return shards_[shard]->runtime.get(); }
  ObjectStore* segment(size_t shard) const {
    return shards_[shard]->segment.get();
  }
  // Null in per-segment scope.
  ObjectStore* global_store() const { return global_store_.get(); }
  const ShardRouterOptions& options() const { return options_; }

  // Routing-tier view of one shard's health. Exposed for tests.
  const CircuitBreaker& breaker(size_t shard) const {
    return health_[shard]->breaker;
  }

 private:
  struct Shard {
    std::unique_ptr<ObjectStore> segment;
    std::unique_ptr<Runtime> runtime;
  };

  // Health is written on every request (lock-free counters + breaker) and
  // folded into GetMetrics. Heap-allocated so entries never move.
  struct ShardHealth {
    explicit ShardHealth(const CircuitBreakerOptions& options)
        : breaker(options) {}
    CircuitBreaker breaker;
    std::atomic<uint64_t> successes{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> timeouts{0};
    std::atomic<uint64_t> rejected{0};
    std::atomic<uint64_t> failovers{0};
    // EWMA over the per-request fault indicator, alpha = 1/16; stored as
    // double bits, advanced by CAS (losing an update under contention only
    // softens the smoothing, never corrupts the value).
    std::atomic<uint64_t> failure_ewma_bits{0};
  };

  // Per-replica routing counters. Heap-allocated so published snapshots
  // can hold raw pointers across table swaps; freed with their version only
  // after its gate has drained.
  struct ReplicaStats {
    std::atomic<uint64_t> routed{0};
  };
  // Per-logical-plan traffic, the hotness signal. Owned by the PlanState
  // and never freed while the router lives.
  struct PlanTraffic {
    std::atomic<uint64_t> routed{0};
    // Maintenance bookkeeping (cumulative count at the previous scan).
    // Touched only under control_mu_.
    uint64_t last_scan_routed = 0;
  };

  // Per-version health/latency signal for the canary controller.
  struct VersionStats {
    std::atomic<uint64_t> successes{0};
    std::atomic<uint64_t> faults{0};  // Errors + shard-attributed timeouts.
    // EWMAs, alpha = 1/16, stored as double bits advanced by CAS.
    std::atomic<uint64_t> failure_ewma_bits{0};
    std::atomic<uint64_t> latency_ewma_bits{0};  // End to end.
    std::atomic<uint64_t> service_ewma_bits{0};  // exec_ns.
    // Canary versions only: the share of slow requests (see
    // kRollbackLatencyX in shard_router.cc).
    std::atomic<uint64_t> slow_ewma_bits{0};
  };
  // One version's lifecycle objects, allocated together from lifecycle_ and
  // never freed while the router lives (published snapshots and in-flight
  // decisions hold raw pointers into them). The split is live only while
  // the version is a canary.
  struct VersionHandles {
    VersionGate gate;
    VersionStats stats;
    CanarySplit split;
  };

  // One materialized registration of a plan on a shard. Control-plane
  // record, under mu_; the published table carries flat ReplicaRef copies.
  struct ReplicaState {
    size_t shard = 0;
    Runtime::PlanId plan_id = 0;
    // Borrowed from the shard's Runtime (valid for its lifetime): the live
    // queue-delay EWMA p2c compares.
    const std::atomic<int64_t>* queue_delay_us = nullptr;
    std::unique_ptr<ReplicaStats> stats;
    bool active = true;
    // ObjectStore pins this registration's compile took, released against
    // its shard's segment when the version retires.
    std::vector<uint64_t> checksums;
  };

  // One version of a plan. A canary has exactly one replica, on the shard
  // where the active primary lived at Deploy time.
  struct Version {
    uint64_t number = 0;
    PipelineSpec spec;  // Kept for replica/failover recompiles.
    std::vector<ReplicaState> replicas;  // Every materialized registration.
    size_t primary = 0;                  // Index into replicas.
    VersionHandles* handles = nullptr;   // Pool-owned.
  };

  struct PlanState {
    PlanRegistration registration;
    bool pending = true;  // Claimed, compile still in flight.
    std::unique_ptr<PlanTraffic> traffic;
    Version active;
    std::optional<Version> canary;    // The one in-flight rollout, if any.
    uint32_t canary_fraction_bp = 0;  // The canary's configured split.
    uint64_t next_version = 2;
    // The data path's kill switch fired on the canary: its live split
    // reached 0 while the configured one was nonzero (a dark deploy,
    // configured 0, is not a kill).
    bool canary_killed() const {
      return canary.has_value() && canary_fraction_bp != 0 &&
             canary->handles->split.Load().fraction_bp == 0;
    }
  };

  // The immutable snapshot the predict path reads, swapped through table_.
  // A publish builds one PlanRouting (the plan it changed) and shares every
  // other entry, and the name index's cells, with the previous snapshot.
  struct ReplicaRef {
    size_t shard = 0;
    Runtime::PlanId plan_id = 0;
    const std::atomic<int64_t>* queue_delay_us = nullptr;
    ReplicaStats* stats = nullptr;
  };
  struct VersionRouting {
    uint64_t number = 0;
    std::vector<ReplicaRef> replicas;  // ACTIVE replicas, primary first.
    VersionGate* gate = nullptr;       // Pool-owned, always valid.
    VersionStats* stats = nullptr;
  };
  struct PlanRouting {
    PlanTraffic* traffic = nullptr;
    VersionRouting active;
    std::optional<VersionRouting> canary;  // Set while a rollout is in flight.
    CanarySplit* split = nullptr;          // The canary's kill switch.
  };
  struct RoutingTable {
    // Name -> slot in `routes`: the cells of index_, shared with every
    // snapshot published since they last grew. Slots are never reused
    // (names are never unplaced). A name placed after this snapshot can
    // already be in the cells; its slot is then past `routes`, so it reads
    // as absent here exactly as if it were not yet inserted. Cells a growth
    // replaced are freed after the next publish's grace wait.
    const NameIndex::Cells* index = nullptr;
    // Indexed by slot. Entries are owned by routes_ (the writer's mirror);
    // one replaced by a publish is freed after that publish's grace wait.
    std::vector<const PlanRouting*> routes;
    // The entry for `name`, or null when it is not routable.
    const PlanRouting* Find(const std::string& name) const {
      const size_t slot = index->Find(name, HashName(name));
      return slot < routes.size() ? routes[slot] : nullptr;
    }
  };

  // What Route hands a predict wrapper: where to send the request, plus the
  // version bookkeeping the wrapper must settle. A returned decision holds
  // an Enter() on `gate`; FinishVersion() exits it.
  struct RouteDecision {
    size_t shard = 0;
    Runtime::PlanId plan_id = 0;
    uint64_t version = 0;
    VersionGate* gate = nullptr;
    VersionStats* stats = nullptr;
    ReplicaStats* replica = nullptr;   // The chosen replica's counters.
    VersionStats* baseline = nullptr;  // Stable-version stats (canary only).
    CanarySplit* split = nullptr;      // Kill switch; non-null = canary.
  };

  // The canary split + Admit + failover step shared by every predict entry
  // point. Mutex-free in the common (routed) case.
  Result<RouteDecision> Route(const std::string& name);
  // Admits one request to `version` inside the caller's RCU read section:
  // p2c pick over its replicas, breaker sweep, gate Enter, routed bump.
  // Empty when every replica's breaker refuses or the gate is closed.
  std::optional<RouteDecision> Admit(const VersionRouting& version,
                                     int64_t now_us);
  // The one body of every predict entry point: Route, the injected shard
  // fault (chaos builds), then `submit(runtime, plan_id, finish)` hands the
  // request to the chosen shard. `finish(status, exec_ns)` is the request's
  // completion (FinishVersion), run once from the Runtime's completion; a
  // request refused before it (an error return) is booked here instead. A
  // `sync` request that went to a killed canary then finishes the rollback
  // if the control plane is free.
  template <typename Submit>
  Status Serve(const std::string& name, bool sync, Submit submit);
  // Books a finished request's outcome into the shard's health (breaker
  // verdict) and the decision's per-version stats — end-to-end latency
  // since `start_ns`, and the service time `exec_ns` (0 = never executed)
  // the verdict reads — evaluates the canary auto-rollback verdict (firing
  // the kill switch while still inside the gate), and exits the gate.
  void FinishVersion(const RouteDecision& decision, int64_t start_ns,
                     const Status& status, int64_t exec_ns);
  // Rollback body. REQUIRES control_mu_. expect_version 0 matches any.
  Status RollbackLocked(const std::string& name, uint64_t expect_version,
                        bool auto_trigger);
  // Epoch-reclaims one retired version: closes and drains its gate (every
  // straggler that routed before the swap exits), retires each
  // materialized registration with its shard's Runtime, releases the
  // version's ObjectStore pins, and sweeps the affected segments. REQUIRES
  // control_mu_; must not hold mu_.
  void ReclaimVersion(Version version);
  // Moves `name`'s primary off tripped shard `from`: re-activates a
  // materialized replica on a healthy shard if one exists, else re-compiles
  // through the normal Place path. Serialized by control_mu_.
  Result<ShardPlacement> Failover(const std::string& name, size_t from);
  // Pins the active replica count; REQUIRES control_mu_ (compiles outside
  // mu_, commits + publishes under it). Returns net change in active
  // replicas (negative = deactivated).
  Result<int> SetActiveReplicas(const std::string& name, size_t target);
  // The healthy (breaker-closed) shards that host no registration of
  // `version`, in ring order from `start`: where Failover and
  // SetActiveReplicas may materialize a new replica.
  std::vector<size_t> SpareShards(const Version& version, size_t start) const
      REQUIRES_SHARED(mu_);
  // Rebuilds `name`'s routing entry from its (non-pending) PlanState and
  // swaps in a snapshot that differs from the current one in that slot
  // only, then reclaims the old table and the replaced entry after the RCU
  // grace period. Readers never block this (they hold no lock), and
  // holding mu_ across the grace wait is safe because read sections never
  // acquire mu_.
  void PublishLocked(const std::string& name) REQUIRES(mu_);
  // A version's routing entry: its ACTIVE replicas, primary first.
  static VersionRouting RoutingFor(const Version& version);

  const ShardRouterOptions options_;
  std::unique_ptr<ObjectStore> global_store_;  // kGlobal scope only.
  // Version-lifecycle handles are allocated here, one VersionHandles per
  // Place or Deploy, and never freed while the router lives: published
  // snapshots and in-flight decisions hold raw pointers across table swaps,
  // and async completions book into them on shard executors — the pool is
  // declared before shards_ so it outlives the executor join. Growth is one
  // ~72-byte record per version; the bytes that matter (parameter blobs)
  // are what ReclaimVersion sweeps. A deque never moves its elements.
  struct LifecyclePool {
    std::mutex mu;
    std::deque<VersionHandles> versions;
  };
  LifecyclePool lifecycle_;
  VersionHandles* NewVersionHandles();
  // The one materialize path of Place, Deploy, Failover and
  // SetActiveReplicas: lowers and plans `spec` against `shard`'s segment,
  // registers the plan with that shard's Runtime, and returns the active
  // replica. Runs with no router lock held. A failure unwinds the
  // compile's interned pins; ResourceExhausted comes only from Register (the
  // shard's executor group is full), every other failure from lowering or
  // planning.
  Result<ReplicaState> Materialize(size_t shard, const PipelineSpec& spec,
                                   const PlanRegistration& registration);
  // Declared before shards_ so it outlives them: async callbacks running on
  // shard executors record outcomes here, and members destroy in reverse
  // declaration order (shards_ joins its executors first).
  std::vector<std::unique_ptr<ShardHealth>> health_;
  // Shards are constructed once in the constructor and never added, removed,
  // or reseated afterwards, so the vector itself needs no guard; each
  // shard's Runtime/ObjectStore do their own internal locking. GetMetrics
  // reads the shards WITHOUT mu_ — per-shard snapshots and the cross-shard
  // merge touch only Runtime/segment state — and takes a brief reader mu_
  // only for the replica breakdown, so a snapshot cannot stall behind a
  // concurrent compile (compiles run with mu_ dropped).
  std::vector<std::unique_ptr<Shard>> shards_;

  // Control-plane state. Predict paths never touch it — they read table_.
  // Lock order: control_mu_ -> mu_; mu_ is a leaf — never acquired while
  // holding any Runtime or ObjectStore lock, and every compile+register
  // step runs with it dropped.
  mutable SharedMutex mu_;
  std::unordered_map<std::string, PlanState> plans_ GUARDED_BY(mu_);
  // The writer's side of the published snapshot: the name index its cells
  // come from, and the owners of its entries (same slots).
  NameIndex index_ GUARDED_BY(mu_);
  std::vector<std::unique_ptr<const PlanRouting>> routes_ GUARDED_BY(mu_);
  uint64_t routing_publishes_ GUARDED_BY(mu_) = 0;
  uint64_t routing_entries_built_ GUARDED_BY(mu_) = 0;
  // The published routing snapshot. Swapped under mu_ (writers), read by
  // predicts with no lock at all.
  RcuCell<RoutingTable> table_;
  // Serializes control-plane multi-step operations (failover, replication,
  // maintenance) so racing requests cannot double-migrate or double-
  // replicate one plan. Cold path only.
  std::mutex control_mu_;

  // Lifetime replication counters (maintenance + explicit Replicate).
  std::atomic<uint64_t> replications_{0};
  std::atomic<uint64_t> dereplications_{0};
  // Lifetime lifecycle counters.
  std::atomic<uint64_t> deploys_{0};
  std::atomic<uint64_t> promotes_{0};
  std::atomic<uint64_t> rollbacks_{0};
  std::atomic<uint64_t> auto_rollbacks_{0};
};

}  // namespace pretzel

#endif  // PRETZEL_SERVING_SHARD_ROUTER_H_
