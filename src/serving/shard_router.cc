#include "src/serving/shard_router.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <thread>
#include <utility>

#include "src/common/clock.h"
#include "src/common/fault.h"
#include "src/common/serialize.h"
#include "src/flour/flour.h"
#include "src/oven/model_plan.h"

namespace pretzel {

namespace {

constexpr double kEwmaAlpha = 1.0 / 16.0;
// A replicated plan at or below this traffic share has cooled: it drops
// back to 1 active replica. Between this and kHotShareThreshold a plan
// keeps the replicas it has.
constexpr double kCoolShareThreshold = 0.04;
static_assert(kCoolShareThreshold < kHotShareThreshold);
// Canary auto-rollback verdict. A canary failure EWMA at or above
// kRollbackFailureEwma fires it. So does a slow share at or above
// kCanarySlowShare: a canary request whose service time (its exec_ns, the
// Runtime's ExecutePlan time: no queue wait, no hand-off) exceeds
// kRollbackLatencyX times the stable version's service-time EWMA is slow,
// and the share is an EWMA over that per-request indicator, like the
// failure verdict's. A sustained regression trips it within a dozen
// requests; a few preempted requests do not, and neither does a starved
// shard, whose queueing says nothing about the version. The service-time
// half is inert until the stable EWMA is nonzero.
constexpr double kRollbackFailureEwma = 0.5;
constexpr double kRollbackLatencyX = 8.0;
constexpr double kCanarySlowShare = 0.5;

double LoadEwma(const std::atomic<uint64_t>& bits) {
  return std::bit_cast<double>(bits.load(std::memory_order_relaxed));
}

void UpdateEwma(std::atomic<uint64_t>& bits, double sample) {
  uint64_t current = bits.load(std::memory_order_relaxed);
  const double prev = std::bit_cast<double>(current);
  const double next = prev + (sample - prev) * kEwmaAlpha;
  // Single-shot CAS: a lost race under contention drops one smoothing step,
  // never corrupts the value.
  bits.compare_exchange_weak(current, std::bit_cast<uint64_t>(next),
                             std::memory_order_relaxed,
                             std::memory_order_relaxed);
}

// The shard-fault taxonomy, shared by the breaker's verdict and a
// version's (both booked in FinishVersion): a deadline that expired inside
// the shard — its queues or execution burned the budget (kQueue / kExecution;
// untagged kUnspecified counts conservatively) — or an execution error.
// Backpressure (ResourceExhausted), caller errors (NotFound /
// InvalidArgument) and admission-time expiry (the request arrived already
// dead; the shard did no work) say nothing about the shard or the version:
// counting them would let an overload or a flood of doomed clients trip the
// breaker and amplify the very outage it guards against.
bool IsShardFault(const Status& status) {
  return (status.IsDeadlineExceeded() &&
          status.deadline_stage() != DeadlineStage::kAdmission) ||
         status.code() == StatusCode::kError;
}

// Per-thread xorshift for the p2c sample — routing needs cheap, not
// cryptographic, and a shared RNG would put a contended line on every
// predict.
uint64_t NextRand() {
  thread_local uint64_t state =
      std::hash<std::thread::id>()(std::this_thread::get_id()) | 1;
  uint64_t x = state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  state = x;
  return x;
}

// The ObjectStore pins a compile took: one per op param; released against
// the compiling shard's segment when the version retires.
std::vector<uint64_t> CollectChecksums(const LogicalProgram& program) {
  std::vector<uint64_t> checksums;
  checksums.reserve(program.ops.size());
  for (const auto& op : program.ops) {
    checksums.push_back(op.params->ContentChecksum());
  }
  return checksums;
}

// Unwinds an aborted compile: drops the pins the lowering's interning took
// and sweeps the segment, so a failed Plan/Register (including an armed
// oven.compile_fail) leaves the store exactly as it found it. Leaked pins
// would keep retired blobs resident forever.
void ReleaseProgramPins(ObjectStore* segment, const LogicalProgram& program) {
  for (const uint64_t checksum : CollectChecksums(program)) {
    (void)segment->Release(checksum);
  }
  (void)segment->Sweep();
}

}  // namespace

ShardRouter::ShardRouter(const ShardRouterOptions& options)
    : options_([&] {
        ShardRouterOptions o = options;
        o.num_shards = std::max<size_t>(1, o.num_shards);
        return o;
      }()),
      table_(new RoutingTable{index_.cells(), {}}) {
  if (options_.intern_scope == ShardRouterOptions::InternScope::kGlobal) {
    global_store_ = std::make_unique<ObjectStore>(options_.store);
  }
  health_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    health_.push_back(std::make_unique<ShardHealth>(options_.breaker));
  }
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->segment = global_store_ != nullptr
                         ? std::make_unique<ObjectStore>(options_.store,
                                                         global_store_.get())
                         : std::make_unique<ObjectStore>(options_.store);
    shard->runtime =
        std::make_unique<Runtime>(shard->segment.get(), options_.runtime);
    shards_.push_back(std::move(shard));
  }
}

uint32_t ShardRouter::JumpConsistentHash(uint64_t key, uint32_t num_buckets) {
  int64_t bucket = -1;
  int64_t next = 0;
  while (next < static_cast<int64_t>(num_buckets)) {
    bucket = next;
    key = key * 2862933555777941757ULL + 1;
    next = static_cast<int64_t>(
        static_cast<double>(bucket + 1) *
        (static_cast<double>(1LL << 31) /
         static_cast<double>((key >> 33) + 1)));
  }
  return static_cast<uint32_t>(bucket);
}

uint64_t ShardRouter::HashName(const std::string& name) {
  uint64_t hash = 14695981039346656037ULL;  // FNV-1a 64-bit offset basis.
  for (const char c : name) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ULL;  // FNV prime.
  }
  return hash;
}

size_t ShardRouter::ShardForKey(uint64_t key) const {
  return JumpConsistentHash(key, static_cast<uint32_t>(shards_.size()));
}

size_t ShardRouter::ShardFor(const std::string& name) const {
  return ShardForKey(HashName(name));
}

// ---------------------------------------------------------------------------
// Snapshot publication.

ShardRouter::VersionRouting ShardRouter::RoutingFor(const Version& version) {
  VersionRouting routing;
  routing.number = version.number;
  routing.gate = &version.handles->gate;
  routing.stats = &version.handles->stats;
  const auto ref = [](const ReplicaState& r) {
    return ReplicaRef{r.shard, r.plan_id, r.queue_delay_us, r.stats.get()};
  };
  routing.replicas.push_back(ref(version.replicas[version.primary]));
  for (size_t i = 0; i < version.replicas.size(); ++i) {
    if (i != version.primary && version.replicas[i].active) {
      routing.replicas.push_back(ref(version.replicas[i]));
    }
  }
  return routing;
}

void ShardRouter::PublishLocked(const std::string& name) {
  const PlanState& st = plans_.at(name);
  auto routing = std::make_unique<PlanRouting>();
  routing->traffic = st.traffic.get();
  routing->active = RoutingFor(st.active);
  if (st.canary.has_value()) {
    routing->canary = RoutingFor(*st.canary);
    routing->split = &st.canary->handles->split;
  }
  ++routing_entries_built_;
  // Only a name's first publish (its Place) inserts into the index, with
  // one store into cells every snapshot shares; no publish copies it.
  const uint64_t key = HashName(name);
  size_t slot = index_.cells()->Find(name, key);
  std::unique_ptr<NameIndex::Cells> retired_cells;
  if (slot == NameIndex::kNotFound) {
    slot = routes_.size();
    retired_cells = index_.Insert(name, key, slot);
    routes_.emplace_back();
  }
  std::unique_ptr<const PlanRouting> replaced =
      std::exchange(routes_[slot], std::move(routing));
  auto* table = new RoutingTable{index_.cells(), {}};
  table->routes.reserve(routes_.size());
  for (const auto& entry : routes_) {
    table->routes.push_back(entry.get());
  }
  ++routing_publishes_;
  // The grace wait cannot deadlock against readers: route-path read
  // sections never acquire mu_ (or any lock), so holding mu_ here is safe.
  // After it no reader holds the old table, so none can reach `replaced`
  // or cells an insert just outgrew (reachable only through snapshots
  // older than this one).
  delete table_.Exchange(table);
}

// ---------------------------------------------------------------------------
// Placement.

Result<ShardRouter::ReplicaState> ShardRouter::Materialize(
    size_t shard, const PipelineSpec& spec,
    const PlanRegistration& registration) {
  // Flour interns the params into the shard's segment (or through it into
  // the global store), Oven binds there.
  ObjectStore* segment = shards_[shard]->segment.get();
  FlourContext flour(segment);
  auto program = flour.FromPipeline(spec);
  if (program == nullptr) {
    return Status::InvalidArgument("pipeline '" + spec.name +
                                   "' did not lower");
  }
  Result<std::shared_ptr<ModelPlan>> plan = Plan(*program, spec.name);
  if (!plan.ok()) {
    ReleaseProgramPins(segment, *program);
    return plan.status();
  }
  Runtime& runtime = *shards_[shard]->runtime;
  Result<Runtime::PlanId> id = runtime.Register(std::move(*plan), registration);
  if (!id.ok()) {
    ReleaseProgramPins(segment, *program);
    return id.status();
  }
  ReplicaState replica;
  replica.shard = shard;
  replica.plan_id = *id;
  replica.queue_delay_us = runtime.QueueDelayCounter(*id);
  replica.stats = std::make_unique<ReplicaStats>();
  replica.checksums = CollectChecksums(*program);
  return replica;
}

Result<ShardPlacement> ShardRouter::Place(const PipelineSpec& spec,
                                          const PlanRegistration& registration) {
  const size_t shard = ShardFor(spec.name);
  {
    // Claim the name BEFORE the compile (entry stays pending, unpublished),
    // so a racing Place of the same name fails fast instead of registering
    // a duplicate, orphaned plan with the shard's Runtime.
    WriterMutexLock lock(mu_);
    auto [it, inserted] = plans_.try_emplace(spec.name);
    if (!inserted) {
      return Status::InvalidArgument("plan '" + spec.name +
                                     "' already placed");
    }
    it->second.pending = true;
  }
  // Compile against the owning shard's segment — outside the lock; the
  // pending entry holds the name.
  Result<ReplicaState> replica = Materialize(shard, spec, registration);
  if (!replica.ok()) {
    WriterMutexLock lock(mu_);
    plans_.erase(spec.name);  // Pending, never published: plain erase.
    return replica.status();
  }
  const ShardPlacement placement{shard, replica->plan_id};
  VersionHandles* handles = NewVersionHandles();
  WriterMutexLock lock(mu_);
  PlanState& st = plans_.at(spec.name);
  st.registration = registration;
  st.traffic = std::make_unique<PlanTraffic>();
  st.active.number = 1;
  st.active.spec = spec;
  st.active.replicas.push_back(std::move(*replica));
  st.active.handles = handles;
  st.pending = false;
  PublishLocked(spec.name);
  return placement;
}

// ---------------------------------------------------------------------------
// Versioned lifecycle.

ShardRouter::VersionHandles* ShardRouter::NewVersionHandles() {
  std::lock_guard<std::mutex> lock(lifecycle_.mu);
  return &lifecycle_.versions.emplace_back();
}

Result<uint64_t> ShardRouter::Deploy(const PipelineSpec& spec) {
  std::lock_guard<std::mutex> control(control_mu_);
  size_t shard = 0;
  uint64_t version = 0;
  PlanRegistration registration;
  {
    ReaderMutexLock lock(mu_);
    auto it = plans_.find(spec.name);
    if (it == plans_.end() || it->second.pending) {
      return Status::NotFound("plan '" + spec.name +
                              "' not placed (Deploy upgrades; Place first)");
    }
    const PlanState& st = it->second;
    if (st.canary.has_value()) {
      return Status::InvalidArgument("rollout already in flight for '" +
                                     spec.name + "'");
    }
    // Compile where the active version lives: its params are interned in
    // that shard's segment, so v(n+1)'s unchanged blobs resolve to hits.
    shard = st.active.replicas[st.active.primary].shard;
    version = st.next_version;
    registration = st.registration;
  }
  // Compile + register outside every router lock (mu_ is a leaf; the
  // control mutex serializes lifecycle ops only). A failure — including an
  // armed oven.compile_fail — returns here with the live version untouched.
  Result<ReplicaState> replica = Materialize(shard, spec, registration);
  if (!replica.ok()) {
    return replica.status();
  }
  const uint32_t fraction_bp = options_.rollout.canary_fraction_bp;
  Version canary;
  canary.number = version;
  canary.spec = spec;
  canary.replicas.push_back(std::move(*replica));
  canary.handles = NewVersionHandles();
  canary.handles->split.Publish(fraction_bp, version);
  {
    WriterMutexLock lock(mu_);
    PlanState& st = plans_.at(spec.name);
    st.next_version = version + 1;
    st.canary = std::move(canary);
    st.canary_fraction_bp = fraction_bp;
    PublishLocked(spec.name);
  }
  deploys_.fetch_add(1, std::memory_order_relaxed);
  return version;
}

Status ShardRouter::Promote(const std::string& name) {
  std::lock_guard<std::mutex> control(control_mu_);
  Version retired;
  uint64_t killed_version = 0;
  {
    WriterMutexLock lock(mu_);
    auto it = plans_.find(name);
    if (it == plans_.end() || it->second.pending) {
      return Status::NotFound("plan '" + name + "'");
    }
    PlanState& st = it->second;
    if (!st.canary.has_value()) {
      return Status::NotFound("no rollout in flight for '" + name + "'");
    }
    if (st.canary_killed()) {
      // The data path's kill switch fired but nothing has completed the
      // teardown yet (async completions only flip the switch; the sync and
      // maintenance paths may not have run since). Promoting a canary the
      // health gate condemned would defeat the controller, so finish the
      // rollback instead and tell the caller why.
      killed_version = st.canary->number;
    } else {
      retired = std::exchange(st.active, std::move(*st.canary));
      st.canary.reset();
      // One swap: all traffic moves to the new version, the canary split
      // disappears from the snapshot. The RCU grace inside guarantees no
      // reader still routes to the old version when we return.
      PublishLocked(name);
    }
  }
  if (killed_version != 0) {
    (void)RollbackLocked(name, killed_version, /*auto_trigger=*/true);
    return Status::Error("canary for '" + name +
                         "' was killed by the health gate; rolled back");
  }
  promotes_.fetch_add(1, std::memory_order_relaxed);
  ReclaimVersion(std::move(retired));
  return Status::OK();
}

Status ShardRouter::Rollback(const std::string& name) {
  std::lock_guard<std::mutex> control(control_mu_);
  return RollbackLocked(name, /*expect_version=*/0, /*auto_trigger=*/false);
}

Status ShardRouter::RollbackLocked(const std::string& name,
                                   uint64_t expect_version,
                                   bool auto_trigger) {
  Version canary;
  {
    WriterMutexLock lock(mu_);
    auto it = plans_.find(name);
    if (it == plans_.end() || !it->second.canary.has_value()) {
      return Status::NotFound("no rollout in flight for '" + name + "'");
    }
    if (expect_version != 0 && it->second.canary->number != expect_version) {
      return Status::NotFound("rollout for '" + name + "' superseded");
    }
    canary = std::move(*it->second.canary);
    it->second.canary.reset();
    PublishLocked(name);  // Snapshot without the canary: no new canary routes.
  }
  // Belt and braces: the kill switch may already have fired from the data
  // path; republish 0 so every observer agrees before the teardown.
  canary.handles->split.Publish(0, canary.number);
  ReclaimVersion(std::move(canary));
  rollbacks_.fetch_add(1, std::memory_order_relaxed);
  if (auto_trigger) {
    auto_rollbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

void ShardRouter::ReclaimVersion(Version version) {
  // Chaos site: the swap commit stalls (slow store, straggling drain). The
  // armed latency lands HERE — on the control plane, after the new snapshot
  // is live — so a stalled reclaim can never block the route path. That
  // separation is the invariant the chaos scenario asserts.
  PRETZEL_FAULT_STALL("store.swap_stall", static_cast<int64_t>(0));
  // Epoch order: the table swap's RCU grace already passed (PublishLocked),
  // so no new request can reach this gate; close it and wait out the
  // stragglers that routed before the swap.
  version.handles->gate.Close();
  version.handles->gate.AwaitDrain();
  for (const ReplicaState& r : version.replicas) {
    (void)shards_[r.shard]->runtime->Retire(r.plan_id);
    for (const uint64_t checksum : r.checksums) {
      shards_[r.shard]->segment->Release(checksum);
    }
  }
  // Sweep once per distinct segment (global scope delegates, so any one
  // sweep clears the shared store's zero-pin entries).
  std::vector<bool> swept(shards_.size(), false);
  for (const ReplicaState& r : version.replicas) {
    if (!swept[r.shard]) {
      swept[r.shard] = true;
      shards_[r.shard]->segment->Sweep();
    }
  }
}

void ShardRouter::FinishVersion(const RouteDecision& decision,
                                int64_t start_ns, const Status& status,
                                int64_t exec_ns) {
  ShardHealth& health = *health_[decision.shard];
  VersionStats& stats = *decision.stats;
  const bool fault = IsShardFault(status);
  const int64_t now_ns = NowNs();
  if (status.ok()) {
    health.successes.fetch_add(1, std::memory_order_relaxed);
    health.breaker.OnSuccess(now_ns / 1000);
    stats.successes.fetch_add(1, std::memory_order_relaxed);
  } else if (fault) {
    (status.IsDeadlineExceeded() ? health.timeouts : health.errors)
        .fetch_add(1, std::memory_order_relaxed);
    health.breaker.OnFailure(now_ns / 1000);
    stats.faults.fetch_add(1, std::memory_order_relaxed);
  } else {
    // No verdict (IsShardFault). A verdictless outcome still owes the
    // breaker its probe token back, or half-open wedges with every token
    // burned and no verdict ever coming.
    health.breaker.OnProbeAbandoned(now_ns / 1000);
  }
  if (status.ok() || fault) {
    UpdateEwma(health.failure_ewma_bits, fault ? 1.0 : 0.0);
    UpdateEwma(stats.failure_ewma_bits, fault ? 1.0 : 0.0);
    UpdateEwma(stats.latency_ewma_bits,
               static_cast<double>(now_ns - start_ns) / 1000.0);
  }
  // Only a request that executed has a service time to judge.
  if (exec_ns > 0) {
    const double service_us = static_cast<double>(exec_ns) / 1000.0;
    UpdateEwma(stats.service_ewma_bits, service_us);
    if (decision.split != nullptr) {
      // Judged per request, so one preempted request moves the share by
      // 1/16 instead of moving a mean by its full stall.
      const double stable_us = LoadEwma(decision.baseline->service_ewma_bits);
      const bool slow =
          stable_us > 0.0 && service_us > stable_us * kRollbackLatencyX;
      UpdateEwma(stats.slow_ewma_bits, slow ? 1.0 : 0.0);
    }
  }
  if (decision.split != nullptr && options_.rollout.auto_rollback) {
    // Verdict is evaluated INSIDE the gate: the rollout (and these stats)
    // cannot be reclaimed until we exit. A canary has one replica, so its
    // routed count is the canary's.
    // relaxed: monotone counter; a stale read only delays the verdict by a
    // request or two.
    const uint64_t seen =
        decision.replica->routed.load(std::memory_order_relaxed);
    if (seen >= options_.rollout.min_canary_requests) {
      const double fail = LoadEwma(stats.failure_ewma_bits);
      const double slow = LoadEwma(stats.slow_ewma_bits);
      if (fail >= kRollbackFailureEwma || slow >= kCanarySlowShare) {
        // Kill switch first — lock-free, stops canary traffic NOW; the
        // heavyweight teardown follows outside the gate.
        decision.split->Publish(0, decision.version);
      }
    }
  }
  decision.gate->Exit();
}

// ---------------------------------------------------------------------------
// Failover.

Result<ShardPlacement> ShardRouter::Failover(const std::string& name,
                                             size_t from) {
  std::lock_guard<std::mutex> control(control_mu_);
  // Re-check under the control lock: a racing request may already have
  // moved the plan while this one waited.
  Result<ShardPlacement> current = Placement(name);
  if (!current.ok()) {
    return current.status();
  }
  if (current->shard != from) {
    return *current;
  }
  ShardHealth& health = *health_[from];
  // relaxed: failovers is only ever advanced under control_mu_ (held
  // here), so this read cannot race another budget check.
  if (health.failovers.load(std::memory_order_relaxed) >=
      options_.max_failover_placements) {
    return Status::ResourceExhausted("shard " + std::to_string(from) +
                                     " failover budget spent");
  }
  PipelineSpec spec;
  PlanRegistration registration;
  std::vector<size_t> spare;
  {
    // Cheapest exit first: a replica already materialized on a healthy
    // shard becomes the new primary with zero compiles — replication work
    // doubles as pre-staged failover capacity. The sick replica leaves the
    // route set but stays registered so in-flight work drains; movement is
    // additive, never a teardown.
    WriterMutexLock lock(mu_);
    auto it = plans_.find(name);
    if (it == plans_.end() || it->second.pending) {
      return Status::NotFound("plan '" + name + "'");
    }
    Version& active = it->second.active;
    for (size_t i = 0; i < active.replicas.size(); ++i) {
      ReplicaState& r = active.replicas[i];
      if (r.shard == from ||
          health_[r.shard]->breaker.state() !=
              CircuitBreaker::State::kClosed) {
        continue;
      }
      r.active = true;
      active.replicas[active.primary].active = false;
      active.primary = i;
      PublishLocked(name);
      health.failovers.fetch_add(1, std::memory_order_relaxed);
      return ShardPlacement{r.shard, r.plan_id};
    }
    // No usable replica: the walk starts at a name-keyed offset so one sick
    // shard's plans spread over the survivors instead of piling onto a
    // single neighbor. `from` hosts the primary, so the walk skips it.
    const size_t n = shards_.size();
    spare = SpareShards(
        active, n > 1 ? (from + 1 + HashName(name) % (n - 1)) % n : from);
    spec = active.spec;
    registration = it->second.registration;
  }
  if (spare.empty()) {
    return Status::Error("no healthy shard to fail '" + name + "' over to");
  }
  const size_t target = spare.front();
  // Same materialize path as Place, against the target shard's segment;
  // mu_ stays dropped around the compile (it is a leaf lock).
  Result<ReplicaState> replica = Materialize(target, spec, registration);
  if (!replica.ok()) {
    return replica.status();
  }
  const ShardPlacement placement{target, replica->plan_id};
  {
    WriterMutexLock lock(mu_);
    Version& active = plans_.at(name).active;
    active.replicas[active.primary].active = false;
    active.replicas.push_back(std::move(*replica));
    active.primary = active.replicas.size() - 1;
    PublishLocked(name);
  }
  health.failovers.fetch_add(1, std::memory_order_relaxed);
  return placement;
}

std::vector<size_t> ShardRouter::SpareShards(const Version& version,
                                             size_t start) const {
  const size_t n = shards_.size();
  std::vector<bool> hosted(n, false);
  for (const ReplicaState& r : version.replicas) {
    hosted[r.shard] = true;
  }
  std::vector<size_t> spare;
  for (size_t k = 0; k < n; ++k) {
    const size_t shard = (start + k) % n;
    if (!hosted[shard] && health_[shard]->breaker.state() ==
                              CircuitBreaker::State::kClosed) {
      spare.push_back(shard);
    }
  }
  return spare;
}

// ---------------------------------------------------------------------------
// Replication control plane.

Result<int> ShardRouter::SetActiveReplicas(const std::string& name,
                                           size_t target) {
  const size_t cap = std::max<size_t>(
      1, std::min(options_.replication.max_replicas_per_plan,
                  shards_.size()));
  target = std::min(std::max<size_t>(1, target), cap);
  size_t active = 0;
  std::vector<size_t> spare;
  PipelineSpec spec;
  PlanRegistration registration;
  {
    ReaderMutexLock lock(mu_);
    auto it = plans_.find(name);
    if (it == plans_.end() || it->second.pending) {
      return Status::NotFound("plan '" + name + "'");
    }
    const Version& version = it->second.active;
    spec = version.spec;
    registration = it->second.registration;
    for (const ReplicaState& r : version.replicas) {
      active += r.active ? 1 : 0;
    }
    // Fresh replicas go to healthy, not-yet-hosting shards walking the ring
    // from the plan's home — deterministic, and different plans' homes
    // stagger so replicas spread.
    spare = SpareShards(version, ShardFor(name));
  }
  if (target == active) {
    return 0;
  }
  if (target < active) {
    // Cooling: deactivate non-primary extras, newest first. Registrations
    // stay materialized — a re-heated plan re-activates with zero compiles,
    // and residency was already bounded by the cap at materialize time.
    WriterMutexLock lock(mu_);
    Version& version = plans_.at(name).active;
    int removed = 0;
    for (size_t i = version.replicas.size(); i-- > 0 && active > target;) {
      if (i == version.primary || !version.replicas[i].active) {
        continue;
      }
      version.replicas[i].active = false;
      --active;
      ++removed;
    }
    if (removed > 0) {
      dereplications_.fetch_add(removed, std::memory_order_relaxed);
      PublishLocked(name);
    }
    return -removed;
  }
  // Heating. Free step first: re-activate materialized replicas. The
  // activation flips are committed now (under mu_) but published together
  // with the materialized remainder below — one snapshot swap for the
  // whole heat-up.
  int added = 0;
  {
    WriterMutexLock lock(mu_);
    Version& version = plans_.at(name).active;
    for (size_t i = 0; i < version.replicas.size() && active < target; ++i) {
      if (version.replicas[i].active) {
        continue;
      }
      version.replicas[i].active = true;
      ++active;
      ++added;
    }
  }
  // Materialize the remainder onto the spare shards. Compiles run with no
  // router lock held; the fresh replicas are collected locally and
  // committed in ONE publish after the loop. Per-replica activation
  // visibility mid-loop is not load-bearing, and PublishLocked blocks in
  // the RCU grace wait while holding mu_ — publishing per replica would
  // charge a K-replica heat-up K publishes and K grace waits, stalling
  // other control-plane writers.
  std::vector<ReplicaState> fresh;
  for (const size_t shard : spare) {
    if (active >= target) {
      break;
    }
    Result<ReplicaState> replica = Materialize(shard, spec, registration);
    if (!replica.ok()) {
      if (replica.status().IsResourceExhausted()) {
        continue;  // This shard is full; the next candidate may not be.
      }
      break;  // Spec no longer lowers or plans; nothing later will either.
    }
    fresh.push_back(std::move(*replica));
    ++active;
    ++added;
  }
  if (added > 0) {
    WriterMutexLock lock(mu_);
    Version& version = plans_.at(name).active;
    for (ReplicaState& replica : fresh) {
      version.replicas.push_back(std::move(replica));
    }
    PublishLocked(name);
    replications_.fetch_add(static_cast<uint64_t>(added),
                            std::memory_order_relaxed);
  }
  return added;
}

Status ShardRouter::Replicate(const std::string& name,
                              size_t target_replicas) {
  std::lock_guard<std::mutex> control(control_mu_);
  Result<int> delta = SetActiveReplicas(name, target_replicas);
  return delta.ok() ? Status::OK() : delta.status();
}

MaintenanceReport ShardRouter::MaintainReplication() {
  std::lock_guard<std::mutex> control(control_mu_);
  MaintenanceReport report;
  // One reader pass collects both halves of the scan: the canaries to
  // finish and the traffic rows. The rollbacks and SetActiveReplicas take
  // mu_ themselves, so they run after it is dropped. A rollback touches
  // only the canary, never the rows' active replicas or traffic.
  struct Row {
    std::string name;
    uint64_t interval = 0;
    size_t active = 0;
  };
  std::vector<std::string> killed;
  std::vector<Row> rows;
  uint64_t total = 0;
  {
    ReaderMutexLock lock(mu_);
    rows.reserve(plans_.size());
    for (auto& [name, st] : plans_) {
      // Lifecycle backstop: a canary whose kill switch fired on a thread
      // that could not run the blocking teardown (async completions book
      // outcomes on executor threads, and a sync request yields when the
      // control plane is busy) is finished below.
      if (st.canary_killed()) {
        killed.push_back(name);
      }
      if (st.pending) {
        continue;
      }
      // relaxed: cumulative routed count read for an interval diff; the
      // scan needs no ordering against the routes it counts — a straggling
      // increment simply lands in the next interval.
      const uint64_t cum = st.traffic->routed.load(std::memory_order_relaxed);
      Row row;
      row.name = name;
      row.interval = cum - st.traffic->last_scan_routed;
      st.traffic->last_scan_routed = cum;  // Guarded by control_mu_.
      for (const ReplicaState& r : st.active.replicas) {
        row.active += r.active ? 1 : 0;
      }
      total += row.interval;
      rows.push_back(std::move(row));
    }
  }
  for (const std::string& name : killed) {
    (void)RollbackLocked(name, /*expect_version=*/0, /*auto_trigger=*/true);
  }
  report.plans_scanned = rows.size();
  report.interval_requests = total;
  if (!options_.replication.enabled ||
      total < options_.replication.min_interval_requests) {
    return report;  // Disabled, or the interval carried no signal.
  }
  const size_t cap = std::max<size_t>(
      1, std::min(options_.replication.max_replicas_per_plan,
                  shards_.size()));
  for (const Row& row : rows) {
    const double share =
        static_cast<double>(row.interval) / static_cast<double>(total);
    size_t target = row.active;
    if (share >= kHotShareThreshold) {
      // Replica count proportional to the plan's traffic share of the
      // fleet (at least 2 — it is hot), bounded by the residency cap.
      target = std::min(
          cap, std::max<size_t>(
                   2, static_cast<size_t>(std::ceil(
                          share * static_cast<double>(shards_.size())))));
    } else if (share <= kCoolShareThreshold) {
      target = 1;
    }
    // Between the thresholds: hysteresis — keep whatever it has.
    if (target == row.active) {
      continue;
    }
    Result<int> delta = SetActiveReplicas(row.name, target);
    if (!delta.ok()) {
      continue;  // Unhealthy candidates etc.; the next scan retries.
    }
    if (*delta > 0) {
      report.replications += static_cast<size_t>(*delta);
    } else {
      report.dereplications += static_cast<size_t>(-*delta);
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// Request routing.

std::optional<ShardRouter::RouteDecision> ShardRouter::Admit(
    const VersionRouting& version, int64_t now_us) {
  const size_t n = version.replicas.size();
  size_t first = 0;
  size_t second = 0;
  if (n > 1) {
    // Power-of-two-choices: sample two distinct replicas, prefer the one
    // with the shorter live queue delay (balanced allocations: max load
    // drops from ~log n/log log n to ~log log n versus random).
    const uint64_t r = NextRand();
    first = static_cast<size_t>(r >> 32) % n;
    second = static_cast<size_t>(r & 0xffffffffULL) % (n - 1);
    if (second >= first) {
      ++second;
    }
    // relaxed: live queue-delay EWMAs are advisory p2c samples — any
    // coherent value is acceptable; staleness costs pick quality only,
    // never safety (the breaker gate below decides admissibility).
    const int64_t delay_first =
        version.replicas[first].queue_delay_us->load(
            std::memory_order_relaxed);
    const int64_t delay_second =
        version.replicas[second].queue_delay_us->load(
            std::memory_order_relaxed);
    if (delay_second < delay_first) {
      std::swap(first, second);
    }
  }
  // Breaker-gate the chosen replica, then the runner-up, then sweep the
  // rest — Allow() is called per attempted replica only (it claims
  // half-open probe tokens; probing replicas we will not use would burn
  // them).
  for (size_t i = 0; i < n + 2; ++i) {
    const size_t idx = i == 0 ? first : (i == 1 ? second : i - 2);
    if ((i >= 2 && (idx == first || idx == second)) ||
        (i == 1 && second == first)) {
      continue;
    }
    const ReplicaRef& replica = version.replicas[idx];
    if (!health_[replica.shard]->breaker.Allow(now_us)) {
      continue;
    }
    // Gate entry INSIDE the read section: the snapshot holding this gate
    // is what keeps it un-reclaimed until we are counted. A gate closes
    // only after a snapshot without it has published and its grace
    // passed, so for the active version entry cannot fail here (the check
    // is defense in depth); a closed canary gate (rollout tearing down)
    // sends the caller on to the active version.
    if (!version.gate->Enter()) {
      return std::nullopt;
    }
    replica.stats->routed.fetch_add(1, std::memory_order_relaxed);
    RouteDecision decision;
    decision.shard = replica.shard;
    decision.plan_id = replica.plan_id;
    decision.version = version.number;
    decision.gate = version.gate;
    decision.stats = version.stats;
    decision.replica = replica.stats;
    return decision;
  }
  return std::nullopt;
}

Result<ShardRouter::RouteDecision> ShardRouter::Route(
    const std::string& name) {
  size_t blocked_shard = 0;
  uint64_t seq = 0;
  // A successful failover republishes the table, so the route is retried
  // against the fresh snapshot (the new primary enters its version gate
  // like any other route). Bounded: each extra pass requires a failover
  // that succeeded, and the budget caps those.
  for (int attempt = 0; attempt < 3; ++attempt) {
    {
      // The common case runs entirely inside this read section: no mutex,
      // just the RCU enter/exit counters around a snapshot lookup, the
      // canary split, and Admit.
      auto guard = table_.Read();
      const PlanRouting* entry = guard->Find(name);
      if (entry == nullptr) {
        return Status::NotFound("plan '" + name + "'");
      }
      const PlanRouting& routing = *entry;
      if (attempt == 0) {
        // One sequence number per request: a failed-over retry counts once
        // in the hotness share and keeps its canary draw.
        seq = routing.traffic->routed.fetch_add(1, std::memory_order_relaxed);
      }
      const int64_t now_us = NowNs() / 1000;
      // Canary split. Deterministic in the count domain: request seq hashes
      // against the live fraction, so a 5% canary sees 5% exactly,
      // reproducibly. The split's target token must match the snapshot's
      // canary version — a reader can never send traffic to a canary whose
      // fraction it observed without its identity. A canary that does not
      // admit falls through to the active version: the request is never
      // lost.
      if (routing.canary.has_value()) {
        const CanarySplit::Split split = routing.split->Load();
        if (split.target == routing.canary->number &&
            CanarySplit::InCanary(seq, split.fraction_bp)) {
          if (std::optional<RouteDecision> decision =
                  Admit(*routing.canary, now_us)) {
            decision->baseline = routing.active.stats;
            decision->split = routing.split;
            return *decision;
          }
        }
      }
      if (std::optional<RouteDecision> decision =
              Admit(routing.active, now_us)) {
        return *decision;
      }
      // The primary owns the slow path.
      blocked_shard = routing.active.replicas[0].shard;
    }
    // Guard dropped before the control plane: a thread inside an RCU read
    // section must never publish (Failover swaps the table and would wait on
    // its own read guard).
    health_[blocked_shard]->rejected.fetch_add(1, std::memory_order_relaxed);
    Result<ShardPlacement> moved = Failover(name, blocked_shard);
    if (!moved.ok()) {
      break;
    }
    // Loop: re-route through the republished snapshot.
  }
  const int64_t now_us = NowNs() / 1000;
  const int64_t reopen_us = health_[blocked_shard]->breaker.reopen_at_us();
  return Status::ResourceExhausted("shard " + std::to_string(blocked_shard) +
                                   " circuit open")
      .WithRetryAfterUs(std::max<int64_t>(1, reopen_us - now_us));
}

Result<PlanVersionInfo> ShardRouter::VersionInfo(
    const std::string& name) const {
  ReaderMutexLock lock(mu_);
  auto it = plans_.find(name);
  if (it == plans_.end() || it->second.pending) {
    return Status::NotFound("plan '" + name + "'");
  }
  const PlanState& st = it->second;
  const VersionHandles& active = *st.active.handles;
  PlanVersionInfo info;
  info.active_version = st.active.number;
  info.next_version = st.next_version;
  info.stable_latency_ewma_us = LoadEwma(active.stats.latency_ewma_bits);
  info.stable_service_ewma_us = LoadEwma(active.stats.service_ewma_bits);
  info.stable_inflight = active.gate.inflight();
  if (st.canary.has_value()) {
    const VersionHandles& canary = *st.canary->handles;
    info.rollout_in_flight = true;
    info.rollout_version = st.canary->number;
    info.canary_fraction_bp = canary.split.Load().fraction_bp;
    // relaxed: point-in-time snapshot for tests/benches; no decision rides
    // on cross-counter consistency. A canary has one replica, so its
    // routed count is the canary's.
    info.canary_routed = st.canary->replicas.front().stats->routed.load(
        std::memory_order_relaxed);
    info.canary_faults = canary.stats.faults.load(std::memory_order_relaxed);
    info.canary_failure_ewma = LoadEwma(canary.stats.failure_ewma_bits);
    info.canary_latency_ewma_us = LoadEwma(canary.stats.latency_ewma_bits);
    info.canary_service_ewma_us = LoadEwma(canary.stats.service_ewma_bits);
  }
  return info;
}

Result<ShardPlacement> ShardRouter::Placement(const std::string& name) const {
  auto guard = table_.Read();
  const PlanRouting* routing = guard->Find(name);
  if (routing == nullptr) {
    return Status::NotFound("plan '" + name + "'");
  }
  const ReplicaRef& primary = routing->active.replicas.front();
  return ShardPlacement{primary.shard, primary.plan_id};
}

std::vector<ShardPlacement> ShardRouter::Replicas(
    const std::string& name) const {
  std::vector<ShardPlacement> replicas;
  auto guard = table_.Read();
  const PlanRouting* routing = guard->Find(name);
  if (routing == nullptr) {
    return replicas;
  }
  replicas.reserve(routing->active.replicas.size());
  for (const ReplicaRef& r : routing->active.replicas) {
    replicas.push_back(ShardPlacement{r.shard, r.plan_id});
  }
  return replicas;
}

template <typename Submit>
Status ShardRouter::Serve(const std::string& name, bool sync, Submit submit) {
  Result<RouteDecision> route = Route(name);
  if (!route.ok()) {
    return route.status();
  }
  const RouteDecision decision = *route;
  const int64_t start_ns = NowNs();
  // The request's completion in this layer: books its outcome and exits
  // its version gate, once. `this` outlives an async completion because
  // shards_ (joined first, reverse declaration order) drains its executors
  // before health_ and the lifecycle pool go away.
  const auto finish = std::bind_front(&ShardRouter::FinishVersion, this,
                                      decision, start_ns);
  Status status;
  // Chaos site: the owning shard has gone unresponsive — the request burns
  // the armed latency, then fails as a shard fault so the breaker sees it.
  if (PRETZEL_FAULT_POINT("serving.shard_unresponsive",
                          static_cast<int64_t>(decision.shard))) {
    SleepUs(fault::LatencyUs("serving.shard_unresponsive"));
    status = Status::Error("shard " + std::to_string(decision.shard) +
                           " unresponsive (fault-injected)");
  } else {
    status = submit(*shards_[decision.shard]->runtime, decision.plan_id,
                    finish);
  }
  if (!status.ok()) {
    finish(status, 0);  // Refused before its completion could run.
  }
  // A sync canary request whose kill switch has fired finishes the
  // teardown when the control plane is free. An async completion must not:
  // it runs on an executor, or inside the plan's lifecycle ref on this
  // thread, where Runtime::Retire must never run. The kill switch already
  // stopped canary traffic; a busy control plane, or an async kill, leaves
  // the teardown to the next sync request, Promote or the maintenance
  // backstop.
  if (sync && decision.split != nullptr &&
      decision.split->Load().fraction_bp == 0) {
    std::unique_lock<std::mutex> control(control_mu_, std::try_to_lock);
    if (control.owns_lock()) {
      (void)RollbackLocked(name, decision.version, /*auto_trigger=*/true);
    }
  }
  return status;
}

Result<float> ShardRouter::Predict(const std::string& name,
                                   std::string_view input,
                                   int64_t deadline_ns) {
  Result<float> result = Status::Error("pending");
  Status status = Serve(
      name, /*sync=*/true,
      [&](Runtime& runtime, Runtime::PlanId id, const auto& finish) {
        return runtime.Submit(
            id, {.input = input,
                 .deadline_ns = deadline_ns,
                 .done = [&](Result<float> r, int64_t exec_ns) {
                   finish(r.status(), exec_ns);
                   result = std::move(r);
                 },
                 .wait = true});
      });
  return status.ok() ? result : status;
}

Result<float> ShardRouter::PredictBinary(const std::string& name,
                                         std::span<const uint8_t> record,
                                         int64_t deadline_ns) {
  return Predict(name, WireView(record), deadline_ns);
}

Status ShardRouter::PredictAsync(const std::string& name, std::string input,
                                 std::function<void(Result<float>)> callback,
                                 int64_t deadline_ns) {
  return Serve(
      name, /*sync=*/false,
      [&](Runtime& runtime, Runtime::PlanId id, const auto& finish) {
        return runtime.Submit(
            id, {.owned = std::move(input),
                 .deadline_ns = deadline_ns,
                 .done = [finish, done = std::move(callback)](
                             Result<float> r, int64_t exec_ns) mutable {
                   finish(r.status(), exec_ns);
                   done(std::move(r));
                 }});
      });
}

Result<std::vector<float>> ShardRouter::PredictBatch(
    const std::string& name, const std::vector<std::string>& inputs,
    size_t max_batch, int64_t deadline_ns) {
  std::vector<float> scores(inputs.size(), 0.0f);
  Status status = Serve(
      name, /*sync=*/true,
      [&](Runtime& runtime, Runtime::PlanId id, const auto& finish) {
        // A sync batch has completed when PredictBatch returns; Serve books
        // an error return, with no service time.
        int64_t exec_ns = 0;
        Status batch = runtime.PredictBatch(id, inputs, max_batch, scores,
                                            deadline_ns, &exec_ns);
        if (batch.ok()) {
          finish(batch, exec_ns);
        }
        return batch;
      });
  if (!status.ok()) {
    return status;
  }
  return scores;
}

ShardedMetrics ShardRouter::GetMetrics() const {
  ShardedMetrics metrics;
  metrics.shards.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardMetrics shard;
    shard.shard = i;
    shard.runtime = shards_[i]->runtime->GetMetrics();
    shard.store_objects = shards_[i]->segment->NumObjects();
    shard.store_bytes = shards_[i]->segment->TotalBytes();
    // The fold dedups by plan name, so a replicated plan contributes one
    // logical row with summed counters — never K rows for K replicas.
    MergeRuntimeMetrics(metrics.merged, shard.runtime);
    metrics.store_objects += shard.store_objects;
    metrics.store_bytes += shard.store_bytes;
    metrics.shards.push_back(std::move(shard));
  }
  metrics.unique_plans = metrics.merged.plans.size();
  metrics.replications = replications_.load(std::memory_order_relaxed);
  metrics.dereplications = dereplications_.load(std::memory_order_relaxed);
  metrics.deploys = deploys_.load(std::memory_order_relaxed);
  metrics.promotes = promotes_.load(std::memory_order_relaxed);
  metrics.rollbacks = rollbacks_.load(std::memory_order_relaxed);
  metrics.auto_rollbacks = auto_rollbacks_.load(std::memory_order_relaxed);
  if (global_store_ != nullptr) {
    // Delegating segments hold nothing; the uniques live here.
    metrics.store_objects = global_store_->NumObjects();
    metrics.store_bytes = global_store_->TotalBytes();
  }
  // Load imbalance: fold each shard's plan queue-delay EWMAs into one
  // event-weighted number per shard, then compare the hottest shard to the
  // mean (the hot-shard bound bench_shard reports under Zipf skew).
  metrics.shard_queue_delay_us.reserve(metrics.shards.size());
  double sum = 0.0;
  for (const ShardMetrics& shard : metrics.shards) {
    double weighted = 0.0;
    double events = 0.0;
    for (const PlanMetrics& pm : shard.runtime.plans) {
      const double weight = static_cast<double>(pm.enqueued_events);
      weighted += static_cast<double>(pm.queue_delay_ewma_us) * weight;
      events += weight;
    }
    const double load = events > 0.0 ? weighted / events : 0.0;
    metrics.shard_queue_delay_us.push_back(load);
    sum += load;
    if (load > metrics.max_shard_queue_delay_us) {
      metrics.max_shard_queue_delay_us = load;
      metrics.hottest_shard = metrics.shard_queue_delay_us.size() - 1;
    }
  }
  if (!metrics.shard_queue_delay_us.empty()) {
    metrics.mean_shard_queue_delay_us =
        sum / static_cast<double>(metrics.shard_queue_delay_us.size());
  }
  if (metrics.mean_shard_queue_delay_us > 0.0) {
    metrics.queue_delay_imbalance =
        metrics.max_shard_queue_delay_us / metrics.mean_shard_queue_delay_us;
  }
  {
    // Per-replica breakdown (where each logical plan's traffic landed) and
    // the publication counters. Brief reader-side mu_ — control-plane
    // state, not the route path.
    ReaderMutexLock lock(mu_);
    metrics.routing_publishes = routing_publishes_;
    metrics.routing_entries_built = routing_entries_built_;
    metrics.plan_replicas.reserve(plans_.size());
    for (const auto& [name, st] : plans_) {
      if (st.pending) {
        continue;
      }
      const Version& version = st.active;
      PlanReplicaMetrics plan;
      plan.name = name;
      plan.replicas.reserve(version.replicas.size());
      size_t active = 0;
      const auto snapshot = [](const ReplicaState& r) {
        ReplicaMetrics m;
        m.shard = r.shard;
        m.plan_id = r.plan_id;
        m.active = r.active;
        m.routed = r.stats->routed.load(std::memory_order_relaxed);
        m.queue_delay_ewma_us =
            r.queue_delay_us->load(std::memory_order_relaxed);
        return m;
      };
      plan.replicas.push_back(snapshot(version.replicas[version.primary]));
      active += version.replicas[version.primary].active ? 1 : 0;
      for (size_t i = 0; i < version.replicas.size(); ++i) {
        if (i == version.primary) {
          continue;
        }
        plan.replicas.push_back(snapshot(version.replicas[i]));
        active += version.replicas[i].active ? 1 : 0;
      }
      if (active > 1) {
        ++metrics.replicated_plans;
      }
      metrics.plan_replicas.push_back(std::move(plan));
    }
  }
  metrics.shard_health.reserve(health_.size());
  for (const auto& health : health_) {
    ShardHealthSnapshot snapshot;
    snapshot.breaker_state = health->breaker.state();
    snapshot.successes = health->successes.load(std::memory_order_relaxed);
    snapshot.errors = health->errors.load(std::memory_order_relaxed);
    snapshot.timeouts = health->timeouts.load(std::memory_order_relaxed);
    snapshot.rejected = health->rejected.load(std::memory_order_relaxed);
    snapshot.failovers = health->failovers.load(std::memory_order_relaxed);
    snapshot.trips = health->breaker.trips();
    snapshot.failure_ewma = LoadEwma(health->failure_ewma_bits);
    metrics.shard_health.push_back(snapshot);
  }
  return metrics;
}

}  // namespace pretzel
