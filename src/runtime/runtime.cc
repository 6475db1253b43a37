#include "src/runtime/runtime.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <unordered_map>

#include "src/common/clock.h"
#include "src/common/fault.h"
#include "src/common/serialize.h"

namespace pretzel {

// One logical batch request. Whoever runs a chunk (an executor, or the
// job's blocked synchronous caller) decrements `remaining`; the last one out
// invokes the callback. Every record is a view of its wire bytes (text or
// BinaryRecord): into `owned_inputs` for an async batch, into the blocked
// synchronous caller's strings or wire buffer otherwise. Results are owned
// (async) or written straight through the blocked caller's span.
struct Runtime::BatchJob {
  std::shared_ptr<ModelPlan> plan;
  std::vector<std::string> owned_inputs;
  std::vector<std::string_view> view_inputs;
  std::vector<float> owned_results;
  float* results = nullptr;
  // SubmitBatchJob's split: chunk i covers records [i * chunk, (i + 1) *
  // chunk), and its take flag makes it run exactly once whether its
  // executor ticket or the synchronous caller reaches it first.
  size_t chunk = 1;
  ChunkClaims claims;
  std::atomic<size_t> remaining{0};
  BatchCallback callback;
  // Absolute expiry shared by every chunk; checked between quanta so a
  // deadline that dies mid-batch stops burning executors on the remainder.
  int64_t deadline_ns = 0;

  Mutex error_mu;
  Status first_error GUARDED_BY(error_mu);  // OK unless some record failed.
};

// A blocked caller's rendezvous with its own request's completion: a
// reserved plan's synchronous single, or a synchronous batch. Set notifies
// under the lock, so the waiter (which owns this on its stack) cannot
// return before the completing thread is done with it.
namespace {

template <typename T>
class Waiter {
 public:
  void Set(T value) {
    std::lock_guard<std::mutex> lock(mu_);
    value_ = std::move(value);
    done_ = true;
    cv_.notify_one();
  }
  T Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return done_; });
    return std::move(value_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  T value_ = Status::Error("pending");
};

}  // namespace

// Capacity of each group's runnable rotation ring; a plan occupies at most
// one slot (its dispatch claim), so this bounds plans per group.
constexpr size_t kRunnableRingCapacity = 8192;

// Inline-when-idle ceiling on a plan's per-event execution-time EWMA
// (execution plus completion callback). Near the measured cost of handing
// a request to a parked executor (about 14-17us of wake-up and queue wait
// on a 4-vCPU x86 VM): a plan cheaper than this finishes on the caller's
// thread sooner than an executor could even start it, while a costlier one
// would hold the submitting thread longer than the hop it saves.
constexpr int64_t kInlineMaxExecNs = 20'000;

// Set for the whole life of an executor thread, and on a submitting thread
// while it runs an inline quantum: such a thread is already doing runtime
// work, so its own async submissions (say, a callback that resubmits)
// enqueue instead of nesting another inline quantum on the stack.
thread_local bool t_runtime_work = false;

// Per-plan estimates (alpha 1/8). Every dispatch folds its queue wait into
// the plan's queue-delay EWMA — a ResourceExhausted rejection attaches that
// estimate, floored at 1us so callers can test `retry_after_us() > 0` for
// presence — and every singles quantum its per-event time into the
// exec-time EWMA the inline rule reads. Racy updates are fine (estimates).
static void UpdateEwma(std::atomic<int64_t>& ewma, int64_t sample) {
  const int64_t prev = ewma.load(std::memory_order_relaxed);
  ewma.store(prev + (sample - prev) / 8, std::memory_order_relaxed);
}

static int64_t RetryAfterHintUs(const std::atomic<int64_t>& ewma) {
  return std::max<int64_t>(1, ewma.load(std::memory_order_relaxed));
}

// Time-spent attribution for a deadline drop: where the budget went is
// something only the dropping tier knows. `enqueue_ns` == 0 means the work
// never entered a queue (admission-time drop). The machine-readable stage
// rides the status so ShardRouter's health accounting can tell "arrived
// already dead" (not this shard's fault) from "died in this shard".
static Status ExpiredStatus(const char* stage, DeadlineStage stage_tag,
                            int64_t now_ns, int64_t deadline_ns,
                            int64_t enqueue_ns) {
  std::string msg = std::string(stage) + ", " +
                    std::to_string((now_ns - deadline_ns) / 1000) +
                    "us past deadline";
  if (enqueue_ns > 0) {
    msg += " after " + std::to_string((now_ns - enqueue_ns) / 1000) +
           "us queued";
  }
  return Status::DeadlineExceeded(std::move(msg)).WithDeadlineStage(stage_tag);
}

// One link of a plan's event queue: the events of one enqueue call, packed
// into trailing storage (one allocation per call, exactly sized) and
// chained FIFO through the lock-free Vyukov MPSC queue. Producer-created,
// destroyed by the quantum owner once its cursor has moved every event out.
struct Runtime::EventSegment : MpscNode {
  size_t count = 0;

  Event* events() { return reinterpret_cast<Event*>(this + 1); }

  // Moves events[0, n) out of `src` into the trailing storage.
  static EventSegment* Create(Event* src, size_t n) {
    static_assert(alignof(Event) <= alignof(EventSegment),
                  "trailing Event storage would be misaligned");
    void* mem = ::operator new(sizeof(EventSegment) + n * sizeof(Event));
    auto* segment = new (mem) EventSegment();
    segment->count = n;
    for (size_t i = 0; i < n; ++i) {
      new (&segment->events()[i]) Event(std::move(src[i]));
    }
    return segment;
  }

  // Destroys every slot (moved-from ones included; at shutdown undrained
  // slots still hold events whose callbacks never ran).
  static void Destroy(EventSegment* segment) {
    for (size_t i = 0; i < segment->count; ++i) {
      segment->events()[i].~Event();
    }
    segment->~EventSegment();
    ::operator delete(segment);
  }
};

// An executor group: the threads draining one set of plans (the shared pool,
// or one reservation's dedicated executors) and the round-robin rotation of
// plans with queued events.
struct Runtime::ExecGroup {
  // Ring capacity bounds plans per group: the shared group gets the full
  // rotation; a reserved group rotates exactly one plan (capacity 2, the
  // ring's minimum).
  explicit ExecGroup(size_t ring_capacity) : runnable_ring(ring_capacity) {}

  size_t num_executors = 1;
  std::atomic<size_t> plan_count{0};
  // The first executor's sub-plan cache (null when caching is off). Inline
  // work on this group's plans borrows it — it is mutex-guarded — so a
  // plan's materializations are shared, not duplicated, across the two
  // paths.
  SubPlanCache* inline_cache = nullptr;

  // The runnable rotation is an MPMC ring; executors park on the
  // eventcount, so producers skip the kernel while executors are busy.
  // runnable_count mirrors the ring's occupancy for the adaptive linger's
  // "does anyone else have work" test.
  BoundedMpmcRing<PlanQueue*> runnable_ring;
  EventCount ec;
  std::atomic<size_t> runnable_count{0};
};

// Per-plan scheduler state. `plan` and the policy fields are written once
// under registry_mu_ before the queue is first published, and read-only
// afterwards.
//
// Producers admit through the atomic `queued` counter, then push their
// call's events as one EventSegment onto `segments`. The dispatch `claim`
// keeps the plan at most once in the group's runnable rotation; whoever
// pops it from the rotation (or wins it inline) is the queue's single
// consumer, reading through the `cur`/`cur_idx` cursor, until it
// re-publishes or releases the claim.
struct Runtime::PlanQueue {
  // Frees segments stranded at shutdown (their events' callbacks are never
  // invoked).
  ~PlanQueue() {
    if (cur != nullptr) {
      EventSegment::Destroy(cur);
    }
    while (MpscNode* node = segments.TryPop()) {
      EventSegment::Destroy(static_cast<EventSegment*>(node));
    }
  }

  PlanId id = 0;
  std::shared_ptr<ModelPlan> plan;
  ExecGroup* group = nullptr;
  bool reserved = false;
  size_t max_batch = 1;
  int64_t max_delay_us = 0;

  // ---- Versioned lifecycle ----
  // Retire() publishes `retired`, then waits for scheduler occupancy and
  // `lifecycle_refs` to drain before dropping `plan`. Every path that
  // touches `plan` outside the registry lock holds a ref: admission gates
  // take theirs BEFORE loading `retired` (both seq_cst — the classic
  // store-buffering pair, so either the admitter sees the flag or the
  // retirer sees the ref), and executors take theirs for each gathered
  // quantum BEFORE decrementing `queued`, so gathered-but-executing events
  // are never in neither count.
  std::atomic<bool> retired{false};
  std::atomic<int64_t> lifecycle_refs{0};
  // Immutable name copy: GetMetrics stays readable after Retire drops
  // `plan`.
  std::string plan_name;

  // Admission half of the lifecycle protocol above. On false the ref is
  // already released; on true the caller must ReleaseLifecycle after its
  // last touch of `plan` (for queued work: after the enqueue publishes —
  // admitted events are then covered by the occupancy drain instead).
  bool AdmitLifecycle() {
    lifecycle_refs.fetch_add(1, std::memory_order_seq_cst);
    if (retired.load(std::memory_order_seq_cst)) {
      lifecycle_refs.fetch_sub(1, std::memory_order_seq_cst);
      return false;
    }
    return true;
  }
  void ReleaseLifecycle() {
    lifecycle_refs.fetch_sub(1, std::memory_order_seq_cst);
  }

  // The work the cap and the shedding estimate should see: `queued` less
  // its stale chunk tickets, so a closed-loop synchronous batch caller that
  // outruns the executors never has more than its own call's chunks
  // counted. `stale_chunks` is loaded FIRST: an executor that drops stale
  // tickets subtracts from `queued` before `stale_chunks`, so a drop landing
  // between the two loads makes this under-count (admit early), never
  // over-count (a false cap rejection). The `queued` it read goes to
  // *queued_now (the cap's CAS expects it).
  size_t LiveQueued(size_t* queued_now) const {
    const auto stale = static_cast<size_t>(
        std::max<int64_t>(0, stale_chunks.load(std::memory_order_seq_cst)));
    *queued_now = queued.load(std::memory_order_seq_cst);
    return *queued_now - std::min(*queued_now, stale);
  }

  // ---- Event queue ----
  // FIFO chain of EventSegments (wait-free producer push). cur/cur_idx are
  // the consumer's private cursor: the segment it is reading and the index
  // of its next event (ownership travels with the dispatch claim).
  MpscIntrusiveQueue segments;
  EventSegment* cur = nullptr;
  size_t cur_idx = 0;
  // Events admitted and not yet gathered into a dispatch quantum; doubles
  // as the backpressure cap check and the queue_depth metric.
  std::atomic<size_t> queued{0};
  // Chunk events among them; the adaptive linger must end as soon as batch
  // work exists anywhere in the queue.
  std::atomic<size_t> chunk_count{0};
  // Held while the plan is in the runnable rotation or owned by an executor
  // or inline caller.
  DispatchClaim claim;
  // True while an executor lingers for this plan's batch to fill; enqueues
  // then NotifyAll so the linger predicate is re-evaluated.
  std::atomic<bool> lingering{false};

  // ---- Counters (relaxed atomics) ----
  // Enqueue->dispatch delay EWMA (alpha 1/8), written by whichever executor
  // dispatches; the retry-after hint on this plan's rejections. Racy
  // updates are fine — it is an estimate.
  std::atomic<int64_t> queue_delay_ewma_us{0};
  // Per-event execution-time EWMA of singles quanta (execution plus the
  // completion callback, ns); the inline rule compares it to
  // kInlineMaxExecNs.
  std::atomic<int64_t> exec_ewma_ns{0};
  // Chunk tickets still queued whose chunk the job's synchronous caller
  // ran: the caller adds one per chunk it takes, the executor that
  // drops the ticket subtracts it AFTER its `queued` decrement (LiveQueued
  // relies on that order). Between a caller's take and its add, the ticket
  // still reads live. Signed — the caller's add may land after the drop.
  std::atomic<int64_t> stale_chunks{0};
  std::atomic<uint64_t> inline_predictions{0};
  std::atomic<uint64_t> enqueued{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> dispatches{0};
  std::atomic<uint64_t> caller_dispatches{0};
  std::atomic<uint64_t> coalesced{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> expired_admission{0};
  std::atomic<uint64_t> expired_dequeue{0};
  std::atomic<uint64_t> expired_quantum{0};
  std::atomic<uint64_t> shed_deadline{0};
  // PlanMetrics' histograms, recorded by every thread that dispatches.
  Histogram batch_records;
  Histogram queue_wait_us;
  Histogram single_latency_us;
};

Runtime::Runtime(ObjectStore* store, const RuntimeOptions& options)
    : store_(store),
      options_([&] {
        RuntimeOptions o = options;
        o.num_executors = std::max<size_t>(1, o.num_executors);
        o.default_max_batch = std::max<size_t>(1, o.default_max_batch);
        return o;
      }()),
      caller_contexts_(&caller_pool_, /*reuse_enabled=*/true) {
  shared_group_ = std::make_unique<ExecGroup>(kRunnableRingCapacity);
  shared_group_->num_executors = options_.num_executors;
  // No other thread exists yet; the lock only discharges SpawnExecutor's
  // REQUIRES(registry_mu_) (executors never take the registry lock, so
  // spawning under it cannot deadlock).
  WriterMutexLock lock(registry_mu_);
  for (size_t i = 0; i < options_.num_executors; ++i) {
    SpawnExecutor(shared_group_.get());
  }
}

Runtime::~Runtime() {
  stop_.store(true, std::memory_order_seq_cst);
  {
    ReaderMutexLock lock(registry_mu_);
    shared_group_->ec.NotifyAll();
    for (const auto& group : reserved_groups_) {
      group->ec.NotifyAll();
    }
  }
  for (auto& thread : threads_) {
    thread.join();
  }
}

void Runtime::SpawnExecutor(ExecGroup* group) {
  SubPlanCache* cache = nullptr;
  if (options_.subplan_cache_bytes > 0) {
    executor_caches_.push_back(
        std::make_unique<SubPlanCache>(options_.subplan_cache_bytes));
    cache = executor_caches_.back().get();
  }
  executor_pools_.push_back(std::make_unique<VectorPool>());
  VectorPool* pool = executor_pools_.back().get();
  if (group->inline_cache == nullptr) {
    group->inline_cache = cache;  // The first cache spawned.
  }
  threads_.emplace_back(
      [this, group, cache, pool] { ExecutorLoop(group, cache, pool); });
}

Result<Runtime::PlanId> Runtime::Register(std::shared_ptr<ModelPlan> plan,
                                          const PlanRegistration& registration) {
  if (plan == nullptr) {
    return Status::InvalidArgument("null plan");
  }
  WriterMutexLock lock(registry_mu_);
  const PlanId id = plan_queues_.size();
  auto pq = std::make_unique<PlanQueue>();
  pq->id = id;
  pq->plan = std::move(plan);
  pq->plan_name = pq->plan->name();
  pq->max_batch = registration.max_batch > 0 ? registration.max_batch
                                             : options_.default_max_batch;
  pq->max_delay_us = registration.max_delay_us >= 0
                         ? registration.max_delay_us
                         : options_.default_max_delay_us;
  const size_t cores =
      std::min(registration.reserve_cores, kMaxReservedCoresPerPlan);
  if (cores > 0) {
    auto group = std::make_unique<ExecGroup>(2);  // Rotates exactly one plan.
    group->num_executors = cores;
    group->plan_count.store(1, std::memory_order_relaxed);
    pq->group = group.get();
    pq->reserved = true;
    reservations_.push_back(Reservation{id, cores});
    // Dedicated executors are extra threads: reserving never shrinks the
    // shared pool.
    for (size_t i = 0; i < cores; ++i) {
      SpawnExecutor(group.get());
    }
    reserved_groups_.push_back(std::move(group));
  } else {
    // Each plan occupies at most one runnable-ring slot, so the ring
    // capacity bounds plans per group.
    if (shared_group_->plan_count.fetch_add(1, std::memory_order_relaxed) + 1 >
        kRunnableRingCapacity) {
      shared_group_->plan_count.fetch_sub(1, std::memory_order_relaxed);
      return Status::ResourceExhausted("shared executor group plan limit");
    }
    pq->group = shared_group_.get();
  }
  plan_queues_.push_back(std::move(pq));
  return id;
}

Runtime::PlanQueue* Runtime::GetQueue(PlanId id) const {
  ReaderMutexLock lock(registry_mu_);
  return id < plan_queues_.size() ? plan_queues_[id].get() : nullptr;
}

const std::atomic<int64_t>* Runtime::QueueDelayCounter(PlanId id) const {
  PlanQueue* pq = GetQueue(id);
  return pq == nullptr ? nullptr : &pq->queue_delay_ewma_us;
}

Status Runtime::Retire(PlanId id) {
  PlanQueue* pq = GetQueue(id);
  if (pq == nullptr) {
    return Status::NotFound("plan " + std::to_string(id));
  }
  if (pq->retired.exchange(true, std::memory_order_seq_cst)) {
    return Status::OK();  // Already retired; the first caller drained.
  }
  // Drain. The check order inside each pass is load-bearing: scheduler
  // occupancy FIRST, lifecycle_refs SECOND. Executors take their quantum
  // ref before decrementing `queued` and admitters take theirs before
  // loading `retired`, so any in-flight work the occupancy check misses is
  // visible to the refs check of the same pass.
  while (pq->queued.load(std::memory_order_seq_cst) != 0 ||
         pq->claim.held() ||
         pq->lifecycle_refs.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  // No admission can now succeed and no executor holds the plan: drop the
  // reference, so params the ObjectStore has Released can actually leave
  // the heap. The PlanQueue shell stays (id/counter pointer stability).
  pq->plan.reset();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Enqueue protocol. Cap check, timestamping, chunk accounting, runnable
// publication, and the wakeup rule live here and only here.

Status Runtime::AdmitDeadline(PlanQueue* pq, int64_t deadline_ns, size_t n) {
  if (deadline_ns <= 0) {
    return Status::OK();
  }
  const int64_t now = NowNs();
  if (now >= deadline_ns) {
    pq->expired_admission.fetch_add(n, std::memory_order_relaxed);
    return ExpiredStatus("at admission", DeadlineStage::kAdmission, now,
                         deadline_ns, /*enqueue_ns=*/0);
  }
  // The estimate forecasts the wait behind events queued NOW; with an empty
  // queue it is history, not forecast, and acting on it wedges the valve
  // open: shed everything -> nothing dispatches -> the EWMA never
  // refreshes -> shed forever, starving an idle plan (observed as goodput
  // collapse in bench_resilience's post-burst phase).
  size_t queued_now = 0;
  if (pq->LiveQueued(&queued_now) > 0) {
    const int64_t est_us =
        pq->queue_delay_ewma_us.load(std::memory_order_relaxed);
    const int64_t remaining_us = (deadline_ns - now) / 1000;
    if (est_us > remaining_us) {
      // Doomed-by-estimate: shed NOW with a retryable status instead of
      // queueing work that will expire — early ResourceExhausted beats late
      // DeadlineExceeded (the caller can fail over while budget remains).
      pq->shed_deadline.fetch_add(n, std::memory_order_relaxed);
      return Status::ResourceExhausted(
                 "plan " + std::to_string(pq->id) + " queue-delay estimate " +
                 std::to_string(est_us) + "us exceeds remaining deadline " +
                 std::to_string(remaining_us) + "us")
          .WithRetryAfterUs(RetryAfterHintUs(pq->queue_delay_ewma_us));
    }
  }
  return Status::OK();
}

Status Runtime::EnqueueEvents(PlanQueue* pq, Event* events, size_t n) {
  if (n == 0) {
    return Status::OK();
  }
  ExecGroup* group = pq->group;
  // Admission: an atomic counter enforces the cap. With a cap, admit by CAS
  // so a rejected submission never even transiently inflates `queued` (a
  // blind fetch_add+undo could make a concurrent fitting submission observe
  // phantom occupancy and bounce). Stale chunk tickets do not count against
  // the cap (LiveQueued).
  const size_t cap = options_.max_queued_events_per_plan;
  if (cap > 0) {
    for (;;) {
      size_t queued_now = 0;
      if (pq->LiveQueued(&queued_now) + n > cap) {
        pq->rejected.fetch_add(n, std::memory_order_relaxed);
        return Status::ResourceExhausted("plan " + std::to_string(pq->id) +
                                         " queue over " + std::to_string(cap) +
                                         " events")
            .WithRetryAfterUs(RetryAfterHintUs(pq->queue_delay_ewma_us));
      }
      if (pq->queued.compare_exchange_weak(queued_now, queued_now + n,
                                           std::memory_order_seq_cst)) {
        break;
      }
    }
  } else {
    pq->queued.fetch_add(n, std::memory_order_seq_cst);
  }
  const int64_t now = NowNs();
  size_t chunks = 0;
  for (size_t i = 0; i < n; ++i) {
    events[i].enqueue_ns = now;
    if (events[i].job != nullptr) {
      ++chunks;
    }
  }
  if (chunks > 0) {
    pq->chunk_count.fetch_add(chunks, std::memory_order_seq_cst);
  }
  pq->segments.Push(EventSegment::Create(events, n));
  pq->enqueued.fetch_add(n, std::memory_order_relaxed);
  // Publish: first producer to find the plan unclaimed puts it in the
  // rotation; everyone else just wakes an executor.
  if (pq->claim.TryAcquire()) {
    PushRunnable(group, pq);
  }
  if (n > 1 || pq->lingering.load(std::memory_order_seq_cst)) {
    group->ec.NotifyAll();
  } else {
    group->ec.NotifyOne();
  }
  return Status::OK();
}

void Runtime::PushRunnable(ExecGroup* group, PlanQueue* pq) {
  group->runnable_count.fetch_add(1, std::memory_order_seq_cst);
  // A plan occupies at most one slot and Register bounds plans per group by
  // the ring capacity, so this cannot spin forever.
  PlanQueue* item = pq;
  while (!group->runnable_ring.TryPush(std::move(item))) {
    std::this_thread::yield();
  }
}

bool Runtime::PopRunnable(ExecGroup* group, PlanQueue** pq) {
  if (group->runnable_ring.TryPop(pq)) {
    group->runnable_count.fetch_sub(1, std::memory_order_seq_cst);
    return true;
  }
  return false;
}

// Round-robin hand-off, run by the claim owner BEFORE it executes its
// quantum: if events remain, the plan goes back in the rotation (the claim
// travels with the ring slot) so a sibling can take its next quantum
// meanwhile. Otherwise release the claim, whose re-check re-publishes work
// a producer enqueued after the owner's last pop.
void Runtime::HandOff(PlanQueue* pq) {
  const auto pending = [pq] {
    return pq->queued.load(std::memory_order_seq_cst) > 0;
  };
  if (pending() || pq->claim.Release(pending)) {
    PushRunnable(pq->group, pq);
    pq->group->ec.NotifyOne();
  }
}

// Quantum-owner only. A transiently split chain (a producer between its
// exchange and its link store) reads as empty; ExecutorLoop's
// admitted-but-unpublished handling covers it.
Runtime::Event* Runtime::PeekEvent(PlanQueue* pq) {
  if (pq->cur == nullptr) {
    MpscNode* node = pq->segments.TryPop();
    if (node == nullptr) {
      return nullptr;
    }
    pq->cur = static_cast<EventSegment*>(node);
    pq->cur_idx = 0;
  }
  return &pq->cur->events()[pq->cur_idx];
}

Runtime::Event Runtime::TakeEvent(PlanQueue* pq) {
  Event event = std::move(pq->cur->events()[pq->cur_idx]);
  if (++pq->cur_idx == pq->cur->count) {
    EventSegment::Destroy(pq->cur);
    pq->cur = nullptr;
  }
  return event;
}

bool Runtime::PopLive(PlanQueue* pq, Event* out, size_t* stale) {
  while (PeekEvent(pq) != nullptr) {
    *out = TakeEvent(pq);
    if (out->job == nullptr || TakeChunk(*out)) {
      return true;
    }
    ++*stale;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Public prediction entry points.

Result<float> Runtime::Predict(PlanId id, std::string_view input,
                               int64_t deadline_ns) {
  PlanQueue* pq = GetQueue(id);
  if (pq == nullptr) {
    return Status::NotFound("plan " + std::to_string(id));
  }
  if (pq->reserved) {
    // Ride the dedicated queue so sync traffic is served by (and accounted
    // against) the reserved executors, not the caller thread.
    Waiter<Result<float>> waiter;
    Status submitted = PredictAsync(
        id, std::string(input),
        [&waiter](Result<float> r) { waiter.Set(std::move(r)); },
        deadline_ns);
    if (!submitted.ok()) {
      return submitted;
    }
    return waiter.Wait();
  }
  // Inline fast path: a synchronous single on an unreserved plan gains
  // nothing from a queue hop. No shed check either — there is no queue
  // delay to estimate — but already-expired work is still refused.
  if (deadline_ns > 0) {
    const int64_t now = NowNs();
    if (now >= deadline_ns) {
      pq->expired_admission.fetch_add(1, std::memory_order_relaxed);
      return ExpiredStatus("at admission", DeadlineStage::kAdmission, now,
                           deadline_ns, 0);
    }
  }
  if (!pq->AdmitLifecycle()) {
    return Status::NotFound("plan " + std::to_string(id) + " retired");
  }
  pq->inline_predictions.fetch_add(1, std::memory_order_relaxed);
  std::unique_ptr<ExecContext> ctx = caller_contexts_.Acquire();
  ctx->subplan_cache = pq->group->inline_cache;
  Result<float> result = ExecutePlan(*pq->plan, input, *ctx);
  caller_contexts_.Release(std::move(ctx));
  pq->ReleaseLifecycle();
  return result;
}

Result<float> Runtime::PredictBinary(PlanId id,
                                     std::span<const uint8_t> record,
                                     int64_t deadline_ns) {
  return Predict(id, WireView(record), deadline_ns);
}

Status Runtime::PredictAsync(PlanId id, std::string input,
                             SingleCallback callback, int64_t deadline_ns) {
  PlanQueue* pq = GetQueue(id);
  if (pq == nullptr) {
    return Status::NotFound("plan " + std::to_string(id));
  }
  if (callback == nullptr) {
    return Status::InvalidArgument("null callback");
  }
  if (Status admit = AdmitDeadline(pq, deadline_ns, 1); !admit.ok()) {
    return admit;
  }
  Event event;
  event.input = std::move(input);
  event.done = std::move(callback);
  event.deadline_ns = deadline_ns;
  if (!pq->AdmitLifecycle()) {
    return Status::NotFound("plan " + std::to_string(id) + " retired");
  }
  // The lifecycle ref covers an inline quantum's whole execution, so a
  // racing Retire drains it like an executor's.
  Status submitted = TryRunInline(pq, event)
                         ? Status::OK()
                         : EnqueueEvents(pq, &event, 1);
  pq->ReleaseLifecycle();
  return submitted;
}

bool Runtime::TryRunInline(PlanQueue* pq, Event& event) {
  if (t_runtime_work || pq->reserved) {
    return false;
  }
  ExecGroup* group = pq->group;
  // Every executor parked: running here only replaces a wake-up and never
  // jumps ahead of work an awake executor would reach. Nothing queued: no
  // admitted event is waiting on this plan. Both are heuristics choosing
  // between two correct paths — the claim exchange is what arbitrates.
  // relaxed: a stale `queued` or exec EWMA only picks the other path.
  if (group->ec.waiters() < group->num_executors ||
      pq->queued.load(std::memory_order_relaxed) > 0 ||
      // relaxed: as above.
      pq->exec_ewma_ns.load(std::memory_order_relaxed) > kInlineMaxExecNs ||
      !pq->claim.TryAcquire()) {
    return false;
  }
  // The executor's quantum, on this thread: the same counters (so
  // enqueued == accepted holds on both branches), batch 1 and queue wait 0,
  // then the same hand-off before executing.
  t_runtime_work = true;
  event.enqueue_ns = NowNs();
  pq->enqueued.fetch_add(1, std::memory_order_relaxed);
  pq->coalesced.fetch_add(1, std::memory_order_relaxed);
  pq->caller_dispatches.fetch_add(1, std::memory_order_relaxed);
  AccountDispatch(pq, 1, 0);
  HandOff(pq);
  // Never nested on one thread (t_runtime_work), so one buffer per thread.
  thread_local std::vector<Event> batch;
  batch.push_back(std::move(event));
  std::unique_ptr<ExecContext> ctx = caller_contexts_.Acquire();
  ctx->subplan_cache = group->inline_cache;
  ExecuteQuantum(pq, batch, *ctx);
  caller_contexts_.Release(std::move(ctx));
  batch.clear();
  t_runtime_work = false;
  return true;
}

bool Runtime::TakeChunk(const Event& event) {
  return event.job->claims.TryTake(event.begin / event.job->chunk);
}

void Runtime::AccountDispatch(PlanQueue* pq, size_t records,
                              int64_t wait_ns) {
  pq->dispatches.fetch_add(1, std::memory_order_relaxed);
  UpdateEwma(pq->queue_delay_ewma_us, wait_ns / 1000);
  pq->batch_records.Record(static_cast<double>(records));
  pq->queue_wait_us.Record(static_cast<double>(wait_ns) / 1e3);
}

// Sub-batch size: fill every executor that serves this plan, but never
// exceed max_batch. Each chunk is one scheduling quantum, so other plans
// interleave between chunks instead of waiting out the whole batch.
Status Runtime::SubmitBatchJob(PlanQueue* pq, std::shared_ptr<BatchJob> job,
                               size_t max_batch) {
  const size_t parallelism = std::max<size_t>(1, pq->group->num_executors);
  const size_t n = job->view_inputs.size();
  size_t chunk = (n + parallelism - 1) / parallelism;
  if (max_batch > 0) {
    chunk = std::min(chunk, max_batch);
  }
  chunk = std::max<size_t>(1, chunk);
  const size_t chunks = (n + chunk - 1) / chunk;
  job->chunk = chunk;
  job->claims = ChunkClaims(chunks);
  std::vector<Event> events;
  events.reserve(chunks);
  for (size_t begin = 0; begin < n; begin += chunk) {
    Event event;
    event.job = job;
    event.begin = begin;
    event.end = std::min(n, begin + chunk);
    events.push_back(std::move(event));
  }
  return EnqueueEvents(pq, events.data(), events.size());
}

// The synchronous borrowed-input protocol: submit, run the job's own chunks
// from the tail while executors take them from the head, then block until
// the last chunk's callback fires. Blocking is what makes borrowing safe —
// the caller's inputs and output span outlive every executor touch.
Status Runtime::SubmitBatchJobAndWait(PlanQueue* pq,
                                      std::shared_ptr<BatchJob> job,
                                      size_t max_batch) {
  Waiter<Status> waiter;
  job->callback = [&waiter](Status s, std::span<const float>) {
    waiter.Set(std::move(s));
  };
  Status submit = SubmitBatchJob(pq, job, max_batch);
  if (!submit.ok()) {
    return submit;
  }
  // The caller is blocked anyway and runs only its own job's chunks, so it
  // never jumps ahead of other work; reserved plans keep all their work on
  // their dedicated executors. Every chunk stays enqueued, so an executor
  // that pops one the caller took drops it (TakeChunk); until then the
  // ticket counts in `stale_chunks`, not against the cap. When the caller
  // finishes the last chunk, the wait below returns at once.
  if (!pq->reserved) {
    const size_t n = job->view_inputs.size();
    std::unique_ptr<ExecContext> ctx = caller_contexts_.Acquire();
    ctx->subplan_cache = pq->group->inline_cache;
    for (size_t i = job->claims.size(); i-- > 0 && job->claims.TryTake(i);) {
      pq->stale_chunks.fetch_add(1, std::memory_order_seq_cst);
      const size_t begin = i * job->chunk;
      const size_t end = std::min(n, begin + job->chunk);
      pq->caller_dispatches.fetch_add(1, std::memory_order_relaxed);
      AccountDispatch(pq, end - begin, 0);
      RunChunk(pq, *job, begin, end, /*enqueue_ns=*/0, *ctx);
    }
    caller_contexts_.Release(std::move(ctx));
  }
  return waiter.Wait();
}

template <typename Frame>
Status Runtime::SubmitBatch(PlanId id, std::span<float> out, size_t max_batch,
                            int64_t deadline_ns, Frame frame) {
  PlanQueue* pq = GetQueue(id);
  if (pq == nullptr) {
    return Status::NotFound("plan " + std::to_string(id));
  }
  auto job = std::make_shared<BatchJob>();
  if (Status framed = frame(*job); !framed.ok()) {
    return framed;
  }
  const size_t n = job->view_inputs.size();
  const bool wait = job->callback == nullptr;
  if (n == 0) {
    if (!wait) {
      job->callback(Status::OK(), {});
    }
    return Status::OK();
  }
  if (wait && out.size() < n) {
    return Status::InvalidArgument("output span narrower than batch");
  }
  if (Status admit = AdmitDeadline(pq, deadline_ns, n); !admit.ok()) {
    return admit;
  }
  if (!pq->AdmitLifecycle()) {
    return Status::NotFound("plan " + std::to_string(id) + " retired");
  }
  job->plan = pq->plan;
  if (wait) {
    // Borrowed results: this caller blocks until the last chunk completes,
    // so chunks write scores straight through its span.
    job->results = out.data();
  } else {
    job->owned_results.assign(n, 0.0f);
    job->results = job->owned_results.data();
  }
  job->remaining.store(n);
  job->deadline_ns = deadline_ns;
  Status submitted = wait ? SubmitBatchJobAndWait(pq, std::move(job), max_batch)
                          : SubmitBatchJob(pq, std::move(job), max_batch);
  pq->ReleaseLifecycle();
  return submitted;
}

Status Runtime::PredictBatch(PlanId id, const std::vector<std::string>& inputs,
                             size_t max_batch, std::span<float> out,
                             int64_t deadline_ns) {
  // Views of the caller's strings: no copy, and they outlive the call.
  return SubmitBatch(id, out, max_batch, deadline_ns, [&inputs](BatchJob& job) {
    job.view_inputs.assign(inputs.begin(), inputs.end());
    return Status::OK();
  });
}

Result<std::vector<float>> Runtime::PredictBatch(
    PlanId id, const std::vector<std::string>& inputs, size_t max_batch,
    int64_t deadline_ns) {
  std::vector<float> scores(inputs.size(), 0.0f);
  Status status = PredictBatch(id, inputs, max_batch, std::span<float>(scores),
                               deadline_ns);
  if (!status.ok()) {
    return status;
  }
  return scores;
}

Status Runtime::PredictBinary(PlanId id, std::span<const uint8_t> records,
                              size_t max_batch, std::span<float> out,
                              int64_t deadline_ns) {
  // Framing is a header walk: no record is parsed or copied, and aligned
  // dense payloads alias straight into the per-record kernels.
  return SubmitBatch(id, out, max_batch, deadline_ns, [records](BatchJob& job) {
    return SplitBinaryBatch(WireView(records), &job.view_inputs);
  });
}

Status Runtime::PredictBatchAsync(PlanId id, std::vector<std::string> inputs,
                                  BatchCallback callback, size_t max_batch,
                                  int64_t deadline_ns) {
  return SubmitBatch(id, {}, max_batch, deadline_ns, [&](BatchJob& job) {
    if (callback == nullptr) {
      return Status::InvalidArgument("null callback");
    }
    // The job owns the strings; the views point into them.
    job.owned_inputs = std::move(inputs);
    job.view_inputs.assign(job.owned_inputs.begin(), job.owned_inputs.end());
    job.callback = std::move(callback);
    return Status::OK();
  });
}

// ---------------------------------------------------------------------------
// Executors.

// Adaptive linger: the oldest single is already in the owner's hand, so the
// deadline is measured from its enqueue stamp. The owner parks on the group
// eventcount; any enqueue to this plan sees `lingering` and NotifyAlls, any
// enqueue elsewhere in the group raises runnable_count — both re-arm the
// predicate below.
void Runtime::Linger(ExecGroup* group, PlanQueue* pq, int64_t oldest_ns) {
  const auto deadline = std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(oldest_ns + pq->max_delay_us * 1000));
  // Shutdown, a full batch, batch work or another runnable plan ends the
  // linger. relaxed: stop_ is monotonic, so a stale read costs one pass, and
  // under a wait ticket PrepareWait's seq_cst fence pairs with the
  // destructor's store+NotifyAll, so a missed flag still wakes the wait.
  const auto end_linger = [&] {
    return stop_.load(std::memory_order_relaxed) ||
           pq->queued.load(std::memory_order_seq_cst) >= pq->max_batch ||
           pq->chunk_count.load(std::memory_order_seq_cst) > 0 ||
           group->runnable_count.load(std::memory_order_seq_cst) > 0;
  };
  pq->lingering.store(true, std::memory_order_seq_cst);
  while (!end_linger() && std::chrono::steady_clock::now() < deadline) {
    const uint64_t ticket = group->ec.PrepareWait();
    if (end_linger()) {
      group->ec.CancelWait();
      break;
    }
    if (!group->ec.WaitUntil(ticket, deadline)) {
      break;  // Deadline: dispatch whatever has coalesced.
    }
  }
  pq->lingering.store(false, std::memory_order_seq_cst);
}

void Runtime::ExecutorLoop(ExecGroup* group, SubPlanCache* cache,
                           VectorPool* pool) {
  // Executor-private pooled state: the paper's per-core ExecContext, with
  // this executor's own sub-plan materialization cache attached.
  t_runtime_work = true;
  ExecContext ctx(pool);
  ctx.subplan_cache = cache;
  std::vector<Event> batch;
  for (;;) {
    PlanQueue* pq = nullptr;
    if (!PopRunnable(group, &pq)) {
      // Park on the eventcount: re-check under a wait ticket so a publish
      // racing this gap falls straight through Wait.
      const uint64_t ticket = group->ec.PrepareWait();
      if (PopRunnable(group, &pq)) {
        group->ec.CancelWait();
      } else if (stop_.load(std::memory_order_seq_cst)) {
        group->ec.CancelWait();
        return;  // Fully drained.
      } else {
        group->ec.Wait(ticket);
        continue;
      }
    }
    // We hold the plan's dispatch quantum: single consumer of its queue.
    batch.clear();
    Event first;
    size_t stale = 0;
    bool have = PopLive(pq, &first, &stale);
    // Adaptive linger: if only a thin run of singles is waiting and no
    // other plan has work, wait out the plan's max-delay budget for more
    // arrivals to coalesce. Never delays when the system has other work.
    if (have && first.job == nullptr && pq->max_delay_us > 0 &&
        pq->max_batch > 1 &&
        pq->chunk_count.load(std::memory_order_seq_cst) == 0 &&
        group->runnable_count.load(std::memory_order_seq_cst) == 0 &&
        pq->queued.load(std::memory_order_seq_cst) < pq->max_batch) {
      Linger(group, pq, first.enqueue_ns);
    }
    // Gather one dispatch quantum: a single batch chunk, or a coalesced run
    // of up to max_batch queued singles (a chunk met mid-run stays at the
    // cursor for the plan's next quantum, still counted in `queued`).
    bool chunk_quantum = false;
    if (have) {
      chunk_quantum = first.job != nullptr;
      batch.push_back(std::move(first));
      while (!chunk_quantum && batch.size() < pq->max_batch) {
        const Event* next = PeekEvent(pq);
        if (next == nullptr || next->job != nullptr) {
          break;
        }
        batch.push_back(TakeEvent(pq));
      }
    }
    const bool popped = stale > 0 || !batch.empty();
    if (popped) {
      // Quantum lifecycle ref, taken BEFORE the queued decrement below:
      // Retire's drain checks occupancy first and refs second, so gathered
      // events are never in neither count.
      pq->lifecycle_refs.fetch_add(1, std::memory_order_seq_cst);
      const size_t chunks = stale + (chunk_quantum ? 1 : 0);
      if (chunks > 0) {
        pq->chunk_count.fetch_sub(chunks, std::memory_order_seq_cst);
      }
      pq->queued.fetch_sub(batch.size() + stale, std::memory_order_seq_cst);
      if (stale > 0) {
        pq->stale_chunks.fetch_sub(static_cast<int64_t>(stale),
                                   std::memory_order_seq_cst);
      }
      if (chunk_quantum) {
        AccountDispatch(pq, batch[0].end - batch[0].begin,
                        NowNs() - batch[0].enqueue_ns);
      } else if (!batch.empty()) {
        pq->coalesced.fetch_add(batch.size(), std::memory_order_relaxed);
        AccountDispatch(pq, batch.size(), NowNs() - batch[0].enqueue_ns);
      }
    }
    HandOff(pq);
    if (batch.empty()) {
      if (popped) {
        pq->ReleaseLifecycle();  // Only stale tickets: nothing to run.
      } else {
        // Admitted-but-unpublished producer race; the plan was re-published
        // above if its events are still pending.
        std::this_thread::yield();
      }
      continue;
    }
    ExecuteQuantum(pq, batch, ctx);
    pq->ReleaseLifecycle();
  }
}

// One chunk of a batch job, run by an executor (its quantum) or by the job's
// blocked synchronous caller. `enqueue_ns` (0 for the caller) attributes a
// deadline drop's queue wait.
void Runtime::RunChunk(PlanQueue* pq, BatchJob& job, size_t begin,
                       size_t end, int64_t enqueue_ns, ExecContext& ctx) {
  const size_t count = end - begin;
  float* out = job.results + begin;
  Status chunk_error;
  const int64_t now = job.deadline_ns > 0 ? NowNs() : 0;
  if (job.deadline_ns > 0 && now >= job.deadline_ns) {
    // Between-quanta deadline check: chunks of an expired batch complete
    // immediately (score 0.0f, batch status DeadlineExceeded) instead of
    // burning a thread on records nobody is waiting for. Chunks that ran
    // before expiry keep their scores — per-record attribution stays
    // correct for partial batches.
    std::fill(out, out + count, 0.0f);
    chunk_error = ExpiredStatus("between batch quanta",
                                DeadlineStage::kExecution, now,
                                job.deadline_ns, enqueue_ns);
    pq->expired_quantum.fetch_add(count, std::memory_order_relaxed);
  } else {
    const size_t failed = ExecutePlanBatch(
        *job.plan, job.view_inputs.data() + begin, count, out, ctx,
        &chunk_error);
    if (failed > 0) {
      pq->errors.fetch_add(failed, std::memory_order_relaxed);
    }
  }
  if (!chunk_error.ok()) {
    MutexLock lock(job.error_mu);
    if (job.first_error.ok()) {
      job.first_error = std::move(chunk_error);
    }
  }
  // Counted above, before completing: a caller woken by the callback must
  // already see this chunk in GetMetrics.
  if (job.remaining.fetch_sub(count) == count) {
    Status status;
    {
      MutexLock lock(job.error_mu);
      status = job.first_error;
    }
    job.callback(status, std::span<const float>(job.results,
                                               job.view_inputs.size()));
  }
}

// Execute outside every scheduler structure; error counts and the sampled
// latency are relaxed atomics.
void Runtime::ExecuteQuantum(PlanQueue* pq, std::vector<Event>& batch,
                             ExecContext& ctx) {
  // Singles quanta time themselves from here, stall included, into the
  // exec-time EWMA.
  const int64_t start_ns = NowNs();
  // Chaos site: an executor pinned mid-quantum (GC pause, page fault storm,
  // noisy neighbor). Injected before the deadline checks so stalled quanta
  // exercise the expiry paths.
  PRETZEL_FAULT_STALL("runtime.executor_stall", static_cast<int64_t>(pq->id));
  if (batch.front().job != nullptr) {
    const Event& item = batch.front();
    RunChunk(pq, *item.job, item.begin, item.end, item.enqueue_ns, ctx);
    return;
  }
  // Dequeue-time deadline check: singles that expired while queued complete
  // with DeadlineExceeded (queue-wait attribution) without executing, and
  // the survivors are compacted in place so coalescing proceeds over live
  // work only.
  {
    size_t live = 0;
    int64_t now = 0;  // Lazy: most quanta carry no deadlines at all.
    for (size_t i = 0; i < batch.size(); ++i) {
      Event& event = batch[i];
      if (event.deadline_ns > 0) {
        if (now == 0) {
          now = NowNs();
        }
        if (now >= event.deadline_ns) {
          // Count before completing: a caller woken by this callback must
          // already see the expiry in GetMetrics.
          pq->expired_dequeue.fetch_add(1, std::memory_order_relaxed);
          event.done(ExpiredStatus("at dispatch", DeadlineStage::kQueue, now,
                                   event.deadline_ns, event.enqueue_ns));
          continue;
        }
      }
      if (live != i) {
        batch[live] = std::move(event);
      }
      ++live;
    }
    if (live < batch.size()) {
      batch.resize(live);
    }
    if (batch.empty()) {
      return;
    }
  }
  size_t failed = 0;
  for (Event& event : batch) {
    Result<float> r = ExecutePlan(*pq->plan, event.input, ctx);
    if (!r.ok()) {
      ++failed;
    }
    event.done(std::move(r));
  }
  // Sampled latency: one observation per dispatch, for the oldest event in
  // the group (the group's worst case) — keeps the per-event hot path free
  // of clock reads and stats writes.
  const int64_t end_ns = NowNs();
  UpdateEwma(pq->exec_ewma_ns,
             (end_ns - start_ns) / static_cast<int64_t>(batch.size()));
  pq->single_latency_us.Record(
      static_cast<double>(end_ns - batch.front().enqueue_ns) / 1e3);
  if (failed > 0) {
    pq->errors.fetch_add(failed, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Observability.

RuntimeMetrics Runtime::GetMetrics() const {
  RuntimeMetrics metrics;
  ReaderMutexLock lock(registry_mu_);
  metrics.plans.reserve(plan_queues_.size());
  const auto load = [](const auto& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  for (const auto& pq : plan_queues_) {
    PlanMetrics& pm = metrics.plans.emplace_back();
    pm.plan_id = pq->id;
    pm.plan_name = pq->plan_name;  // Retained copy: valid after Retire.
    pm.reserved = pq->reserved;
    pm.retired = load(pq->retired);
    pm.inline_predictions = load(pq->inline_predictions);
    pm.enqueued_events = load(pq->enqueued);
    pm.rejected_events = load(pq->rejected);
    pm.dispatches = load(pq->dispatches);
    pm.caller_dispatches = load(pq->caller_dispatches);
    pm.coalesced_singles = load(pq->coalesced);
    pm.errors = load(pq->errors);
    pm.expired_admission = load(pq->expired_admission);
    pm.expired_dequeue = load(pq->expired_dequeue);
    pm.expired_quantum = load(pq->expired_quantum);
    pm.shed_deadline = load(pq->shed_deadline);
    pm.queue_delay_ewma_us = load(pq->queue_delay_ewma_us);
    pm.queue_depth = load(pq->queued);
    pm.queued_chunks = load(pq->chunk_count);
    pm.batch_records = pq->batch_records;
    pm.queue_wait_us = pq->queue_wait_us;
    pm.single_latency_us = pq->single_latency_us;
  }
  for (const auto& cache : executor_caches_) {
    const SubPlanCache::Stats s = cache->GetStats();
    metrics.subplan_cache.lookups += s.lookups;
    metrics.subplan_cache.hits += s.hits;
    metrics.subplan_cache.insertions += s.insertions;
    metrics.subplan_cache.evictions += s.evictions;
    metrics.subplan_cache_entries += cache->NumEntries();
    metrics.subplan_cache_bytes += cache->SizeBytes();
  }
  for (const auto& pool : executor_pools_) {
    metrics.vector_pool += pool->GetStats();
  }
  metrics.vector_pool += caller_pool_.GetStats();
  return metrics;
}

std::vector<Reservation> Runtime::reservations() const {
  ReaderMutexLock lock(registry_mu_);
  return reservations_;
}

// Folds one replica's row into the logical plan row. Counters sum; the
// queue-delay EWMA is weighted by each replica's event traffic (a cold
// replica's zero must not halve a hot replica's signal); reservation is a
// property of the logical plan on any shard.
static void MergePlanMetrics(PlanMetrics& into, const PlanMetrics& from) {
  const uint64_t into_events = into.inline_predictions + into.enqueued_events;
  const uint64_t from_events = from.inline_predictions + from.enqueued_events;
  const uint64_t total_events = into_events + from_events;
  if (total_events > 0) {
    into.queue_delay_ewma_us = static_cast<int64_t>(
        (static_cast<double>(into.queue_delay_ewma_us) * into_events +
         static_cast<double>(from.queue_delay_ewma_us) * from_events) /
        static_cast<double>(total_events));
  }
  into.reserved = into.reserved || from.reserved;
  // A logical plan is retired only once every replica is.
  into.retired = into.retired && from.retired;
  into.queue_depth += from.queue_depth;
  into.queued_chunks += from.queued_chunks;
  into.inline_predictions += from.inline_predictions;
  into.enqueued_events += from.enqueued_events;
  into.rejected_events += from.rejected_events;
  into.dispatches += from.dispatches;
  into.caller_dispatches += from.caller_dispatches;
  into.coalesced_singles += from.coalesced_singles;
  into.errors += from.errors;
  into.expired_admission += from.expired_admission;
  into.expired_dequeue += from.expired_dequeue;
  into.expired_quantum += from.expired_quantum;
  into.shed_deadline += from.shed_deadline;
  into.batch_records.Merge(from.batch_records);
  into.queue_wait_us.Merge(from.queue_wait_us);
  into.single_latency_us.Merge(from.single_latency_us);
}

void MergeRuntimeMetrics(RuntimeMetrics& into, const RuntimeMetrics& from) {
  // Name -> index, built once per fold: the cross-shard GetMetrics merge is
  // then linear in total plan rows instead of quadratic in fleet size.
  // Owned keys: push_back below can reallocate into.plans, which moves the
  // rows' SSO name bytes out from under any view into them.
  std::unordered_map<std::string, size_t> index;
  index.reserve(into.plans.size() + from.plans.size());
  for (size_t i = 0; i < into.plans.size(); ++i) {
    index.emplace(into.plans[i].plan_name, i);
  }
  for (const PlanMetrics& plan : from.plans) {
    auto [it, inserted] = index.emplace(plan.plan_name, into.plans.size());
    if (inserted) {
      into.plans.push_back(plan);
    } else {
      MergePlanMetrics(into.plans[it->second], plan);
    }
  }
  into.subplan_cache.lookups += from.subplan_cache.lookups;
  into.subplan_cache.hits += from.subplan_cache.hits;
  into.subplan_cache.insertions += from.subplan_cache.insertions;
  into.subplan_cache.evictions += from.subplan_cache.evictions;
  into.subplan_cache_entries += from.subplan_cache_entries;
  into.subplan_cache_bytes += from.subplan_cache_bytes;
  into.vector_pool += from.vector_pool;
}

}  // namespace pretzel
