// Runtime: the serving engine. Registered plans share one process and one
// Object Store; executor threads (one warm ExecContext each, so hot paths
// stay allocation-free) drain per-plan event queues.
//
// One record path: every entry point takes a record as a std::string_view
// of its wire bytes, a text record or a BinaryRecord
// (src/common/serialize.h) that ExecutePlan tells apart; binary records take
// the zero-parse path, an aligned dense payload aliasing straight into the
// kernels. The binary entry points only re-type their bytes (WireView), and
// each request kind has one body: every single, synchronous or async, is a
// Request handed to Submit, and one batch sequence (SubmitBatch) serves
// every batch entry point.
//
// One completion: a single finishes by calling its Request's `done` with
// the result and its service time, `exec_ns` (ExecutePlan start to end on
// whichever thread ran it, excluding queue wait and every completion; the
// first single a dispatch quantum runs also carries the quantum's
// runtime.executor_stall), whether it ran inline, on a reserved queue or on
// an executor; the sync entry points read both from it. A batch's service
// time is the sum of its chunks' ExecutePlanBatch times, whoever ran them.
//
// Scheduling model (Section 5.4): every queued request — async single,
// reserved-plan single, batch job — becomes an event on its plan's queue,
// and a batch job runs one chunk per quantum. Executors drain plans
// round-robin, one dispatch quantum per turn, so a 10k-record batch cannot
// head-of-line-block a 1-record request on another plan. An adaptive
// batcher coalesces queued single predictions for the same plan into
// sub-batches bounded by a per-plan max_batch / max-delay policy, amortizing
// queue and wakeup costs under load while leaving idle-system latency
// untouched.
//
// Hot-path concurrency: no enqueue, dispatch, or buffer acquire takes a
// mutex in the common case.
//  - Each plan's events ride one lock-free FIFO: every enqueued event (a
//    single, or a batch job's one ticket) is one node pushed onto a Vyukov
//    intrusive MPSC chain (wait-free push; producers = caller/FrontEnd
//    threads, consumer = the executor holding the plan's dispatch quantum,
//    reading through a private cursor). The ResourceExhausted cap is
//    enforced by an atomic counter before any structure is touched.
//  - A plan is claimed for dispatch via its DispatchClaim (lockfree.h); the
//    runnable rotation itself is a lock-free MPMC ring of PlanQueue*.
//  - Executors park and linger on an EventCount: producers skip the kernel
//    entirely while every executor is busy; mutex+condvar survive only on
//    the park/unpark slow path.
//  - Counters and the per-plan metric histograms (fixed bucket arrays) are
//    relaxed atomics shared by every thread that dispatches the plan, so
//    recording a dispatch takes no lock and a snapshot never stalls one.
//
// Reservations (Section 5.4.1): a registration may reserve cores. Reserved
// plans get dedicated executors draining a dedicated group, and ALL their
// traffic — including synchronous Predict — is accounted against those
// executors, so their latency is isolated from shared-pool load.
//
// Inline when idle: on an unreserved plan a single prediction may run on
// the submitting thread. Synchronous singles always do (a queue hop buys
// them nothing). An asynchronous single does when that is all an idle
// system would do anyway: every executor of the plan's group is parked,
// the plan has nothing queued, the caller wins the plan's dispatch claim,
// the plan's per-event execution-time EWMA is at most kInlineMaxExecNs
// (runtime.cc; about the cost of waking an executor), and the calling
// thread is not already doing runtime work (an executor, or inside an
// inline completion — so a callback that resubmits enqueues instead of
// recursing). The caller then runs the executor's dispatch quantum itself,
// with the same admission, lifecycle and accounting; no executor wakes.
//
// Caller-assisted batches: a batch is split into chunks and enqueued as one
// ticket, whose chunks every taker draws from the job's one cursor
// (ChunkCursor, lockfree.h), so each chunk runs exactly once. A synchronous
// batch caller on an unreserved plan, blocked anyway, takes chunks from that
// cursor beside the executor holding the plan's dispatch claim, which takes
// one chunk per quantum and leaves the ticket at its queue cursor until the
// job's last chunk is taken. A ticket whose chunks the caller took is popped
// on the next executor turn, without recording a dispatch. A chunk leaves
// the queue's live count when it is taken, whoever takes it, so the cap and
// the shedding estimate see untaken work only. The caller only ever runs
// its own job, so it never jumps ahead of another plan's work. Async batches
// and reserved plans leave all chunks to the executors.
//
// The Runtime owns one SubPlanCache and one VectorPool per executor (plus a
// pool for the inline path, whose work shares the sub-plan cache of the
// group it bypasses, so that cache has concurrent users: its mutex covers
// a hit's copy-out), so Figure-10 sub-plan materialization is active in
// serving, and exposes per-plan queue/batch/latency metrics plus pool
// hit/miss counters through GetMetrics().
#ifndef PRETZEL_RUNTIME_RUNTIME_H_
#define PRETZEL_RUNTIME_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/lockfree.h"
#include "src/common/mutex.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/oven/model_plan.h"
#include "src/oven/subplan_cache.h"
#include "src/runtime/exec_context.h"
#include "src/store/object_store.h"

namespace pretzel {

// Hard cap on dedicated executors one registration may reserve.
inline constexpr size_t kMaxReservedCoresPerPlan = 4;

struct RuntimeOptions {
  size_t num_executors = 1;
  // Sub-plan materialization cache budget per executor (0 disables). Each
  // executor owns a cache, so executors never contend on one across cores;
  // inline (caller-thread) work borrows the first executor's cache of the
  // group it bypasses, and contends with that executor only for the
  // cache's mutex, held for one probe plus a hit's id copy.
  size_t subplan_cache_bytes = 8ull << 20;
  // Per-plan cap on queued events (backpressure); 0 = unbounded. Enqueues
  // that would exceed it fail fast with ResourceExhausted. A batch counts
  // its chunks, each until someone takes it.
  size_t max_queued_events_per_plan = 0;
  // Coalescing policy for plans whose registration does not override it:
  // up to default_max_batch queued singles dispatch as one sub-batch; an
  // executor may linger up to default_max_delay_us for a thin batch to
  // fill, but only while no other plan has runnable work.
  size_t default_max_batch = 16;
  int64_t default_max_delay_us = 0;
};

struct PlanRegistration {
  // > 0: dedicate this many executors to the plan (capped at
  // kMaxReservedCoresPerPlan). Dedicated executors are additional threads
  // so reservations never starve the shared pool.
  size_t reserve_cores = 0;
  // Per-plan adaptive batching overrides (0 / negative = runtime default).
  size_t max_batch = 0;
  int64_t max_delay_us = -1;
};

// A granted reservation: which plan owns which dedicated executors.
struct Reservation {
  size_t plan_id = 0;
  size_t num_cores = 0;
};

// Per-plan scheduler observability (GetMetrics snapshot).
struct PlanMetrics {
  size_t plan_id = 0;
  std::string plan_name;
  bool reserved = false;
  bool retired = false;  // Retire() completed; the plan no longer admits.
  // Live work queued right now: singles plus batch chunks no one has taken
  // yet (what max_queued_events_per_plan counts).
  size_t queue_depth = 0;
  // Batch job tickets in the queue, including those whose chunks were all
  // taken (by the job's synchronous caller) until an executor pops them.
  size_t batch_tickets = 0;
  // Synchronous singles on an unreserved plan, run on the caller's thread;
  // they bypass the scheduler, so the enqueue/dispatch counters below
  // never include them.
  uint64_t inline_predictions = 0;
  // Scheduler events admitted: batch chunks and async/reserved singles,
  // including the async singles that ran inline (counted as if enqueued
  // and dispatched at once, so enqueued == accepted holds either way).
  // A batch counts every chunk, including those its synchronous caller ran.
  uint64_t enqueued_events = 0;
  uint64_t rejected_events = 0;     // Backpressure drops.
  // Dispatch quanta run, by an executor or a submitting thread. A batch
  // chunk counts once, whoever ran it; popping a ticket whose chunks were
  // all taken does not count.
  uint64_t dispatches = 0;
  // The subset of `dispatches` a submitting thread ran itself, queue wait
  // 0: an inline async single, or a chunk of its own synchronous batch.
  uint64_t caller_dispatches = 0;
  uint64_t coalesced_singles = 0;   // Singles dispatched via coalescing.
  uint64_t errors = 0;              // Failed records/singles, inline ones too.
  // Deadline accounting (requests that carried one). Work is dropped the
  // moment expiry is detectable: at admission, when a queued single reaches
  // its dispatch, and between a batch job's chunk quanta. Expired work is
  // NOT counted in `errors` — it failed the SLO, not the computation.
  uint64_t expired_admission = 0;   // Rejected before enqueue.
  uint64_t expired_dequeue = 0;     // Singles expired awaiting dispatch.
  uint64_t expired_quantum = 0;     // Batch records dropped between quanta.
  // Requests shed at admission because the queue-delay estimate exceeded
  // the remaining deadline budget (see the entry-point comment below).
  uint64_t shed_deadline = 0;
  // EWMA of enqueue->dispatch delay (the retry-after hint attached to this
  // plan's ResourceExhausted rejections).
  int64_t queue_delay_ewma_us = 0;
  // Lifetime histograms (stats.h), readable after Retire: batch_records and
  // queue_wait_us each count exactly `dispatches`. Whole units; integers
  // below 8 read exactly, larger ones within Histogram::kRelativeError (1/8).
  Histogram batch_records;        // Records per dispatch.
  Histogram queue_wait_us;        // Enqueue -> dispatch.
  // Enqueue -> completion, once per singles dispatch that ran (the
  // dispatched group's oldest single, i.e. its worst case).
  Histogram single_latency_us;
};

struct RuntimeMetrics {
  std::vector<PlanMetrics> plans;
  // Aggregated over every executor-owned cache (inline work shares them).
  SubPlanCache::Stats subplan_cache;
  size_t subplan_cache_entries = 0;
  size_t subplan_cache_bytes = 0;
  // Aggregated over every executor-owned VectorPool plus the inline-path
  // pool: free-list effectiveness and capacity-cap drops.
  VectorPool::Stats vector_pool;
};

// Merges `from` into `into`: cache/pool aggregates are summed, and plan
// entries are folded BY NAME — two entries with the same plan_name (the
// replicas a routing tier registers on several Runtimes) collapse into one
// logical row with summed counters and histograms, and an
// event-weighted queue-delay EWMA, so a replicated plan is never counted
// as N plans. Names unique within the fold (the common case) degrade to a
// plain append. plan_id keeps the first replica's shard-local id and is
// not meaningful across Runtimes; the per-shard breakdown (retained
// separately by the ShardRouter caller) is where per-replica ids live.
void MergeRuntimeMetrics(RuntimeMetrics& into, const RuntimeMetrics& from);

class Runtime {
 public:
  using PlanId = size_t;
  using BatchCallback = std::function<void(Status, std::span<const float>)>;
  // A single's one completion: its result and its service time, `exec_ns`
  // (0 when it never executed: expired at dispatch).
  using SingleCallback = std::function<void(Result<float>, int64_t exec_ns)>;

  // One single prediction: what every single entry point hands to Submit.
  struct Request {
    // The record's wire bytes, borrowed until `done` has run (a `wait`
    // request's caller blocks). An async request owns its bytes in `owned`.
    std::string_view input{};
    std::string owned{};
    int64_t deadline_ns = 0;
    SingleCallback done{};
    // Synchronous: an unreserved plan runs it on this thread (a queue hop
    // buys it nothing); a reserved plan's dedicated queue carries it and
    // Submit blocks until `done` has run, so latency isolation holds for
    // sync traffic too. Async: see PredictAsync.
    bool wait = false;

    std::string_view bytes() const { return wait ? input : owned; }
  };

  Runtime(ObjectStore* store, const RuntimeOptions& options);
  // NO_THREAD_SAFETY_ANALYSIS: the destructor is single-threaded by
  // contract (callers must stop submitting before destruction) and must
  // join threads_ WITHOUT holding registry_mu_ — an in-flight callback on
  // an executor thread may re-enter Predict and take the shared side, so
  // joining under the writer lock would deadlock.
  ~Runtime() NO_THREAD_SAFETY_ANALYSIS;

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  Result<PlanId> Register(std::shared_ptr<ModelPlan> plan,
                          const PlanRegistration& registration = {});

  // Retires a plan: new work is refused with NotFound, in-flight work (an
  // inline predict mid-execution, a synchronous batch caller running its
  // chunks, queued events, a dispatching quantum)
  // drains, and then the ModelPlan reference is dropped — so once the
  // ObjectStore has Released the version's params, Retire is the point its
  // unshared blobs can actually leave the heap. Blocking, control-plane
  // only; MUST NOT be called from an executor thread or from a completion
  // callback (it waits on executor progress, and an inline completion
  // holds its plan's lifecycle ref). Idempotent: a second call returns OK
  // without re-draining.
  // The PlanQueue shell itself persists — id stability and the
  // QueueDelayCounter pointer contract are unchanged — only the plan (and
  // its parameter references) is reclaimed.
  Status Retire(PlanId id);

  // Every entry point takes an optional absolute deadline (NowNs() domain;
  // 0 = none). Expired work is dropped at admission, when a queued single
  // reaches dispatch, and between a batch job's chunk quanta — each drop
  // completes with Status::DeadlineExceeded whose message attributes where
  // the budget went (queue wait vs overrun), and lands in the plan's
  // expired_* counters. While a plan has events queued, a request whose
  // remaining budget is already below the plan's queue-delay estimate is
  // shed up front with ResourceExhausted (+ retry-after hint) instead, so
  // the caller can fail over while budget remains.

  // Every batch entry point checks in one order: unknown plan (NotFound);
  // a binary buffer that does not frame, or a null async callback
  // (InvalidArgument); an empty batch (OK with nothing counted — an async
  // callback fires once with no scores); an output span narrower than the
  // batch (InvalidArgument); then the deadline and lifecycle gates.

  // The one body of every single: `request.done` runs exactly once per OK
  // return — on this thread before Submit returns (a `wait` request, or an
  // async one run inline), or on an executor — and never on an error
  // return. Checks unknown plan (NotFound), a null `done`
  // (InvalidArgument), then the deadline and lifecycle gates.
  Status Submit(PlanId id, Request request);

  // Synchronous single prediction: a `wait` Request whose completion hands
  // this call its result. The input bytes are borrowed for the call.
  Result<float> Predict(PlanId id, std::string_view input,
                        int64_t deadline_ns = 0);

  // Predict of one BinaryRecord.
  Result<float> PredictBinary(PlanId id, std::span<const uint8_t> record,
                              int64_t deadline_ns = 0);

  // Zero-copy binary batch: `records` is a back-to-back concatenation of
  // BinaryRecords (the wire batch framing — SplitBinaryBatch), split into
  // per-record views of the buffer and run like the span PredictBatch.
  // A buffer that does not frame is refused before anything runs.
  Status PredictBinary(PlanId id, std::span<const uint8_t> records,
                       size_t max_batch, std::span<float> out,
                       int64_t deadline_ns = 0);

  // Asynchronous single prediction, an owned-bytes Request: an event on the
  // plan's queue, eligible for coalescing with other queued singles of the
  // same plan — or, when the plan's group is idle (see "Inline when idle"
  // above), one quantum run right here. `callback` fires exactly once per
  // OK return: from an executor thread, or from this thread before
  // PredictAsync returns. It must not block, nor take a lock the caller
  // holds across this call.
  Status PredictAsync(PlanId id, std::string input, SingleCallback callback,
                      int64_t deadline_ns = 0);

  // Splits `inputs` into sub-batches of at most `max_batch` records,
  // enqueued as one job; the executors and this caller take them from the
  // job's one cursor (unreserved plans; see "Caller-assisted batches"
  // above). Chunks write scores straight through the caller's
  // span (out.size() >= inputs.size()) and read the caller's strings in
  // place — the caller blocks until completion, so both stay valid. A
  // non-null `exec_ns` receives the batch's service time once it completed.
  Status PredictBatch(PlanId id, const std::vector<std::string>& inputs,
                      size_t max_batch, std::span<float> out,
                      int64_t deadline_ns = 0, int64_t* exec_ns = nullptr);

  // The span overload, returning the scores in input order.
  Result<std::vector<float>> PredictBatch(PlanId id,
                                          const std::vector<std::string>& inputs,
                                          size_t max_batch,
                                          int64_t deadline_ns = 0);

  // Asynchronous batch: returns after enqueueing; `callback` fires exactly
  // once, from an executor thread, with scores in input order. A deadline
  // expiring mid-batch drops only the chunks not yet executed: records in
  // chunks that ran before expiry keep their scores, dropped records score
  // 0.0f, and the batch Status is DeadlineExceeded.
  Status PredictBatchAsync(PlanId id, std::vector<std::string> inputs,
                           BatchCallback callback, size_t max_batch,
                           int64_t deadline_ns = 0);

  // Snapshot of per-plan queue/batch/latency metrics, aggregate
  // sub-plan-cache effectiveness, and pool counters. Never blocks dispatch:
  // counters and histogram buckets are relaxed atomics, copied as they read.
  RuntimeMetrics GetMetrics() const EXCLUDES(registry_mu_);

  size_t num_executors() const { return options_.num_executors; }
  std::vector<Reservation> reservations() const EXCLUDES(registry_mu_);
  ObjectStore* store() const { return store_; }

  // Per-plan load export for a routing tier: a borrowed pointer to the
  // plan's enqueue->dispatch queue-delay EWMA (microseconds; relaxed
  // writer-side updates, so readers load relaxed). The pointee lives as
  // long as the Runtime — PlanQueues are never reclaimed — so a router may
  // cache the pointer at placement time and read live load on every
  // routing decision (power-of-two-choices) without re-entering the
  // registry lock or snapshotting full RuntimeMetrics. Null for unknown
  // ids.
  const std::atomic<int64_t>* QueueDelayCounter(PlanId id) const
      EXCLUDES(registry_mu_);

 private:
  struct BatchJob;
  // One schedulable unit: a single prediction (its Request; job ==
  // nullptr), a BatchJob's queued ticket, or one chunk taken from it
  // (records [begin, end); chunks carry the job's deadline).
  struct Event : Request {
    std::shared_ptr<BatchJob> job;
    size_t begin = 0;
    size_t end = 0;
    int64_t enqueue_ns = 0;
  };
  struct ExecGroup;
  struct PlanQueue;
  struct EventNode;

  // Appends to threads_ / executor_caches_ / executor_pools_; callers hold
  // the registry lock exclusively (constructor and Register).
  void SpawnExecutor(ExecGroup* group) REQUIRES(registry_mu_);
  // Deadline admission gate, shared by every queued entry point: rejects
  // already-expired work (DeadlineExceeded, expired_admission) and, while
  // the plan has events queued, sheds work whose remaining budget is below
  // the queue-delay estimate (ResourceExhausted + hint, shed_deadline). `n`
  // is the record count the counters move by. The synchronous inline single
  // passes shed = false: it never waits in the queue.
  Status AdmitDeadline(PlanQueue* pq, int64_t deadline_ns, size_t n,
                       bool shed = true);
  // The batch sequence every batch entry point runs: plan lookup, then
  // `frame(job)` fills the job's record views (and an async batch's
  // callback) or refuses the request, then the checks in the order the
  // entry-point comment above gives, then the split into per-quantum
  // chunks and the job's one ticket enqueued. An async job has its
  // callback; a sync one (scores into `out`) has this caller take its
  // chunks from the job's cursor (unreserved plans), block until the last
  // completes, and report the service time into a non-null `exec_ns`.
  template <typename Frame>
  Status SubmitBatch(PlanId id, std::span<float> out, size_t max_batch,
                     int64_t deadline_ns, Frame frame,
                     int64_t* exec_ns = nullptr);
  // Accounting for one dispatch quantum, whoever runs it: `records` into
  // batch_records, the wait into queue_wait_us and the queue-delay EWMA. A
  // submitting thread running its own quantum (an inline async single, or a
  // chunk of its synchronous batch) passes 0 and counts a caller dispatch.
  static void AccountDispatch(PlanQueue* pq, size_t records, int64_t wait_ns);
  // One chunk, records [begin, end) of `job`: the between-quanta deadline
  // check, the kernels and their time into the job's service time, error
  // attribution and the countdown whose last decrement fires the job
  // callback. Executors and the job's caller share it.
  void RunChunk(PlanQueue* pq, BatchJob& job, size_t begin, size_t end,
                int64_t enqueue_ns, ExecContext& ctx);
  // Executes one single, counts a failure into `errors`, and runs its
  // completion with the service time from `start_ns` to the end of
  // ExecutePlan.
  void RunSingle(PlanQueue* pq, Event& event, ExecContext& ctx,
                 int64_t start_ns);
  // Runs `work(ctx)` on a pooled caller context bound to the sub-plan cache
  // of the group the calling thread bypasses: every plan work a submitting
  // thread runs (a sync single, an inline async quantum, its own batch
  // chunks) goes through here.
  template <typename Work>
  void OnCallerContext(PlanQueue* pq, Work work);
  void ExecutorLoop(ExecGroup* group, SubPlanCache* cache, VectorPool* pool);
  PlanQueue* GetQueue(PlanId id) const EXCLUDES(registry_mu_);

  // The one enqueue protocol (cap check, stamping, publication, wakeups);
  // all entry points delegate to it.
  Status EnqueueEvent(PlanQueue* pq, Event event);

  static void PushRunnable(ExecGroup* group, PlanQueue* pq);
  static bool PopRunnable(ExecGroup* group, PlanQueue** pq);
  // A claim owner's hand-off: re-publishes the plan if events remain, else
  // releases the dispatch claim (with its re-check).
  static void HandOff(PlanQueue* pq);
  // The event at the cursor (the plan's oldest queued event), or null when
  // the queue reads empty. Quantum-owner only.
  static Event* PeekEvent(PlanQueue* pq);
  // Moves the event PeekEvent just returned out and frees its node.
  // Quantum-owner only.
  static Event TakeEvent(PlanQueue* pq);
  // The first event of the next quantum: a single, or the next chunk taken
  // from the batch ticket at the cursor (which stays queued until its last
  // chunk is taken). Tickets whose chunks were all taken are popped on the
  // way, recording nothing: no dispatch, batch size, queue wait or
  // queue-delay sample. Quantum-owner only.
  static bool PopLive(PlanQueue* pq, Event* out);
  void Linger(ExecGroup* group, PlanQueue* pq, int64_t oldest_ns);
  // Executes one gathered quantum (outside all scheduler structures) and
  // records its errors and latency into the plan's counters.
  void ExecuteQuantum(PlanQueue* pq, std::vector<Event>& batch,
                      ExecContext& ctx);

  ObjectStore* store_;
  const RuntimeOptions options_;

  // Registry lock: guards the plan registry and the executor bookkeeping
  // vectors below. Register takes it exclusively; every request path takes
  // it shared just long enough to resolve PlanId -> PlanQueue* (the pointee
  // is never reclaimed while the Runtime lives, so the pointer may escape
  // the lock). Leaf lock: never held across plan execution, and executor
  // threads never acquire it.
  mutable SharedMutex registry_mu_;
  std::vector<std::unique_ptr<PlanQueue>> plan_queues_ GUARDED_BY(registry_mu_);
  std::vector<Reservation> reservations_ GUARDED_BY(registry_mu_);
  // Created once in the constructor, never reseated; the group's internals
  // carry their own synchronization.
  std::unique_ptr<ExecGroup> shared_group_;
  std::vector<std::unique_ptr<ExecGroup>> reserved_groups_
      GUARDED_BY(registry_mu_);
  std::vector<std::unique_ptr<SubPlanCache>> executor_caches_
      GUARDED_BY(registry_mu_);
  std::vector<std::unique_ptr<VectorPool>> executor_pools_
      GUARDED_BY(registry_mu_);

  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_ GUARDED_BY(registry_mu_);

  // Contexts for inline (caller-thread) predictions; their sub-plan cache
  // is the bypassed group's (ExecGroup::inline_cache).
  VectorPool caller_pool_;
  ExecContextPool caller_contexts_;
};

}  // namespace pretzel

#endif  // PRETZEL_RUNTIME_RUNTIME_H_
