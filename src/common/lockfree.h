// Lock-free scheduler primitives (unit-tested in isolation by
// tests/lockfree_test.cc):
//
//  - BoundedMpmcRing<T>: Vyukov's bounded queue with per-cell sequence
//    numbers. In the Runtime it carries the runnable PlanQueue* rotation
//    (MPMC: producers publish plans, executors pop them).
//  - IndexStack: a Treiber stack over small indices with the ABA tag packed
//    beside the index in one 64-bit word, so push/pop are single
//    pointer-width CASes (the constant-time free-list scheme of Blelloch &
//    Wei, arXiv:2008.04296 / arXiv:1911.09671, specialized to bounded
//    pools). Backs the VectorPool / ExecContextPool free lists.
//  - MpscIntrusiveQueue: Vyukov's intrusive unbounded MPSC queue — push is
//    wait-free (one exchange), pop is single-consumer. It is each plan's
//    event queue: a FIFO chain of per-enqueue-call event segments
//    (producers = caller/FrontEnd threads, consumer = the executor holding
//    the plan's dispatch quantum), so no enqueue ever takes a mutex.
//  - EventCount: futex-style sleep/wake for executor parking. Producers pay
//    one atomic bump and skip the kernel entirely while every consumer is
//    busy; mutex+condvar survive only on the park/unpark slow path.
//  - DispatchClaim: the at-most-one-owner flag on a queue's dispatch
//    quantum, with the release-then-recheck hand-off every owner uses.
//  - HandOffPending: the work a dispatch-claim owner must keep published,
//    exhausted batch tickets included.
//  - ChunkCursor: the next untaken chunk of one batch job, so the executors
//    and the job's blocked synchronous caller can all run its chunks while
//    each chunk still runs exactly once.
//  - NameIndex: an insert-only open-addressing name -> slot map whose cells
//    every routing snapshot shares. One serialized writer publishes each
//    immutable entry with one release store; readers probe with acquire
//    loads and no lock. It is ShardRouter's routing-table name index, so a
//    new plan costs one insert, not a copy of every name placed before it.
#ifndef PRETZEL_COMMON_LOCKFREE_H_
#define PRETZEL_COMMON_LOCKFREE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

// ---------------------------------------------------------------------------
// Model-check instrumentation seam. Under PRETZEL_MODEL_CHECK the
// deterministic model checker (tests/model_check/mc_runtime.h, which must be
// included BEFORE this header) substitutes its own atomics, mutex, and
// condvar for the std ones: every atomic access becomes a scheduler yield
// point, relaxed/acquire loads may return coherence-permitted stale values,
// and the PRETZEL_MO tag names let the checker's regression suite weaken
// individual memory orders at runtime (seeded mutations the checker must
// detect). PRETZEL_LF_MUTATION gates seeded *structural* bugs (e.g. a
// dropped epoch bump) the same way. In normal builds everything below
// compiles to the plain std forms with zero overhead: PRETZEL_MO(tag, o) is
// std::memory_order_o and the mutation hook is a constant false the
// optimizer deletes.
#if defined(PRETZEL_MODEL_CHECK) && !defined(PRETZEL_ATOMIC)
#error \
    "PRETZEL_MODEL_CHECK builds must include tests/model_check/mc_runtime.h before src/common/lockfree.h"
#endif
#ifndef PRETZEL_ATOMIC
#define PRETZEL_ATOMIC(T) std::atomic<T>
#define PRETZEL_MC_VAR(T) T
#define PRETZEL_MO(tag, order) std::memory_order_##order
#define PRETZEL_LF_MUTEX std::mutex
#define PRETZEL_LF_CONDVAR std::condition_variable
#define PRETZEL_LF_UNIQUE_LOCK std::unique_lock<std::mutex>
#define PRETZEL_LF_LOCK_GUARD std::lock_guard<std::mutex>
#define PRETZEL_LF_MUTATION(name) false
// A destructor that performs instrumented atomic ops (e.g. an RAII read
// guard's exit bump) must be allowed to propagate the model checker's
// run-abort exception; in normal builds destructors stay noexcept.
#define PRETZEL_LF_DTOR_NOEXCEPT noexcept
#endif

namespace pretzel {

// Bounded multi-producer/multi-consumer ring (Dmitry Vyukov's design). Each
// cell carries a sequence number that encodes whether it is ready to be
// written (seq == pos) or read (seq == pos + 1); producers and consumers
// claim positions with one CAS each and never block one another behind a
// lock. TryPush/TryPop fail (without consuming the argument) when the ring
// is full/empty instead of waiting.
template <typename T>
class BoundedMpmcRing {
 public:
  // Capacity is rounded up to a power of two, minimum 2.
  explicit BoundedMpmcRing(size_t min_capacity) {
    size_t cap = 2;
    while (cap < min_capacity) {
      cap <<= 1;
    }
    capacity_ = cap;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, PRETZEL_MO(ring_init_seq, relaxed));
    }
  }

  BoundedMpmcRing(const BoundedMpmcRing&) = delete;
  BoundedMpmcRing& operator=(const BoundedMpmcRing&) = delete;

  size_t capacity() const { return capacity_; }

  // False when full; `value` is left intact so the caller can divert it.
  bool TryPush(T&& value) {
    Cell* cell;
    uint64_t pos = enqueue_pos_.load(PRETZEL_MO(ring_push_pos_load, relaxed));
    for (;;) {
      cell = &cells_[pos & mask_];
      // acquire: pairs with the consumer's seq release in TryPop, so on
      // wrap-around the consumer's read of the old value happens-before the
      // write below.
      const uint64_t seq = cell->seq.load(PRETZEL_MO(ring_push_seq_load, acquire));
      const int64_t dif = static_cast<int64_t>(seq) - static_cast<int64_t>(pos);
      if (dif == 0) {
        // relaxed: the position counter only arbitrates claims; all
        // publication ordering rides the per-cell seq.
        if (enqueue_pos_.compare_exchange_weak(
                pos, pos + 1, PRETZEL_MO(ring_push_pos_cas, relaxed))) {
          break;
        }
      } else if (dif < 0) {
        return false;  // Full.
      } else {
        pos = enqueue_pos_.load(PRETZEL_MO(ring_push_pos_reload, relaxed));
      }
    }
    cell->value = std::move(value);
    // release: publishes the value write above to the consumer's seq acquire.
    cell->seq.store(pos + 1, PRETZEL_MO(ring_push_seq_store, release));
    return true;
  }

  bool TryPop(T* out) {
    Cell* cell;
    uint64_t pos = dequeue_pos_.load(PRETZEL_MO(ring_pop_pos_load, relaxed));
    for (;;) {
      cell = &cells_[pos & mask_];
      // acquire: pairs with the producer's seq release above, ordering the
      // value read below after the producer's value write.
      const uint64_t seq = cell->seq.load(PRETZEL_MO(ring_pop_seq_load, acquire));
      const int64_t dif =
          static_cast<int64_t>(seq) - static_cast<int64_t>(pos + 1);
      if (dif == 0) {
        // relaxed: see the push-side CAS.
        if (dequeue_pos_.compare_exchange_weak(
                pos, pos + 1, PRETZEL_MO(ring_pop_pos_cas, relaxed))) {
          break;
        }
      } else if (dif < 0) {
        return false;  // Empty.
      } else {
        pos = dequeue_pos_.load(PRETZEL_MO(ring_pop_pos_reload, relaxed));
      }
    }
    *out = std::move(cell->value);
    // release: hands the emptied cell back to producers (see push acquire).
    cell->seq.store(pos + mask_ + 1, PRETZEL_MO(ring_pop_seq_store, release));
    return true;
  }

 private:
  struct Cell {
    PRETZEL_ATOMIC(uint64_t) seq{0};
    PRETZEL_MC_VAR(T) value{};
  };

  size_t capacity_ = 0;
  size_t mask_ = 0;
  std::unique_ptr<Cell[]> cells_;
  // Producers and consumers advance independent counters; keep them on
  // separate cache lines.
  alignas(64) PRETZEL_ATOMIC(uint64_t) enqueue_pos_{0};
  alignas(64) PRETZEL_ATOMIC(uint64_t) dequeue_pos_{0};
};

// Treiber stack over indices [0, capacity). The head word packs
// {tag:32 | index:32}; the tag increments on every successful push or pop,
// so a pointer-width CAS is ABA-safe even when indices recycle rapidly
// (pool free lists do exactly that). An index may be in the stack at most
// once; the caller owns an index from the moment TryPop returns it until it
// pushes it back.
class IndexStack {
 public:
  explicit IndexStack(uint32_t capacity) : next_(capacity) {}

  IndexStack(const IndexStack&) = delete;
  IndexStack& operator=(const IndexStack&) = delete;

  void Push(uint32_t idx) {
    uint64_t head = head_.load(PRETZEL_MO(stack_push_head_load, acquire));
    for (;;) {
      // relaxed: published by the CAS release below; poppers reach this
      // write only through an acquire of that (or a later) head.
      next_[idx].store(static_cast<uint32_t>(head & 0xFFFFFFFFull),
                       PRETZEL_MO(stack_push_next_store, relaxed));
      const uint64_t next_head = Pack(idx, Tag(head) + 1);
      // release on success: publishes the next_ link write above.
      if (head_.compare_exchange_weak(head, next_head,
                                      PRETZEL_MO(stack_push_cas_ok, release),
                                      PRETZEL_MO(stack_push_cas_fail, acquire))) {
        return;
      }
    }
  }

  bool TryPop(uint32_t* out) {
    // acquire: synchronizes with the pushing CAS release (continued through
    // intermediate RMWs as a release sequence), so the next_ read below sees
    // the pusher's link write.
    uint64_t head = head_.load(PRETZEL_MO(stack_pop_head_load, acquire));
    for (;;) {
      const uint32_t top = static_cast<uint32_t>(head & 0xFFFFFFFFull);
      if (top == kNil) {
        return false;
      }
      // relaxed: ordered by the head acquire above (or the CAS failure
      // acquire below on retry).
      const uint32_t next = next_[top].load(PRETZEL_MO(stack_pop_next_load, relaxed));
      const uint64_t next_head = Pack(next, Tag(head) + 1);
      // acquire on failure: the refreshed head is the HB source for the
      // next_ read on the retry iteration.
      if (head_.compare_exchange_weak(head, next_head,
                                      PRETZEL_MO(stack_pop_cas_ok, acq_rel),
                                      PRETZEL_MO(stack_pop_cas_fail, acquire))) {
        *out = top;
        return true;
      }
    }
  }

 private:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  static uint64_t Pack(uint32_t idx, uint32_t tag) {
    return (static_cast<uint64_t>(tag) << 32) | idx;
  }
  static uint32_t Tag(uint64_t head) { return static_cast<uint32_t>(head >> 32); }

  std::vector<PRETZEL_ATOMIC(uint32_t)> next_;
  PRETZEL_ATOMIC(uint64_t) head_{Pack(kNil, 0)};
};

// Node base for MpscIntrusiveQueue: derive the queued type from it and
// static_cast the popped pointer back.
struct MpscNode {
  PRETZEL_ATOMIC(MpscNode*) next{nullptr};
};

// Vyukov's intrusive unbounded MPSC queue. Push is wait-free from any
// thread: one exchange on the head plus one release store linking the
// predecessor. Pop is single-consumer (the owner of the plan's dispatch
// quantum in the Runtime) and may return nullptr transiently while a
// producer sits between its exchange and its link store — callers treat
// that exactly like "empty" and retry on their next visit; nothing is ever
// lost. Nodes are caller-owned: the queue never allocates or frees.
class MpscIntrusiveQueue {
 public:
  MpscIntrusiveQueue() : head_(&stub_), tail_(&stub_) {}

  MpscIntrusiveQueue(const MpscIntrusiveQueue&) = delete;
  MpscIntrusiveQueue& operator=(const MpscIntrusiveQueue&) = delete;

  void Push(MpscNode* node) {
    // relaxed: ordered before the exchange below in this thread's program
    // order; the next pusher's store to node->next lands after the exchange
    // hands it our node. Skipping the clear (seeded mutation
    // mpsc_push_skip_clear) leaves a recycled node's stale link live, so the
    // consumer can walk into nodes that were never re-pushed.
    if (!PRETZEL_LF_MUTATION(mpsc_push_skip_clear)) {
      node->next.store(nullptr, PRETZEL_MO(mpsc_push_next_clear, relaxed));
    }
    MpscNode* prev = head_.exchange(node, PRETZEL_MO(mpsc_push_xchg, acq_rel));
    // The queue is momentarily split here; pop reports empty until the link
    // lands, which is the transient nullptr documented above. release:
    // publishes the node's payload to the consumer's next acquire.
    prev->next.store(node, PRETZEL_MO(mpsc_push_link, release));
  }

  // Single consumer only. The stub node may travel through the chain (it is
  // re-pushed when the last real node is popped), so a popped node is always
  // a caller node, never the stub.
  MpscNode* TryPop() {
    MpscNode* tail = tail_;
    // acquire: pairs with the pusher's link release, carrying the popped
    // node's payload writes.
    MpscNode* next = tail->next.load(PRETZEL_MO(mpsc_pop_next_load, acquire));
    if (tail == &stub_) {
      if (next == nullptr) {
        return nullptr;  // Empty (or a producer mid-push).
      }
      tail_ = next;
      tail = next;
      next = next->next.load(PRETZEL_MO(mpsc_pop_stub_adv_load, acquire));
    }
    if (next != nullptr) {
      tail_ = next;
      return tail;
    }
    if (tail != head_.load(PRETZEL_MO(mpsc_pop_head_load, acquire))) {
      return nullptr;  // Producer mid-push behind `tail`; retry later.
    }
    // `tail` is the last real node: recycle the stub behind it so the chain
    // stays non-empty, then detach `tail`.
    Push(&stub_);
    next = tail->next.load(PRETZEL_MO(mpsc_pop_tail_next_load, acquire));
    if (next != nullptr) {
      tail_ = next;
      return tail;
    }
    return nullptr;  // A producer raced the stub re-push; retry later.
  }

 private:
  alignas(64) PRETZEL_ATOMIC(MpscNode*) head_;
  alignas(64) MpscNode* tail_;  // Consumer-private cursor.
  MpscNode stub_;
};

// Eventcount: decouples "is there work" (checked lock-free by the waiter)
// from "how do I sleep" (mutex+condvar, touched only when actually
// parking). Protocol for a waiter:
//
//   uint64_t t = ec.PrepareWait();
//   if (WorkAvailable()) { ec.CancelWait(); ... }  // never sleeps
//   else ec.Wait(t);                               // sleeps unless notified
//
// A notifier bumps the epoch first, so a waiter whose PrepareWait predates
// the notification falls straight through Wait — no lost wakeups — and
// skips the mutex+condvar entirely while no one is parked (waiters_ == 0),
// which is the common case with busy executors.
class EventCount {
 public:
  uint64_t PrepareWait() {
    waiters_.fetch_add(1, PRETZEL_MO(ec_prep_waiters_add, seq_cst));
    return epoch_.load(PRETZEL_MO(ec_prep_epoch_load, seq_cst));
  }

  void CancelWait() {
    waiters_.fetch_sub(1, PRETZEL_MO(ec_cancel_waiters_sub, seq_cst));
  }

  void Wait(uint64_t ticket) {
    PRETZEL_LF_UNIQUE_LOCK lock(mu_);
    cv_.wait(lock, [&] {
      return epoch_.load(PRETZEL_MO(ec_wait_epoch_load, seq_cst)) != ticket;
    });
    waiters_.fetch_sub(1, PRETZEL_MO(ec_wait_waiters_sub, seq_cst));
  }

  // False on timeout (the epoch never moved past `ticket` by `deadline`).
  bool WaitUntil(uint64_t ticket,
                 std::chrono::steady_clock::time_point deadline) {
    PRETZEL_LF_UNIQUE_LOCK lock(mu_);
    const bool notified = cv_.wait_until(lock, deadline, [&] {
      return epoch_.load(PRETZEL_MO(ec_waituntil_epoch_load, seq_cst)) != ticket;
    });
    waiters_.fetch_sub(1, PRETZEL_MO(ec_waituntil_waiters_sub, seq_cst));
    return notified;
  }

  void NotifyOne() { Notify(false); }
  void NotifyAll() { Notify(true); }

  // Consumers between PrepareWait and the end of their wait: parked, or
  // about to re-check and park. A snapshot for heuristics only.
  uint32_t waiters() const {
    // relaxed: callers only choose between two correct paths with it (run
    // on this thread or wake a consumer); no protocol step depends on it.
    return waiters_.load(PRETZEL_MO(ec_waiters_peek, relaxed));
  }

 private:
  void Notify(bool all) {
    // The bump must precede the waiters check: a waiter whose PrepareWait
    // predates this notification then falls straight through Wait's
    // predicate. Dropping it (seeded mutation ec_notify_skip_bump) loses
    // exactly the wakeup racing the check-then-sleep window.
    if (!PRETZEL_LF_MUTATION(ec_notify_skip_bump)) {
      epoch_.fetch_add(1, PRETZEL_MO(ec_notify_bump, seq_cst));
    }
    if (waiters_.load(PRETZEL_MO(ec_notify_waiters_load, seq_cst)) == 0) {
      return;  // Every consumer is busy: no syscall, no lock.
    }
    if (PRETZEL_LF_MUTATION(ec_notify_skip_mutex)) {
      // Seeded mutation: notify WITHOUT the mutex — reopens the window where
      // a waiter has evaluated its predicate but not yet slept, so the
      // notify lands on an empty waitlist and the waiter sleeps forever.
      if (all) {
        cv_.notify_all();
      } else {
        cv_.notify_one();
      }
      return;
    }
    // Taking the mutex orders this notify after any in-flight waiter's
    // predicate check, closing the check-then-sleep window.
    PRETZEL_LF_LOCK_GUARD lock(mu_);
    if (all) {
      cv_.notify_all();
    } else {
      cv_.notify_one();
    }
  }

  PRETZEL_ATOMIC(uint64_t) epoch_{0};
  PRETZEL_ATOMIC(uint32_t) waiters_{0};
  PRETZEL_LF_MUTEX mu_;
  PRETZEL_LF_CONDVAR cv_;
};

// The dispatch claim on one queue: at most one owner at a time holds the
// right to consume it (an executor that popped it from the runnable
// rotation, or a caller running one quantum inline). Producers publish an
// event, then TryAcquire; only the winner puts the queue in the rotation.
// An owner that finds nothing left to do must Release, which re-checks for
// work: a producer that published while the claim was held saw it taken
// and left publication to the owner. The claim store/exchange and the
// producer's counter bump before its exchange are a store-buffering pair,
// so both run seq_cst — either the producer's exchange sees the release, or
// the owner's re-check sees the producer's work.
class DispatchClaim {
 public:
  // True when the caller took a free claim and now owns the queue.
  bool TryAcquire() {
    return !claimed_.exchange(true, PRETZEL_MO(claim_acquire_xchg, seq_cst));
  }

  // Owner only. Gives the claim up, then re-checks `has_work()`. True means
  // work arrived and the caller re-took the claim: it must publish the
  // queue (or consume it) exactly as a winning producer would. Dropping the
  // re-check (seeded mutation claim_skip_recheck) strands that producer's
  // event with no claim holder and no rotation entry.
  template <typename HasWork>
  bool Release(HasWork has_work) {
    claimed_.store(false, PRETZEL_MO(claim_release_store, seq_cst));
    if (PRETZEL_LF_MUTATION(claim_skip_recheck)) {
      return false;
    }
    return has_work() && TryAcquire();
  }

  bool held() const {
    return claimed_.load(PRETZEL_MO(claim_held_load, seq_cst));
  }

 private:
  PRETZEL_ATOMIC(bool) claimed_{false};
};

// What the owner of a plan's dispatch claim must keep published when it
// hands off: live work (`queued`: queued singles and untaken batch chunks)
// or a batch ticket still in the chain (`tickets`). A blocked synchronous
// caller can take a job's last chunks between an executor's take and its
// hand-off; the exhausted ticket then stays in the chain until an executor
// turn pops it, so it must keep the plan published. Dropping the ticket term
// (seeded mutation handoff_skip_tickets) releases the claim over it and
// strands the ticket in an unpublished plan, where Retire's drain waits for
// it forever.
template <typename Counter>
bool HandOffPending(const Counter& queued, const Counter& tickets) {
  return queued.load(PRETZEL_MO(handoff_queued_load, seq_cst)) > 0 ||
         (!PRETZEL_LF_MUTATION(handoff_skip_tickets) &&
          tickets.load(PRETZEL_MO(handoff_tickets_load, seq_cst)) > 0);
}

// The chunk cursor of one batch job. The job is one queued ticket, and
// every taker (the executor holding the plan's dispatch claim, and the
// job's blocked synchronous caller) claims the next untaken chunk with one
// fetch_add, so each index goes to exactly one taker. Indices at or past
// the job's chunk count mean every chunk is taken. Splitting the fetch_add
// into a load then a store (seeded mutation chunk_cursor_load_store) lets
// two takers read one index and run that chunk twice.
class ChunkCursor {
 public:
  size_t Take() {
    if (PRETZEL_LF_MUTATION(chunk_cursor_load_store)) {
      const size_t i = next_.load(PRETZEL_MO(chunk_cursor_load, seq_cst));
      next_.store(i + 1, PRETZEL_MO(chunk_cursor_store, seq_cst));
      return i;
    }
    return next_.fetch_add(1, PRETZEL_MO(chunk_cursor_add, seq_cst));
  }

 private:
  PRETZEL_ATOMIC(size_t) next_{0};
};

// Insert-only name -> slot index shared by every snapshot that reads it.
// Entries are immutable `{hash, name, slot}` records in writer-owned stable
// storage; a cell holds null or one entry, and a filled cell never changes.
// The writer (externally serialized) builds an entry, then publishes it with
// one release store into an empty cell; readers probe with acquire loads and
// take no lock. A reader can therefore find an entry inserted after the
// snapshot it holds was published: callers pair the index with a snapshot
// size and treat a slot at or past it as absent.
//
// Linear probing over a power-of-two cell array kept at most half full, so
// every probe chain ends at an empty cell. At that load the insert first
// builds a doubled copy of the cells and returns the old ones: they stay
// valid for readers of older snapshots, and the caller frees them once no
// reader can hold such a snapshot (after its next RCU grace period). Total
// growth work is O(names). Keys are mixed with the SplitMix64 finalizer, so
// sequential names (`sa_0`, `sa_1`, ...) under a weak hash do not cluster.
class NameIndex {
 public:
  static constexpr size_t kNotFound = ~size_t{0};

  struct Entry {
    // The fields are assigned in the body so that under the model checker
    // they are race-tracked writes (a modeled variable's construction is
    // not).
    Entry(uint64_t h, std::string_view n, size_t s) : name(n) {
      hash = h;
      slot = s;
    }
    PRETZEL_MC_VAR(uint64_t) hash;  // Mixed.
    const std::string name;
    PRETZEL_MC_VAR(size_t) slot;
  };

  class Cells {
   public:
    explicit Cells(size_t capacity)
        : mask_(capacity - 1),
          cells_(std::make_unique<PRETZEL_ATOMIC(const Entry*)[]>(capacity)) {}

    // The slot of `name` (`key` is its unmixed hash), or kNotFound. Any
    // thread, no lock.
    size_t Find(std::string_view name, uint64_t key) const {
      const uint64_t hash = Mix(key);
      for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
        // acquire: pairs with Insert's release store, so the entry's fields
        // read below are the ones the writer built.
        const Entry* e = cells_[i].load(PRETZEL_MO(name_index_probe, acquire));
        if (e == nullptr) {
          return kNotFound;
        }
        if (e->hash == hash && e->name == name) {
          return e->slot;
        }
      }
    }

   private:
    friend class NameIndex;
    size_t capacity() const { return mask_ + 1; }
    // Writer only: the cell `hash` probes to first that is empty.
    PRETZEL_ATOMIC(const Entry*)& EmptyCell(uint64_t hash) {
      size_t i = hash & mask_;
      // relaxed: only the writer stores cells, so it reads its own stores.
      while (cells_[i].load(PRETZEL_MO(name_index_writer_probe, relaxed)) !=
             nullptr) {
        i = (i + 1) & mask_;
      }
      return cells_[i];
    }

    size_t mask_;
    std::unique_ptr<PRETZEL_ATOMIC(const Entry*)[]> cells_;
  };

  // `capacity` is the initial cell count, a power of two.
  explicit NameIndex(size_t capacity = 16)
      : cells_(std::make_unique<Cells>(capacity)) {}

  NameIndex(const NameIndex&) = delete;
  NameIndex& operator=(const NameIndex&) = delete;

  // The cells a snapshot published now must carry.
  const Cells* cells() const { return cells_.get(); }

  // Writer only. Maps `name` (absent; `key` is its unmixed hash) to `slot`.
  // Returns the cells this insert replaced when it grew them, else null;
  // the caller frees them once no reader can hold a snapshot carrying them.
  std::unique_ptr<Cells> Insert(std::string_view name, uint64_t key,
                                size_t slot) {
    std::unique_ptr<Cells> retired;
    if ((entries_.size() + 1) * 2 > cells_->capacity()) {
      auto grown = std::make_unique<Cells>(cells_->capacity() * 2);
      for (const Entry& e : entries_) {
        // relaxed: the grown cells are unpublished; the snapshot that first
        // carries them publishes these stores.
        grown->EmptyCell(e.hash).store(
            &e, PRETZEL_MO(name_index_grow_store, relaxed));
      }
      retired = std::exchange(cells_, std::move(grown));
    }
    const Entry& e = entries_.emplace_back(Mix(key), name, slot);
    // release: publishes the entry's fields to readers' probe acquire.
    cells_->EmptyCell(e.hash).store(&e,
                                    PRETZEL_MO(name_index_publish, release));
    return retired;
  }

 private:
  static uint64_t Mix(uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  std::deque<Entry> entries_;  // Stable addresses; never shrinks.
  std::unique_ptr<Cells> cells_;
};

}  // namespace pretzel

#endif  // PRETZEL_COMMON_LOCKFREE_H_
