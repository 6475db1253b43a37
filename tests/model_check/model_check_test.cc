// Deterministic model-check suite for src/common/lockfree.h (including the
// Runtime's dispatch-claim hand-off with its exhausted-ticket term, the
// batch chunk cursor, and the routing table's name index), the lock-free
// circuit breaker in src/serving/health.h, the RCU snapshot cell in
// src/common/rcu.h, and the versioned-lifecycle primitives in
// src/serving/lifecycle_gate.h.
//
// Three tiers:
//  1. Checker self-tests: exhaustive (DFS) litmus runs proving the model
//     itself finds races, staleness, and deadlocks — and stays quiet on
//     correct code.
//  2. Clean sweeps: each production structure run under seeded-random
//     exploration with its declared memory orders; any failure here is a
//     real concurrency bug (or a model false positive — both block the PR).
//  3. Seeded-mutation regressions: every mutation weakens exactly one
//     tagged memory order to relaxed (or enables one tagged structural bug)
//     and the checker MUST find a failing interleaving. This pins the
//     checker's detection power: if a future refactor silently defeats the
//     harness, these turn red.
//
// All seeds are fixed; runs are reproducible bit-for-bit.

#include "tests/model_check/mc_runtime.h"
// mc_runtime.h defines the PRETZEL_* seam; lockfree.h must come after it.
#include "src/common/lockfree.h"
// Header-only and built on the same seam, so the packed-word circuit
// breaker runs under the model too.
#include "src/serving/health.h"
// The routing-table snapshot cell (epoch-based RCU) — same seam.
#include "src/common/rcu.h"
// Versioned-lifecycle primitives (inflight gate + canary split) — same seam.
#include "src/serving/lifecycle_gate.h"

#include <array>
#include <cstdio>
#include <deque>
#include <memory>
#include <vector>

#include "tests/test_util.h"

namespace pretzel {
namespace {

constexpr uint64_t kSeed = 0xC0FFEEull;

// --- Tier 1: checker self-tests ---------------------------------------------

// Message-passing litmus. With a release store the data write is published
// to the acquiring reader; with a relaxed store the reader can observe the
// flag yet race on the data. g_mp_relaxed selects the broken variant.
bool g_mp_relaxed = false;

void LitmusMessagePassing() {
  auto data = std::make_shared<mc::Var<int>>(0);
  auto ready = std::make_shared<mc::Atomic<int>>(0);
  mc::Go({
      [data, ready] {
        *data = 42;
        ready->store(1, g_mp_relaxed ? mc::kRelaxed : mc::kRelease);
      },
      [data, ready] {
        if (ready->load(mc::kAcquire) == 1) {
          const int v = *data;
          mc::Check(v == 42, "litmus: published data not visible");
        }
      },
  });
}

// Classic AB/BA lock-order inversion; the scheduler's no-runnable-thread
// detector must flag it.
void LitmusAbbaDeadlock() {
  auto a = std::make_shared<mc::Mutex>();
  auto b = std::make_shared<mc::Mutex>();
  mc::Go({
      [a, b] {
        mc::LockGuard la(*a);
        mc::LockGuard lb(*b);
      },
      [a, b] {
        mc::LockGuard lb(*b);
        mc::LockGuard la(*a);
      },
  });
}

// Stale reads: with only relaxed orders, a reader polling a flag written
// once by another thread may legitimately never see it... but a seq_cst
// read must. This checks the staleness machinery both ways.
void LitmusSeqCstReadsLatest() {
  auto x = std::make_shared<mc::Atomic<int>>(0);
  mc::Go({
      [x] { x->store(7, mc::kSeqCst); },
      [x] {
        // Runs after/interleaved with the writer; if the store already
        // executed, seq_cst must not serve the stale initial value.
        const int before = x->load(mc::kRelaxed);
        const int after = x->load(mc::kSeqCst);
        if (before == 7) {
          mc::Check(after == 7, "litmus: seq_cst load served a stale value");
        }
      },
  });
}

void RunSelfTests() {
  g_mp_relaxed = false;
  auto r = mc::ExploreDfs(2000000, "", LitmusMessagePassing);
  CHECK_MSG(!r.failed, "litmus MP (release) must pass clean");
  std::printf("[mc] litmus MP clean: %ld interleavings, 0 failures\n", r.runs);

  g_mp_relaxed = true;
  r = mc::ExploreDfs(2000000, "", LitmusMessagePassing);
  CHECK_MSG(r.failed, "litmus MP (relaxed) race must be detected");
  std::printf("[mc] litmus MP relaxed: race found in %ld runs (%s)\n", r.runs,
              r.message.c_str());
  g_mp_relaxed = false;

  r = mc::ExploreDfs(2000000, "", LitmusAbbaDeadlock);
  CHECK_MSG(r.failed, "litmus ABBA deadlock must be detected");
  std::printf("[mc] litmus ABBA: %s (run %ld)\n", r.message.c_str(), r.runs);

  r = mc::ExploreDfs(2000000, "", LitmusSeqCstReadsLatest);
  CHECK_MSG(!r.failed, "litmus seq_cst-reads-latest must pass clean");
  std::printf("[mc] litmus seq_cst: %ld interleavings, 0 failures\n", r.runs);
}

// --- Tier 2/3 scenarios ------------------------------------------------------

// BoundedMpmcRing as SPSC with capacity 2 and 3 items: item 3 reuses cell 0,
// so the producer's wrap-around seq acquire (vs the consumer's pop release)
// is on the hot path, alongside both publication edges.
void RingSpscScenario() {
  auto ring = std::make_shared<BoundedMpmcRing<uint64_t>>(2);
  auto got = std::make_shared<std::vector<uint64_t>>();
  mc::Go({
      [ring] {
        for (uint64_t v = 1; v <= 3; ++v) {
          uint64_t x = v;
          while (!ring->TryPush(std::move(x))) {
            // Full: consumer hasn't drained yet. TryPush yields internally.
          }
        }
      },
      [ring, got] {
        while (got->size() < 3) {
          uint64_t v = 0;
          if (ring->TryPop(&v)) got->push_back(v);
        }
      },
  });
  if (mc::Pruned() || mc::Failed()) return;
  mc::Check(got->size() == 3, "ring spsc: wrong pop count");
  for (size_t i = 0; i < got->size(); ++i) {
    mc::Check((*got)[i] == i + 1, "ring spsc: FIFO violated");
  }
}

// BoundedMpmcRing as MPMC: 2 producers x 2 items, 2 consumers. Checks
// exactly-once delivery and per-producer FIFO within each consumer's
// stream (the strongest order MPMC guarantees).
void RingMpmcScenario() {
  auto ring = std::make_shared<BoundedMpmcRing<uint64_t>>(2);
  auto popped = std::make_shared<mc::Atomic<int>>(0);
  auto got0 = std::make_shared<std::vector<uint64_t>>();
  auto got1 = std::make_shared<std::vector<uint64_t>>();
  auto producer = [ring](uint64_t base) {
    return [ring, base] {
      for (uint64_t k = 0; k < 2; ++k) {
        uint64_t x = base + k;
        while (!ring->TryPush(std::move(x))) {
        }
      }
    };
  };
  auto consumer = [ring, popped](std::shared_ptr<std::vector<uint64_t>> got) {
    return [ring, popped, got] {
      for (;;) {
        if (popped->load(mc::kSeqCst) >= 4) break;
        uint64_t v = 0;
        if (ring->TryPop(&v)) {
          got->push_back(v);
          popped->fetch_add(1, mc::kSeqCst);
        }
      }
    };
  };
  mc::Go({producer(100), producer(200), consumer(got0), consumer(got1)});
  if (mc::Pruned() || mc::Failed()) return;
  std::vector<uint64_t> all(*got0);
  all.insert(all.end(), got1->begin(), got1->end());
  mc::Check(all.size() == 4, "ring mpmc: wrong total pop count");
  int seen[2][2] = {{0, 0}, {0, 0}};
  for (uint64_t v : all) {
    const int p = v >= 200 ? 1 : 0;
    const uint64_t k = v % 100;
    mc::Check(k < 2 && (v == 100 + k || v == 200 + k),
              "ring mpmc: foreign value popped");
    seen[p][k]++;
  }
  for (auto& row : seen) {
    for (int c : row) mc::Check(c == 1, "ring mpmc: exactly-once violated");
  }
  for (const auto& got : {got0, got1}) {
    uint64_t last[2] = {0, 0};
    for (uint64_t v : *got) {
      const int p = v >= 200 ? 1 : 0;
      mc::Check(last[p] == 0 || v > last[p], "ring mpmc: per-producer FIFO");
      last[p] = v;
    }
  }
}

// IndexStack: two threads cycling pop -> exclusive-ownership assert ->
// payload write -> release -> push. A stale next_ read (the payoff of any
// weakened head/CAS ordering) lets both threads pop the same index, which
// the owned[] exchange discipline catches immediately.
void StackScenario() {
  auto stack = std::make_shared<IndexStack>(3);
  auto owned = std::make_shared<std::array<mc::Atomic<uint32_t>, 3>>();
  auto slot = std::make_shared<std::array<mc::Var<uint64_t>, 3>>();
  for (uint32_t i = 0; i < 3; ++i) stack->Push(i);
  auto worker = [stack, owned, slot](uint64_t tag) {
    return [stack, owned, slot, tag] {
      for (uint64_t k = 0; k < 3; ++k) {
        uint32_t idx = 0;
        while (!stack->TryPop(&idx)) {
        }
        const uint32_t was = (*owned)[idx].exchange(1, mc::kSeqCst);
        mc::Check(was == 0, "stack: index popped by two owners");
        (*slot)[idx] = tag * 16 + k;
        const uint32_t back = (*owned)[idx].exchange(0, mc::kSeqCst);
        mc::Check(back == 1, "stack: ownership lost while held");
        stack->Push(idx);
      }
    };
  };
  mc::Go({worker(1), worker(2)});
  if (mc::Pruned() || mc::Failed()) return;
  uint32_t a = 0, b = 0, c = 0;
  mc::Check(stack->TryPop(&a) && stack->TryPop(&b) && stack->TryPop(&c),
            "stack: indices lost");
  mc::Check(a != b && b != c && a != c, "stack: duplicate indices");
  uint32_t d = 0;
  mc::Check(!stack->TryPop(&d), "stack: phantom index");
}

// MpscIntrusiveQueue: two producers, one consumer, payloads under race
// detection. Transient-empty pops are expected (a producer mid-push); the
// consumer simply revisits, and nothing may be lost or reordered
// per-producer. The consumer also recycles the first node it pops (re-push
// with a new payload, as the Runtime's event pools do) — intrusive-queue
// bugs that only bite on node reuse (e.g. a skipped next-pointer reset)
// need that churn to surface.
struct McNode : MpscNode {
  mc::Var<uint64_t> payload{0};
};

void MpscScenario() {
  auto q = std::make_shared<MpscIntrusiveQueue>();
  auto nodes = std::make_shared<std::array<McNode, 4>>();
  auto got = std::make_shared<std::vector<uint64_t>>();
  auto producer = [q, nodes](int p) {
    return [q, nodes, p] {
      for (int k = 0; k < 2; ++k) {
        McNode* n = &(*nodes)[p * 2 + k];
        n->payload = static_cast<uint64_t>(p) * 100 + k + 1;
        q->Push(n);
      }
    };
  };
  mc::Go({
      producer(0),
      producer(1),
      [q, got] {
        bool recycled = false;
        while (got->size() < 5) {
          MpscNode* n = q->TryPop();
          if (n == nullptr) continue;
          McNode* node = static_cast<McNode*>(n);
          const uint64_t v = node->payload;
          got->push_back(v);
          if (!recycled) {
            recycled = true;
            node->payload = v + 1000;
            q->Push(node);  // Push is legal from any thread, consumer included.
          }
        }
      },
  });
  if (mc::Pruned() || mc::Failed()) return;
  mc::Check(got->size() == 5, "mpsc: wrong pop count");
  int seen[2][2] = {{0, 0}, {0, 0}};
  int recycled_seen = 0;
  uint64_t last[2] = {0, 0};
  for (uint64_t v : *got) {
    if (v >= 1000) {
      ++recycled_seen;
      mc::Check(v == (*got)[0] + 1000, "mpsc: wrong recycled payload");
      continue;
    }
    const int p = v >= 100 ? 1 : 0;
    const int k = static_cast<int>(v % 100) - 1;
    mc::Check(k >= 0 && k < 2, "mpsc: foreign value popped");
    seen[p][k]++;
    mc::Check(last[p] == 0 || v > last[p], "mpsc: per-producer FIFO violated");
    last[p] = v;
  }
  for (auto& row : seen) {
    for (int c : row) mc::Check(c == 1, "mpsc: exactly-once violated");
  }
  mc::Check(recycled_seen == 1, "mpsc: recycled node not delivered once");
  mc::Check(q->TryPop() == nullptr, "mpsc: phantom node after drain");
}

// EventCount: the check-then-sleep protocol from the header comment. Any
// lost wakeup leaves the waiter blocked with the notifier done — caught by
// the deadlock detector.
void EventCountScenario() {
  auto ec = std::make_shared<EventCount>();
  auto flag = std::make_shared<mc::Atomic<int>>(0);
  auto resumed_set = std::make_shared<bool>(false);
  mc::Go({
      [ec, flag] {
        flag->store(1, mc::kSeqCst);
        ec->NotifyOne();
      },
      [ec, flag, resumed_set] {
        if (flag->load(mc::kSeqCst) != 1) {
          const uint64_t t = ec->PrepareWait();
          if (flag->load(mc::kSeqCst) == 1) {
            ec->CancelWait();
          } else {
            ec->Wait(t);
          }
        }
        *resumed_set = (flag->load(mc::kSeqCst) == 1);
      },
  });
  if (mc::Pruned() || mc::Failed()) return;
  mc::Check(*resumed_set, "eventcount: waiter resumed without the flag set");
}

// DispatchClaim: the Runtime's dispatch-claim hand-off, with its three
// kinds of claimant running at once. A producer admits an event (`queued`
// bump) and publishes the plan into the rotation only if it wins the claim;
// an inline claimant (PredictAsync on an idle group) takes the claim on an
// empty queue; an executor pops the rotation and consumes one event. Every
// owner then runs Runtime::HandOff: re-publish while work remains, else
// Release with its re-check. Afterwards no admitted event may be left with
// queued > 0, no claim and no rotation entry, and a held claim must be
// exactly one rotation entry. Mutation claim_skip_recheck drops the
// post-release re-check: a producer that bumped `queued` while the claim
// was held is then stranded.
void DispatchClaimScenario() {
  struct State {
    DispatchClaim claim;
    mc::Atomic<int> queued{0};
    mc::Atomic<int> runnable{0};  // Rotation entries for the plan.
  };
  auto st = std::make_shared<State>();
  const auto hand_off = [](State& s) {
    const auto pending = [&s] { return s.queued.load(mc::kSeqCst) > 0; };
    if (pending() || s.claim.Release(pending)) {
      s.runnable.fetch_add(1, mc::kSeqCst);
    }
  };
  mc::Go({
      [st] {
        st->queued.fetch_add(1, mc::kSeqCst);
        if (st->claim.TryAcquire()) {
          st->runnable.fetch_add(1, mc::kSeqCst);
        }
      },
      [st, hand_off] {
        if (st->queued.load(mc::kSeqCst) == 0 && st->claim.TryAcquire()) {
          hand_off(*st);  // Then executes its own event, outside the queue.
        }
      },
      [st, hand_off] {
        for (int turn = 0; turn < 2; ++turn) {
          int r = st->runnable.load(mc::kSeqCst);
          if (r == 0 ||
              !st->runnable.compare_exchange_strong(r, r - 1, mc::kSeqCst)) {
            continue;
          }
          if (st->queued.load(mc::kSeqCst) > 0) {
            st->queued.fetch_sub(1, mc::kSeqCst);
          }
          hand_off(*st);
        }
      },
  });
  if (mc::Pruned() || mc::Failed()) return;
  const int queued = st->queued.load(mc::kSeqCst);
  const int runnable = st->runnable.load(mc::kSeqCst);
  mc::Check(runnable <= 1, "claim: plan in the rotation twice");
  mc::Check(queued == 0 || runnable == 1,
            "claim: admitted event stranded with no claim and no rotation "
            "entry");
  mc::Check(st->claim.held() == (runnable == 1),
            "claim: held without a rotation entry, or published unclaimed");
}

// ChunkCursor: one batch job of 3 chunks, queued as one ticket. The
// executor holding the plan's dispatch claim takes a chunk from the job's
// cursor per turn and pops the ticket once it takes the last chunk or finds
// none left; the job's blocked synchronous caller takes chunks from the same
// cursor until it finds none left. Whoever takes a chunk runs it and counts
// down `remaining`, whose last decrement fires the job callback. Each chunk
// must run exactly once, the callback fire exactly once, and the ticket be
// popped exactly once. Mutation chunk_cursor_load_store splits the
// fetch_add into a load then a store: both takers can then read one index
// and run that chunk twice.
void ChunkCursorScenario() {
  constexpr size_t kChunks = 3;
  struct State {
    ChunkCursor cursor;
    mc::Atomic<int> remaining{kChunks};
    std::array<mc::Atomic<int>, kChunks> runs;
    mc::Atomic<int> callbacks{0};
    mc::Atomic<int> pops{0};
  };
  auto st = std::make_shared<State>();
  const auto run = [](State& s, size_t i) {
    s.runs[i].fetch_add(1, mc::kSeqCst);
    if (s.remaining.fetch_sub(1, mc::kSeqCst) == 1) {
      s.callbacks.fetch_add(1, mc::kSeqCst);
    }
  };
  mc::Go({
      [st, run] {
        for (bool queued = true; queued;) {
          const size_t i = st->cursor.Take();
          if (i + 1 >= kChunks) {
            st->pops.fetch_add(1, mc::kSeqCst);
            queued = false;
          }
          if (i < kChunks) {
            run(*st, i);
          }
        }
      },
      [st, run] {
        for (size_t i; (i = st->cursor.Take()) < kChunks;) {
          run(*st, i);
        }
      },
  });
  if (mc::Pruned() || mc::Failed()) return;
  for (size_t i = 0; i < kChunks; ++i) {
    mc::Check(st->runs[i].load(mc::kSeqCst) == 1,
              "chunk cursor: a chunk ran twice or never");
  }
  mc::Check(st->callbacks.load(mc::kSeqCst) == 1,
            "chunk cursor: the job callback did not fire exactly once");
  mc::Check(st->pops.load(mc::kSeqCst) == 1,
            "chunk cursor: the ticket was not popped exactly once");
}

// HandOff with an exhausted ticket: a batch job of 2 chunks is one queued
// ticket, and an executor holds the plan's claim (the plan is in the
// rotation). Each executor turn takes one chunk from the job's cursor,
// pops the ticket once it takes the last chunk or finds none left, and
// then hands off (HandOffPending, as Runtime::HandOff does); the job's
// blocked synchronous caller takes chunks from the same cursor meanwhile.
// When the caller takes the last chunk between the executor's take and its
// hand-off, `queued` is 0 but the exhausted ticket is still in the chain:
// the plan must stay published so an executor turn pops it. Mutation
// handoff_skip_tickets drops the ticket term from the pending check; the
// executor then releases the claim over the ticket and strands it.
void TicketHandOffScenario() {
  constexpr size_t kChunks = 2;
  struct State {
    ChunkCursor cursor;
    DispatchClaim claim;
    mc::Atomic<size_t> queued{kChunks};  // Untaken chunks.
    mc::Atomic<size_t> tickets{1};
    mc::Atomic<int> runnable{1};  // Rotation entries for the plan.
  };
  auto st = std::make_shared<State>();
  if (!st->claim.TryAcquire()) return;  // The enqueue published the plan.
  mc::Go({
      [st] {
        for (int turn = 0; turn < 3; ++turn) {
          int r = st->runnable.load(mc::kSeqCst);
          if (r == 0 ||
              !st->runnable.compare_exchange_strong(r, r - 1, mc::kSeqCst)) {
            continue;
          }
          const size_t i = st->cursor.Take();
          if (i + 1 >= kChunks) {
            st->tickets.fetch_sub(1, mc::kSeqCst);
          }
          if (i < kChunks) {
            st->queued.fetch_sub(1, mc::kSeqCst);
          }
          const auto pending = [&st] {
            return HandOffPending(st->queued, st->tickets);
          };
          if (pending() || st->claim.Release(pending)) {
            st->runnable.fetch_add(1, mc::kSeqCst);
          }
        }
      },
      [st] {
        while (st->cursor.Take() < kChunks) {
          st->queued.fetch_sub(1, mc::kSeqCst);
        }
      },
  });
  if (mc::Pruned() || mc::Failed()) return;
  const size_t tickets = st->tickets.load(mc::kSeqCst);
  const int runnable = st->runnable.load(mc::kSeqCst);
  mc::Check(st->queued.load(mc::kSeqCst) == 0,
            "ticket hand-off: a chunk was never taken");
  mc::Check(tickets == 0 || runnable == 1,
            "ticket hand-off: exhausted ticket stranded in an unpublished "
            "plan");
  mc::Check(st->claim.held() == (runnable == 1),
            "ticket hand-off: held without a rotation entry, or published "
            "unclaimed");
}

// NameIndex (lockfree.h), ShardRouter's routing-table name index. A writer
// inserts three names into a 4-cell index (the third insert doubles the
// cells) and publishes a snapshot {cells, size} after each insert, as
// PublishLocked does; older cells are freed only after the scenario, as the
// router frees them after the next publish's grace wait. A reader loads a
// snapshot twice and looks up an inserted name, a later one and an absent
// one. A name is routable in a snapshot only when its slot is inside the
// snapshot's size; it must be found then, and never with a wrong slot. The
// entries' hash and slot are race-tracked: a reader that reaches an entry
// without a happens-before edge to its construction has seen a half-built
// entry. Mutation name_index_publish weakens the cell's publication store
// to relaxed, so a reader probing the shared cells can meet an entry whose
// fields it does not yet see.
void NameIndexScenario() {
  struct Snapshot {
    const NameIndex::Cells* cells;
    size_t size;
  };
  static const char* const kNames[] = {"sa_0", "sa_1", "sa_2"};
  struct State {
    NameIndex index{4};
    std::vector<std::unique_ptr<NameIndex::Cells>> retired;
    std::deque<Snapshot> snapshots;  // Stable addresses.
    mc::Atomic<const Snapshot*> published{nullptr};
  };
  auto st = std::make_shared<State>();
  st->published.store(&st->snapshots.emplace_back(
                          Snapshot{st->index.cells(), 0}),
                      mc::kSeqCst);
  const auto key = [](const char* name) {
    return static_cast<uint64_t>(name[3]) * 0x100000001b3ULL;
  };
  mc::Go({
      [st, key] {
        for (size_t slot = 0; slot < 3; ++slot) {
          if (auto old = st->index.Insert(kNames[slot], key(kNames[slot]),
                                          slot)) {
            st->retired.push_back(std::move(old));
          }
          st->published.store(&st->snapshots.emplace_back(
                                  Snapshot{st->index.cells(), slot + 1}),
                              mc::kSeqCst);
        }
      },
      [st, key] {
        for (int pass = 0; pass < 2; ++pass) {
          const Snapshot* snap = st->published.load(mc::kSeqCst);
          for (size_t want = 0; want < 3; ++want) {
            const size_t slot =
                snap->cells->Find(kNames[want], key(kNames[want]));
            mc::Check(slot == NameIndex::kNotFound || slot == want,
                      "name index: a name found with another's slot");
            mc::Check(want >= snap->size || slot == want,
                      "name index: a name in the snapshot was not found");
          }
          mc::Check(snap->cells->Find("absent", key("sa_9")) ==
                        NameIndex::kNotFound,
                    "name index: an absent name was found");
        }
      },
  });
}

// CircuitBreaker trip visibility: the reopen deadline is stored relaxed and
// published by the trip CAS's release. A reader that observes state=open must
// therefore see the fresh deadline; weakening the trip CAS (mutation
// brk_trip_cas) lets it pair kOpen with the STALE deadline (0), flip to
// half-open mid-cooldown, and hand out a probe the moment the shard tripped.
// A reader may still legitimately see the stale CLOSED word (no edge exists),
// so the invariant is conditional: admitted + final state half-open is the
// only impossible pairing — Allow() at t=50 against a t=110 deadline can
// never have taken the open -> half-open path itself.
void BreakerTripVisibilityScenario() {
  CircuitBreakerOptions opt;
  opt.failure_threshold = 1;
  opt.cooldown_us = 100;
  opt.probe_quota = 1;
  auto brk = std::make_shared<CircuitBreaker>(opt);
  auto admitted = std::make_shared<bool>(false);
  mc::Go({
      [brk] { brk->OnFailure(10); },  // Trips: open, reopen at t=110.
      [brk, admitted] { *admitted = brk->Allow(50); },  // Inside cooldown.
  });
  if (mc::Pruned() || mc::Failed()) return;
  mc::Check(!(*admitted && brk->state() == CircuitBreaker::State::kHalfOpen),
            "breaker: probe granted inside the cooldown (stale reopen_at)");
  mc::Check(brk->trips() == 1, "breaker: trip not recorded");
}

// Deterministic probe lifecycle: trip -> reject inside cooldown -> exactly
// one probe after it -> success closes. Mutation brk_halfopen_keep_tokens
// flips to half-open with zero tokens, so the post-cooldown Allow() that
// must grant the probe returns false forever (liveness: can never close).
void BreakerProbeLifecycleScenario() {
  CircuitBreakerOptions opt;
  opt.failure_threshold = 1;
  opt.cooldown_us = 100;
  opt.probe_quota = 1;
  auto brk = std::make_shared<CircuitBreaker>(opt);
  mc::Go({[brk] {
    brk->OnFailure(10);  // Trips: reopen at t=110.
    mc::Check(!brk->Allow(50), "breaker: admitted inside the cooldown");
    mc::Check(brk->Allow(150), "breaker: cooldown over but no probe granted");
    mc::Check(!brk->Allow(150), "breaker: second probe beyond the quota");
    brk->OnSuccess(150);
    mc::Check(brk->state() == CircuitBreaker::State::kClosed,
              "breaker: probe quota met but still not closed");
    mc::Check(brk->Allow(151), "breaker: closed but rejecting");
  }});
}

// Deterministic failed-probe path: a probe that fails must restart the
// cooldown from NOW. Mutation brk_reopen_refresh_skip leaves the already
// elapsed deadline in place, so the very next Allow() grants a fresh probe
// with no cooldown at all (a flapping shard gets hammered).
void BreakerReopenRefreshScenario() {
  CircuitBreakerOptions opt;
  opt.failure_threshold = 1;
  opt.cooldown_us = 100;
  opt.probe_quota = 2;
  auto brk = std::make_shared<CircuitBreaker>(opt);
  mc::Go({[brk] {
    brk->OnFailure(10);  // Trips: reopen at t=110.
    mc::Check(brk->Allow(150), "breaker: cooldown over but no probe granted");
    brk->OnFailure(150);  // Failed probe: back to open, reopen at t=250.
    mc::Check(!brk->Allow(200),
              "breaker: failed probe did not restart the cooldown");
    mc::Check(brk->Allow(260), "breaker: refreshed cooldown over, no probe");
  }});
}

// Probe-token return: a probe whose outcome delivers no health verdict
// (backpressure, caller error, arrived-already-expired) must hand its token
// back, or half-open wedges — every token burned, no verdict ever in
// flight, Allow() false forever, the shard blackholed. Mutation
// brk_abandon_drop_token swallows the token (the pre-fix bug): the
// post-abandon Allow() that must re-grant a probe returns false, and the
// breaker can never close. Also pins the cap: a closed-era straggler
// abandoning on top of a full quota must not mint extra tokens.
void BreakerProbeAbandonScenario() {
  CircuitBreakerOptions opt;
  opt.failure_threshold = 1;
  opt.cooldown_us = 100;
  opt.probe_quota = 1;
  auto brk = std::make_shared<CircuitBreaker>(opt);
  mc::Go({[brk] {
    brk->OnFailure(10);  // Trips: reopen at t=110.
    // Straggler abandons while OPEN: no token state to touch.
    brk->OnProbeAbandoned(120);
    mc::Check(brk->Allow(150), "breaker: cooldown over but no probe granted");
    // The probe above claimed the only token and ended verdictless: the
    // abandon must return it, or no probe can ever run again.
    brk->OnProbeAbandoned(150);
    mc::Check(brk->Allow(151), "breaker: abandoned probe token not returned");
    // Quota outstanding again; a further abandon must cap at the quota.
    brk->OnProbeAbandoned(151);
    brk->OnProbeAbandoned(151);
    mc::Check(brk->state() == CircuitBreaker::State::kHalfOpen,
              "breaker: abandon left half-open");
    brk->OnSuccess(152);
    mc::Check(brk->state() == CircuitBreaker::State::kClosed,
              "breaker: re-granted probe's success did not close");
  }});
}

// RcuCell snapshot swap (src/common/rcu.h), the routing-table discipline:
// a reader pins a snapshot while a writer publishes a replacement and
// reclaims the retired one after the grace period. The invariant is
// use-after-reclaim freedom: a guard's snapshot is never marked freed while
// the guard is live. Reclamation is modeled by per-table freed flags (the
// scenario never really deletes under the reader), so a violation is a
// failed Check, not UB. kSlots=1 keeps the state space tight — slot choice
// is a perf spread, not a correctness axis.
//
// The memory-order claim is Dekker-shaped (store-buffering): the reader's
// enter bump and the writer's counter reads race on separate locations, so
// seq_cst carries the proof. Mutations: rcu_skip_grace reclaims without any
// wait; rcu_sync_in_load lets the writer's wait loop read a stale zero
// enter count under a live reader. Two weakenings are analyzed and
// excluded rather than seeded: the reader's enter bump (rcu_read_enter)
// is an RMW, which the model (like real coherence) serves from the latest
// value regardless of declared order; and the reader's pointer load
// (rcu_read_ptr_load) became provably benign once reader validation
// landed — the validation load reads-from the epoch RMW chain, so the
// reader happens-after every exchange up to the epoch it observed, and
// coherence then pins the pointer load (at ANY order) to the
// current-or-next snapshot, both of whose retirers are ordered behind the
// reader's registration (full derivation in rcu.h). A single swap also
// cannot reach the two-exchange straggler reclaim; RcuTwoSwapScenario
// below covers it (and detects rcu_skip_validate).
struct RcuTable {
  int gen;  // Identity: which freed[] flag models this table's reclamation.
};

void RcuSwapScenario() {
  auto* table_a = new RcuTable{0};
  auto* table_b = new RcuTable{1};
  auto cell = std::make_shared<RcuCell<RcuTable, 1>>(table_a);
  auto freed = std::make_shared<std::array<mc::Atomic<int>, 2>>();
  mc::Go({
      [cell, table_b, freed] {
        const RcuTable* old = cell->Exchange(table_b);
        // Grace period over: the writer is entitled to reclaim `old`.
        (*freed)[old->gen].store(1, mc::kSeqCst);
      },
      [cell, freed] {
        auto guard = cell->Read();
        mc::Check((*freed)[guard->gen].load(mc::kSeqCst) == 0,
                  "rcu: snapshot reclaimed under a live reader");
      },
  });
  // Cleanup (runs even on pruned runs; single-threaded now): the cell's
  // destructor frees whichever table it currently holds, we free the other.
  const RcuTable* current = cell->Read().get();
  delete (current == table_a ? table_b : table_a);
}

// Two consecutive Exchanges against one straggling reader — the
// interleaving a single swap cannot reach, and exactly what a replication
// maintenance scan produces (back-to-back publishes). Pre-validation
// hazard: the reader loads the epoch (parity 0) and stalls; writer's first
// Exchange swaps, bumps, sees in[0]==out[0] (the straggler never bumped)
// and reclaims table 0; the straggler resumes, registers under parity 0
// UNOBSERVED, and loads table 1; the second Exchange retires table 1 but
// waits only on parity 1 — reclaiming table 1 under the live reader. The
// validation re-read in Read() closes the window: the straggler notices
// the parity moved, retires its parity-0 registration, and re-registers
// under parity 1, which the second Exchange's grace wait does cover.
// Mutation rcu_skip_validate restores the pre-fix algorithm and must trip
// the freed-under-reader Check here.
void RcuTwoSwapScenario() {
  auto* t0 = new RcuTable{0};
  auto* t1 = new RcuTable{1};
  auto* t2 = new RcuTable{2};
  auto cell = std::make_shared<RcuCell<RcuTable, 1>>(t0);
  auto freed = std::make_shared<std::array<mc::Atomic<int>, 3>>();
  mc::Go({
      [cell, t1, t2, freed] {
        const RcuTable* a = cell->Exchange(t1);
        (*freed)[a->gen].store(1, mc::kSeqCst);
        const RcuTable* b = cell->Exchange(t2);
        (*freed)[b->gen].store(1, mc::kSeqCst);
      },
      [cell, freed] {
        auto guard = cell->Read();
        mc::Check((*freed)[guard->gen].load(mc::kSeqCst) == 0,
                  "rcu: snapshot reclaimed under a straggling reader "
                  "across two exchanges");
      },
  });
  // Cleanup (single-threaded now; pruned runs may stop after either
  // exchange): the cell's destructor frees the table it holds, we free the
  // other two.
  const RcuTable* current = cell->Read().get();
  for (RcuTable* t : {t0, t1, t2}) {
    if (t != current) {
      delete t;
    }
  }
}

// VersionGate (src/serving/lifecycle_gate.h), the epoch side of version
// retirement: a request Enter()s the gate of the version it routed to while
// the retirer Close()s the gate and AwaitDrain()s before reclaiming the
// version's plan and ObjectStore blobs. The claim is store-buffering-shaped
// (like RCU's): the reader's inflight bump and closed-flag check race the
// retirer's closed store and inflight read on separate locations, so both
// sides run seq_cst — either the request sees closed and backs out, or the
// drain sees the bump and waits. Reclamation is modeled by a freed flag; an
// admitted request observing freed==1 is the use-after-reclaim. Mutations:
// lc_skip_drain (retirer never waits), lc_drain_inflight (drain's inflight
// load weakened to relaxed — a stale zero starts reclamation under a live
// reader), lc_enter_closed (admission's closed check weakened to relaxed —
// a stale "open" admits a request after the drain already saw zero).
void VersionSwapScenario() {
  auto gate = std::make_shared<VersionGate>();
  auto freed = std::make_shared<mc::Atomic<int>>(0);
  mc::Go({
      [gate, freed] {
        // Retirer: the routing table no longer hands out this version
        // (modeled by going straight to Close — the scenario's reader
        // stands for the straggler that routed before the swap).
        gate->Close();
        gate->AwaitDrain();
        (*freed).store(1, mc::kSeqCst);
      },
      [gate, freed] {
        if (gate->Enter()) {
          mc::Check((*freed).load(mc::kSeqCst) == 0,
                    "lifecycle: version reclaimed under an admitted request");
          gate->Exit();
        }
      },
  });
  if (mc::Pruned() || mc::Failed()) return;
  mc::Check(gate->Drained(), "lifecycle: closed, exited gate not drained");
}

// CanarySplit publication, message-passing-shaped: Publish() stores the
// target version (relaxed) then the fraction (release); Load() acquires the
// fraction and reads the target relaxed. A reader acting on a nonzero
// fraction must see the version that fraction was published FOR — routing
// canary traffic at the new fraction to a stale target would send it to a
// version whose gate may already be draining. Mutation lc_fraction_publish
// weakens the fraction store to relaxed, letting the reader pair the new
// fraction with target 0.
void CanarySplitScenario() {
  auto split = std::make_shared<CanarySplit>();
  mc::Go({
      [split] { split->Publish(100, 42); },
      [split] {
        const CanarySplit::Split s = split->Load();
        if (s.fraction_bp != 0) {
          mc::Check(s.target == 42,
                    "canary: fraction observed without its target version");
        }
      },
  });
}

// --- Drivers -----------------------------------------------------------------

struct CleanCase {
  const char* name;
  void (*scenario)();
  long runs;
};

struct MutationCase {
  const char* name;  // PRETZEL_MO tag or PRETZEL_LF_MUTATION name.
  void (*scenario)();
};

const CleanCase kClean[] = {
    {"ring_spsc", RingSpscScenario, 1500},
    {"ring_mpmc", RingMpmcScenario, 600},
    {"index_stack", StackScenario, 1000},
    {"mpsc_queue", MpscScenario, 1200},
    {"event_count", EventCountScenario, 2000},
    {"dispatch_claim", DispatchClaimScenario, 2000},
    {"chunk_cursor", ChunkCursorScenario, 2000},
    {"ticket_hand_off", TicketHandOffScenario, 2000},
    {"name_index", NameIndexScenario, 2000},
    {"breaker_trip_visibility", BreakerTripVisibilityScenario, 1500},
    {"breaker_probe_lifecycle", BreakerProbeLifecycleScenario, 20},
    {"breaker_reopen_refresh", BreakerReopenRefreshScenario, 20},
    {"breaker_probe_abandon", BreakerProbeAbandonScenario, 20},
    {"rcu_snapshot_swap", RcuSwapScenario, 1500},
    {"rcu_two_exchange_straggler", RcuTwoSwapScenario, 1500},
    {"lifecycle_version_swap", VersionSwapScenario, 1500},
    {"lifecycle_canary_split", CanarySplitScenario, 1500},
};

// >= 3 seeded mutations per structure; each weakens one tagged order to
// relaxed (or enables a tagged structural bug) and must be caught.
const MutationCase kMutations[] = {
    // BoundedMpmcRing.
    {"ring_push_seq_load", RingSpscScenario},
    {"ring_push_seq_store", RingSpscScenario},
    {"ring_pop_seq_load", RingSpscScenario},
    // IndexStack.
    {"stack_push_cas_ok", StackScenario},
    {"stack_pop_head_load", StackScenario},
    {"stack_pop_cas_fail", StackScenario},
    // MpscIntrusiveQueue.
    {"mpsc_push_link", MpscScenario},
    {"mpsc_pop_next_load", MpscScenario},
    {"mpsc_push_skip_clear", MpscScenario},
    // EventCount.
    {"ec_notify_waiters_load", EventCountScenario},
    {"ec_notify_skip_bump", EventCountScenario},
    {"ec_notify_skip_mutex", EventCountScenario},
    // DispatchClaim (structural: drops the post-release re-check).
    {"claim_skip_recheck", DispatchClaimScenario},
    // ChunkCursor (structural: the take fetch_add becomes load-then-store).
    {"chunk_cursor_load_store", ChunkCursorScenario},
    // HandOffPending (structural: drops the exhausted-ticket term).
    {"handoff_skip_tickets", TicketHandOffScenario},
    // NameIndex: the cell publication store weakened to relaxed.
    {"name_index_publish", NameIndexScenario},
    // CircuitBreaker (src/serving/health.h).
    {"brk_trip_cas", BreakerTripVisibilityScenario},
    {"brk_halfopen_keep_tokens", BreakerProbeLifecycleScenario},
    {"brk_reopen_refresh_skip", BreakerReopenRefreshScenario},
    {"brk_abandon_drop_token", BreakerProbeAbandonScenario},
    // RcuCell (src/common/rcu.h). rcu_read_enter and rcu_read_ptr_load are
    // analyzed-and-excluded, not seeded — see the RcuSwapScenario comment.
    {"rcu_skip_grace", RcuSwapScenario},
    {"rcu_sync_in_load", RcuSwapScenario},
    // Structural: drops the reader's post-registration epoch validation,
    // restoring the pre-fix algorithm; only the two-exchange scenario can
    // reach the resulting straggler reclaim.
    {"rcu_skip_validate", RcuTwoSwapScenario},
    // VersionGate / CanarySplit (src/serving/lifecycle_gate.h).
    {"lc_skip_drain", VersionSwapScenario},
    {"lc_drain_inflight", VersionSwapScenario},
    {"lc_enter_closed", VersionSwapScenario},
    {"lc_fraction_publish", CanarySplitScenario},
};

constexpr long kMutationRunCap = 30000;

}  // namespace
}  // namespace pretzel

int main() {
  using namespace pretzel;

  RunSelfTests();

  for (const CleanCase& c : kClean) {
    const auto r = mc::ExploreRandom(c.runs, kSeed, "", c.scenario);
    if (r.failed) {
      std::printf("[mc] CLEAN %s FAILED after %ld runs: %s\n", c.name, r.runs,
                  r.message.c_str());
    } else {
      std::printf("[mc] clean %s: %ld runs ok (%ld pruned)\n", c.name, r.runs,
                  r.pruned);
    }
    CHECK_MSG(!r.failed, c.name);
  }

  for (const MutationCase& m : kMutations) {
    const auto r = mc::ExploreRandom(kMutationRunCap, kSeed, m.name,
                                     m.scenario);
    if (r.failed) {
      std::printf("[mc] mutation %-24s detected in %5ld runs: %s\n", m.name,
                  r.runs, r.message.c_str());
    } else {
      std::printf("[mc] mutation %-24s NOT DETECTED in %ld runs\n", m.name,
                  r.runs);
    }
    CHECK_MSG(r.failed, m.name);
  }

  std::printf("model_check_test: all checks passed\n");
  return 0;
}
