// Lock-free primitive stress (run under TSan in CI): the bounded MPMC ring
// in both its scheduler roles (MPSC event queue, MPMC runnable rotation),
// the tagged-index Treiber stack under pop/push churn designed to provoke
// ABA, the eventcount's no-lost-wakeup contract, and the pool free lists
// (exactly-once ownership, capacity cap, hit/miss counters).
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/lockfree.h"
#include "src/runtime/exec_context.h"
#include "tests/test_util.h"

using namespace pretzel;

namespace {

// Encode (producer, sequence) in one value so consumers can verify both
// exactly-once delivery and per-producer FIFO order.
constexpr uint64_t Encode(uint64_t producer, uint64_t seq) {
  return (producer << 32) | seq;
}

// MPSC role: N producers push through a deliberately tiny ring (heavy
// full/retry traffic); one consumer must see every element exactly once and
// each producer's elements in order.
void TestMpscRingExactlyOnceFifo() {
  constexpr size_t kProducers = 4;
  constexpr uint64_t kPerProducer = 20000;
  BoundedMpmcRing<uint64_t> ring(64);

  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        uint64_t value = Encode(p, i);
        while (!ring.TryPush(std::move(value))) {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<uint64_t> next_seq(kProducers, 0);
  size_t popped = 0;
  while (popped < kProducers * kPerProducer) {
    uint64_t value;
    if (!ring.TryPop(&value)) {
      std::this_thread::yield();
      continue;
    }
    const uint64_t producer = value >> 32;
    const uint64_t seq = value & 0xFFFFFFFFull;
    CHECK(producer < kProducers);
    CHECK_MSG(seq == next_seq[producer],
              "producer %llu: expected seq %llu, got %llu",
              (unsigned long long)producer,
              (unsigned long long)next_seq[producer], (unsigned long long)seq);
    ++next_seq[producer];
    ++popped;
  }
  for (auto& t : producers) {
    t.join();
  }
  uint64_t leftover;
  CHECK(!ring.TryPop(&leftover));  // Drained exactly.
}

// MPMC role: N producers, M consumers, every element delivered exactly once
// (per-element claim flags catch duplicates, the total catches losses).
void TestMpmcRingExactlyOnce() {
  constexpr size_t kProducers = 3;
  constexpr size_t kConsumers = 3;
  constexpr uint64_t kPerProducer = 20000;
  constexpr uint64_t kTotal = kProducers * kPerProducer;
  BoundedMpmcRing<uint64_t> ring(128);
  std::vector<std::atomic<uint8_t>> claimed(kTotal);
  for (auto& c : claimed) {
    c.store(0);
  }
  std::atomic<uint64_t> consumed{0};

  std::vector<std::thread> threads;
  for (size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&ring, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        uint64_t value = p * kPerProducer + i;
        while (!ring.TryPush(std::move(value))) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (size_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        uint64_t value;
        if (ring.TryPop(&value)) {
          CHECK(value < kTotal);
          CHECK_EQ(claimed[value].exchange(1), uint8_t{0});  // No duplicates.
          consumed.fetch_add(1);
        } else if (consumed.load() >= kTotal) {
          return;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  CHECK_EQ(consumed.load(), kTotal);
}

// Treiber stack churn: threads pop an index, "own" it briefly, push it
// back. Rapid recycle of the same indices is exactly the ABA pattern a
// tagless CAS stack corrupts (lost nodes / double-pops); the claim array
// proves single ownership throughout.
void TestIndexStackAbaChurn() {
  constexpr uint32_t kCapacity = 8;  // Tiny: maximum recycle pressure.
  constexpr int kThreads = 4;
  constexpr int kIterations = 50000;
  IndexStack stack(kCapacity);
  std::vector<std::atomic<uint8_t>> owned(kCapacity);
  for (auto& o : owned) {
    o.store(0);
  }
  for (uint32_t i = 0; i < kCapacity; ++i) {
    stack.Push(i);
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        uint32_t idx;
        if (!stack.TryPop(&idx)) {
          std::this_thread::yield();
          continue;
        }
        CHECK(idx < kCapacity);
        CHECK_EQ(owned[idx].exchange(1), uint8_t{0});  // Exactly-once pop.
        owned[idx].store(0);
        stack.Push(idx);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  // Conservation: every index is back in the stack, each exactly once.
  std::vector<uint8_t> seen(kCapacity, 0);
  uint32_t idx;
  uint32_t count = 0;
  while (stack.TryPop(&idx)) {
    CHECK(idx < kCapacity);
    CHECK_EQ(seen[idx], uint8_t{0});
    seen[idx] = 1;
    ++count;
  }
  CHECK_EQ(count, kCapacity);
}

// Intrusive MPSC chain (each plan's event queue): N producers push
// recycled nodes through the queue, one consumer pops. Exactly-once
// delivery, per-producer FIFO, and clean drain — under node-recycling
// pressure, since the allocator hands freed nodes back quickly. A transient
// nullptr from TryPop while producers are mid-push is part of the contract
// and must never lose a node.
void TestMpscIntrusiveQueueExactlyOnceFifo() {
  struct TestNode : MpscNode {
    uint64_t value = 0;
  };
  constexpr size_t kProducers = 4;
  constexpr uint64_t kPerProducer = 30000;
  constexpr size_t kNodesPerProducer = 8;  // Tiny pool: maximum recycling.
  MpscIntrusiveQueue queue;
  // Per-producer freelists: the consumer hands nodes back through a
  // dedicated return stack (an IndexStack would do, but a simple atomic
  // counter array keeps the test about the queue under test).
  std::vector<std::unique_ptr<TestNode>> nodes(kProducers * kNodesPerProducer);
  for (auto& n : nodes) {
    n = std::make_unique<TestNode>();
  }
  std::vector<std::atomic<uint64_t>> returned(kProducers * kNodesPerProducer);
  for (auto& r : returned) {
    r.store(1);  // 1 = available to its producer.
  }

  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      size_t next_node = 0;
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        // Claim this producer's next node once the consumer returned it.
        const size_t slot = p * kNodesPerProducer + next_node;
        next_node = (next_node + 1) % kNodesPerProducer;
        while (returned[slot].exchange(0) == 0) {
          std::this_thread::yield();
        }
        TestNode* node = nodes[slot].get();
        node->value = Encode(p, i) << 8 | slot;  // Seq + owning slot.
        queue.Push(node);
      }
    });
  }
  std::vector<uint64_t> next_seq(kProducers, 0);
  uint64_t popped = 0;
  while (popped < kProducers * kPerProducer) {
    MpscNode* node = queue.TryPop();
    if (node == nullptr) {
      std::this_thread::yield();
      continue;
    }
    const uint64_t value = static_cast<TestNode*>(node)->value;
    const size_t slot = value & 0xFF;
    const uint64_t producer = (value >> 8) >> 32;
    const uint64_t seq = (value >> 8) & 0xFFFFFFFFull;
    CHECK(producer < kProducers);
    CHECK_MSG(seq == next_seq[producer],
              "producer %llu: expected seq %llu, got %llu",
              (unsigned long long)producer,
              (unsigned long long)next_seq[producer], (unsigned long long)seq);
    ++next_seq[producer];
    ++popped;
    CHECK_EQ(returned[slot].exchange(1), uint64_t{0});  // Exactly-once pop.
  }
  for (auto& t : producers) {
    t.join();
  }
  CHECK(queue.TryPop() == nullptr);  // Drained exactly.
}

// EventCount: a notification between PrepareWait and Wait must not be lost
// (the waiter falls through), and one that precedes PrepareWait is caught
// by the re-check. Ping-pong hard enough that any check-then-sleep hole
// hangs the test.
void TestEventCountNoLostWakeups() {
  constexpr int kRounds = 20000;
  EventCount ec;
  std::atomic<int> value{0};

  std::thread consumer([&] {
    int expected = 1;
    while (expected <= kRounds) {
      for (;;) {
        if (value.load(std::memory_order_seq_cst) >= expected) {
          break;
        }
        const uint64_t ticket = ec.PrepareWait();
        if (value.load(std::memory_order_seq_cst) >= expected) {
          ec.CancelWait();
          break;
        }
        ec.Wait(ticket);
      }
      ++expected;
    }
  });
  for (int i = 1; i <= kRounds; ++i) {
    value.store(i, std::memory_order_seq_cst);
    ec.NotifyOne();
  }
  consumer.join();
  CHECK_EQ(value.load(), kRounds);

  // NotifyAll releases every parked waiter.
  std::atomic<bool> open{false};
  std::atomic<int> released{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 4; ++i) {
    waiters.emplace_back([&] {
      for (;;) {
        if (open.load(std::memory_order_seq_cst)) {
          break;
        }
        const uint64_t ticket = ec.PrepareWait();
        if (open.load(std::memory_order_seq_cst)) {
          ec.CancelWait();
          break;
        }
        ec.Wait(ticket);
      }
      released.fetch_add(1);
    });
  }
  open.store(true, std::memory_order_seq_cst);
  ec.NotifyAll();
  for (auto& t : waiters) {
    t.join();
  }
  CHECK_EQ(released.load(), 4);

  // WaitUntil times out (returns false) when nobody notifies.
  const uint64_t ticket = ec.PrepareWait();
  CHECK(!ec.WaitUntil(ticket, std::chrono::steady_clock::now() +
                                  std::chrono::milliseconds(5)));
}

// VectorPool: concurrent acquire/release round-trips with pooling on; every
// handed-out buffer is distinct, the capacity cap drops oversized buffers,
// and the counters reconcile.
void TestVectorPoolConcurrentAndCapped() {
  VectorPool::Options opts;
  opts.max_cached_floats = 1024;
  VectorPool pool(opts);

  constexpr int kThreads = 4;
  constexpr int kIterations = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < kIterations; ++i) {
        std::vector<float> v = pool.AcquireFloats(16 + (i & 7));
        v[0] = static_cast<float>(t);
        CHECK_EQ(v[0], static_cast<float>(t));  // Exclusive ownership.
        pool.ReleaseFloats(std::move(v));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  VectorPool::Stats stats = pool.GetStats();
  CHECK_EQ(stats.released, uint64_t{kThreads * kIterations});
  CHECK_EQ(stats.hits + stats.misses, uint64_t{kThreads * kIterations});
  CHECK(stats.hits > 0);   // The free list actually served acquires.
  CHECK(stats.misses > 0); // At least the cold-start allocations.
  CHECK_EQ(stats.dropped_oversized, uint64_t{0});

  // Oversized release is dropped, so the high-water mark doesn't stick: a
  // fresh acquire must not come back with the huge capacity.
  std::vector<float> big = pool.AcquireFloats(4096);
  CHECK(big.capacity() > opts.max_cached_floats ||
        big.capacity() >= 4096);  // (Implementation-defined growth.)
  pool.ReleaseFloats(std::move(big));
  stats = pool.GetStats();
  CHECK_EQ(stats.dropped_oversized, uint64_t{1});
  std::vector<float> after = pool.AcquireFloats(8);
  CHECK(after.capacity() < 4096);
  pool.ReleaseFloats(std::move(after));

  // The no-pooling ablation bypasses the free list entirely.
  VectorPool::Options off;
  off.pooling_enabled = false;
  VectorPool cold(off);
  std::vector<float> v = cold.AcquireFloats(8);
  cold.ReleaseFloats(std::move(v));
  const VectorPool::Stats cold_stats = cold.GetStats();
  CHECK_EQ(cold_stats.hits, uint64_t{0});
  CHECK_EQ(cold_stats.released, uint64_t{0});
}

// ExecContextPool: released contexts recirculate (hits) and each acquire
// holds a distinct context.
void TestExecContextPoolReuse() {
  VectorPool pool;
  ExecContextPool contexts(&pool, /*reuse_enabled=*/true);
  constexpr int kThreads = 4;
  constexpr int kIterations = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&contexts, t] {
      for (int i = 0; i < kIterations; ++i) {
        std::unique_ptr<ExecContext> ctx = contexts.Acquire();
        CHECK(ctx != nullptr);
        ctx->text = std::to_string(t);
        CHECK_EQ(ctx->text, std::to_string(t));  // Exclusive ownership.
        contexts.Release(std::move(ctx));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  CHECK(contexts.hits() > 0);
  CHECK_EQ(contexts.hits() + contexts.misses(),
           uint64_t{kThreads * kIterations});
}

}  // namespace

int main() {
  TestMpscRingExactlyOnceFifo();
  TestMpmcRingExactlyOnce();
  TestMpscIntrusiveQueueExactlyOnceFifo();
  TestIndexStackAbaChurn();
  TestEventCountNoLostWakeups();
  TestVectorPoolConcurrentAndCapped();
  TestExecContextPoolReuse();
  std::printf("lockfree_test: PASS\n");
  return 0;
}
