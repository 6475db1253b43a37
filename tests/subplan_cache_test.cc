// SubPlanCache: hit/miss accounting, byte-budget CLOCK eviction, table
// integrity under deletion churn, concurrent lookups and inserts, what the
// cache allocates, and the disabled (null-cache) execution path.
#include "src/oven/subplan_cache.h"

#include <map>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/flour/flour.h"
#include "src/oven/model_plan.h"
#include "src/runtime/exec_context.h"
#include "src/workload/sa_workload.h"
#include "tests/counting_alloc.h"
#include "tests/test_util.h"

using namespace pretzel;

// A key's ids: 1 to 16 of them, all derived from the key (and a version,
// for replacements), so any reader can tell its own ids from another's.
std::vector<uint32_t> IdsFor(uint64_t key, uint64_t version = 0) {
  std::vector<uint32_t> ids(1 + SplitMix64(key ^ (version << 32)) % 16);
  for (size_t j = 0; j < ids.size(); ++j) {
    ids[j] = static_cast<uint32_t>(SplitMix64(key * 31 + version + j));
  }
  return ids;
}

void TestAccounting() {
  SubPlanCache cache(1ull << 20);
  std::vector<uint32_t> ids = {1, 2, 3, 4};
  std::vector<uint32_t> out = {7};

  CHECK(!cache.Lookup(42, &out));
  CHECK(out == std::vector<uint32_t>{7});  // A miss leaves the buffer alone.
  cache.Insert(42, ids);
  CHECK(cache.Lookup(42, &out));
  CHECK(out == ids);
  CHECK(!cache.Lookup(43, &out));

  const auto stats = cache.GetStats();
  CHECK_EQ(stats.lookups, uint64_t{3});
  CHECK_EQ(stats.hits, uint64_t{1});
  CHECK_EQ(stats.insertions, uint64_t{1});
  CHECK_EQ(cache.NumEntries(), size_t{1});
  CHECK_EQ(cache.SizeBytes(), SubPlanCache::EntryBytes(ids.size()));

  // Re-inserting the same key replaces, not duplicates — and the replace
  // path counts as an insertion too.
  cache.Insert(42, std::vector<uint32_t>{9, 9});
  CHECK_EQ(cache.NumEntries(), size_t{1});
  CHECK_EQ(cache.GetStats().insertions, uint64_t{2});
  CHECK_EQ(cache.SizeBytes(), SubPlanCache::EntryBytes(2));
  CHECK(cache.Lookup(42, &out));
  CHECK(out == (std::vector<uint32_t>{9, 9}));
}

void TestEviction() {
  // Each entry: 100 ids * 4B + 64B bookkeeping = 464B. Budget fits ~4.
  SubPlanCache cache(2000);
  std::vector<uint32_t> ids(100, 7);
  std::vector<uint32_t> out;
  for (uint64_t k = 1; k <= 10; ++k) {
    cache.Insert(k, ids);
    CHECK(cache.SizeBytes() <= cache.byte_budget());
  }
  CHECK_EQ(cache.NumEntries(), size_t{4});
  CHECK(cache.GetStats().evictions == 6);
  // Oldest keys evicted, newest resident.
  CHECK(!cache.Lookup(1, &out));
  CHECK(cache.Lookup(10, &out));

  // Second chance: a looked-up entry survives the next eviction.
  CHECK(cache.Lookup(7, &out));
  cache.Insert(11, ids);
  CHECK(cache.Lookup(7, &out));
  CHECK(!cache.Lookup(8, &out));

  // Oversized entries are rejected outright.
  SubPlanCache tiny(100);
  tiny.Insert(1, ids);
  CHECK_EQ(tiny.NumEntries(), size_t{0});
}

// Inserts, replacements and refused oversize entries from a fixed seed,
// with evictions throughout. After every operation every resident key is
// reachable with its own latest ids, and the entry count and byte total
// match what is reachable: a backward-shift deletion that strands a key
// behind an empty slot breaks the count.
void TestDeletionChurn() {
  constexpr size_t kBudget = 2400;
  constexpr uint64_t kKeys = 96;
  SubPlanCache cache(kBudget);
  std::map<uint64_t, std::vector<uint32_t>> latest;  // Last admitted ids.
  Rng rng(2024);
  std::vector<uint32_t> out;
  size_t replacements = 0;
  for (uint64_t op = 0; op < 3000; ++op) {
    const uint64_t key = rng.UniformInt(kKeys);
    if (rng.UniformInt(10) == 0) {
      cache.Insert(key, std::vector<uint32_t>(kBudget / 4, 1));  // Refused.
    } else {
      std::vector<uint32_t> ids = IdsFor(key, op);
      replacements += cache.Lookup(key, &out) ? 1 : 0;
      cache.Insert(key, ids);
      latest[key] = std::move(ids);
    }
    size_t found = 0;
    size_t bytes = 0;
    for (uint64_t k = 0; k < kKeys; ++k) {
      if (cache.Lookup(k, &out)) {
        CHECK_MSG(out == latest[k], "key %llu after op %llu",
                  static_cast<unsigned long long>(k),
                  static_cast<unsigned long long>(op));
        ++found;
        bytes += SubPlanCache::EntryBytes(out.size());
      }
    }
    CHECK_EQ(found, cache.NumEntries());
    CHECK_EQ(bytes, cache.SizeBytes());
    CHECK(bytes <= kBudget);
  }
  const auto stats = cache.GetStats();
  std::printf("  deletion churn: %zu replacements, %llu evictions, %zu "
              "resident\n",
              replacements, static_cast<unsigned long long>(stats.evictions),
              cache.NumEntries());
  CHECK(replacements > 0);
  CHECK(stats.evictions > 1000);
}

// Four threads look up and insert over a key space about 4x what the
// budget holds, so eviction runs throughout: every hit returns the key's
// own ids and every call is counted.
void TestConcurrentLookupInsert() {
  constexpr int kThreads = 4;
  constexpr uint64_t kOpsPerThread = 20000;
  constexpr uint64_t kKeys = 256;
  // ~98 bytes per entry on average, so ~64 entries fit.
  SubPlanCache cache(64 * 98);
  std::vector<uint64_t> hits(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &hits, t] {
      Rng rng(100 + t);
      std::vector<uint32_t> out;
      for (uint64_t i = 0; i < kOpsPerThread; ++i) {
        const uint64_t key = rng.UniformInt(kKeys);
        if (cache.Lookup(key, &out)) {
          CHECK(out == IdsFor(key));
          ++hits[t];
        } else {
          cache.Insert(key, IdsFor(key));
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  uint64_t total_hits = 0;
  for (const uint64_t h : hits) {
    total_hits += h;
  }
  const auto stats = cache.GetStats();
  CHECK_EQ(stats.lookups, kThreads * kOpsPerThread);
  CHECK_EQ(stats.hits, total_hits);
  CHECK_EQ(stats.insertions, stats.lookups - stats.hits);
  CHECK(stats.evictions > 0);
  CHECK(cache.SizeBytes() <= cache.byte_budget());
  std::printf("  concurrent: %llu lookups, %llu hits, %llu evictions\n",
              static_cast<unsigned long long>(stats.lookups),
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.evictions));
}

// What the cache allocates: nothing to construct (whatever the budget),
// one block per insert plus amortized table growth, and nothing for a hit
// into a buffer that already has room.
void TestAllocations() {
  const auto count = [](auto&& fn) {
    t_alloc_bytes = 0;
    t_alloc_calls = 0;
    t_count_allocs = true;
    fn();
    t_count_allocs = false;
  };

  count([] { SubPlanCache big(512ull << 20); });
  std::printf("  construct 512 MB-budget cache: %zu allocations, %zu bytes\n",
              t_alloc_calls, t_alloc_bytes);
  CHECK_EQ(t_alloc_calls, size_t{0});

  constexpr size_t kEntries = 1000;
  std::vector<std::vector<uint32_t>> ids;
  size_t block_bytes = 0;
  for (uint64_t k = 0; k < kEntries; ++k) {
    ids.push_back(IdsFor(k));
    block_bytes += (ids.back().size() + 1) * sizeof(uint32_t);
  }
  SubPlanCache cache(1ull << 20);
  count([&] {
    for (uint64_t k = 0; k < kEntries; ++k) {
      cache.Insert(k, ids[k]);
    }
  });
  std::printf("  %zu inserts: %zu allocations, %zu bytes (%zu in blocks)\n",
              kEntries, t_alloc_calls, t_alloc_bytes, block_bytes);
  // 16 -> 2048 slots is 8 growths, each a slot array and a key ring.
  CHECK_EQ(t_alloc_calls, kEntries + 2 * 8);

  // Past growth, an insert (new key or replacement) is one block.
  const std::vector<uint32_t> more = IdsFor(kEntries);
  for (const uint64_t key : {uint64_t{kEntries}, uint64_t{0}}) {
    count([&] { cache.Insert(key, more); });
    CHECK_EQ(t_alloc_calls, size_t{1});
    CHECK_EQ(t_alloc_bytes, (more.size() + 1) * sizeof(uint32_t));
  }

  std::vector<uint32_t> out;
  out.reserve(16);
  count([&] { CHECK(cache.Lookup(7, &out)); });
  std::printf("  hit into a reserved buffer: %zu bytes\n", t_alloc_bytes);
  CHECK_EQ(t_alloc_bytes, size_t{0});
  CHECK(out == ids[7]);
}

// Executing plans with and without a cache attached must agree; a cache at
// budget 0 (always evicting) must not change results either.
void TestExecutionPaths() {
  SaWorkloadOptions opts;
  opts.num_pipelines = 6;
  opts.char_dict_entries = 600;
  opts.word_dict_entries = 200;
  opts.vocabulary_size = 400;
  auto sa = SaWorkload::Generate(opts);

  ObjectStore store;
  FlourContext ctx(&store);
  VectorPool pool;
  ExecContext no_cache_ctx(&pool);
  ExecContext cache_ctx(&pool);
  SubPlanCache cache(1ull << 20);
  cache_ctx.subplan_cache = &cache;
  ExecContext zero_ctx(&pool);
  SubPlanCache zero_cache(0);
  zero_ctx.subplan_cache = &zero_cache;

  Rng rng(99);
  for (const auto& spec : sa.pipelines()) {
    auto program = ctx.FromPipeline(spec);
    auto plan = Plan(*program, spec.name);
    CHECK(plan.ok());
    for (int i = 0; i < 5; ++i) {
      const std::string input = sa.SampleInput(rng);
      auto a = ExecutePlan(**plan, input, no_cache_ctx);
      auto b = ExecutePlan(**plan, input, cache_ctx);   // Cold then warm.
      auto b2 = ExecutePlan(**plan, input, cache_ctx);  // Cached replay.
      auto c = ExecutePlan(**plan, input, zero_ctx);
      CHECK(a.ok() && b.ok() && b2.ok() && c.ok());
      CHECK_NEAR(*a, *b, 1e-5);
      CHECK_NEAR(*a, *b2, 1e-5);
      CHECK_NEAR(*a, *c, 1e-5);
    }
  }
  CHECK(cache.GetStats().hits > 0);
  CHECK_EQ(zero_cache.NumEntries(), size_t{0});
}

int main() {
  TestAccounting();
  TestEviction();
  TestDeletionChurn();
  TestConcurrentLookupInsert();
  TestAllocations();
  TestExecutionPaths();
  std::printf("subplan_cache_test: PASS\n");
  return 0;
}
