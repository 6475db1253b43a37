// SubPlanCache: materialization cache for sub-plan results (Section 4.2 of
// the paper). Popular inputs repeat across the many similar pipelines of one
// service; featurization output depends only on (input, dictionary version),
// so pipelines sharing a dictionary replay each other's scans. Entries are
// dictionary-hit id lists keyed by a 64-bit (input, params-checksum) hash,
// bounded by a byte budget with CLOCK (second-chance) eviction.
//
// Layout: one open-addressing slot array (linear probing, backward-shift
// deletion, at most half full, grown on demand) whose slots hold the key, a
// pointer to the entry's block and a reference bit; each block is a single
// allocation holding its id count followed by its ids. A hit reads one slot
// and one contiguous block, sets the bit and copies the ids out under the
// mutex. A ring of keys in insertion order is the clock: eviction takes the
// oldest key, re-queues it once if a hit set its bit since it was last
// passed, and otherwise frees it.
#ifndef PRETZEL_OVEN_SUBPLAN_CACHE_H_
#define PRETZEL_OVEN_SUBPLAN_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace pretzel {

class SubPlanCache {
 public:
  struct Stats {
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
  };

  // Allocates nothing: the table grows with its entries, not its budget.
  explicit SubPlanCache(size_t byte_budget) : byte_budget_(byte_budget) {}

  SubPlanCache(const SubPlanCache&) = delete;
  SubPlanCache& operator=(const SubPlanCache&) = delete;

  // On a hit, replaces *out with the materialized ids, marks the entry
  // referenced and returns true; on a miss leaves *out alone and returns
  // false. A hit into a buffer with enough capacity allocates nothing.
  bool Lookup(uint64_t key, std::vector<uint32_t>* out);

  // Inserts (or replaces) an entry, then evicts until the budget holds.
  // Entries larger than the whole budget are not admitted.
  void Insert(uint64_t key, const std::vector<uint32_t>& ids);

  // What one entry of `num_ids` ids counts against the budget: its payload
  // plus a flat charge for bookkeeping.
  static size_t EntryBytes(size_t num_ids) {
    return num_ids * sizeof(uint32_t) + 64;
  }

  size_t NumEntries() const;
  size_t SizeBytes() const;
  size_t byte_budget() const { return byte_budget_; }
  Stats GetStats() const;

 private:
  struct Slot {
    uint64_t key = 0;
    std::unique_ptr<uint32_t[]> block;  // [count, ids...]; null = empty.
    bool referenced = false;  // Set by a hit, cleared when eviction passes.
  };

  size_t Home(uint64_t key) const REQUIRES(mu_);
  // Index of the slot holding `key`, or of the empty slot that ends its
  // probe sequence. The table must not be empty.
  size_t ProbeLocked(uint64_t key) const REQUIRES(mu_);
  void GrowLocked() REQUIRES(mu_);
  void EraseLocked(size_t index) REQUIRES(mu_);
  void EvictToBudgetLocked() REQUIRES(mu_);

  const size_t byte_budget_;
  mutable Mutex mu_;
  std::vector<Slot> slots_ GUARDED_BY(mu_);  // Power-of-two size, or empty.
  // The resident keys in insertion order, head first: a power-of-two ring
  // of half the table's size, indexed by free-running counters, so the
  // entry count is ring_tail_ - ring_head_.
  std::vector<uint64_t> ring_ GUARDED_BY(mu_);
  size_t ring_head_ GUARDED_BY(mu_) = 0;
  size_t ring_tail_ GUARDED_BY(mu_) = 0;
  size_t size_bytes_ GUARDED_BY(mu_) = 0;
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace pretzel

#endif  // PRETZEL_OVEN_SUBPLAN_CACHE_H_
