#include "src/oven/subplan_cache.h"

#include <algorithm>
#include <utility>

namespace pretzel {

bool SubPlanCache::Lookup(uint64_t key, std::vector<uint32_t>* out) {
  MutexLock lock(mu_);
  ++stats_.lookups;
  if (slots_.empty()) {
    return false;
  }
  Slot& slot = slots_[ProbeLocked(key)];
  if (slot.block == nullptr) {
    return false;
  }
  ++stats_.hits;
  slot.referenced = true;
  const uint32_t* ids = slot.block.get() + 1;
  out->assign(ids, ids + slot.block[0]);
  return true;
}

void SubPlanCache::Insert(uint64_t key, const std::vector<uint32_t>& ids) {
  const size_t bytes = EntryBytes(ids.size());
  if (bytes > byte_budget_) {
    return;  // Oversized entries would evict the whole cache for one input.
  }
  std::unique_ptr<uint32_t[]> block(new uint32_t[ids.size() + 1]);
  block[0] = static_cast<uint32_t>(ids.size());
  std::copy(ids.begin(), ids.end(), block.get() + 1);

  MutexLock lock(mu_);
  ++stats_.insertions;
  if ((ring_tail_ - ring_head_ + 1) * 2 > slots_.size()) {
    GrowLocked();
  }
  Slot& slot = slots_[ProbeLocked(key)];
  if (slot.block != nullptr) {
    size_bytes_ -= EntryBytes(slot.block[0]);
    slot.referenced = true;  // A replacement counts as a use.
  } else {
    slot.key = key;
    ring_[ring_tail_++ & (ring_.size() - 1)] = key;
  }
  slot.block = std::move(block);
  size_bytes_ += bytes;
  EvictToBudgetLocked();
}

size_t SubPlanCache::Home(uint64_t key) const {
  // Fibonacci hashing: the product's high half mixes every key bit.
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) &
         (slots_.size() - 1);
}

size_t SubPlanCache::ProbeLocked(uint64_t key) const {
  const size_t mask = slots_.size() - 1;
  size_t i = Home(key);
  while (slots_[i].block != nullptr && slots_[i].key != key) {
    i = (i + 1) & mask;  // Terminates: the table is at most half full.
  }
  return i;
}

void SubPlanCache::GrowLocked() {
  std::vector<Slot> old = std::exchange(
      slots_, std::vector<Slot>(std::max<size_t>(16, slots_.size() * 2)));
  const size_t mask = slots_.size() - 1;
  for (Slot& slot : old) {
    if (slot.block != nullptr) {
      size_t i = Home(slot.key);
      while (slots_[i].block != nullptr) {
        i = (i + 1) & mask;
      }
      slots_[i] = std::move(slot);
    }
  }
  std::vector<uint64_t> ring(slots_.size() / 2);
  size_t n = 0;
  for (size_t r = ring_head_; r != ring_tail_; ++r) {
    ring[n++] = ring_[r & (ring_.size() - 1)];
  }
  ring_ = std::move(ring);
  ring_head_ = 0;
  ring_tail_ = n;
}

void SubPlanCache::EraseLocked(size_t hole) {
  // Backward shift: walk the cluster after the hole and pull back each slot
  // whose home does not lie cyclically in (hole, i], so every remaining key
  // stays reachable from its home without tombstones.
  const size_t mask = slots_.size() - 1;
  for (size_t i = (hole + 1) & mask; slots_[i].block != nullptr;
       i = (i + 1) & mask) {
    if (((i - Home(slots_[i].key)) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = std::move(slots_[i]);
      hole = i;
    }
  }
  slots_[hole] = Slot{};
}

void SubPlanCache::EvictToBudgetLocked() {
  const size_t ring_mask = ring_.size() - 1;
  while (size_bytes_ > byte_budget_ && ring_head_ != ring_tail_) {
    const uint64_t key = ring_[ring_head_++ & ring_mask];
    const size_t i = ProbeLocked(key);
    Slot& slot = slots_[i];
    if (slot.referenced) {
      slot.referenced = false;  // Second chance: back of the queue.
      ring_[ring_tail_++ & ring_mask] = key;
      continue;
    }
    size_bytes_ -= EntryBytes(slot.block[0]);
    EraseLocked(i);
    ++stats_.evictions;
  }
}

size_t SubPlanCache::NumEntries() const {
  MutexLock lock(mu_);
  return ring_tail_ - ring_head_;
}

size_t SubPlanCache::SizeBytes() const {
  MutexLock lock(mu_);
  return size_bytes_;
}

SubPlanCache::Stats SubPlanCache::GetStats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace pretzel
