#include "src/store/object_store.h"

#include <algorithm>

namespace pretzel {

std::shared_ptr<const OpParams> ObjectStore::Intern(
    std::shared_ptr<const OpParams> params) {
  if (parent_ != nullptr) {
    // Segment: the parent dedups (under its own policy) and owns the
    // canonical object; this segment records only its local traffic so the
    // per-shard intern mix stays observable.
    bool hit = false;
    auto canonical = parent_->InternLocal(std::move(params), &hit);
    WriterMutexLock lock(mu_);
    ++stats_.interns;
    if (hit) {
      ++stats_.hits;
    }
    return canonical;
  }
  bool hit = false;
  return InternLocal(std::move(params), &hit);
}

std::shared_ptr<const OpParams> ObjectStore::InternLocal(
    std::shared_ptr<const OpParams> params, bool* hit) {
  WriterMutexLock lock(mu_);
  ++stats_.interns;
  if (!options_.dedup_enabled) {
    undeduped_.push_back(params);
    return params;
  }
  auto [it, inserted] =
      by_checksum_.try_emplace(params->ContentChecksum(), Entry{params, 0});
  ++it->second.pins;
  if (!inserted) {
    ++stats_.hits;
    *hit = true;
  }
  return it->second.params;
}

bool ObjectStore::Release(uint64_t checksum) {
  if (parent_ != nullptr) {
    // Segment: the pin lives where the canonical object lives. Book the
    // release locally so per-shard retire traffic stays observable, exactly
    // as Intern books per-shard intern traffic.
    const bool found = parent_->ReleaseLocal(checksum);
    WriterMutexLock lock(mu_);
    if (found) {
      ++stats_.releases;
    }
    return found;
  }
  return ReleaseLocal(checksum);
}

bool ObjectStore::ReleaseLocal(uint64_t checksum) {
  WriterMutexLock lock(mu_);
  if (!options_.dedup_enabled) {
    // No pins without dedup: each Intern registered a private copy, so a
    // release erases one matching copy outright.
    auto it = std::find_if(undeduped_.begin(), undeduped_.end(),
                           [checksum](const auto& p) {
                             return p->ContentChecksum() == checksum;
                           });
    if (it == undeduped_.end()) {
      return false;
    }
    undeduped_.erase(it);
    ++stats_.releases;
    return true;
  }
  auto it = by_checksum_.find(checksum);
  if (it == by_checksum_.end()) {
    return false;
  }
  if (it->second.pins > 0 && --it->second.pins == 0) {
    unpinned_.push_back(checksum);
  }
  ++stats_.releases;
  return true;
}

size_t ObjectStore::Sweep() {
  if (parent_ != nullptr) {
    return parent_->SweepLocal();
  }
  return SweepLocal();
}

size_t ObjectStore::SweepLocal() {
  WriterMutexLock lock(mu_);
  size_t reclaimed = 0;
  for (const uint64_t checksum : unpinned_) {
    // Gone already (a duplicate candidate) or re-pinned since: skip.
    auto it = by_checksum_.find(checksum);
    if (it != by_checksum_.end() && it->second.pins == 0) {
      reclaimed += it->second.params->HeapBytes();
      ++stats_.swept;
      by_checksum_.erase(it);
    }
  }
  unpinned_.clear();
  return reclaimed;
}

std::shared_ptr<const OpParams> ObjectStore::Lookup(uint64_t checksum) const {
  if (parent_ != nullptr) {
    return parent_->Lookup(checksum);
  }
  ReaderMutexLock lock(mu_);
  if (!options_.dedup_enabled) {
    return nullptr;
  }
  auto it = by_checksum_.find(checksum);
  return it == by_checksum_.end() ? nullptr : it->second.params;
}

size_t ObjectStore::TotalBytes() const {
  ReaderMutexLock lock(mu_);
  size_t total = 0;
  for (const auto& [ck, entry] : by_checksum_) {
    total += entry.params->HeapBytes();
  }
  for (const auto& params : undeduped_) {
    total += params->HeapBytes();
  }
  return total;
}

size_t ObjectStore::NumObjects() const {
  ReaderMutexLock lock(mu_);
  return by_checksum_.size() + undeduped_.size();
}

ObjectStore::Stats ObjectStore::GetStats() const {
  ReaderMutexLock lock(mu_);
  return stats_;
}

}  // namespace pretzel
