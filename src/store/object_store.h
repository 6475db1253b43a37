// ObjectStore: the shared-state layer. Operator parameters are interned by
// content checksum so every pipeline referencing the same dictionary/model
// shares one immutable copy. Reads vastly outnumber writes (writes happen
// only in the off-line deployment phase), so the store is a checksum-keyed
// map behind a shared_mutex; entries are immutable shared_ptrs, which keeps
// the hot path allocation-free and lock-free once a plan holds its params.
//
// Segments (the serving layer's sharded stack): a store constructed with an
// intern parent is a per-shard *segment* that delegates checksum-dedup to a
// router-global store — identical dictionaries deployed to different shards
// then share one resident copy — while still counting its own intern
// traffic. Without a parent (the default) each segment dedups privately, so
// shards share nothing and deployment never contends cross-shard.
//
// Reclamation (the versioned-lifecycle tier): every Intern takes a PIN on
// the canonical entry; Release(checksum) drops one, and Sweep() erases the
// entries whose pin count reached zero, returning their bytes to the
// allocator. Callers that never Release (the offline-deploy pattern) keep
// their entries pinned forever, so the store behaves exactly as the old
// append-only design for them. Release/Sweep delegate segment -> parent the
// same way Intern does, so a retired version's blobs leave the process no
// matter which segment deployed them. Plans still hold shared_ptrs to their
// params, so a sweep can never free memory under a live reader — it only
// unmaps the store's own reference; the blob's heap bytes leave TotalBytes
// accounting at sweep and the allocator when the last plan drops out.
#ifndef PRETZEL_STORE_OBJECT_STORE_H_
#define PRETZEL_STORE_OBJECT_STORE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/ops/params.h"

namespace pretzel {

class ObjectStore {
 public:
  struct Options {
    // When false, Intern never dedups: every call registers a private copy
    // (the paper's "PRETZEL without Object Store" configuration).
    bool dedup_enabled = true;
  };

  struct Stats {
    uint64_t interns = 0;   // Total Intern calls.
    uint64_t hits = 0;      // Calls resolved to an existing object.
    uint64_t releases = 0;  // Release calls that found their object.
    uint64_t swept = 0;     // Entries reclaimed by Sweep.
  };

  ObjectStore() : ObjectStore(Options{}) {}
  explicit ObjectStore(const Options& options) : options_(options) {}
  // Segment construction: interning delegates to `intern_parent` (which
  // applies its own dedup policy and holds the canonical objects); this
  // segment keeps only its local Stats. `intern_parent` must outlive the
  // segment. Null parent degrades to the plain constructor.
  ObjectStore(const Options& options, ObjectStore* intern_parent)
      : options_(options), parent_(intern_parent) {}

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  // Returns the canonical object for this content: the already-resident
  // object with the same checksum when dedup is on, else `params` itself
  // (which becomes resident). Delegates to the intern parent when this
  // store is a segment of one.
  std::shared_ptr<const OpParams> Intern(std::shared_ptr<const OpParams> params);

  // Checksum probe; null when absent or dedup is off.
  std::shared_ptr<const OpParams> Lookup(uint64_t checksum) const;

  // Drops one pin from the entry with this checksum (delegating to the
  // intern parent when this store is a segment, mirroring Intern). Returns
  // true when an entry was found. An entry whose pins reach zero stays
  // resident — and counted by TotalBytes/NumObjects — until Sweep runs, so
  // a canary that rolls back can re-pin it with a plain Intern hit instead
  // of re-uploading the blob. With dedup off there are no pins: the call
  // erases one matching private copy outright.
  bool Release(uint64_t checksum);

  // Erases every entry whose pin count is zero and returns the parameter
  // bytes those entries accounted for. Delegates to the intern parent.
  // Plans holding shared_ptrs to a swept entry's params keep them alive;
  // the store just stops counting (and re-interning against) them. Costs
  // O(entries released to zero pins since the last sweep), not O(resident
  // entries): pins reach zero only in Release, which records the
  // candidate; one re-pinned before the sweep is skipped.
  size_t Sweep();

  // Resident parameter bytes across all stored objects (each canonical
  // object counted once). A delegating segment holds nothing itself — its
  // objects live in (and are counted by) the parent.
  size_t TotalBytes() const;
  size_t NumObjects() const;
  Stats GetStats() const;
  const Options& options() const { return options_; }
  ObjectStore* intern_parent() const { return parent_; }

 private:
  // One canonical entry: the object plus the number of Intern calls that
  // have not yet been Released. pins == 0 marks the entry sweepable.
  struct Entry {
    std::shared_ptr<const OpParams> params;
    uint64_t pins = 0;
  };

  std::shared_ptr<const OpParams> InternLocal(
      std::shared_ptr<const OpParams> params, bool* hit) EXCLUDES(mu_);
  bool ReleaseLocal(uint64_t checksum) EXCLUDES(mu_);
  size_t SweepLocal() EXCLUDES(mu_);

  const Options options_;
  ObjectStore* const parent_ = nullptr;
  mutable SharedMutex mu_;
  std::unordered_map<uint64_t, Entry> by_checksum_ GUARDED_BY(mu_);
  // Checksums whose pins reached zero since the last sweep (an entry may
  // appear more than once, or have been re-pinned since).
  std::vector<uint64_t> unpinned_ GUARDED_BY(mu_);
  std::vector<std::shared_ptr<const OpParams>> undeduped_
      GUARDED_BY(mu_);  // dedup off.
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace pretzel

#endif  // PRETZEL_STORE_OBJECT_STORE_H_
