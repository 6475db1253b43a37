// ObjectStore interning + model image round-trips: dedup on/off, checksum
// stability across serialize/deserialize, cross-pipeline sharing, and the
// pin lifecycle (Release/Sweep reclaim exactly the released entries).
#include "src/store/object_store.h"

#include "src/store/model_loader.h"
#include "src/workload/sa_workload.h"
#include "tests/test_util.h"

using namespace pretzel;

SaWorkload SmallSa(size_t pipelines) {
  SaWorkloadOptions opts;
  opts.num_pipelines = pipelines;
  opts.char_dict_entries = 500;
  opts.word_dict_entries = 150;
  opts.vocabulary_size = 300;
  return SaWorkload::Generate(opts);
}

void TestInterning() {
  auto sa = SmallSa(8);
  ObjectStore store;
  // Pipelines 0 and 7 share the char dict (7 versions, i % 7).
  auto a = store.Intern(sa.pipelines()[0].nodes[1].params);
  const size_t bytes_after_one = store.TotalBytes();
  auto b = store.Intern(sa.pipelines()[7].nodes[1].params);
  CHECK(a.get() == b.get());
  CHECK_EQ(store.TotalBytes(), bytes_after_one);  // No double count.
  CHECK_EQ(store.GetStats().hits, uint64_t{1});

  // Linear weights are unique per pipeline: both stay resident.
  store.Intern(sa.pipelines()[0].nodes[4].params);
  const size_t with_one_linear = store.TotalBytes();
  store.Intern(sa.pipelines()[1].nodes[4].params);
  CHECK(store.TotalBytes() > with_one_linear);

  // Dedup off: same content, two residents.
  ObjectStore::Options no_dedup;
  no_dedup.dedup_enabled = false;
  ObjectStore private_store(no_dedup);
  auto p1 = private_store.Intern(sa.pipelines()[0].nodes[1].params);
  auto p2 = private_store.Intern(sa.pipelines()[7].nodes[1].params);
  CHECK_EQ(private_store.NumObjects(), size_t{2});
  CHECK(private_store.Lookup(p1->ContentChecksum()) == nullptr);
  (void)p2;
}

void TestImageRoundTrip() {
  auto sa = SmallSa(2);
  const PipelineSpec& spec = sa.pipelines()[0];
  const std::string image = SaveModelImage(spec);

  // Black-box path: full deserialization, checksums preserved.
  auto loaded = LoadModelImage(image);
  CHECK(loaded.ok());
  CHECK(loaded->name == spec.name);
  CHECK_EQ(loaded->nodes.size(), spec.nodes.size());
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    CHECK_EQ(loaded->nodes[i].params->ContentChecksum(),
             spec.nodes[i].params->ContentChecksum());
    CHECK(loaded->nodes[i].params.get() != spec.nodes[i].params.get());
  }

  // Corrupt magic rejected.
  std::string bad = image;
  bad[0] = 'X';
  CHECK(!LoadModelImage(bad).ok());
}

void TestStoreSharing() {
  // Enough pipelines that dictionary versions (7 char / 6 word) are heavily
  // reused; sharing is invisible when pipelines ~ versions.
  auto sa = SmallSa(40);
  ObjectStore store;
  // Loading pipelines 0 and 7 (same char dict version) through the store
  // must share the dictionary object.
  auto s0 = LoadModelImageWithStore(SaveModelImage(sa.pipelines()[0]), &store);
  const size_t bytes_one = store.TotalBytes();
  auto s7 = LoadModelImageWithStore(SaveModelImage(sa.pipelines()[7]), &store);
  CHECK(s0.ok() && s7.ok());
  CHECK(s0->nodes[1].params.get() == s7->nodes[1].params.get());
  // Only pipeline 7's unique pieces grew the store: its linear weights and
  // its word dict version (7 % 6 = 1, different from pipeline 0's), but NOT
  // the shared char dict.
  const size_t linear_bytes = sa.pipelines()[7].nodes[4].params->HeapBytes();
  const size_t word_bytes = sa.pipelines()[7].nodes[2].params->HeapBytes();
  CHECK(store.TotalBytes() <= bytes_one + linear_bytes + word_bytes + 64);

  // Suite-wide: resident bytes far below the sum of private copies.
  size_t private_sum = 0;
  for (const auto& spec : sa.pipelines()) {
    private_sum += spec.ParameterBytes();
    (void)LoadModelImageWithStore(SaveModelImage(spec), &store);
  }
  CHECK_MSG(store.TotalBytes() * 2 < private_sum,
            "store %zu vs private %zu", store.TotalBytes(), private_sum);
}

void TestReleaseAndSweep() {
  auto sa = SmallSa(8);
  ObjectStore store;
  // Two interns of the same content = one resident object with two pins:
  // the first Release must NOT make it sweepable.
  auto shared = sa.pipelines()[0].nodes[1].params;  // == pipeline 7's dict.
  store.Intern(shared);
  store.Intern(sa.pipelines()[7].nodes[1].params);
  const uint64_t ck = shared->ContentChecksum();
  const size_t bytes = store.TotalBytes();
  CHECK(store.Release(ck));
  CHECK_EQ(store.Sweep(), size_t{0});  // One pin left: nothing reclaimed.
  CHECK_EQ(store.TotalBytes(), bytes);
  // Zero pins: entry stays resident until Sweep (a rolled-back canary can
  // re-pin with a plain Intern hit), then its bytes leave the accounting.
  CHECK(store.Release(ck));
  CHECK_EQ(store.TotalBytes(), bytes);
  CHECK(store.Lookup(ck) != nullptr);
  // Re-pin before the sweep: the blob never left, Intern is a hit.
  const uint64_t hits_before = store.GetStats().hits;
  store.Intern(shared);
  CHECK_EQ(store.GetStats().hits, hits_before + 1);
  CHECK(store.Release(ck));
  const size_t reclaimed = store.Sweep();
  CHECK_EQ(reclaimed, shared->HeapBytes());
  CHECK_EQ(store.TotalBytes(), size_t{0});
  CHECK_EQ(store.NumObjects(), size_t{0});
  CHECK(store.Lookup(ck) == nullptr);
  CHECK(!store.Release(ck));  // Swept: nothing to release.
  CHECK_EQ(store.GetStats().swept, uint64_t{1});

  // Dedup off: no pins — each Release erases one private copy outright.
  ObjectStore::Options no_dedup;
  no_dedup.dedup_enabled = false;
  ObjectStore private_store(no_dedup);
  private_store.Intern(shared);
  private_store.Intern(sa.pipelines()[7].nodes[1].params);
  CHECK_EQ(private_store.NumObjects(), size_t{2});
  CHECK(private_store.Release(ck));
  CHECK_EQ(private_store.NumObjects(), size_t{1});
  CHECK_EQ(private_store.Sweep(), size_t{0});  // Pinless copies never sweep.
  CHECK(private_store.Release(ck));
  CHECK(!private_store.Release(ck));
  CHECK_EQ(private_store.NumObjects(), size_t{0});
}

void TestSegmentReleaseDelegation() {
  // Segment-with-parent accounting across the full pin lifecycle: the pin
  // lives where the canonical object lives (the parent); the segment books
  // its local traffic. Mirrors the router's global intern scope, where a
  // version deployed through shard A's segment must leave the process even
  // when swept through shard B's.
  auto sa = SmallSa(8);
  ObjectStore parent;
  ObjectStore seg_a(ObjectStore::Options{}, &parent);
  ObjectStore seg_b(ObjectStore::Options{}, &parent);
  auto dict = sa.pipelines()[0].nodes[1].params;
  const uint64_t ck = dict->ContentChecksum();
  auto a = seg_a.Intern(dict);
  auto b = seg_b.Intern(sa.pipelines()[7].nodes[1].params);
  CHECK(a.get() == b.get());  // One canonical copy, parent-resident.
  // Delegating segments hold nothing; the parent counts one object.
  CHECK_EQ(seg_a.NumObjects(), size_t{0});
  CHECK_EQ(seg_a.TotalBytes(), size_t{0});
  CHECK_EQ(parent.NumObjects(), size_t{1});
  CHECK_EQ(parent.TotalBytes(), dict->HeapBytes());
  // Release through EITHER segment drops a parent pin; local stats book
  // where the release came from.
  CHECK(seg_b.Release(ck));
  CHECK_EQ(seg_b.GetStats().releases, uint64_t{1});
  CHECK_EQ(seg_a.GetStats().releases, uint64_t{0});
  CHECK_EQ(seg_a.Sweep(), size_t{0});  // seg_a's pin still held.
  CHECK_EQ(parent.NumObjects(), size_t{1});
  CHECK(seg_a.Release(ck));
  // Sweep through a segment delegates to the parent and reclaims there.
  CHECK_EQ(seg_b.Sweep(), dict->HeapBytes());
  CHECK_EQ(parent.NumObjects(), size_t{0});
  CHECK_EQ(parent.TotalBytes(), size_t{0});
  CHECK_EQ(parent.GetStats().swept, uint64_t{1});
}

void TestSweepVisitsOnlyReleased() {
  // Sweep reclaims exactly what was released to zero pins and nothing
  // else: the released entry's bytes leave, the N-1 pinned entries stay.
  auto sa = SmallSa(6);
  ObjectStore store;
  std::vector<std::shared_ptr<const OpParams>> linears;
  for (const auto& spec : sa.pipelines()) {
    linears.push_back(spec.nodes[4].params);  // Unique per pipeline.
    store.Intern(linears.back());
  }
  const size_t n = linears.size();
  CHECK_EQ(store.NumObjects(), n);
  const size_t bytes = store.TotalBytes();
  const auto& victim = linears[2];
  CHECK(store.Release(victim->ContentChecksum()));
  CHECK_EQ(store.Sweep(), victim->HeapBytes());
  CHECK_EQ(store.NumObjects(), n - 1);
  CHECK_EQ(store.TotalBytes(), bytes - victim->HeapBytes());
  CHECK_EQ(store.GetStats().swept, uint64_t{1});
  CHECK_EQ(store.Sweep(), size_t{0});  // Nothing released since.

  // Released, then re-interned before the sweep: the candidate survives
  // (and a later release still reclaims it).
  const auto& revived = linears[3];
  const uint64_t ck = revived->ContentChecksum();
  CHECK(store.Release(ck));
  store.Intern(revived);
  CHECK_EQ(store.Sweep(), size_t{0});
  CHECK(store.Lookup(ck) != nullptr);
  // Released to zero twice with a re-pin between: listed twice, swept once.
  CHECK(store.Release(ck));
  store.Intern(revived);
  CHECK(store.Release(ck));
  CHECK_EQ(store.Sweep(), revived->HeapBytes());
  CHECK(store.Lookup(ck) == nullptr);
  CHECK_EQ(store.GetStats().swept, uint64_t{2});

  // A double Release: the second finds the zero-pin entry (still resident
  // until the sweep) and must not list it as a second reclaim.
  const auto& twice = linears[4];
  CHECK(store.Release(twice->ContentChecksum()));
  CHECK(store.Release(twice->ContentChecksum()));
  CHECK_EQ(store.Sweep(), twice->HeapBytes());
  CHECK_EQ(store.GetStats().swept, uint64_t{3});
  CHECK_EQ(store.NumObjects(), n - 3);

  // Segment -> parent: the candidate is recorded where the pin lives, so a
  // release through one segment is swept through another.
  ObjectStore parent;
  ObjectStore seg_a(ObjectStore::Options{}, &parent);
  ObjectStore seg_b(ObjectStore::Options{}, &parent);
  for (const auto& p : linears) {
    seg_a.Intern(p);
  }
  CHECK(seg_a.Release(linears[0]->ContentChecksum()));
  CHECK_EQ(seg_b.Sweep(), linears[0]->HeapBytes());
  CHECK_EQ(parent.NumObjects(), n - 1);
  CHECK_EQ(parent.GetStats().swept, uint64_t{1});
  CHECK_EQ(seg_a.Sweep(), size_t{0});
}

int main() {
  TestInterning();
  TestImageRoundTrip();
  TestStoreSharing();
  TestReleaseAndSweep();
  TestSegmentReleaseDelegation();
  TestSweepVisitsOnlyReleased();
  std::printf("object_store_test: PASS\n");
  return 0;
}
