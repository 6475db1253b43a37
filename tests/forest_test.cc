// Decision-forest golden test. The reference is a test-local recursive
// evaluator over a plain tree description, independent of the library's
// node layout and walk: every walk entry point (EvalTree, EvalTrees, Eval)
// must match it bit for bit on generated forests, hand-built unbalanced
// trees, group-boundary tree counts, and inputs exactly at a threshold
// (left), NaN (right) and +-inf. Then identical forests must checksum and
// serialize identically, a few AC (pipeline, record) scores are pinned as
// hex-float constants through ExecutePlan and ExecutePlanBatch, and every AC
// pipeline scores every record of a pool bit-identically through both.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/serialize.h"
#include "src/flour/flour.h"
#include "src/ops/kernels.h"
#include "src/ops/params.h"
#include "src/oven/model_plan.h"
#include "src/runtime/exec_context.h"
#include "src/store/object_store.h"
#include "src/workload/ac_workload.h"
#include "tests/test_util.h"

using namespace pretzel;

namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// A plain binary tree: node 0 is the root; feature < 0 marks a leaf.
struct RefNode {
  int feature = -1;
  float threshold = 0.0f;
  float value = 0.0f;
  int left = -1;
  int right = -1;
};
using RefTree = std::vector<RefNode>;

float RefEval(const RefTree& tree, int n, const float* x) {
  const RefNode& node = tree[n];
  if (node.feature < 0) {
    return node.value;
  }
  return x[node.feature] <= node.threshold ? RefEval(tree, node.left, x)
                                           : RefEval(tree, node.right, x);
}

float RefSum(const std::vector<RefTree>& trees, const float* x) {
  float sum = 0.0f;
  for (const RefTree& tree : trees) {
    sum += RefEval(tree, 0, x);
  }
  return sum;
}

size_t RefDepth(const RefTree& tree, int n = 0) {
  const RefNode& node = tree[n];
  if (node.feature < 0) {
    return 0;
  }
  return 1 + std::max(RefDepth(tree, node.left), RefDepth(tree, node.right));
}

// BuildRandomForest's generation order: pre-order; an internal node draws
// its split feature, then its threshold; a leaf draws its value.
int RefRandomTree(RefTree* tree, size_t features, size_t depth, Rng& rng) {
  const int idx = static_cast<int>(tree->size());
  tree->emplace_back();
  if (depth == 0) {
    (*tree)[idx].value = static_cast<float>(rng.Normal()) * 0.25f;
    return idx;
  }
  (*tree)[idx].feature = static_cast<int>(rng.UniformInt(features));
  (*tree)[idx].threshold = static_cast<float>(rng.Normal());
  const int left = RefRandomTree(tree, features, depth - 1, rng);
  const int right = RefRandomTree(tree, features, depth - 1, rng);
  (*tree)[idx].left = left;
  (*tree)[idx].right = right;
  return idx;
}

std::vector<RefTree> RefRandomForest(size_t trees, size_t features,
                                     size_t depth, Rng& rng) {
  std::vector<RefTree> out(trees);
  for (RefTree& tree : out) {
    RefRandomTree(&tree, features, depth, rng);
  }
  return out;
}

// Lowers plain trees into the library layout, then round-trips the image
// through DeserializeOpParams so the library computes (and validates) the
// forest's depth itself.
int LowerNode(const RefTree& tree, int n, Forest* forest) {
  const int32_t idx = static_cast<int32_t>(forest->nodes.size());
  forest->nodes.emplace_back();
  const RefNode& ref = tree[n];
  if (ref.feature < 0) {
    forest->nodes[idx].threshold = ref.value;
    forest->nodes[idx].child[0] = forest->nodes[idx].child[1] = idx;
    return idx;
  }
  forest->nodes[idx].feature = ref.feature;
  forest->nodes[idx].threshold = ref.threshold;
  const int32_t left = LowerNode(tree, ref.left, forest);
  const int32_t right = LowerNode(tree, ref.right, forest);
  forest->nodes[idx].child[0] = left;
  forest->nodes[idx].child[1] = right;
  return idx;
}

Forest Lower(const std::vector<RefTree>& trees, size_t features) {
  ForestParams params;
  params.forest.num_features = features;
  for (const RefTree& tree : trees) {
    params.forest.roots.push_back(LowerNode(tree, 0, &params.forest));
  }
  std::string image;
  params.Serialize(&image);
  auto loaded =
      DeserializeOpParams(OpKind::kForest, image.data(), image.size());
  CHECK_MSG(loaded.ok(), "lowered forest rejected");
  return static_cast<const ForestParams&>(**loaded).forest;
}

// Every library walk against the reference, on one input.
void CheckWalks(const Forest& forest, const std::vector<RefTree>& ref,
                const float* x) {
  CHECK_EQ(forest.roots.size(), ref.size());
  std::vector<float> all(ref.size(), -12345.0f);
  forest.EvalTrees(x, all.data());
  for (size_t t = 0; t < ref.size(); ++t) {
    const float want = RefEval(ref[t], 0, x);
    CHECK_BITS(forest.EvalTree(t, x), want);
    CHECK_BITS(all[t], want);
  }
  CHECK_BITS(forest.Eval(x), RefSum(ref, x));
}

// Inputs: random, every feature exactly at some split threshold on it,
// all-NaN, all +inf, all -inf, and per-feature mixes of those.
std::vector<std::vector<float>> Inputs(const std::vector<RefTree>& ref,
                                       size_t features, Rng& rng) {
  std::vector<std::vector<float>> split_values(features);
  for (const RefTree& tree : ref) {
    for (const RefNode& node : tree) {
      if (node.feature >= 0) {
        split_values[node.feature].push_back(node.threshold);
      }
    }
  }
  const auto at_split = [&](size_t f) {
    const auto& v = split_values[f];
    return v.empty() ? 0.0f : v[rng.UniformInt(v.size())];
  };
  std::vector<std::vector<float>> inputs;
  for (int i = 0; i < 24; ++i) {
    std::vector<float> x(features);
    for (float& v : x) {
      v = static_cast<float>(rng.Normal());
    }
    inputs.push_back(std::move(x));
  }
  for (int i = 0; i < 8; ++i) {
    std::vector<float> x(features);
    for (size_t f = 0; f < features; ++f) {
      x[f] = at_split(f);
    }
    inputs.push_back(std::move(x));
  }
  for (const float fill : {kNaN, kInf, -kInf}) {
    inputs.emplace_back(features, fill);
  }
  for (int i = 0; i < 16; ++i) {
    std::vector<float> x(features);
    for (size_t f = 0; f < features; ++f) {
      switch (rng.UniformInt(5)) {
        case 0: x[f] = at_split(f); break;
        case 1: x[f] = kNaN; break;
        case 2: x[f] = kInf; break;
        case 3: x[f] = -kInf; break;
        default: x[f] = static_cast<float>(rng.Normal()); break;
      }
    }
    inputs.push_back(std::move(x));
  }
  return inputs;
}

void CheckForest(const Forest& forest, const std::vector<RefTree>& ref,
                 size_t features, Rng& rng) {
  for (const auto& x : Inputs(ref, features, rng)) {
    CheckWalks(forest, ref, x.data());
  }
}

// BuildRandomForest forests, tree counts around the walk's group width.
void TestRandomForests() {
  const size_t kFeatures = 40;
  size_t checked = 0;
  for (const size_t trees : {1, 15, 16, 17, 48}) {
    for (const size_t depth : {0, 1, 5, 7}) {
      const uint64_t seed = 0xF0 + trees * 16 + depth;
      Rng build_rng(seed);
      Rng ref_rng(seed);
      const Forest forest =
          BuildRandomForest(trees, kFeatures, depth, build_rng);
      const auto ref = RefRandomForest(trees, kFeatures, depth, ref_rng);
      CHECK_EQ(forest.depth, depth);
      Rng input_rng(seed ^ 0x1A);
      CheckForest(forest, ref, kFeatures, input_rng);
      // The deserializer recomputes the same depth.
      CHECK_EQ(Lower(ref, kFeatures).depth, depth);
      ++checked;
    }
  }
  std::printf("random forests: %zu checked\n", checked);
}

// A random tree whose leaves sit at unequal depths: each internal node
// continues one side down to `depth` and ends the other side early.
int RefPathTree(RefTree* tree, size_t features, size_t depth, Rng& rng) {
  const int idx = static_cast<int>(tree->size());
  tree->emplace_back();
  if (depth == 0) {
    (*tree)[idx].value = static_cast<float>(rng.Normal());
    return idx;
  }
  (*tree)[idx].feature = static_cast<int>(rng.UniformInt(features));
  (*tree)[idx].threshold = static_cast<float>(rng.Normal());
  const size_t short_depth = rng.UniformInt(depth);
  const bool deep_left = rng.UniformInt(2) == 0;
  const size_t left_depth = deep_left ? depth - 1 : short_depth;
  const size_t right_depth = deep_left ? short_depth : depth - 1;
  const int left = RefPathTree(tree, features, left_depth, rng);
  const int right = RefPathTree(tree, features, right_depth, rng);
  (*tree)[idx].left = left;
  (*tree)[idx].right = right;
  return idx;
}

// Hand-built unbalanced trees: a lone leaf, a stump, a depth-1 leaf beside
// a depth-9 path, and random ragged trees, mixed within walk groups.
void TestUnbalanced() {
  const size_t kFeatures = 12;
  Rng rng(0xBA1A);
  RefTree leaf(1);
  leaf[0].value = 0.75f;
  RefTree stump(3);
  stump[0] = {3, 0.5f, 0.0f, 1, 2};
  stump[1].value = -1.0f;
  stump[2].value = 2.0f;
  // Root: left is a leaf (depth 1); right descends a 9-deep path.
  RefTree path;
  path.push_back({0, 0.0f, 0.0f, 1, 2});
  path.push_back({-1, 0.0f, 1.5f, -1, -1});
  for (int level = 1; level < 9; ++level) {
    const int self = static_cast<int>(path.size());
    const float threshold = static_cast<float>(rng.Normal());
    path.push_back({level % static_cast<int>(kFeatures), threshold, 0.0f,
                    self + 1, self + 2});
    path.push_back({-1, 0.0f, static_cast<float>(level), -1, -1});
  }
  path.push_back({-1, 0.0f, -9.0f, -1, -1});
  CHECK_EQ(RefDepth(path), 9);

  for (const size_t trees : {1, 15, 16, 17, 48}) {
    std::vector<RefTree> ref;
    for (size_t t = 0; t < trees; ++t) {
      switch (t % 4) {
        case 0: ref.push_back(t == 0 ? path : leaf); break;
        case 1: ref.push_back(stump); break;
        case 2: ref.push_back(path); break;
        default: {
          RefTree ragged;
          RefPathTree(&ragged, kFeatures, 1 + rng.UniformInt(8), rng);
          ref.push_back(std::move(ragged));
          break;
        }
      }
    }
    size_t want_depth = 0;
    for (const RefTree& tree : ref) {
      want_depth = std::max(want_depth, RefDepth(tree));
    }
    const Forest forest = Lower(ref, kFeatures);
    CHECK_EQ(forest.depth, want_depth);
    CheckForest(forest, ref, kFeatures, rng);
  }
  // A forest of leaves only walks zero steps.
  const Forest leaves = Lower({leaf, leaf, leaf}, kFeatures);
  CHECK_EQ(leaves.depth, 0);
  std::vector<float> x(kFeatures, kNaN);
  CHECK_BITS(leaves.Eval(x.data()), 0.75f + 0.75f + 0.75f);
  // An empty forest scores zero.
  const Forest empty = Lower({}, kFeatures);
  CHECK_BITS(empty.Eval(x.data()), 0.0f);
  std::printf("unbalanced forests: PASS\n");
}

// The comparison itself, one stump at a time: x <= threshold goes left,
// NaN goes right, infinities compare as ordered values.
void TestThresholdEdges() {
  struct Case {
    float threshold;
    float x;
    float want;  // -1: left leaf, +1: right leaf.
  };
  const Case cases[] = {
      {0.5f, 0.5f, -1.0f},   {0.5f, 0.49999997f, -1.0f},
      {0.5f, 0.50000006f, 1.0f}, {0.5f, kNaN, 1.0f},
      {0.5f, kInf, 1.0f},    {0.5f, -kInf, -1.0f},
      {kInf, kInf, -1.0f},   {-kInf, -kInf, -1.0f},
      {-kInf, -3.0e38f, 1.0f}, {0.0f, -0.0f, -1.0f},
      {-0.0f, 0.0f, -1.0f},  {kNaN, 1.0f, 1.0f},
      {kNaN, kNaN, 1.0f},
  };
  for (const Case& c : cases) {
    RefTree stump(3);
    stump[0] = {1, c.threshold, 0.0f, 1, 2};
    stump[1].value = -1.0f;
    stump[2].value = 1.0f;
    const Forest forest = Lower({stump}, 2);
    const float x[2] = {0.0f, c.x};
    CHECK_BITS(forest.EvalTree(0, x), c.want);
    CHECK_BITS(RefEval(stump, 0, x), c.want);
    CheckWalks(forest, {stump}, x);
  }
  std::printf("threshold edges: PASS\n");
}

// Two forests built from one seed checksum and serialize identically: the
// node has no padding bytes for the checksum or the image to pick up.
void TestChecksumDeterminism() {
  const auto build = [](uint64_t seed) {
    // Dirty the heap first, so a padding byte would likely differ.
    std::vector<std::unique_ptr<char[]>> junk;
    for (int i = 0; i < 64; ++i) {
      junk.emplace_back(new char[4096]);
      std::memset(junk.back().get(), 0x5A + i, 4096);
    }
    junk.clear();
    auto params = std::make_shared<TreeFeaturizerParams>();
    Rng rng(seed);
    params->forest = BuildRandomForest(17, 40, 6, rng);
    params->Finalize();
    return params;
  };
  const auto a = build(0xC0FFEE);
  const auto b = build(0xC0FFEE);
  const auto c = build(0xC0FFEF);
  CHECK_EQ(a->ContentChecksum(), b->ContentChecksum());
  CHECK(a->ContentChecksum() != c->ContentChecksum());
  std::string image_a, image_b;
  a->Serialize(&image_a);
  b->Serialize(&image_b);
  CHECK(image_a == image_b);
  // A deserialized copy keeps the checksum (dedup by content).
  auto loaded = DeserializeOpParams(OpKind::kTreeFeaturizer, image_a.data(),
                                    image_a.size());
  CHECK(loaded.ok());
  CHECK_EQ((*loaded)->ContentChecksum(), a->ContentChecksum());
  std::printf("checksum determinism: PASS\n");
}

// AC scores recorded before the branch-free walk replaced the
// pointer-chasing one (default AcWorkloadOptions, binary records drawn from
// Rng(0xF0E5)); ExecutePlan and ExecutePlanBatch both give them.
struct PinnedScore {
  size_t pipeline;
  size_t record;
  float score;
};
constexpr PinnedScore kPinned[] = {
    {0, 0, -0x1.68ada4p-3f},   {0, 1, 0x1.01ae68p-3f},
    {0, 2, 0x1.d75f14p-2f},    {0, 3, 0x1.544d82p-1f},
    {1, 0, -0x1.c215cp+0f},    {1, 1, 0x1.8e7556p-2f},
    {1, 2, -0x1.a4c164p+0f},   {1, 3, -0x1.49522ap-2f},
    {16, 0, 0x1.83d5ccp+0f},   {16, 1, -0x1.47dd4cp-3f},
    {16, 2, -0x1.8e8792p+0f},  {16, 3, 0x1.014e82p-3f},
    {77, 0, 0x1.f1175ap+0f},   {77, 1, 0x1.07e356p+1f},
    {77, 2, -0x1.8e0d2ep-2f},  {77, 3, -0x1.41067cp+0f},
    {177, 0, -0x1.8092ep+0f},  {177, 1, -0x1.3b851cp-2f},
    {177, 2, -0x1.00788cp+0f}, {177, 3, 0x1.9616eep-2f},
    {249, 0, 0x1.4c6a7p-1f},   {249, 1, 0x1.1140dap+0f},
    {249, 2, 0x1.ee0966p-1f},  {249, 3, 0x1.765d2ep-1f},
};

void TestPinnedAcScores() {
  const auto ac = AcWorkload::Generate(AcWorkloadOptions{});
  Rng rng(0xF0E5);
  std::vector<std::string> records;
  for (int i = 0; i < 4; ++i) {
    records.push_back(ac.SampleInput(rng, WireFormat::kBinary));
  }
  ObjectStore store;
  FlourContext flour(&store);
  VectorPool pool;
  ExecContext ctx(&pool);
  // Fused featurize with the final forest inlined, and the unfused stage
  // list (kTreeFeaturize + kForest): both walk the same forests.
  CompileOptions unfused;
  unfused.optimizer.enable_stage_merge = false;
  unfused.optimizer.enable_inline = false;
  size_t checked = 0;
  for (const CompileOptions& options : {CompileOptions{}, unfused}) {
    for (const size_t pipeline : {0, 1, 16, 77, 177, 249}) {
      auto program = flour.FromPipeline(ac.pipelines()[pipeline]);
      auto plan = CompilePlan(*program, "pinned", options);
      CHECK(plan.ok());
      std::vector<float> batch(records.size());
      CHECK_EQ(ExecutePlanBatch(**plan, records.data(), records.size(),
                                batch.data(), ctx, nullptr),
               0);
      for (const PinnedScore& pin : kPinned) {
        if (pin.pipeline != pipeline) {
          continue;
        }
        auto single = ExecutePlan(**plan, records[pin.record], ctx);
        CHECK(single.ok());
        CHECK_BITS(*single, pin.score);
        CHECK_BITS(batch[pin.record], pin.score);
        ++checked;
      }
    }
  }
  CHECK_EQ(checked, 2 * std::size(kPinned));
  std::printf("pinned AC scores: %zu checked\n", checked);
}

// Every AC pipeline over a pool of text records and their binary twins, fed
// to ExecutePlanBatch as 64-record chunks that each also carry one record
// with its validity bit clear and one record narrower than the pipeline:
// every valid record's batch score is bit-equal to its ExecutePlan score,
// and exactly the two bad records fail.
void TestAcBatchMatchesPerRecord() {
  constexpr size_t kChunk = 64;
  constexpr size_t kValidPerChunk = kChunk - 2;
  constexpr size_t kChunks = 2;
  const auto ac = AcWorkload::Generate(AcWorkloadOptions{});
  Rng rng(0xBA7C);
  std::vector<std::string> text_pool, binary_pool;
  for (size_t i = 0; i < kChunks * kValidPerChunk; ++i) {
    text_pool.push_back(ac.SampleInput(rng, WireFormat::kText));
    binary_pool.push_back(AcWorkload::BinaryFromText(text_pool.back()));
  }
  std::vector<float> values;
  ParseDenseInput(text_pool[0], &values);
  const std::string invalid =
      EncodeDenseRecord(values.data(), values.size(), /*valid=*/false);
  const std::string narrow_text = "1.0,2.0";
  const std::string narrow_binary = EncodeDenseRecord(values.data(), 2);

  // Chunk c of a pool: its valid records in order, with the invalid record
  // at bad[c][0] and the narrow one at bad[c][1].
  const size_t bad[kChunks][2] = {{0, kChunk - 1}, {kChunk / 2, 7}};
  const auto build_chunk = [&](const std::vector<std::string>& pool,
                               const std::string& narrow, size_t c) {
    std::vector<std::string> chunk;
    size_t next = c * kValidPerChunk;
    for (size_t i = 0; i < kChunk; ++i) {
      if (i == bad[c][0]) {
        chunk.push_back(invalid);
      } else if (i == bad[c][1]) {
        chunk.push_back(narrow);
      } else {
        chunk.push_back(pool[next++]);
      }
    }
    return chunk;
  };
  std::vector<std::vector<std::string>> chunks;
  for (size_t c = 0; c < kChunks; ++c) {
    chunks.push_back(build_chunk(text_pool, narrow_text, c));
    chunks.push_back(build_chunk(binary_pool, narrow_binary, c));
  }

  ObjectStore store;
  FlourContext flour(&store);
  VectorPool pool;
  ExecContext ctx(&pool);
  size_t checked = 0;
  for (const auto& spec : ac.pipelines()) {
    auto program = flour.FromPipeline(spec);
    auto plan = CompilePlan(*program, spec.name, CompileOptions{});
    CHECK(plan.ok());
    for (size_t k = 0; k < chunks.size(); ++k) {
      const std::vector<std::string>& chunk = chunks[k];
      const size_t c = k / 2;
      std::vector<float> scores(kChunk, -1.0f);
      std::vector<uint8_t> flags(kChunk, 0xEE);
      Status first_error;
      CHECK_EQ(ExecutePlanBatch(**plan, chunk.data(), kChunk, scores.data(),
                                ctx, &first_error, flags.data()),
               size_t{2});
      CHECK(!first_error.ok());
      for (size_t i = 0; i < kChunk; ++i) {
        auto single = ExecutePlan(**plan, chunk[i], ctx);
        const bool is_bad = i == bad[c][0] || i == bad[c][1];
        CHECK_MSG(single.ok() != is_bad, "%s chunk %zu record %zu",
                  spec.name.c_str(), k, i);
        CHECK_EQ(flags[i], is_bad ? 1 : 0);
        CHECK_BITS(scores[i], is_bad ? 0.0f : *single);
        checked += is_bad ? 0 : 1;
      }
    }
  }
  CHECK_EQ(checked, ac.pipelines().size() * chunks.size() * kValidPerChunk);
  std::printf("AC batch vs per-record: %zu scores bit-equal\n", checked);
}

}  // namespace

int main() {
  TestRandomForests();
  TestUnbalanced();
  TestThresholdEdges();
  TestChecksumDeterminism();
  TestPinnedAcScores();
  TestAcBatchMatchesPerRecord();
  std::printf("forest_test: PASS\n");
  return 0;
}
