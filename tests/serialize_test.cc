// BinaryRecord wire format: round-trips, structural rejection (truncated,
// oversized, corrupt, non-finite, unsorted), misaligned-buffer handling,
// batch framing, deterministic mutation fuzz passes over records, framed
// record batches and forest parameter images (ASan/TSan builds run this
// test, so out-of-bounds reads in the validators would be caught), and
// the end-to-end contract: a binary record must score identically (1e-6) to
// its text twin on every SA/AC plan under every optimizer config, through
// the per-record, batch, and Runtime entry points.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/serialize.h"
#include "src/flour/flour.h"
#include "src/oven/model_plan.h"
#include "src/runtime/exec_context.h"
#include "src/runtime/runtime.h"
#include "src/workload/ac_workload.h"
#include "src/workload/sa_workload.h"
#include "tests/test_util.h"

using namespace pretzel;

namespace {

std::vector<std::pair<const char*, OptimizerOptions>> Configs() {
  OptimizerOptions full;
  OptimizerOptions sparse_fused;
  sparse_fused.enable_linear_push = false;
  OptimizerOptions sparse_unmerged = sparse_fused;
  sparse_unmerged.enable_stage_merge = false;
  OptimizerOptions unfused;
  unfused.enable_linear_push = false;
  unfused.enable_stage_merge = false;
  unfused.enable_inline = false;
  unfused.enable_sparse_fuse = false;
  return {{"full", full},
          {"sparse-fused", sparse_fused},
          {"sparse-unmerged", sparse_unmerged},
          {"unfused", unfused}};
}

void TestDenseRoundTrip() {
  const std::vector<float> values = {1.5f, -2.25f, 0.0f, 3.0e-7f, 40.0f};
  const std::string record = EncodeDenseRecord(values.data(), values.size());
  CHECK(IsBinaryRecord(record));
  CHECK(!IsBinaryRecord("1.5,-2.25,0.0"));
  CHECK(!IsBinaryRecord(""));

  BinaryRecordView view;
  CHECK(ParseBinaryRecord(record, &view).ok());
  CHECK(view.format == BinaryRecordFormat::kDense);
  CHECK(view.valid);
  CHECK_EQ(view.dim, values.size());
  CHECK_EQ(view.nnz, values.size());
  CHECK_EQ(view.record_size, record.size());
  // std::string data is at least 8-aligned (SSO) or 16-aligned (heap), and
  // the header is 16 bytes, so a whole-string record's payload is aligned.
  CHECK(view.aligned);
  CHECK(view.values != nullptr);
  for (size_t i = 0; i < values.size(); ++i) {
    CHECK_EQ(view.values[i], values[i]);
  }

  // The validity bit is carried, not enforced, by the parser.
  const std::string invalid =
      EncodeDenseRecord(values.data(), values.size(), /*valid=*/false);
  CHECK(ParseBinaryRecord(invalid, &view).ok());
  CHECK(!view.valid);
}

void TestSparseRoundTrip() {
  const std::vector<uint32_t> ids = {0, 3, 7, 90, 99};
  const std::vector<float> vals = {1.0f, 2.0f, 1.0f, 4.5f, -1.0f};
  const std::string record =
      EncodeSparseRecord(ids.data(), vals.data(), ids.size(), /*dim=*/100);
  CHECK(IsBinaryRecord(record));

  BinaryRecordView view;
  CHECK(ParseBinaryRecord(record, &view).ok());
  CHECK(view.format == BinaryRecordFormat::kSparse);
  CHECK(view.valid);
  CHECK_EQ(view.dim, 100u);
  CHECK_EQ(view.nnz, ids.size());
  CHECK(view.aligned);
  for (size_t i = 0; i < ids.size(); ++i) {
    CHECK_EQ(view.ids[i], ids[i]);
    CHECK_EQ(view.values[i], vals[i]);
  }

  // nnz == 0 is a legal (all-zero) sparse vector.
  const std::string empty = EncodeSparseRecord(nullptr, nullptr, 0, 100);
  CHECK(ParseBinaryRecord(empty, &view).ok());
  CHECK_EQ(view.nnz, 0u);
}

void TestRejection() {
  const std::vector<float> values = {1.0f, 2.0f, 3.0f};
  const std::string good = EncodeDenseRecord(values.data(), values.size());
  BinaryRecordView view;

  // Truncated: inside the header, and inside the payload.
  for (size_t n = 0; n < good.size(); ++n) {
    CHECK(!ParseBinaryRecord(std::string_view(good).substr(0, n), &view).ok());
  }
  // Oversized buffer is rejected unless the caller asked for trailing data.
  CHECK(!ParseBinaryRecord(good + "x", &view).ok());
  CHECK(ParseBinaryRecord(good + "x", &view, /*allow_trailing=*/true).ok());

  const auto corrupt = [&](size_t offset, uint8_t byte) {
    std::string bad = good;
    bad[offset] = static_cast<char>(byte);
    return ParseBinaryRecord(bad, &view);
  };
  CHECK(!corrupt(0, 0x00).ok());   // Magic.
  CHECK(!corrupt(4, 0x09).ok());   // Unknown format tag.
  CHECK(!corrupt(5, 0x83).ok());   // Unknown flag bits.
  CHECK(!corrupt(6, 0x01).ok());   // Reserved must be zero.
  CHECK(!corrupt(8, 0xFF).ok());   // dim no longer matches the payload.
  CHECK(!corrupt(12, 0x04).ok());  // Dense nnz != dim.
  CHECK(!corrupt(11, 0x7F).ok());  // dim beyond the wire cap.

  // Non-finite payload values are rejected up front, not discovered by a
  // kernel. Bit patterns: quiet NaN and +Inf.
  for (const uint32_t bits : {0x7FC00000u, 0x7F800000u}) {
    std::string bad = good;
    std::memcpy(bad.data() + sizeof(BinaryRecordHeader), &bits, 4);
    CHECK(!ParseBinaryRecord(bad, &view).ok());
  }

  // Sparse structural invariants: ids strictly ascending, each < dim.
  const std::vector<float> svals = {1.0f, 1.0f};
  for (const std::vector<uint32_t>& bad_ids :
       {std::vector<uint32_t>{5, 5}, {7, 3}, {1, 100}}) {
    const std::string bad = EncodeSparseRecord(bad_ids.data(), svals.data(),
                                               bad_ids.size(), /*dim=*/100);
    CHECK(!ParseBinaryRecord(bad, &view).ok());
  }
  // Sparse nnz > dim can't even size a payload.
  const std::vector<uint32_t> two_ids = {0, 1};
  const std::string bad =
      EncodeSparseRecord(two_ids.data(), svals.data(), 2, /*dim=*/1);
  CHECK(!ParseBinaryRecord(bad, &view).ok());
}

void TestMisaligned() {
  const std::vector<float> values = {4.0f, 5.0f, 6.0f, 7.0f};
  const std::string record = EncodeDenseRecord(values.data(), values.size());
  const std::vector<uint32_t> sids = {2, 9};
  const std::vector<float> svals = {1.0f, 3.0f};
  const std::string sparse =
      EncodeSparseRecord(sids.data(), svals.data(), sids.size(), /*dim=*/16);

  // Records sliced at an odd offset out of a larger buffer: the view must
  // report misalignment instead of handing out unusable pointers, and the
  // staging copies must recover the payload exactly.
  std::string buffer = "x" + record + sparse;
  std::string_view dense_slice(buffer.data() + 1, record.size());
  BinaryRecordView view;
  CHECK(ParseBinaryRecord(dense_slice, &view).ok());
  CHECK(!view.aligned);
  CHECK(view.values == nullptr);
  std::vector<float> staged(view.dim);
  CopyDenseValues(view, staged.data());
  for (size_t i = 0; i < values.size(); ++i) {
    CHECK_EQ(staged[i], values[i]);
  }

  std::string_view sparse_slice(buffer.data() + 1 + record.size(),
                                sparse.size());
  CHECK(ParseBinaryRecord(sparse_slice, &view).ok());
  CHECK(!view.aligned);
  std::vector<uint32_t> sidso(view.nnz);
  std::vector<float> svalso(view.nnz);
  CopySparsePayload(view, sidso.data(), svalso.data());
  for (size_t i = 0; i < sids.size(); ++i) {
    CHECK_EQ(sidso[i], sids[i]);
    CHECK_EQ(svalso[i], svals[i]);
  }
}

void TestSplitBatch() {
  const std::vector<float> a = {1.0f, 2.0f};
  const std::vector<uint32_t> bids = {1, 5};
  const std::vector<float> bvals = {1.0f, 2.0f};
  const std::string ra = EncodeDenseRecord(a.data(), a.size());
  const std::string rb =
      EncodeSparseRecord(bids.data(), bvals.data(), bids.size(), /*dim=*/8);

  std::vector<std::string_view> records;
  const std::string framed = ra + rb + ra;  // Views alias this buffer.
  CHECK(SplitBinaryBatch(framed, &records).ok());
  CHECK_EQ(records.size(), size_t{3});
  CHECK_EQ(records[0].size(), ra.size());
  CHECK_EQ(records[1].size(), rb.size());
  CHECK(records[0] == ra && records[1] == rb && records[2] == ra);

  CHECK(SplitBinaryBatch("", &records).ok());
  CHECK(records.empty());
  // A torn tail or trailing garbage rejects the whole buffer.
  CHECK(!SplitBinaryBatch(ra + rb.substr(0, rb.size() - 2), &records).ok());
  CHECK(!SplitBinaryBatch(ra + "junk", &records).ok());
}

// Binary-vs-text score parity on every plan variant: the binary encoding of
// a sampled input must score within 1e-6 of the text encoding through
// ExecutePlan and through a mixed-format ExecutePlanBatch, and the batch
// path must fail exactly the records whose validity bit is clear.
template <typename Workload, typename BinaryFromTextFn>
void CheckWirePairParity(const Workload& workload, uint64_t seed,
                         bool is_dense, BinaryFromTextFn binary_from_text) {
  ObjectStore store;
  FlourContext flour(&store);
  VectorPool pool;
  ExecContext ctx(&pool);
  Rng rng(seed);
  const auto configs = Configs();

  for (size_t pi = 0; pi < workload.pipelines().size(); ++pi) {
    const auto& spec = workload.pipelines()[pi];
    auto program = flour.FromPipeline(spec);
    std::vector<std::string> texts, binaries;
    for (int i = 0; i < 5; ++i) {
      texts.push_back(workload.SampleInput(rng));
      binaries.push_back(binary_from_text(texts.back(), pi));
    }
    for (const auto& [name, opts] : configs) {
      CompileOptions copts;
      copts.optimizer = opts;
      auto plan = CompilePlan(*program, spec.name, copts);
      CHECK_MSG(plan.ok(), "compile %s/%s", spec.name.c_str(), name);

      std::vector<float> text_scores;
      for (size_t i = 0; i < texts.size(); ++i) {
        auto text_score = ExecutePlan(**plan, texts[i], ctx);
        auto bin_score = ExecutePlan(**plan, binaries[i], ctx);
        CHECK_MSG(text_score.ok(), "%s/%s text", spec.name.c_str(), name);
        CHECK_MSG(bin_score.ok(), "%s/%s binary", spec.name.c_str(), name);
        CHECK_NEAR(*bin_score, *text_score, 1e-6);
        text_scores.push_back(*text_score);
      }

      // Mixed text/binary batch: same scores, no failures.
      std::vector<std::string_view> mixed;
      for (size_t i = 0; i < texts.size(); ++i) {
        mixed.push_back(i % 2 == 0 ? std::string_view(binaries[i])
                                   : std::string_view(texts[i]));
      }
      std::vector<float> scores(mixed.size(), -1.0f);
      Status first_error;
      size_t failed =
          ExecutePlanBatch(**plan, mixed.data(), mixed.size(), scores.data(),
                           ctx, &first_error);
      CHECK_MSG(failed == 0, "mixed batch: %s", first_error.ToString().c_str());
      for (size_t i = 0; i < scores.size(); ++i) {
        // A batch scores each record as ExecutePlan does, so the wire
        // formats' 1e-6 above holds here too.
        CHECK_NEAR(scores[i], text_scores[i], 1e-6);
      }

      if (is_dense) {
        // A cleared validity bit fails that record alone (score 0, its
        // flag set); its neighbors still score.
        BinaryRecordView view;
        CHECK(ParseBinaryRecord(binaries[0], &view).ok());
        std::vector<float> vals(view.dim);
        CopyDenseValues(view, vals.data());
        const std::string masked =
            EncodeDenseRecord(vals.data(), vals.size(), /*valid=*/false);
        std::vector<std::string_view> batch = {binaries[0], masked,
                                               binaries[1]};
        std::vector<float> mscore(batch.size(), -1.0f);
        std::vector<uint8_t> flags(batch.size(), 0xEE);
        Status err;
        failed = ExecutePlanBatch(**plan, batch.data(), batch.size(),
                                  mscore.data(), ctx, &err, flags.data());
        CHECK_EQ(failed, size_t{1});
        CHECK(!err.ok());
        CHECK_EQ(flags[0], uint8_t{0});
        CHECK_EQ(flags[1], uint8_t{1});
        CHECK_EQ(flags[2], uint8_t{0});
        CHECK_NEAR(mscore[0], text_scores[0], 1e-5);
        CHECK_NEAR(mscore[1], 0.0f, 1e-9);
        CHECK_NEAR(mscore[2], text_scores[1], 1e-5);
      }
    }
  }
}

// The Runtime entry points: PredictBinary (single and framed batch) against
// text Predict on the same registered plan.
void TestRuntimeBinaryPath() {
  AcWorkloadOptions opts;
  opts.num_pipelines = 2;
  opts.featurizer_trees = 8;
  opts.featurizer_depth = 4;
  opts.final_trees = 6;
  opts.final_depth = 3;
  auto ac = AcWorkload::Generate(opts);

  ObjectStore store;
  FlourContext flour(&store);
  RuntimeOptions ropts;
  ropts.num_executors = 2;
  Runtime runtime(&store, ropts);
  auto program = flour.FromPipeline(ac.pipelines()[0]);
  auto plan = Plan(*program, ac.pipelines()[0].name);
  CHECK(plan.ok());
  auto id = runtime.Register(*plan);
  CHECK(id.ok());

  Rng rng(31);
  std::string frame;
  std::vector<float> text_scores;
  for (int i = 0; i < 12; ++i) {
    const std::string text = ac.SampleInput(rng);
    const std::string binary = AcWorkload::BinaryFromText(text);
    auto text_score = runtime.Predict(*id, text);
    auto bin_score = runtime.PredictBinary(
        *id, std::span<const uint8_t>(
                 reinterpret_cast<const uint8_t*>(binary.data()),
                 binary.size()));
    CHECK(text_score.ok() && bin_score.ok());
    CHECK_NEAR(*bin_score, *text_score, 1e-6);
    frame += binary;
    text_scores.push_back(*text_score);
  }

  // Framed batch: one contiguous wire buffer, scores in record order.
  std::vector<float> out(text_scores.size(), -1.0f);
  Status status = runtime.PredictBinary(
      *id,
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(frame.data()),
                               frame.size()),
      /*max_batch=*/4, std::span<float>(out));
  CHECK_MSG(status.ok(), "%s", status.ToString().c_str());
  for (size_t i = 0; i < out.size(); ++i) {
    CHECK_NEAR(out[i], text_scores[i], 1e-5);
  }

  // A torn frame is rejected before anything executes.
  status = runtime.PredictBinary(
      *id,
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(frame.data()),
                               frame.size() - 3),
      /*max_batch=*/4, std::span<float>(out));
  CHECK(!status.ok());
}

// Deterministic mutation fuzz: corrupt valid records (byte flips,
// truncations, extensions) and framed multi-record buffers (also rewritten
// length fields), and require the validator, the batch framing, the
// executor and the Runtime's binary batch path to reject or score without
// reading out of bounds (the ASan job runs this test).
void TestMutationFuzz() {
  AcWorkloadOptions opts;
  opts.num_pipelines = 1;
  opts.featurizer_trees = 6;
  opts.featurizer_depth = 4;
  opts.final_trees = 4;
  opts.final_depth = 3;
  opts.input_dim = 12;
  auto ac = AcWorkload::Generate(opts);
  ObjectStore store;
  FlourContext flour(&store);
  auto program = flour.FromPipeline(ac.pipelines()[0]);
  auto plan = Plan(*program, "fuzz");
  CHECK(plan.ok());
  VectorPool pool;
  ExecContext ctx(&pool);

  Rng rng(0xF022);
  const std::vector<uint32_t> sids = {1, 4, 9, 11};
  const std::vector<float> svals = {1.0f, 2.0f, 1.0f, 1.0f};
  std::vector<float> dvals(12);
  for (float& v : dvals) {
    v = static_cast<float>(rng.Normal());
  }
  const std::string seeds[] = {
      EncodeDenseRecord(dvals.data(), dvals.size()),
      EncodeSparseRecord(sids.data(), svals.data(), sids.size(), /*dim=*/12),
  };
  size_t parsed = 0, rejected = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::string record = seeds[iter % 2];
    const size_t mutations = 1 + rng.UniformInt(3);
    for (size_t m = 0; m < mutations; ++m) {
      switch (rng.UniformInt(4)) {
        case 0:  // Byte flip.
          record[rng.UniformInt(record.size())] =
              static_cast<char>(rng.UniformInt(256));
          break;
        case 1:  // Truncate.
          record.resize(rng.UniformInt(record.size() + 1));
          break;
        case 2:  // Extend with junk.
          record.append(1 + rng.UniformInt(8), static_cast<char>(0xAB));
          break;
        default:  // Header-field flip (the interesting rejections).
          if (record.size() >= 16) {
            record[rng.UniformInt(16)] =
                static_cast<char>(rng.UniformInt(256));
          }
          break;
      }
      if (record.empty()) {
        break;
      }
    }
    BinaryRecordView view;
    if (ParseBinaryRecord(record, &view).ok()) {
      ++parsed;
    } else {
      ++rejected;
    }
    // The executor must also never crash: it either rejects the bytes or
    // scores them (a mutation can leave a structurally valid record).
    (void)ExecutePlan(**plan, record, ctx);
    std::vector<std::string_view> records;
    (void)SplitBinaryBatch(record, &records);
  }
  // Sanity: the fuzz actually exercised both outcomes.
  CHECK(parsed > 0);
  CHECK(rejected > 0);
  std::printf("mutation fuzz: %zu parsed, %zu rejected\n", parsed, rejected);

  // Framed batches: 2-5 seed records back to back, then byte flips,
  // truncations, and rewritten dim/nnz length fields. A buffer that still
  // frames must be tiled by its record views exactly and in order; every
  // buffer also rides the Runtime's binary batch path, which must return a
  // status (an error whenever framing failed) and never read out of bounds.
  RuntimeOptions ropts;
  ropts.num_executors = 1;
  Runtime runtime(&store, ropts);
  auto id = runtime.Register(*plan);
  CHECK(id.ok());
  size_t framed = 0, unframed = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    std::string buffer;
    std::vector<size_t> starts;
    for (size_t r = 0, n = 2 + rng.UniformInt(4); r < n; ++r) {
      starts.push_back(buffer.size());
      buffer += seeds[rng.UniformInt(2)];
    }
    for (size_t m = 0, n = 1 + rng.UniformInt(3); m < n && !buffer.empty();
         ++m) {
      switch (rng.UniformInt(3)) {
        case 0:  // Byte flip.
          buffer[rng.UniformInt(buffer.size())] =
              static_cast<char>(rng.UniformInt(256));
          break;
        case 1:  // Truncate.
          buffer.resize(rng.UniformInt(buffer.size() + 1));
          break;
        default: {  // Rewrite one record's dim (+8) or nnz (+12) field.
          const size_t at = starts[rng.UniformInt(starts.size())] +
                            (rng.UniformInt(2) == 0 ? 8 : 12);
          if (at + sizeof(uint32_t) > buffer.size()) {
            break;
          }
          uint32_t len;
          std::memcpy(&len, &buffer[at], sizeof(len));
          switch (rng.UniformInt(4)) {
            case 0: len += 1; break;
            case 1: len -= 1; break;
            case 2: len = static_cast<uint32_t>(rng.UniformInt(32)); break;
            default: len = 0xFFFFFFFFu >> rng.UniformInt(32); break;
          }
          std::memcpy(&buffer[at], &len, sizeof(len));
          break;
        }
      }
    }
    std::vector<std::string_view> views;
    const bool frames = SplitBinaryBatch(buffer, &views).ok();
    if (frames) {
      ++framed;
      const char* cursor = buffer.data();
      for (const std::string_view view : views) {
        CHECK(view.data() == cursor);
        CHECK(!view.empty());
        cursor += view.size();
      }
      CHECK(cursor == buffer.data() + buffer.size());
    } else {
      ++unframed;
    }
    // Room for any record count the buffer could frame into.
    std::vector<float> out(buffer.size() / 16 + 1, -1.0f);
    const Status status = runtime.PredictBinary(
        *id,
        std::span<const uint8_t>(
            reinterpret_cast<const uint8_t*>(buffer.data()), buffer.size()),
        /*max_batch=*/2, std::span<float>(out));
    CHECK(frames || !status.ok());
  }
  CHECK(framed > 0);
  CHECK(unframed > 0);
  std::printf("framed mutation fuzz: %zu framed, %zu rejected\n", framed,
              unframed);
}


// Forest images (TreeFeaturizerParams, ForestParams bodies). Node i sits
// after the 3 x u64 header and the roots.
size_t NodeOffset(const Forest& forest, size_t i) {
  return 3 * sizeof(uint64_t) + forest.roots.size() * sizeof(int32_t) +
         i * sizeof(TreeNode);
}

std::string PatchNode(const std::string& image, const Forest& forest,
                      size_t i, const TreeNode& node) {
  std::string out = image;
  std::memcpy(&out[NodeOffset(forest, i)], &node, sizeof(node));
  return out;
}

bool Accepts(OpKind kind, const std::string& image) {
  return DeserializeOpParams(kind, image.data(), image.size()).ok();
}

// An accepted forest must be walkable: every root and child in range and
// every feature below num_features (checked here directly for builds
// without ASan), then walked with exactly num_features inputs.
void WalkAccepted(const Forest& forest, Rng& rng) {
  const int64_t n = static_cast<int64_t>(forest.nodes.size());
  for (const int32_t root : forest.roots) {
    CHECK(root >= 0 && root < n);
  }
  for (const TreeNode& node : forest.nodes) {
    CHECK(node.feature >= 0 &&
          static_cast<uint64_t>(node.feature) < forest.num_features);
    CHECK(node.child[0] >= 0 && node.child[0] < n);
    CHECK(node.child[1] >= 0 && node.child[1] < n);
  }
  CHECK(forest.depth <= forest.nodes.size());
  if (forest.num_features > (size_t{1} << 16)) {
    return;  // Checked above; too wide to materialize an input for.
  }
  std::vector<float> x(forest.num_features);
  for (float& v : x) {
    v = rng.UniformInt(8) == 0 ? std::numeric_limits<float>::quiet_NaN()
                               : static_cast<float>(rng.Normal());
  }
  std::vector<float> out(forest.roots.size());
  forest.EvalTrees(x.data(), out.data());
  float sum = forest.Eval(x.data());
  for (size_t t = 0; t < forest.roots.size(); ++t) {
    sum += forest.EvalTree(t, x.data());
  }
  (void)sum;
}

// Named corruptions of a valid image are rejected.
void TestForestImageRejection() {
  Rng rng(0xF0F0);
  ForestParams params;
  params.forest = BuildRandomForest(2, 4, 2, rng);
  params.Finalize();
  const Forest& f = params.forest;
  std::string image;
  params.Serialize(&image);
  const OpKind kind = OpKind::kForest;
  auto ok = DeserializeOpParams(kind, image.data(), image.size());
  CHECK(ok.ok());
  CHECK_EQ(static_cast<const ForestParams&>(**ok).forest.depth, 2);

  // Pre-order, depth 2: node 0 is a root, node 1 its left child (internal),
  // node 2 a leaf.
  CHECK(f.nodes[0].child[0] == 1 && f.nodes[2].child[0] == 2);
  TreeNode node = f.nodes[0];
  node.child[0] = 0;  // Internal node pointing at itself.
  CHECK(!Accepts(kind, PatchNode(image, f, 0, node)));
  node = f.nodes[0];
  node.child[1] = 0;
  CHECK(!Accepts(kind, PatchNode(image, f, 0, node)));
  node = f.nodes[1];
  node.child[1] = 0;  // Backward child.
  CHECK(!Accepts(kind, PatchNode(image, f, 1, node)));
  node = f.nodes[1];
  node.child[0] = static_cast<int32_t>(f.nodes.size());  // Past the end.
  CHECK(!Accepts(kind, PatchNode(image, f, 1, node)));
  node = f.nodes[2];
  node.child[1] = 3;  // Leaf with only one self child.
  CHECK(!Accepts(kind, PatchNode(image, f, 2, node)));
  node = f.nodes[2];
  node.child[0] = 3;
  CHECK(!Accepts(kind, PatchNode(image, f, 2, node)));
  for (const int32_t feature : {-1, INT32_MIN, 4, INT32_MAX}) {
    for (const size_t i : {size_t{0}, size_t{2}}) {  // Internal, leaf.
      node = f.nodes[i];
      node.feature = feature;
      CHECK(!Accepts(kind, PatchNode(image, f, i, node)));
    }
  }
  for (const int32_t root :
       {-1, static_cast<int32_t>(f.nodes.size()), INT32_MAX}) {
    std::string bad = image;
    std::memcpy(&bad[3 * sizeof(uint64_t)], &root, sizeof(root));
    CHECK(!Accepts(kind, bad));
  }
  // Counts whose byte sizes would wrap, and a truncated image.
  for (const size_t field : {size_t{1}, size_t{2}}) {
    for (const uint64_t count :
         {uint64_t{1} << 62, ~uint64_t{0}, (uint64_t{1} << 60) + 1}) {
      std::string bad = image;
      std::memcpy(&bad[field * sizeof(uint64_t)], &count, sizeof(count));
      CHECK(!Accepts(kind, bad));
    }
  }
  CHECK(!Accepts(kind, image.substr(0, image.size() - 1)));
  std::printf("forest image rejection: PASS\n");
}

// Seeded mutation fuzz over serialized TreeFeaturizerParams and
// ForestParams: every mutation must fail DeserializeOpParams or walk in
// bounds (the ASan and UBSan jobs run this test).
void TestForestImageFuzz() {
  Rng build_rng(0xF0F1);
  TreeFeaturizerParams featurizer;
  featurizer.forest = BuildRandomForest(6, 12, 4, build_rng);
  featurizer.Finalize();
  ForestParams final_forest;
  final_forest.forest = BuildRandomForest(17, 20, 3, build_rng);
  final_forest.Finalize();
  struct Seed {
    OpKind kind;
    const Forest* forest;
    std::string image;
  };
  Seed seeds[] = {{OpKind::kTreeFeaturizer, &featurizer.forest, {}},
                  {OpKind::kForest, &final_forest.forest, {}}};
  featurizer.Serialize(&seeds[0].image);
  final_forest.Serialize(&seeds[1].image);

  Rng rng(0xF0F2);
  size_t accepted = 0, rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    const Seed& seed = seeds[iter % 2];
    const Forest& f = *seed.forest;
    std::string image = seed.image;
    const size_t mutations = 1 + rng.UniformInt(3);
    for (size_t m = 0; m < mutations && !image.empty(); ++m) {
      switch (rng.UniformInt(6)) {
        case 0:  // Byte flip anywhere.
          image[rng.UniformInt(image.size())] =
              static_cast<char>(rng.UniformInt(256));
          break;
        case 1:  // Truncate.
          image.resize(rng.UniformInt(image.size() + 1));
          break;
        case 2:  // Extend with junk.
          image.append(1 + rng.UniformInt(16), static_cast<char>(0xAB));
          break;
        case 3: {  // Header byte flip.
          image[rng.UniformInt(std::min<size_t>(image.size(), 24))] =
              static_cast<char>(rng.UniformInt(256));
          break;
        }
        default: {  // One node field set near its valid range.
          const size_t i = rng.UniformInt(f.nodes.size());
          if (NodeOffset(f, i + 1) > image.size()) {
            break;
          }
          TreeNode node;
          std::memcpy(&node, &image[NodeOffset(f, i)], sizeof(node));
          const int64_t n = static_cast<int64_t>(f.nodes.size());
          const auto near = [&](int64_t hi) {
            return static_cast<int32_t>(
                static_cast<int64_t>(rng.UniformInt(hi + 4)) - 2);
          };
          switch (rng.UniformInt(3)) {
            case 0: node.feature = near(f.num_features); break;
            case 1: node.child[0] = near(n); break;
            default: node.child[1] = near(n); break;
          }
          std::memcpy(&image[NodeOffset(f, i)], &node, sizeof(node));
          break;
        }
      }
    }
    auto params = DeserializeOpParams(seed.kind, image.data(), image.size());
    if (!params.ok()) {
      ++rejected;
      continue;
    }
    ++accepted;
    const Forest& loaded =
        seed.kind == OpKind::kForest
            ? static_cast<const ForestParams&>(**params).forest
            : static_cast<const TreeFeaturizerParams&>(**params).forest;
    WalkAccepted(loaded, rng);
  }
  CHECK(accepted > 0);
  CHECK(rejected > 0);
  std::printf("forest image fuzz: %zu accepted, %zu rejected\n", accepted,
              rejected);
}

}  // namespace

int main() {
  TestDenseRoundTrip();
  TestSparseRoundTrip();
  TestRejection();
  TestMisaligned();
  TestSplitBatch();

  SaWorkloadOptions sa_opts;
  sa_opts.num_pipelines = 4;
  sa_opts.char_dict_entries = 500;
  sa_opts.word_dict_entries = 150;
  sa_opts.vocabulary_size = 300;
  const auto sa = SaWorkload::Generate(sa_opts);
  CheckWirePairParity(sa, 1212, /*is_dense=*/false,
                      [&](const std::string& text, size_t pi) {
                        return sa.BinaryFromText(text, pi);
                      });

  AcWorkloadOptions ac_opts;
  ac_opts.num_pipelines = 3;
  ac_opts.featurizer_trees = 10;
  ac_opts.featurizer_depth = 4;
  ac_opts.final_trees = 6;
  ac_opts.final_depth = 3;
  const auto ac = AcWorkload::Generate(ac_opts);
  CheckWirePairParity(ac, 3434, /*is_dense=*/true,
                      [&](const std::string& text, size_t) {
                        return AcWorkload::BinaryFromText(text);
                      });

  TestRuntimeBinaryPath();
  TestMutationFuzz();
  TestForestImageRejection();
  TestForestImageFuzz();

  std::printf("serialize_test: PASS\n");
  return 0;
}
