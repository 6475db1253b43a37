// Data-path sweep: before/after comparison of the operator data path under
// a Zipf-weighted plan mix (SA + AC).
//
//  - SA linear scoring, dense vs sparse-fused: the "dense" baseline
//    materializes the concatenated dense feature vector (zero + scatter)
//    and runs a full-width scalar dot — the black-box data path a runtime
//    without whole-pipeline visibility pays. The sparse-fused path is the
//    Oven's Concat->Linear fusion: per-source sparse dots at the Flour
//    layout offsets, no concatenated vector, no dense materialization.
//    SHAPE-CHECK: >= 3x (the SA featurizers emit >99% zeros at paper scale;
//    even at bench scale nnz is a few hundred against a 10^4 dense width).
//
//  - Dense kernels, scalar vs dispatched backend: MatVec/KMeans at AC plan
//    shapes and one larger PCA shape. Informational (the dispatched backend
//    equals the scalar one unless the build enables PRETZEL_AVX2 and the
//    CPU supports it); golden parity across backends is pinned by
//    datapath_parity_test, not here.
//
//  - Batch-major dense stages, per-item vs SoA: B matvecs vs one blocked
//    matrix-matrix kernel (transpose cost charged to the batch side).
//    SHAPE-CHECK at B >= 8: >= 1.5x per record on parallel hosts; on a
//    1-core host the margin compresses under timeslicing noise, so the
//    check degrades to a >= 0.9x no-regression guard.
//
//  - AC trees: the featurizer forest plus the final forest per record over
//    >= 512 distinct dense records (distinct, so no record's tree paths are
//    still warm in the branch predictor or caches from its last visit).
//    Informational: ac_forest_ns. The AC end-to-end line times text
//    records, where parsing hides the trees.
//
// Writes BENCH_datapath.json (archived by the CI bench-smoke job).
#include <memory>

#include "bench/bench_util.h"
#include "src/common/clock.h"
#include "src/flour/flour.h"
#include "src/ops/feature_vector.h"
#include "src/ops/kernels.h"
#include "src/oven/model_plan.h"
#include "src/runtime/exec_context.h"
#include "src/workload/load_gen.h"

namespace pretzel {
namespace {

double g_sink = 0.0;  // Defeats dead-code elimination across timed loops.

template <typename T>
const T* NodeParams(const PipelineSpec& spec, OpKind kind) {
  for (const auto& node : spec.nodes) {
    if (node.params->kind() == kind) {
      return static_cast<const T*>(node.params.get());
    }
  }
  return nullptr;
}

// One SA pipeline's pre-featurized state: the branch sparse count vectors
// for one input, plus the model. Featurization (tokenize + scans) is common
// to both scoring paths, so it happens once outside the timed region.
struct SaScoreCase {
  const LinearBinaryParams* linear = nullptr;
  size_t char_dim = 0;
  size_t word_dim = 0;
  FeatureVector char_features;
  FeatureVector word_features;
};

}  // namespace
}  // namespace pretzel

int main(int argc, char** argv) {
  using namespace pretzel;
  BenchFlags flags(argc, argv);
  PrintHeader("Operator data path",
              "Sparse-fused vs dense scoring, SIMD dispatch, batch-major "
              "dense stages (Zipf over SA+AC plans)");

  SaWorkloadOptions sa_opts;
  sa_opts.num_pipelines = static_cast<size_t>(flags.GetInt("sa_pipelines", 8));
  sa_opts.char_dict_entries =
      static_cast<size_t>(flags.GetInt("char_entries", 8000));
  sa_opts.word_dict_entries =
      static_cast<size_t>(flags.GetInt("word_entries", 2000));
  sa_opts.vocabulary_size = static_cast<size_t>(flags.GetInt("vocab", 4000));
  const auto sa = SaWorkload::Generate(sa_opts);

  AcWorkloadOptions ac_opts;
  ac_opts.num_pipelines = static_cast<size_t>(flags.GetInt("ac_pipelines", 8));
  const auto ac = AcWorkload::Generate(ac_opts);

  const int score_reps = static_cast<int>(flags.GetInt("score_reps", 2000));
  const int batch_reps = static_cast<int>(flags.GetInt("batch_reps", 400));
  const double zipf =
      static_cast<double>(flags.GetInt("zipf_x100", 120)) / 100.0;

  const KernelBackend backend = ActiveKernelBackend();
  std::printf("\n  dense-kernel backend: %s\n", KernelBackendName(backend));

  BenchJson json("datapath");
  json.Add("backend", KernelBackendName(backend));
  json.Add("sa_pipelines", static_cast<double>(sa.pipelines().size()));
  json.Add("ac_pipelines", static_cast<double>(ac.pipelines().size()));
  json.Add("zipf_alpha", zipf);
  bool pass = true;

  // -------------------------------------------------------------------
  // 1. SA linear scoring: dense materialization vs sparse-fused dots.
  Rng rng(4001);
  std::vector<std::unique_ptr<SaScoreCase>> cases;
  size_t total_nnz = 0;
  size_t total_dim = 0;
  {
    VectorPool pool;
    ExecContext ctx(&pool);
    for (const auto& spec : sa.pipelines()) {
      auto c = std::make_unique<SaScoreCase>();
      const auto* cp = NodeParams<CharNgramParams>(spec, OpKind::kCharNgram);
      const auto* wp = NodeParams<WordNgramParams>(spec, OpKind::kWordNgram);
      c->linear = NodeParams<LinearBinaryParams>(spec, OpKind::kLinearBinary);
      c->char_dim = cp->dict.size();
      c->word_dim = wp->dict.size();
      const std::string input = sa.SampleInput(rng);
      TokenizerParams tok;
      TokenizeInto(input, tok, &ctx.text, &ctx.spans);
      ctx.raw_hits.clear();
      CharNgramScan(ctx.text, ctx.spans, *cp,
                    [&](uint32_t id) { ctx.raw_hits.push_back(id); });
      c->char_features.AssignCounts(ctx.raw_hits, c->char_dim);
      ctx.raw_hits.clear();
      WordNgramScan(ctx.text, ctx.spans, *wp,
                    [&](uint32_t id) { ctx.raw_hits.push_back(id); });
      c->word_features.AssignCounts(ctx.raw_hits, c->word_dim);
      total_nnz += c->char_features.nnz() + c->word_features.nnz();
      total_dim += c->char_dim + c->word_dim;
      cases.push_back(std::move(c));
    }
  }
  const std::vector<size_t> sa_seq =
      ZipfModelSequence(cases.size(), static_cast<size_t>(score_reps), zipf,
                        4002);

  std::vector<float> dense_scratch;
  const int64_t t_dense0 = NowNs();
  for (const size_t m : sa_seq) {
    const SaScoreCase& c = *cases[m];
    const std::vector<float>& w = c.linear->weights;
    // The dense data path: materialize the concatenated dense feature
    // vector, then a full-width scalar dot.
    dense_scratch.assign(c.char_dim + c.word_dim, 0.0f);
    const uint32_t* ids = c.char_features.ids();
    const float* vals = c.char_features.values();
    for (size_t i = 0; i < c.char_features.nnz(); ++i) {
      dense_scratch[ids[i]] += vals[i];
    }
    ids = c.word_features.ids();
    vals = c.word_features.values();
    for (size_t i = 0; i < c.word_features.nnz(); ++i) {
      dense_scratch[ids[i] + c.char_dim] += vals[i];
    }
    const size_t n = std::min(dense_scratch.size(), w.size());
    g_sink += Sigmoid(internal::DotF32Scalar(dense_scratch.data(), w.data(), n) +
                      c.linear->bias);
  }
  const double dense_ns =
      static_cast<double>(NowNs() - t_dense0) / sa_seq.size();

  const int64_t t_sparse0 = NowNs();
  for (const size_t m : sa_seq) {
    const SaScoreCase& c = *cases[m];
    const std::vector<float>& w = c.linear->weights;
    // The sparse-fused path (StageKind::kSparseLinear): per-source sparse
    // dots at the concat-layout offsets, no materialization.
    double acc = SparseDot(c.char_features.ids(), c.char_features.values(),
                           c.char_features.nnz(), w.data(), c.char_dim);
    const size_t word_avail = w.size() > c.char_dim ? w.size() - c.char_dim : 0;
    acc += SparseDot(c.word_features.ids(), c.word_features.values(),
                     c.word_features.nnz(), w.data() + c.char_dim,
                     std::min(c.word_dim, word_avail));
    g_sink += Sigmoid(static_cast<float>(acc) + c.linear->bias);
  }
  const double sparse_ns =
      static_cast<double>(NowNs() - t_sparse0) / sa_seq.size();

  const double density =
      static_cast<double>(total_nnz) / static_cast<double>(total_dim);
  const double sparse_speedup = dense_ns / sparse_ns;
  std::printf(
      "\n  SA linear scoring (Zipf(%.2f) over %zu plans, %zu scores, "
      "density %.2f%%):\n"
      "  %-24s %10.0f ns/score\n  %-24s %10.0f ns/score  (%.2fx)\n",
      zipf, cases.size(), sa_seq.size(), density * 100.0, "dense-scalar",
      dense_ns, "sparse-fused", sparse_ns, sparse_speedup);
  json.Add("sa_density", density);
  json.Add("sa_dense_ns", dense_ns);
  json.Add("sa_sparse_fused_ns", sparse_ns);
  json.Add("sa_sparse_speedup", sparse_speedup);
  pass &= ShapeCheck(
      sparse_speedup >= 3.0,
      "sparse-fused linear scoring is >= 3x dense-scalar on SA plans "
      "(the featurizers emit almost-all-zero vectors)");

  // -------------------------------------------------------------------
  // 2. Dense kernels: forced-scalar vs dispatched backend (informational).
  {
    const auto* pca = NodeParams<PcaParams>(ac.pipelines()[0], OpKind::kPca);
    const auto* km = NodeParams<KMeansParams>(ac.pipelines()[0], OpKind::kKMeans);
    const size_t big_out = 64, big_in = 256;
    std::vector<float> big_matrix(big_out * big_in);
    std::vector<float> big_in_v(big_in);
    Rng krng(4003);
    for (auto& v : big_matrix) v = static_cast<float>(krng.Normal());
    for (auto& v : big_in_v) v = static_cast<float>(krng.Normal());
    std::vector<float> in_v(pca->in_dim);
    for (auto& v : in_v) v = static_cast<float>(krng.Normal());
    std::vector<float> out_v(big_out);

    const auto time_kernels = [&](int reps) {
      const int64_t t0 = NowNs();
      for (int r = 0; r < reps; ++r) {
        MatVec(pca->matrix.data(), pca->out_dim, pca->in_dim, in_v.data(),
               out_v.data());
        KMeansTransform(km->centroids.data(), km->k, km->dim, in_v.data(),
                        out_v.data());
        MatVec(big_matrix.data(), big_out, big_in, big_in_v.data(),
               out_v.data());
        g_sink += out_v[0];
      }
      return static_cast<double>(NowNs() - t0) / reps;
    };
    const int reps = score_reps * 4;
    SetForceScalarKernels(true);
    const double scalar_ns = time_kernels(reps);
    SetForceScalarKernels(false);
    const double dispatched_ns = time_kernels(reps);
    const double simd_speedup = scalar_ns / dispatched_ns;
    std::printf(
        "\n  dense kernels (PCA %ux%u + KMeans %ux%u + MatVec %zux%zu):\n"
        "  %-24s %10.0f ns/iter\n  %-24s %10.0f ns/iter  (%.2fx, backend "
        "%s)\n",
        pca->out_dim, pca->in_dim, km->k, km->dim, big_out, big_in,
        "forced-scalar", scalar_ns, "dispatched", dispatched_ns, simd_speedup,
        KernelBackendName(backend));
    if (backend == KernelBackend::kScalar) {
      std::printf(
          "  NOTE: scalar backend active (build without PRETZEL_AVX2 or CPU "
          "without AVX2);\n  dispatched == scalar, ratio is noise around "
          "1.0.\n");
    }
    json.Add("kernel_scalar_ns", scalar_ns);
    json.Add("kernel_dispatched_ns", dispatched_ns);
    json.Add("kernel_simd_speedup", simd_speedup);
  }

  // -------------------------------------------------------------------
  // 3. Batch-major dense stages: per-item matvecs vs one SoA kernel.
  {
    const auto* pca = NodeParams<PcaParams>(ac.pipelines()[0], OpKind::kPca);
    const auto* km = NodeParams<KMeansParams>(ac.pipelines()[0], OpKind::kKMeans);
    const size_t in_dim = std::max<size_t>(pca->in_dim, km->dim);
    Rng brng(4004);
    double best_ratio = 0.0;
    std::printf("\n  batch-major dense stages (PCA %ux%u + KMeans %ux%u):\n",
                pca->out_dim, pca->in_dim, km->k, km->dim);
    std::printf("  %-8s %16s %16s %10s\n", "B", "per-item ns/rec",
                "batch-major ns/rec", "speedup");
    for (const size_t B : {size_t{1}, size_t{8}, size_t{16}, size_t{32},
                           size_t{64}}) {
      std::vector<float> rows(B * in_dim);
      for (auto& v : rows) v = static_cast<float>(brng.Normal());
      std::vector<float> soa(in_dim * B);
      std::vector<float> out_item(pca->out_dim + km->k);
      std::vector<float> out_soa((pca->out_dim + km->k) * B);

      // Min of 3 timed passes per side: a preemption on this (possibly
      // 1-core) host inflates one pass, not the min.
      const auto time_item = [&] {
        const int64_t t0 = NowNs();
        for (int r = 0; r < batch_reps; ++r) {
          for (size_t b = 0; b < B; ++b) {
            const float* row = rows.data() + b * in_dim;
            MatVec(pca->matrix.data(), pca->out_dim, pca->in_dim, row,
                   out_item.data());
            KMeansTransform(km->centroids.data(), km->k, km->dim, row,
                            out_item.data() + pca->out_dim);
          }
          g_sink += out_item[0];
        }
        return static_cast<double>(NowNs() - t0) / (batch_reps * B);
      };
      const auto time_batch = [&] {
        const int64_t t0 = NowNs();
        for (int r = 0; r < batch_reps; ++r) {
          TransposeToSoA(rows.data(), B, in_dim, in_dim, soa.data());
          MatVecBatchSoA(pca->matrix.data(), pca->out_dim, pca->in_dim,
                         soa.data(), B, out_soa.data());
          KMeansTransformBatchSoA(km->centroids.data(), km->k, km->dim,
                                  soa.data(), B,
                                  out_soa.data() + pca->out_dim * B);
          g_sink += out_soa[0];
        }
        return static_cast<double>(NowNs() - t0) / (batch_reps * B);
      };
      double item_ns = time_item();
      double batch_ns = time_batch();
      for (int pass = 1; pass < 3; ++pass) {
        item_ns = std::min(item_ns, time_item());
        batch_ns = std::min(batch_ns, time_batch());
      }
      const double ratio = item_ns / batch_ns;
      if (B >= 8) {
        best_ratio = std::max(best_ratio, ratio);
      }
      std::printf("  %-8zu %16.1f %16.1f %9.2fx\n", B, item_ns, batch_ns,
                  ratio);
      json.Add("batch_b" + std::to_string(B) + "_item_ns", item_ns);
      json.Add("batch_b" + std::to_string(B) + "_soa_ns", batch_ns);
      json.Add("batch_b" + std::to_string(B) + "_speedup", ratio);
    }
    const bool parallel_host = std::thread::hardware_concurrency() >= 2;
    json.Add("batch_best_speedup", best_ratio);
    json.Add("parallel_host", parallel_host ? "true" : "false");
    if (parallel_host) {
      pass &= ShapeCheck(
          best_ratio >= 1.5,
          "batch-major dense stages are >= 1.5x per-item at some B >= 8 "
          "(one blocked matrix-matrix kernel replaces B matvecs)");
    } else {
      std::printf(
          "  NOTE: 1-core host; timeslicing noise compresses micro-kernel "
          "margins, so\n  the 1.5x claim degrades to a no-regression "
          "guard.\n");
      pass &= ShapeCheck(
          best_ratio >= 0.9,
          "[1-core fallback] batch-major dense stages are no slower than "
          "per-item at B >= 8");
    }
  }

  // -------------------------------------------------------------------
  // 4. End-to-end: ExecutePlanBatch vs a per-record ExecutePlan loop on an
  // AC plan, and a Zipf SA+AC ExecutePlan mix (informational context for
  // the stage-level numbers above).
  {
    ObjectStore store;
    FlourContext flour(&store);
    VectorPool pool;
    ExecContext ctx(&pool);
    auto program = flour.FromPipeline(ac.pipelines()[0]);
    auto plan = Plan(*program, "ac0");
    const size_t B = 32;
    std::vector<std::string> inputs;
    Rng erng(4005);
    for (size_t b = 0; b < B; ++b) {
      inputs.push_back(ac.SampleInput(erng));
    }
    std::vector<float> scores(B);
    // Warm.
    (void)ExecutePlanBatch(**plan, inputs.data(), B, scores.data(), ctx,
                           nullptr);
    const int64_t t_loop0 = NowNs();
    for (int r = 0; r < batch_reps; ++r) {
      for (size_t b = 0; b < B; ++b) {
        auto res = ExecutePlan(**plan, inputs[b], ctx);
        scores[b] = res.ok() ? *res : 0.0f;
      }
      g_sink += scores[0];
    }
    const double loop_ns =
        static_cast<double>(NowNs() - t_loop0) / (batch_reps * B);
    const int64_t t_batch0 = NowNs();
    for (int r = 0; r < batch_reps; ++r) {
      (void)ExecutePlanBatch(**plan, inputs.data(), B, scores.data(), ctx,
                             nullptr);
      g_sink += scores[0];
    }
    const double e2e_batch_ns =
        static_cast<double>(NowNs() - t_batch0) / (batch_reps * B);
    std::printf(
        "\n  AC end-to-end at B=%zu: per-record %.0f ns, batch-major %.0f ns "
        "(%.2fx; trees + parse are per-record either way)\n",
        B, loop_ns, e2e_batch_ns, loop_ns / e2e_batch_ns);
    json.Add("ac_e2e_item_ns", loop_ns);
    json.Add("ac_e2e_batch_ns", e2e_batch_ns);
    json.Add("ac_e2e_speedup", loop_ns / e2e_batch_ns);

    // Zipf SA+AC mix through the full fused plans.
    std::vector<std::shared_ptr<ModelPlan>> plans;
    std::vector<std::string> mix_inputs;
    for (const auto& spec : sa.pipelines()) {
      auto p = flour.FromPipeline(spec);
      plans.push_back(*Plan(*p, spec.name));
      mix_inputs.push_back(sa.SampleInput(erng));
    }
    for (const auto& spec : ac.pipelines()) {
      auto p = flour.FromPipeline(spec);
      plans.push_back(*Plan(*p, spec.name));
      mix_inputs.push_back(ac.SampleInput(erng));
    }
    const std::vector<size_t> mix_seq = ZipfModelSequence(
        plans.size(), static_cast<size_t>(score_reps), zipf, 4006);
    for (size_t m = 0; m < plans.size(); ++m) {  // Warm every plan.
      (void)ExecutePlan(*plans[m], mix_inputs[m], ctx);
    }
    const int64_t t_mix0 = NowNs();
    for (const size_t m : mix_seq) {
      auto res = ExecutePlan(*plans[m], mix_inputs[m], ctx);
      g_sink += res.ok() ? *res : 0.0;
    }
    const double mix_ns = static_cast<double>(NowNs() - t_mix0) / mix_seq.size();
    std::printf("  Zipf(%.2f) SA+AC fused-plan mix: %.0f ns/prediction\n",
                zipf, mix_ns);
    json.Add("zipf_mix_ns", mix_ns);
  }

  // -------------------------------------------------------------------
  // 5. AC trees over distinct records (informational).
  {
    const size_t records = 512;
    struct Trees {
      const Forest* featurizer;
      const Forest* final_forest;
      size_t tree_off;
    };
    std::vector<Trees> trees;
    for (const auto& spec : ac.pipelines()) {
      const Forest& tf =
          NodeParams<TreeFeaturizerParams>(spec, OpKind::kTreeFeaturizer)
              ->forest;
      const Forest& ff =
          NodeParams<ForestParams>(spec, OpKind::kForest)->forest;
      trees.push_back({&tf, &ff, ff.num_features - tf.roots.size()});
    }
    const size_t in_dim = trees[0].featurizer->num_features;
    const size_t feature_dim = trees[0].final_forest->num_features;
    Rng frng(4007);
    std::vector<float> inputs(records * in_dim);
    std::vector<float> features(records * feature_dim);
    for (auto& v : inputs) v = static_cast<float>(frng.Normal());
    for (auto& v : features) v = static_cast<float>(frng.Normal());
    const auto time_trees = [&] {
      const int64_t t0 = NowNs();
      for (size_t r = 0; r < records; ++r) {
        const Trees& t = trees[r % trees.size()];
        float* feats = features.data() + r * feature_dim;
        t.featurizer->EvalTrees(inputs.data() + r * in_dim, feats + t.tree_off);
        g_sink += t.final_forest->Eval(feats);
      }
      return static_cast<double>(NowNs() - t0) / records;
    };
    double forest_ns = time_trees();
    for (int pass = 1; pass < 3; ++pass) {
      forest_ns = std::min(forest_ns, time_trees());
    }
    std::printf(
        "\n  AC trees (%zu x depth %zu featurizer + %zu x depth %zu final, "
        "%zu distinct records): %.0f ns/record\n",
        trees[0].featurizer->roots.size(), trees[0].featurizer->depth,
        trees[0].final_forest->roots.size(), trees[0].final_forest->depth,
        records, forest_ns);
    json.Add("ac_forest_ns", forest_ns);
  }

  json.Add("shape_check", pass ? "PASS" : "FAIL");
  json.Write();
  std::printf("\n  (sink %g)\n", g_sink);
  (void)pass;  // Shape results are the printed contract; exit 0 like the suite.
  return 0;
}
