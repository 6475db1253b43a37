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
//  - A Zipf SA+AC mix through the full fused plans. Informational.
//
//  - AC trees: the featurizer forest plus the final forest per record over
//    >= 512 distinct dense records (distinct, so no record's tree paths are
//    still warm in the branch predictor or caches from its last visit).
//    Informational: ac_forest_ns. The mix above times text records, where
//    parsing hides the trees.
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
              "Sparse-fused vs dense scoring, fused-plan mix, AC trees "
              "(Zipf over SA+AC plans)");

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
  const double zipf =
      static_cast<double>(flags.GetInt("zipf_x100", 120)) / 100.0;

  BenchJson json("datapath");
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
    g_sink += Sigmoid(DotF32(dense_scratch.data(), w.data(), n) + c.linear->bias);
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
  // 2. A Zipf SA+AC mix through the full fused plans (informational).
  {
    ObjectStore store;
    FlourContext flour(&store);
    VectorPool pool;
    ExecContext ctx(&pool);
    Rng erng(4005);
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
    std::printf("\n  Zipf(%.2f) SA+AC fused-plan mix: %.0f ns/prediction\n",
                zipf, mix_ns);
    json.Add("zipf_mix_ns", mix_ns);
  }

  // -------------------------------------------------------------------
  // 3. AC trees over distinct records (informational).
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
