// Oven: compiles a Flour LogicalProgram into a ModelPlan — a short list of
// fused physical stages plus bound views of its interned parameters.
// Rewrite rules (Section 4.1.2 of the paper):
//  - linear push-through-Concat: the final linear model's weight vector is
//    split along the concat boundaries so each featurizer branch accumulates
//    its partial dot product directly — the Concat and model stages vanish
//    and no feature vector is ever materialized (the signature SA rewrite);
//  - stage merging: compatible adjacent/parallel operators collapse into
//    one fused stage (tokenize+scans for text, featurizers+concat for dense);
//  - singleton inlining: trailing trivial stages (bias/score) fold into
//    their predecessor.
// Binding is pointer setup: a plan's bound state points into the params its
// ops hold (interned in the Object Store), so a plan owns no parameter
// bytes — two plans of one program read one weight array and one forest.
#ifndef PRETZEL_OVEN_MODEL_PLAN_H_
#define PRETZEL_OVEN_MODEL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/flour/flour.h"
#include "src/runtime/exec_context.h"

namespace pretzel {

struct OptimizerOptions {
  bool enable_linear_push = true;
  bool enable_stage_merge = true;
  bool enable_inline = true;
  // Concat -> LinearBinary fusion for plans that keep materialized sparse
  // features (linear push disabled or inapplicable): the model stage dots
  // each branch's sparse vector against the weights at that branch's
  // per-source offset, so the concatenated vector is never materialized.
  bool enable_sparse_fuse = true;
};

struct CompileOptions {
  OptimizerOptions optimizer;
};

enum class StageKind {
  // Text family.
  kTokenize,
  kCharScan,
  kWordScan,
  kConcat,
  kLinear,
  kBias,
  kFusedFeaturize,  // Tokenize + both scans, materializing sparse ids.
  kFusedSaScore,    // Tokenize + both scans with pushed weights (no sparse vec).
  kSparseLinear,    // Concat + Linear fused: per-source sparse dots, no concat.
  // Dense family.
  kParse,
  kPca,
  kKMeans,
  kTreeFeaturize,
  kForest,
  kFusedAcFeaturize,  // All dense featurizers writing one buffer (Concat-free).
};

const char* StageKindName(StageKind kind);

struct PlanStage {
  StageKind kind;
  bool weights_pushed = false;  // Scan stages: accumulate dot instead of ids.
  bool inlined_bias = false;    // Bias/score folded into this stage.
  bool inlined_forest = false;  // Final forest folded into this stage.
};

class ModelPlan {
 public:
  const std::string& name() const { return name_; }
  size_t NumStages() const { return stages_.size(); }

  // Unique parameter bytes referenced by this plan (what a private copy
  // would cost; the Object Store makes much of it shared).
  size_t ParameterBytes() const;
  // Plan-private bytes: stage metadata and bound views, independent of the
  // size of the parameters.
  size_t OverheadBytes() const;

  // --- Implementation surface for the executor (src/runtime) and tests. ---

  enum class Family { kText, kDense };

  struct BoundText {
    const TokenizerParams* tokenizer = nullptr;
    const CharNgramParams* char_ngram = nullptr;
    const WordNgramParams* word_ngram = nullptr;
    const LinearBinaryParams* linear = nullptr;
    float bias = 0.0f;
    // Widths of the char and word slices of the concat space (Flour's
    // layout). The linear model covers both: Flour widens a narrower one
    // at lowering and CompilePlan rejects one it did not widen.
    size_t char_dim = 0;
    size_t word_dim = 0;

    // Per-source views of the interned linear weights: the char slice at 0
    // and the word slice at char_dim — what the linear-push and
    // sparse-fuse stages accumulate through.
    const float* char_weights() const { return linear->weights.data(); }
    const float* word_weights() const {
      return linear->weights.data() + char_dim;
    }
  };

  struct BoundDense {
    const PcaParams* pca = nullptr;
    const KMeansParams* kmeans = nullptr;
    const TreeFeaturizerParams* tree_feat = nullptr;
    const ForestParams* final_forest = nullptr;
    // The interned final forest, with Forest's evaluation entry points.
    struct ForestView {
      const Forest* forest = nullptr;
      float Eval(const float* features) const {
        return forest->Eval(features);
      }
      float Eval(const std::vector<float>& features) const {
        return forest->Eval(features);
      }
    };
    ForestView bound_final;
    size_t pca_off = 0, kmeans_off = 0, tree_off = 0;
    size_t feature_dim = 0;
  };

  Family family() const { return family_; }
  const std::vector<PlanStage>& stages() const { return stages_; }
  const std::vector<LogicalOp>& ops() const { return ops_; }
  const BoundText& bound_text() const { return text_; }
  const BoundDense& bound_dense() const { return dense_; }

  // A no-op: CompilePlan binds. Kept for callers that bind before timing.
  void EnsureBound() const {}

 private:
  friend Result<std::shared_ptr<ModelPlan>> CompilePlan(
      const LogicalProgram& program, const std::string& name,
      const CompileOptions& options);

  std::string name_;
  Family family_ = Family::kText;
  std::vector<LogicalOp> ops_;  // Keeps shared params alive.
  std::vector<PlanStage> stages_;
  BoundText text_;
  BoundDense dense_;
};

// Compiles with explicit options.
Result<std::shared_ptr<ModelPlan>> CompilePlan(const LogicalProgram& program,
                                               const std::string& name,
                                               const CompileOptions& options);

// Default compile: full optimizer.
inline Result<std::shared_ptr<ModelPlan>> Plan(const LogicalProgram& program,
                                               const std::string& name) {
  return CompilePlan(program, name, CompileOptions{});
}

}  // namespace pretzel

#endif  // PRETZEL_OVEN_MODEL_PLAN_H_
