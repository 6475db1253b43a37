#include "src/oven/model_plan.h"

#include "src/common/fault.h"

namespace pretzel {

const char* StageKindName(StageKind kind) {
  switch (kind) {
    case StageKind::kTokenize:
      return "Tokenize";
    case StageKind::kCharScan:
      return "CharScan";
    case StageKind::kWordScan:
      return "WordScan";
    case StageKind::kConcat:
      return "Concat";
    case StageKind::kLinear:
      return "Linear";
    case StageKind::kBias:
      return "Bias";
    case StageKind::kFusedFeaturize:
      return "FusedFeaturize";
    case StageKind::kFusedSaScore:
      return "FusedSaScore";
    case StageKind::kSparseLinear:
      return "SparseLinear";
    case StageKind::kParse:
      return "Parse";
    case StageKind::kPca:
      return "Pca";
    case StageKind::kKMeans:
      return "KMeans";
    case StageKind::kTreeFeaturize:
      return "TreeFeaturize";
    case StageKind::kForest:
      return "Forest";
    case StageKind::kFusedAcFeaturize:
      return "FusedAcFeaturize";
  }
  return "Unknown";
}

size_t ModelPlan::ParameterBytes() const {
  size_t total = 0;
  for (const auto& op : ops_) {
    total += op.params->HeapBytes();
  }
  return total;
}

size_t ModelPlan::OverheadBytes() const {
  return 256 + stages_.capacity() * sizeof(PlanStage) +
         ops_.capacity() * sizeof(LogicalOp);
}

namespace {

template <typename T>
const T* FindParams(const std::vector<LogicalOp>& ops, OpKind kind) {
  for (const auto& op : ops) {
    if (op.params->kind() == kind) {
      return static_cast<const T*>(op.params.get());
    }
  }
  return nullptr;
}

bool HasKind(const std::vector<LogicalOp>& ops, OpKind kind) {
  for (const auto& op : ops) {
    if (op.params->kind() == kind) {
      return true;
    }
  }
  return false;
}

}  // namespace

Result<std::shared_ptr<ModelPlan>> CompilePlan(const LogicalProgram& program,
                                               const std::string& name,
                                               const CompileOptions& options) {
  if (program.ops.empty()) {
    return Status::InvalidArgument("empty program");
  }
  // Chaos site: a compile that fails mid-deploy. The lifecycle invariant it
  // exists to prove: a failed canary compile surfaces as a Deploy error and
  // the live version keeps serving — it must never tear down or stall the
  // active plan.
  if (PRETZEL_FAULT_POINT("oven.compile_fail", static_cast<int64_t>(0))) {
    return Status::Error("injected compile failure: " + name);
  }
  auto plan = std::make_shared<ModelPlan>();
  plan->name_ = name;
  plan->ops_ = program.ops;
  const auto& ops = plan->ops_;
  const OptimizerOptions& opt = options.optimizer;

  if (ops.front().params->kind() == OpKind::kTokenizer) {
    // --- Text family: Tokenizer -> CharNgram -> WordNgram -> Concat ->
    // LinearBinary. ---
    plan->family_ = ModelPlan::Family::kText;
    auto& bound = plan->text_;
    bound.tokenizer = FindParams<TokenizerParams>(ops, OpKind::kTokenizer);
    bound.char_ngram = FindParams<CharNgramParams>(ops, OpKind::kCharNgram);
    bound.word_ngram = FindParams<WordNgramParams>(ops, OpKind::kWordNgram);
    bound.linear = FindParams<LinearBinaryParams>(ops, OpKind::kLinearBinary);
    if (bound.char_ngram == nullptr || bound.word_ngram == nullptr ||
        bound.linear == nullptr) {
      return Status::InvalidArgument("unsupported text pipeline shape: " + name);
    }
    bound.bias = bound.linear->bias;
    // Branch dimensions come from Flour's concat-layout metadata; fall back
    // to the raw params for programs lowered without it.
    bound.char_dim = bound.char_ngram->dict.size();
    bound.word_dim = bound.word_ngram->dict.size();
    for (const ConcatSource& source : program.concat_layout) {
      if (source.kind == OpKind::kCharNgram) {
        bound.char_dim = source.dim;
      } else if (source.kind == OpKind::kWordNgram) {
        bound.word_dim = source.dim;
      }
    }
    // The weight views cover the whole concat space (Flour widens a
    // narrower linear model at lowering).
    if (bound.linear->weights.size() < bound.char_dim + bound.word_dim) {
      return Status::InvalidArgument(
          "linear model narrower than the concat space: " + name);
    }

    const bool push = opt.enable_linear_push && HasKind(ops, OpKind::kConcat);
    auto& stages = plan->stages_;
    if (push) {
      // Concat and the model stage disappear; scans accumulate the dot
      // product through the split weights; a trailing Bias stage finishes
      // the score.
      stages = {{StageKind::kTokenize},
                {StageKind::kCharScan, /*weights_pushed=*/true},
                {StageKind::kWordScan, /*weights_pushed=*/true},
                {StageKind::kBias}};
      if (opt.enable_stage_merge) {
        stages = {{StageKind::kFusedSaScore}, {StageKind::kBias}};
      }
      if (opt.enable_inline && stages.size() > 1 &&
          stages.back().kind == StageKind::kBias) {
        stages.pop_back();
        stages.back().inlined_bias = true;
      }
    } else if (opt.enable_sparse_fuse && HasKind(ops, OpKind::kConcat)) {
      // Sparse fuse: the branches still materialize their sparse count
      // vectors (the operator contract), but Concat + Linear collapse into
      // one stage of per-source sparse dots at the Flour layout offsets —
      // the concatenated vector never exists.
      stages = {{StageKind::kTokenize},
                {StageKind::kCharScan},
                {StageKind::kWordScan},
                {StageKind::kSparseLinear}};
      if (opt.enable_stage_merge) {
        stages = {{StageKind::kFusedFeaturize}, {StageKind::kSparseLinear}};
      }
    } else {
      stages = {{StageKind::kTokenize},
                {StageKind::kCharScan},
                {StageKind::kWordScan},
                {StageKind::kConcat},
                {StageKind::kLinear}};
      if (opt.enable_stage_merge) {
        stages = {{StageKind::kFusedFeaturize},
                  {StageKind::kConcat},
                  {StageKind::kLinear}};
      }
    }
  } else {
    // --- Dense family: Pca | KMeans | TreeFeaturizer -> Concat -> Forest. ---
    plan->family_ = ModelPlan::Family::kDense;
    auto& bound = plan->dense_;
    bound.pca = FindParams<PcaParams>(ops, OpKind::kPca);
    bound.kmeans = FindParams<KMeansParams>(ops, OpKind::kKMeans);
    bound.tree_feat = FindParams<TreeFeaturizerParams>(ops, OpKind::kTreeFeaturizer);
    bound.final_forest = FindParams<ForestParams>(ops, OpKind::kForest);
    if (bound.pca == nullptr || bound.kmeans == nullptr ||
        bound.tree_feat == nullptr || bound.final_forest == nullptr) {
      return Status::InvalidArgument("unsupported dense pipeline shape: " + name);
    }
    bound.bound_final.forest = &bound.final_forest->forest;
    // Feature-space offsets come from Flour's concat layout (pipeline
    // order); fall back to the canonical Pca|KMeans|Tree order otherwise.
    bound.pca_off = 0;
    bound.kmeans_off = bound.pca->out_dim;
    bound.tree_off = bound.kmeans_off + bound.kmeans->k;
    bound.feature_dim = bound.tree_off + bound.tree_feat->forest.roots.size();
    for (const ConcatSource& source : program.concat_layout) {
      if (source.kind == OpKind::kPca) {
        bound.pca_off = source.offset;
      } else if (source.kind == OpKind::kKMeans) {
        bound.kmeans_off = source.offset;
      } else if (source.kind == OpKind::kTreeFeaturizer) {
        bound.tree_off = source.offset;
      }
    }
    if (program.concat_dim > 0) {
      bound.feature_dim = program.concat_dim;
    }

    auto& stages = plan->stages_;
    stages = {{StageKind::kParse},   {StageKind::kPca},
              {StageKind::kKMeans},  {StageKind::kTreeFeaturize},
              {StageKind::kConcat},  {StageKind::kForest}};
    if (opt.enable_stage_merge) {
      // Featurizers write disjoint slices of one feature buffer, so the
      // Concat materialization disappears with the merge.
      stages = {{StageKind::kParse},
                {StageKind::kFusedAcFeaturize},
                {StageKind::kForest}};
      if (opt.enable_inline && stages.back().kind == StageKind::kForest) {
        stages.pop_back();
        stages.back().inlined_forest = true;
      }
    }
  }

  return plan;
}

}  // namespace pretzel
