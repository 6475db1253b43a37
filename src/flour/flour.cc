#include "src/flour/flour.h"

namespace pretzel {

namespace {

// Output width of one featurizer branch (0 for non-feature-producing ops).
size_t BranchDim(const OpParams& params) {
  switch (params.kind()) {
    case OpKind::kCharNgram:
      return static_cast<const CharNgramParams&>(params).dict.size();
    case OpKind::kWordNgram:
      return static_cast<const WordNgramParams&>(params).dict.size();
    case OpKind::kPca:
      return static_cast<const PcaParams&>(params).out_dim;
    case OpKind::kKMeans:
      return static_cast<const KMeansParams&>(params).k;
    case OpKind::kTreeFeaturizer:
      return static_cast<const TreeFeaturizerParams&>(params)
          .forest.roots.size();
    default:
      return 0;
  }
}

// A linear model narrower than the concat space reads its missing weights
// as zero. Widened once here, so the plans' per-source weight views always
// cover their slices and the scan loops need no bound check.
std::shared_ptr<const OpParams> WidenLinear(
    std::shared_ptr<const OpParams> params, size_t concat_dim) {
  const auto& linear = static_cast<const LinearBinaryParams&>(*params);
  if (linear.weights.size() >= concat_dim) {
    return params;
  }
  auto wide = std::make_shared<LinearBinaryParams>(linear);
  wide->weights.resize(concat_dim, 0.0f);
  wide->Finalize();
  return wide;
}

}  // namespace

std::unique_ptr<LogicalProgram> FlourContext::FromPipeline(
    const PipelineSpec& spec) {
  auto program = std::make_unique<LogicalProgram>();
  program->source_name = spec.name;
  program->store = store_;
  // Concat layout: featurizer branches in pipeline (== concat) order, with
  // their offsets in the joined feature space.
  size_t offset = 0;
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    const OpParams& params = *spec.nodes[i].params;
    const size_t dim = BranchDim(params);
    if (dim == 0) {
      continue;
    }
    ConcatSource source;
    source.kind = params.kind();
    source.op_index = i;
    source.dim = dim;
    source.offset = offset;
    program->concat_layout.push_back(source);
    offset += dim;
  }
  program->concat_dim = offset;
  program->ops.reserve(spec.nodes.size());
  for (const auto& node : spec.nodes) {
    std::shared_ptr<const OpParams> params = node.params;
    if (params->kind() == OpKind::kLinearBinary) {
      params = WidenLinear(std::move(params), program->concat_dim);
    }
    LogicalOp op;
    op.params = store_ != nullptr ? store_->Intern(std::move(params)) : params;
    program->ops.push_back(std::move(op));
  }
  return program;
}

}  // namespace pretzel
