#include "src/runtime/exec_context.h"

#include <algorithm>

#include "src/common/fault.h"
#include "src/common/serialize.h"
#include "src/ops/kernels.h"
#include "src/oven/model_plan.h"
#include "src/oven/subplan_cache.h"

namespace pretzel {

VectorPool::VectorPool(const Options& options) : options_(options) {
  for (uint32_t i = 0; i < kSlots; ++i) {
    empty_.Push(i);
  }
}

std::vector<float> VectorPool::AcquireFloats(size_t size) {
  if (options_.pooling_enabled) {
    uint32_t slot;
    // Chaos site: the free list reads as empty — the acquire takes the
    // allocation miss path, as if the pool were exhausted under burst load.
    if (!PRETZEL_FAULT_POINT("runtime.pool_exhausted", 0) &&
        free_.TryPop(&slot)) {
      std::vector<float> v = std::move(slots_[slot]);
      empty_.Push(slot);
      v.resize(size);
      hits_.fetch_add(1, std::memory_order_relaxed);
      return v;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  return std::vector<float>(size);
}

void VectorPool::ReleaseFloats(std::vector<float>&& v) {
  if (!options_.pooling_enabled) {
    return;  // Dropped; the next acquire allocates.
  }
  released_.fetch_add(1, std::memory_order_relaxed);
  if (options_.max_cached_floats > 0 &&
      v.capacity() > options_.max_cached_floats) {
    // Capacity cap: don't let one oversized prediction pin its high-water
    // mark in the pool forever.
    dropped_oversized_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  uint32_t slot;
  if (!empty_.TryPop(&slot)) {
    dropped_full_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  slots_[slot] = std::move(v);
  free_.Push(slot);  // Release-CAS publishes the slot write.
}

VectorPool::Stats VectorPool::GetStats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.released = released_.load(std::memory_order_relaxed);
  s.dropped_oversized = dropped_oversized_.load(std::memory_order_relaxed);
  s.dropped_full = dropped_full_.load(std::memory_order_relaxed);
  return s;
}

void ExecContext::ReleaseScratch() {
  std::string().swap(text);
  std::vector<std::pair<uint32_t, uint32_t>>().swap(spans);
  std::vector<uint32_t>().swap(cache_ids);
  std::vector<uint32_t>().swap(raw_hits);
  char_features.ReleaseStorage();
  word_features.ReleaseStorage();
  concat_features.ReleaseStorage();
  dense_features.ReleaseStorage();
  std::vector<float>().swap(dense_in);
  std::vector<float>().swap(pca_out);
  std::vector<float>().swap(kmeans_out);
  std::vector<float>().swap(tree_out);
  std::vector<uint32_t>().swap(sparse_ids);
  std::vector<float>().swap(sparse_vals);
}

ExecContextPool::ExecContextPool(VectorPool* pool, bool reuse_enabled)
    : pool_(pool), reuse_enabled_(reuse_enabled) {
  for (uint32_t i = 0; i < kSlots; ++i) {
    empty_.Push(i);
  }
}

std::unique_ptr<ExecContext> ExecContextPool::Acquire() {
  if (reuse_enabled_) {
    uint32_t slot;
    if (free_.TryPop(&slot)) {
      std::unique_ptr<ExecContext> ctx = std::move(slots_[slot]);
      empty_.Push(slot);
      hits_.fetch_add(1, std::memory_order_relaxed);
      return ctx;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  return std::make_unique<ExecContext>(pool_);
}

void ExecContextPool::Release(std::unique_ptr<ExecContext> ctx) {
  if (!reuse_enabled_ || ctx == nullptr) {
    return;  // Destroyed: the next acquire builds a cold context.
  }
  uint32_t slot;
  if (!empty_.TryPop(&slot)) {
    return;  // Pool full: drop the context.
  }
  slots_[slot] = std::move(ctx);
  free_.Push(slot);  // Release-CAS publishes the slot write.
}

namespace {

// Cache keys tie a materialized scan to (input content, dictionary version).
inline uint64_t InputHash(std::string_view input) {
  return ContentHash64(input.data(), input.size(), 0xF00D);
}

// Pre-featurized sparse wire record on a text-family plan: the record's ids
// live in the plan's concat space (char ids first, word ids offset by
// char_dim), so scoring is two sparse dots against the plan's per-source
// weight views plus the bias — featurization (tokenize + scans) is skipped
// entirely. Every optimizer config of a text plan computes
// sigmoid(w . x + bias) over that space, so one scoring path serves all of
// them, validated, never converted.
Result<float> ExecuteSparseWireRecord(const ModelPlan::BoundText& b,
                                      std::string_view input,
                                      ExecContext& ctx) {
  BinaryRecordView view;
  Status status = ParseBinaryRecord(input, &view);
  if (!status.ok()) {
    return status;
  }
  if (!view.valid) {
    return Status::InvalidArgument("binary record marked invalid");
  }
  if (view.format != BinaryRecordFormat::kSparse) {
    return Status::InvalidArgument("dense binary record on text plan");
  }
  if (view.dim != b.char_dim + b.word_dim) {
    return Status::InvalidArgument("sparse record dim != plan concat space");
  }
  const uint32_t* ids = view.ids;
  const float* vals = view.values;
  if (!view.aligned) {
    // Odd-offset slice of a batch buffer: stage the payload once.
    ctx.sparse_ids.resize(view.nnz);
    ctx.sparse_vals.resize(view.nnz);
    CopySparsePayload(view, ctx.sparse_ids.data(), ctx.sparse_vals.data());
    ids = ctx.sparse_ids.data();
    vals = ctx.sparse_vals.data();
  }
  // Ids are strictly ascending (wire invariant), so the char/word boundary
  // is one partition point.
  const uint32_t char_dim = static_cast<uint32_t>(b.char_dim);
  const size_t split =
      std::lower_bound(ids, ids + view.nnz, char_dim) - ids;
  double acc = SparseDot(ids, vals, split, b.char_weights(), b.char_dim);
  const size_t word_n = view.nnz - split;
  if (word_n > 0) {
    // Rebase word ids to the word-weight slice's origin.
    ctx.sparse_ids.resize(word_n);
    for (size_t j = 0; j < word_n; ++j) {
      ctx.sparse_ids[j] = ids[split + j] - char_dim;
    }
    acc += SparseDot(ctx.sparse_ids.data(), vals + split, word_n,
                     b.word_weights(), b.word_dim);
  }
  return Sigmoid(static_cast<float>(acc) + b.bias);
}

Result<float> ExecuteText(const ModelPlan& plan, std::string_view input,
                          ExecContext& ctx) {
  const ModelPlan::BoundText& b = plan.bound_text();
  if (IsBinaryRecord(input)) {
    return ExecuteSparseWireRecord(b, input, ctx);
  }
  SubPlanCache* cache = ctx.subplan_cache;
  const uint64_t input_hash = cache != nullptr ? InputHash(input) : 0;

  bool tokenized = false;
  const auto tokenize_once = [&] {
    if (!tokenized) {
      TokenizeText(input, &ctx.text, &ctx.spans);
      tokenized = true;
    }
  };

  // Runs one scan branch. With the weights pushed, returns the partial dot
  // product; otherwise materializes raw hit ids into *raw_out (the staging
  // buffer a FeatureVector coalesces into counts). Either way the sub-plan
  // cache (when attached) short-circuits tokenize + scan for (input,
  // dictionary) pairs another pipeline already materialized.
  const auto run_branch = [&](bool is_char, bool pushed, double* acc,
                              std::vector<uint32_t>* raw_out) {
    const uint64_t key =
        is_char ? input_hash ^ b.char_ngram->ContentChecksum()
                : input_hash ^ b.word_ngram->ContentChecksum();
    const float* weights = is_char ? b.char_weights() : b.word_weights();
    if (pushed && cache == nullptr) {
      // Fully fused: accumulate during the scan, no ids materialized.
      tokenize_once();
      if (is_char) {
        ScanCharNgrams(ctx.text, b.char_ngram->dict, b.char_ngram->scan,
                       [&](uint32_t id) { *acc += weights[id]; });
      } else {
        ScanWordNgrams(ctx.text, ctx.spans, b.word_ngram->dict,
                       b.word_ngram->scan,
                       [&](uint32_t id) { *acc += weights[id]; });
      }
      return;
    }
    // A hit copies the cached scan into the same buffer a miss scans into.
    std::vector<uint32_t>* ids = pushed ? &ctx.cache_ids : raw_out;
    if (cache == nullptr || !cache->Lookup(key, ids)) {
      tokenize_once();
      ids->clear();
      if (is_char) {
        ScanCharNgrams(ctx.text, b.char_ngram->dict, b.char_ngram->scan,
                       [&](uint32_t id) { ids->push_back(id); });
      } else {
        ScanWordNgrams(ctx.text, ctx.spans, b.word_ngram->dict,
                       b.word_ngram->scan,
                       [&](uint32_t id) { ids->push_back(id); });
      }
      if (cache != nullptr) {
        cache->Insert(key, *ids);
      }
    }
    if (pushed) {
      for (const uint32_t id : *ids) {
        *acc += weights[id];
      }
    }
  };

  // The unpushed operator contract: scan, then coalesce the raw hits into
  // the branch's sparse count FeatureVector.
  const auto featurize_branch = [&](bool is_char, FeatureVector& out) {
    run_branch(is_char, /*pushed=*/false, nullptr, &ctx.raw_hits);
    out.AssignCounts(ctx.raw_hits, is_char ? b.char_dim : b.word_dim);
  };

  double acc = 0.0;
  float score = 0.0f;
  for (const PlanStage& stage : plan.stages()) {
    switch (stage.kind) {
      case StageKind::kTokenize:
        tokenize_once();
        break;
      case StageKind::kCharScan:
        if (stage.weights_pushed) {
          run_branch(/*is_char=*/true, /*pushed=*/true, &acc, &ctx.raw_hits);
        } else {
          featurize_branch(/*is_char=*/true, ctx.char_features);
        }
        break;
      case StageKind::kWordScan:
        if (stage.weights_pushed) {
          run_branch(/*is_char=*/false, /*pushed=*/true, &acc, &ctx.raw_hits);
        } else {
          featurize_branch(/*is_char=*/false, ctx.word_features);
        }
        if (stage.inlined_bias) {
          score = Sigmoid(static_cast<float>(acc) + b.bias);
        }
        break;
      case StageKind::kFusedSaScore:
        run_branch(/*is_char=*/true, /*pushed=*/true, &acc, &ctx.raw_hits);
        run_branch(/*is_char=*/false, /*pushed=*/true, &acc, &ctx.raw_hits);
        if (stage.inlined_bias) {
          score = Sigmoid(static_cast<float>(acc) + b.bias);
        }
        break;
      case StageKind::kFusedFeaturize:
        featurize_branch(/*is_char=*/true, ctx.char_features);
        featurize_branch(/*is_char=*/false, ctx.word_features);
        break;
      case StageKind::kConcat:
        // Materialize the concatenated sparse feature vector (the copy the
        // linear-push and sparse-fuse rewrites both remove).
        ctx.concat_features.AssignConcat(ctx.char_features, ctx.word_features,
                                         static_cast<uint32_t>(b.char_dim));
        break;
      case StageKind::kLinear: {
        const std::vector<float>& w = b.linear->weights;
        acc += ctx.concat_features.Dot(w.data(), w.size());
        score = Sigmoid(static_cast<float>(acc) + b.bias);
        break;
      }
      case StageKind::kSparseLinear:
        // Concat + Linear fused: per-source sparse dots at the Flour layout
        // offsets — the concatenated vector never exists.
        acc += ctx.char_features.Dot(b.char_weights(), b.char_dim);
        acc += ctx.word_features.Dot(b.word_weights(), b.word_dim);
        score = Sigmoid(static_cast<float>(acc) + b.bias);
        break;
      case StageKind::kBias:
        score = Sigmoid(static_cast<float>(acc) + b.bias);
        break;
      default:
        return Status::Error("unexpected stage in text plan");
    }
  }
  return score;
}

Result<float> ExecuteDense(const ModelPlan& plan, std::string_view input,
                           ExecContext& ctx) {
  const ModelPlan::BoundDense& b = plan.bound_dense();
  // The featurizer input span. Text records parse into ctx.dense_in; an
  // aligned binary record aliases its wire payload — validated, never
  // converted — and only a misaligned one stages through ctx.dense_in.
  const float* dense = nullptr;
  size_t dense_n = 0;
  float score = 0.0f;
  for (const PlanStage& stage : plan.stages()) {
    switch (stage.kind) {
      case StageKind::kParse:
        if (IsBinaryRecord(input)) {
          BinaryRecordView view;
          Status status = ParseBinaryRecord(input, &view);
          if (!status.ok()) {
            return status;
          }
          if (!view.valid) {
            return Status::InvalidArgument("binary record marked invalid");
          }
          if (view.format != BinaryRecordFormat::kDense) {
            return Status::InvalidArgument(
                "sparse binary record on dense plan");
          }
          if (view.aligned) {
            dense = view.values;
          } else {
            ctx.dense_in.resize(view.dim);
            CopyDenseValues(view, ctx.dense_in.data());
            dense = ctx.dense_in.data();
          }
          dense_n = view.dim;
        } else {
          ParseDenseInput(input, &ctx.dense_in);
          dense = ctx.dense_in.data();
          dense_n = ctx.dense_in.size();
        }
        // Every featurizer branch reads the parsed vector; validate against
        // the widest consumer once, up front.
        if (dense_n < b.pca->in_dim || dense_n < b.kmeans->dim ||
            dense_n < b.tree_feat->forest.num_features) {
          return Status::InvalidArgument("dense input narrower than pipeline");
        }
        break;
      case StageKind::kPca:
        ctx.pca_out.resize(b.pca->out_dim);
        MatVec(b.pca->matrix.data(), b.pca->out_dim, b.pca->in_dim,
               dense, ctx.pca_out.data());
        break;
      case StageKind::kKMeans:
        ctx.kmeans_out.resize(b.kmeans->k);
        KMeansTransform(b.kmeans->centroids.data(), b.kmeans->k, b.kmeans->dim,
                        dense, ctx.kmeans_out.data());
        break;
      case StageKind::kTreeFeaturize: {
        const Forest& forest = b.tree_feat->forest;
        ctx.tree_out.resize(forest.roots.size());
        forest.EvalTrees(dense, ctx.tree_out.data());
        break;
      }
      case StageKind::kConcat: {
        // The branch slices cover every slot; no zero-fill needed.
        float* out =
            ctx.dense_features.MutableDense(b.feature_dim, /*zero_fill=*/false);
        std::copy(ctx.pca_out.begin(), ctx.pca_out.end(), out + b.pca_off);
        std::copy(ctx.kmeans_out.begin(), ctx.kmeans_out.end(),
                  out + b.kmeans_off);
        std::copy(ctx.tree_out.begin(), ctx.tree_out.end(), out + b.tree_off);
        break;
      }
      case StageKind::kForest:
        score = b.bound_final.Eval(ctx.dense_features.dense_data());
        break;
      case StageKind::kFusedAcFeaturize: {
        // Branches write disjoint slices of one buffer: no Concat copy (and
        // the slices cover every slot, so no zero-fill either).
        float* out =
            ctx.dense_features.MutableDense(b.feature_dim, /*zero_fill=*/false);
        MatVec(b.pca->matrix.data(), b.pca->out_dim, b.pca->in_dim,
               dense, out + b.pca_off);
        KMeansTransform(b.kmeans->centroids.data(), b.kmeans->k, b.kmeans->dim,
                        dense, out + b.kmeans_off);
        b.tree_feat->forest.EvalTrees(dense, out + b.tree_off);
        if (stage.inlined_forest) {
          score = b.bound_final.Eval(ctx.dense_features.dense_data());
        }
        break;
      }
      default:
        return Status::Error("unexpected stage in dense plan");
    }
  }
  return score;
}

}  // namespace

Result<float> ExecutePlan(const ModelPlan& plan, std::string_view input,
                          ExecContext& ctx) {
  // Chaos site: a kernel running far off its expected cost (cold params,
  // denormals, thermal throttle) — the per-record stall every deadline and
  // health check must survive.
  PRETZEL_FAULT_STALL("ops.slow_kernel", 0);
  Result<float> result = plan.family() == ModelPlan::Family::kText
                             ? ExecuteText(plan, input, ctx)
                             : ExecuteDense(plan, input, ctx);
  if (ctx.pool != nullptr && !ctx.pool->pooling_enabled()) {
    ctx.ReleaseScratch();
  }
  return result;
}

size_t ExecutePlanBatch(const ModelPlan& plan, const std::string_view* inputs,
                        size_t n, float* scores, ExecContext& ctx,
                        Status* first_error, uint8_t* failed_flags) {
  size_t failed = 0;
  for (size_t i = 0; i < n; ++i) {
    Result<float> r = ExecutePlan(plan, inputs[i], ctx);
    if (failed_flags != nullptr) {
      failed_flags[i] = r.ok() ? 0 : 1;
    }
    if (r.ok()) {
      scores[i] = *r;
      continue;
    }
    scores[i] = 0.0f;
    if (failed++ == 0 && first_error != nullptr) {
      *first_error = r.status();
    }
  }
  return failed;
}

size_t ExecutePlanBatch(const ModelPlan& plan, const std::string* inputs,
                        size_t n, float* scores, ExecContext& ctx,
                        Status* first_error, uint8_t* failed_flags) {
  std::vector<std::string_view> views(inputs, inputs + n);
  return ExecutePlanBatch(plan, views.data(), n, scores, ctx, first_error,
                          failed_flags);
}

}  // namespace pretzel
