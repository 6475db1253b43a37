#include "src/blackbox/blackbox_model.h"

#include <unordered_map>

#include "src/common/clock.h"
#include "src/ops/kernels.h"

namespace pretzel {

BlackBoxModel::BlackBoxModel(PipelineSpec spec, const BlackBoxOptions& options)
    : spec_(std::move(spec)), options_(options) {
  op_times_ns_.assign(spec_.nodes.size(), 0);
}

Result<std::unique_ptr<BlackBoxModel>> BlackBoxModel::Load(
    const std::string& image, const BlackBoxOptions& options) {
  auto spec = LoadModelImage(image);  // Always a full deserialization.
  if (!spec.ok()) {
    return spec.status();
  }
  return std::unique_ptr<BlackBoxModel>(
      new BlackBoxModel(std::move(*spec), options));
}

Result<float> BlackBoxModel::Predict(const std::string& input) {
  if (spec_.nodes.empty()) {
    return Status::InvalidArgument("empty pipeline");
  }
  return spec_.nodes.front().params->kind() == OpKind::kTokenizer
             ? PredictText(input)
             : PredictDense(input);
}

namespace {

// ML.Net-style sparse feature value: parallel index/count arrays (VBuffer).
struct SparseValue {
  std::vector<uint32_t> ids;
  std::vector<float> values;
};

// ML.Net's NgramExtractingTransformer aggregates per-row ngram COUNTS
// through a dictionary (FindOrAdd) before emitting the sparse vector; the
// per-row hash map is part of the baseline's boxed execution cost.
template <typename Scan>
std::unique_ptr<SparseValue> AggregateCounts(Scan&& scan) {
  auto out = std::make_unique<SparseValue>();
  std::unordered_map<uint32_t, size_t> slot_of_id;
  scan([&](uint32_t id) {
    auto [it, inserted] = slot_of_id.try_emplace(id, out->ids.size());
    if (inserted) {
      out->ids.push_back(id);
      out->values.push_back(1.0f);
    } else {
      out->values[it->second] += 1.0f;
    }
  });
  return out;
}

}  // namespace

// Both families run node-at-a-time: every operator allocates its boxed
// output value, the next operator consumes it — the per-op buffer traffic
// and Concat materialization PRETZEL's fused stages avoid.
Result<float> BlackBoxModel::PredictText(const std::string& input) {
  std::unique_ptr<std::string> text;
  std::unique_ptr<std::vector<std::pair<uint32_t, uint32_t>>> spans;
  // ML.Net's tokenizer materializes each token as its own boxed string.
  std::unique_ptr<std::vector<std::string>> tokens;
  std::unique_ptr<SparseValue> char_features;
  std::unique_ptr<SparseValue> word_features;
  std::unique_ptr<SparseValue> concat_features;
  const CharNgramParams* char_params = nullptr;
  float score = 0.0f;

  for (size_t i = 0; i < spec_.nodes.size(); ++i) {
    const OpParams& params = *spec_.nodes[i].params;
    const int64_t t0 = options_.record_op_breakdown ? NowNs() : 0;
    switch (params.kind()) {
      case OpKind::kTokenizer: {
        text = std::make_unique<std::string>();
        spans = std::make_unique<std::vector<std::pair<uint32_t, uint32_t>>>();
        TokenizeText(input, text.get(), spans.get());
        tokens = std::make_unique<std::vector<std::string>>();
        tokens->reserve(spans->size());
        for (const auto& [begin, end] : *spans) {
          tokens->emplace_back(text->substr(begin, end - begin));
        }
        break;
      }
      case OpKind::kCharNgram: {
        char_params = static_cast<const CharNgramParams*>(&params);
        char_features = AggregateCounts([&](auto&& emit) {
          ScanCharNgrams(*text, char_params->dict, char_params->scan, emit);
        });
        break;
      }
      case OpKind::kWordNgram: {
        const auto& word_params = static_cast<const WordNgramParams&>(params);
        // Consumes the boxed token strings (hashing each token value), with
        // the same hit sequence ScanWordNgrams produces from spans.
        word_features = AggregateCounts([&](auto&& emit) {
          uint64_t prev_key = 0;
          for (size_t t = 0; t < tokens->size(); ++t) {
            const std::string& token = (*tokens)[t];
            const uint64_t key =
                ContentHash64(token.data(), token.size(), /*seed=*/0x77);
            int64_t id = word_params.dict.Find(key);
            if (id >= 0) {
              emit(static_cast<uint32_t>(id));
            }
            if (word_params.scan.word_orders >= 2 && t > 0) {
              id = word_params.dict.Find(WordBigramKey(prev_key, key));
              if (id >= 0) {
                emit(static_cast<uint32_t>(id));
              }
            }
            prev_key = key;
          }
        });
        break;
      }
      case OpKind::kConcat: {
        // Copies both parallel arrays into the combined feature space.
        concat_features = std::make_unique<SparseValue>();
        concat_features->ids = char_features->ids;
        concat_features->values = char_features->values;
        const uint32_t offset = static_cast<uint32_t>(
            char_params != nullptr ? char_params->dict.size() : 0);
        for (size_t w = 0; w < word_features->ids.size(); ++w) {
          concat_features->ids.push_back(word_features->ids[w] + offset);
          concat_features->values.push_back(word_features->values[w]);
        }
        break;
      }
      case OpKind::kLinearBinary: {
        const auto& linear = static_cast<const LinearBinaryParams&>(params);
        double acc = 0.0;
        for (size_t f = 0; f < concat_features->ids.size(); ++f) {
          const uint32_t id = concat_features->ids[f];
          if (id < linear.weights.size()) {
            acc += static_cast<double>(linear.weights[id]) *
                   concat_features->values[f];
          }
        }
        score = Sigmoid(static_cast<float>(acc) + linear.bias);
        break;
      }
      default:
        return Status::InvalidArgument("unexpected op in text pipeline");
    }
    if (options_.record_op_breakdown) {
      op_times_ns_[i] += NowNs() - t0;
    }
  }
  return score;
}

Result<float> BlackBoxModel::PredictDense(const std::string& input) {
  std::unique_ptr<std::vector<float>> dense_in;
  std::unique_ptr<std::vector<float>> pca_out;
  std::unique_ptr<std::vector<float>> kmeans_out;
  std::unique_ptr<std::vector<float>> tree_out;
  std::unique_ptr<std::vector<float>> features;
  float score = 0.0f;

  const auto parse_once = [&]() -> bool {
    if (dense_in == nullptr) {
      dense_in = std::make_unique<std::vector<float>>();
      ParseDenseInput(input, dense_in.get());
    }
    return !dense_in->empty();
  };

  for (size_t i = 0; i < spec_.nodes.size(); ++i) {
    const OpParams& params = *spec_.nodes[i].params;
    const int64_t t0 = options_.record_op_breakdown ? NowNs() : 0;
    switch (params.kind()) {
      case OpKind::kPca: {
        const auto& pca = static_cast<const PcaParams&>(params);
        if (!parse_once() || dense_in->size() < pca.in_dim) {
          return Status::InvalidArgument("dense input narrower than pipeline");
        }
        pca_out = std::make_unique<std::vector<float>>(pca.out_dim);
        MatVec(pca.matrix.data(), pca.out_dim, pca.in_dim, dense_in->data(),
               pca_out->data());
        break;
      }
      case OpKind::kKMeans: {
        const auto& km = static_cast<const KMeansParams&>(params);
        if (!parse_once() || dense_in->size() < km.dim) {
          return Status::InvalidArgument("dense input narrower than pipeline");
        }
        kmeans_out = std::make_unique<std::vector<float>>(km.k);
        KMeansTransform(km.centroids.data(), km.k, km.dim, dense_in->data(),
                        kmeans_out->data());
        break;
      }
      case OpKind::kTreeFeaturizer: {
        const auto& tf = static_cast<const TreeFeaturizerParams&>(params);
        if (!parse_once() || dense_in->size() < tf.forest.num_features) {
          return Status::InvalidArgument("dense input narrower than pipeline");
        }
        tree_out = std::make_unique<std::vector<float>>(tf.forest.roots.size());
        tf.forest.EvalTrees(dense_in->data(), tree_out->data());
        break;
      }
      case OpKind::kConcat: {
        features = std::make_unique<std::vector<float>>();
        if (pca_out != nullptr) {
          features->insert(features->end(), pca_out->begin(), pca_out->end());
        }
        if (kmeans_out != nullptr) {
          features->insert(features->end(), kmeans_out->begin(), kmeans_out->end());
        }
        if (tree_out != nullptr) {
          features->insert(features->end(), tree_out->begin(), tree_out->end());
        }
        break;
      }
      case OpKind::kForest: {
        const auto& forest = static_cast<const ForestParams&>(params);
        score = forest.forest.Eval(features->data());
        break;
      }
      default:
        return Status::InvalidArgument("unexpected op in dense pipeline");
    }
    if (options_.record_op_breakdown) {
      op_times_ns_[i] += NowNs() - t0;
    }
  }
  return score;
}

}  // namespace pretzel
