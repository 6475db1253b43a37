#include "src/ops/params.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "src/common/serialize.h"

namespace pretzel {
namespace {

// Order-independent dictionary checksum: a deserialized dictionary may lay
// its probe table out differently, so the checksum must not depend on
// enumeration order.
uint64_t DictChecksum(const HashDict& dict, uint64_t seed) {
  uint64_t sum = SplitMix64(seed ^ dict.size());
  dict.ForEach([&sum](uint64_t key, uint32_t id) {
    sum += SplitMix64(key ^ (static_cast<uint64_t>(id) << 32));
  });
  return sum;
}

uint64_t BytesChecksum(const void* data, size_t len, uint64_t seed) {
  return ContentHash64(static_cast<const char*>(data), len, seed);
}

// Forest checksums and images take node bytes raw, so a node must have no
// padding: otherwise two identical forests could hash (and serialize)
// differently and defeat Object Store dedup. (has_unique_object_representations
// is false for any struct holding a float, so the check is by size.)
static_assert(std::is_trivially_copyable_v<TreeNode> &&
                  sizeof(TreeNode) == sizeof(TreeNode::feature) +
                                          sizeof(TreeNode::threshold) +
                                          sizeof(TreeNode::child),
              "TreeNode must have no padding bytes");

uint64_t ForestChecksum(const Forest& forest, uint64_t seed) {
  uint64_t h = SplitMix64(seed ^ forest.num_features);
  h = SplitMix64(h ^ BytesChecksum(forest.roots.data(),
                                   forest.roots.size() * sizeof(int32_t), 1));
  h = SplitMix64(h ^ BytesChecksum(forest.nodes.data(),
                                   forest.nodes.size() * sizeof(TreeNode), 2));
  return h;
}

void SerializeForest(const Forest& forest, std::string* out) {
  AppendPod(out, static_cast<uint64_t>(forest.num_features));
  AppendPod(out, static_cast<uint64_t>(forest.roots.size()));
  AppendPod(out, static_cast<uint64_t>(forest.nodes.size()));
  out->append(reinterpret_cast<const char*>(forest.roots.data()),
              forest.roots.size() * sizeof(int32_t));
  out->append(reinterpret_cast<const char*>(forest.nodes.data()),
              forest.nodes.size() * sizeof(TreeNode));
}

bool DeserializeForest(const char** p, const char* end, Forest* forest) {
  uint64_t features = 0, roots = 0, nodes = 0;
  if (!ReadPod(p, end, &features) || !ReadPod(p, end, &roots) ||
      !ReadPod(p, end, &nodes)) {
    return false;
  }
  // Node indices and features are int32; the byte counts below must not
  // wrap.
  const uint64_t avail = static_cast<uint64_t>(end - *p);
  if (roots > avail / sizeof(int32_t) || nodes > avail / sizeof(TreeNode) ||
      nodes > INT32_MAX) {
    return false;
  }
  const size_t roots_bytes = roots * sizeof(int32_t);
  const size_t nodes_bytes = nodes * sizeof(TreeNode);
  if (avail < roots_bytes + nodes_bytes) {
    return false;
  }
  forest->num_features = features;
  forest->roots.resize(roots);
  forest->nodes.resize(nodes);
  if (roots > 0) {  // An empty vector's data() may be null.
    std::memcpy(forest->roots.data(), *p, roots_bytes);
  }
  *p += roots_bytes;
  if (nodes > 0) {
    std::memcpy(forest->nodes.data(), *p, nodes_bytes);
  }
  *p += nodes_bytes;
  // Structural validation: a corrupted image must not be able to send a
  // walk out of bounds. Every node (leaves too) reads features[feature]; a
  // leaf points at itself twice; an internal node's children point forward,
  // so one reverse pass also finds each node's height, and the forest's
  // depth is its tallest root.
  const int64_t n = static_cast<int64_t>(nodes);
  for (const int32_t root : forest->roots) {
    if (root < 0 || root >= n) {
      return false;
    }
  }
  std::vector<uint32_t> height(nodes, 0);
  for (int64_t i = n - 1; i >= 0; --i) {
    const TreeNode& node = forest->nodes[i];
    if (node.feature < 0 || static_cast<uint64_t>(node.feature) >= features) {
      return false;
    }
    const int32_t c0 = node.child[0];
    const int32_t c1 = node.child[1];
    if (c0 == i && c1 == i) {
      continue;  // Leaf.
    }
    if (c0 <= i || c0 >= n || c1 <= i || c1 >= n) {
      return false;
    }
    height[i] = 1 + std::max(height[c0], height[c1]);
  }
  forest->depth = 0;
  for (const int32_t root : forest->roots) {
    forest->depth = std::max<size_t>(forest->depth, height[root]);
  }
  return true;
}

// Dictionary (de)serialization is deliberately entry-at-a-time: rebuilding
// the probe table is the dominant cost of loading an n-gram featurizer, the
// cost PRETZEL's Object Store skips for already-resident checksums.
void SerializeDict(const HashDict& dict, const NgramScanConfig& scan,
                   std::string* out) {
  AppendPod(out, scan.min_n);
  AppendPod(out, scan.max_n);
  AppendPod(out, scan.word_orders);
  AppendPod(out, static_cast<uint64_t>(dict.size()));
  dict.ForEach([out](uint64_t key, uint32_t id) {
    AppendPod(out, key);
    AppendPod(out, id);
  });
}

bool DeserializeDict(const char** p, const char* end, HashDict* dict,
                     NgramScanConfig* scan) {
  uint64_t count = 0;
  if (!ReadPod(p, end, &scan->min_n) || !ReadPod(p, end, &scan->max_n) ||
      !ReadPod(p, end, &scan->word_orders) || !ReadPod(p, end, &count)) {
    return false;
  }
  dict->Reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t key = 0;
    uint32_t id = 0;
    if (!ReadPod(p, end, &key) || !ReadPod(p, end, &id)) {
      return false;
    }
    dict->Insert(key, id);
  }
  return true;
}

void SerializeFloats(const std::vector<float>& v, std::string* out) {
  AppendPod(out, static_cast<uint64_t>(v.size()));
  out->append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(float));
}

bool DeserializeFloats(const char** p, const char* end, std::vector<float>* v) {
  uint64_t count = 0;
  if (!ReadPod(p, end, &count)) {
    return false;
  }
  const size_t bytes = count * sizeof(float);
  if (static_cast<size_t>(end - *p) < bytes) {
    return false;
  }
  v->resize(count);
  std::memcpy(v->data(), *p, bytes);
  *p += bytes;
  return true;
}

}  // namespace

TokenizerParams::TokenizerParams() : OpParams(OpKind::kTokenizer) {
  set_checksum(0x70726574544f4b31ull);  // All tokenizers share one version.
}
void TokenizerParams::Serialize(std::string* out) const {
  AppendPod(out, uint32_t{1});  // Format version.
}

void CharNgramParams::Finalize() { set_checksum(DictChecksum(dict, 0xC1)); }
void CharNgramParams::Serialize(std::string* out) const {
  SerializeDict(dict, scan, out);
}

void WordNgramParams::Finalize() { set_checksum(DictChecksum(dict, 0xC2)); }
void WordNgramParams::Serialize(std::string* out) const {
  SerializeDict(dict, scan, out);
}

ConcatParams::ConcatParams() : OpParams(OpKind::kConcat) {
  set_checksum(0x70726574434f4e31ull);
}
void ConcatParams::Serialize(std::string* out) const {
  AppendPod(out, uint32_t{1});
}

void LinearBinaryParams::Finalize() {
  uint64_t h = BytesChecksum(weights.data(), weights.size() * sizeof(float), 0xC3);
  h = SplitMix64(h ^ BytesChecksum(&bias, sizeof(bias), 0xC4));
  set_checksum(h);
}
void LinearBinaryParams::Serialize(std::string* out) const {
  AppendPod(out, bias);
  SerializeFloats(weights, out);
}

void PcaParams::Finalize() {
  uint64_t h = BytesChecksum(matrix.data(), matrix.size() * sizeof(float), 0xC5);
  h = SplitMix64(h ^ in_dim ^ (static_cast<uint64_t>(out_dim) << 32));
  set_checksum(h);
}
void PcaParams::Serialize(std::string* out) const {
  AppendPod(out, in_dim);
  AppendPod(out, out_dim);
  SerializeFloats(matrix, out);
}

void KMeansParams::Finalize() {
  uint64_t h =
      BytesChecksum(centroids.data(), centroids.size() * sizeof(float), 0xC6);
  h = SplitMix64(h ^ dim ^ (static_cast<uint64_t>(k) << 32));
  set_checksum(h);
}
void KMeansParams::Serialize(std::string* out) const {
  AppendPod(out, dim);
  AppendPod(out, k);
  SerializeFloats(centroids, out);
}

void TreeFeaturizerParams::Finalize() { set_checksum(ForestChecksum(forest, 0xC7)); }
void TreeFeaturizerParams::Serialize(std::string* out) const {
  SerializeForest(forest, out);
}

void ForestParams::Finalize() { set_checksum(ForestChecksum(forest, 0xC8)); }
void ForestParams::Serialize(std::string* out) const {
  SerializeForest(forest, out);
}

Result<std::shared_ptr<OpParams>> DeserializeOpParams(OpKind kind,
                                                      const char* data,
                                                      size_t len) {
  const char* p = data;
  const char* end = data + len;
  switch (kind) {
    case OpKind::kTokenizer: {
      return std::shared_ptr<OpParams>(std::make_shared<TokenizerParams>());
    }
    case OpKind::kConcat: {
      return std::shared_ptr<OpParams>(std::make_shared<ConcatParams>());
    }
    case OpKind::kCharNgram: {
      auto params = std::make_shared<CharNgramParams>();
      if (!DeserializeDict(&p, end, &params->dict, &params->scan)) {
        return Status::Error("bad CharNgram body");
      }
      params->Finalize();
      return std::shared_ptr<OpParams>(std::move(params));
    }
    case OpKind::kWordNgram: {
      auto params = std::make_shared<WordNgramParams>();
      if (!DeserializeDict(&p, end, &params->dict, &params->scan)) {
        return Status::Error("bad WordNgram body");
      }
      params->Finalize();
      return std::shared_ptr<OpParams>(std::move(params));
    }
    case OpKind::kLinearBinary: {
      auto params = std::make_shared<LinearBinaryParams>();
      if (!ReadPod(&p, end, &params->bias) ||
          !DeserializeFloats(&p, end, &params->weights)) {
        return Status::Error("bad LinearBinary body");
      }
      params->Finalize();
      return std::shared_ptr<OpParams>(std::move(params));
    }
    case OpKind::kPca: {
      auto params = std::make_shared<PcaParams>();
      if (!ReadPod(&p, end, &params->in_dim) ||
          !ReadPod(&p, end, &params->out_dim) ||
          !DeserializeFloats(&p, end, &params->matrix) ||
          params->matrix.size() !=
              static_cast<size_t>(params->in_dim) * params->out_dim) {
        return Status::Error("bad Pca body");
      }
      params->Finalize();
      return std::shared_ptr<OpParams>(std::move(params));
    }
    case OpKind::kKMeans: {
      auto params = std::make_shared<KMeansParams>();
      if (!ReadPod(&p, end, &params->dim) || !ReadPod(&p, end, &params->k) ||
          !DeserializeFloats(&p, end, &params->centroids) ||
          params->centroids.size() !=
              static_cast<size_t>(params->dim) * params->k) {
        return Status::Error("bad KMeans body");
      }
      params->Finalize();
      return std::shared_ptr<OpParams>(std::move(params));
    }
    case OpKind::kTreeFeaturizer: {
      auto params = std::make_shared<TreeFeaturizerParams>();
      if (!DeserializeForest(&p, end, &params->forest)) {
        return Status::Error("bad TreeFeaturizer body");
      }
      params->Finalize();
      return std::shared_ptr<OpParams>(std::move(params));
    }
    case OpKind::kForest: {
      auto params = std::make_shared<ForestParams>();
      if (!DeserializeForest(&p, end, &params->forest)) {
        return Status::Error("bad Forest body");
      }
      params->Finalize();
      return std::shared_ptr<OpParams>(std::move(params));
    }
  }
  return Status::Error("unknown op kind");
}

}  // namespace pretzel
