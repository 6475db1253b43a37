// Numeric/text kernels shared by PRETZEL plans and the black-box baseline.
// Both execution models call the same functions, so figure comparisons
// isolate the execution-model overheads (boxing, per-op buffers, container
// hops) rather than kernel quality differences.
#ifndef PRETZEL_OPS_KERNELS_H_
#define PRETZEL_OPS_KERNELS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace pretzel {

// ---------------------------------------------------------------------------
// HashDict: open-addressed (linear probe) hash table from a 64-bit content
// hash to a dense feature id. This is the shape of the paper's n-gram
// dictionaries: immutable after the off-line phase, lookup-only on the data
// path. Deserialization rebuilds the probe table entry by entry, which is
// exactly the cold-start cost the Object Store lets PRETZEL skip.
class HashDict {
 public:
  HashDict() = default;

  void Reserve(size_t expected_entries);
  // Returns false if the key was already present.
  bool Insert(uint64_t key, uint32_t id);
  // Returns -1 on miss, else the id.
  int64_t Find(uint64_t key) const {
    if (slots_.empty()) {
      return -1;
    }
    size_t i = Mix(key) & mask_;
    while (true) {
      const Slot& s = slots_[i];
      if (s.key == key) {
        return s.id;
      }
      if (s.key == kEmpty) {
        return -1;
      }
      i = (i + 1) & mask_;
    }
  }

  // Lookup prefetch hint: pulls the key's home cache line toward L1 so a
  // scan can overlap the table-miss latency of lookup k+1 with the probe of
  // lookup k (the dictionaries are far larger than L2 at paper scale).
  void Prefetch(uint64_t key) const {
    if (!slots_.empty()) {
      __builtin_prefetch(&slots_[Mix(key) & mask_], /*rw=*/0, /*locality=*/1);
    }
  }

  size_t size() const { return size_; }
  size_t HeapBytes() const { return slots_.capacity() * sizeof(Slot); }

  // Content enumeration (serialization + checksums). Order is table order,
  // deterministic for identical insert sequences.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmpty) {
        fn(s.key, s.id);
      }
    }
  }

 private:
  struct Slot {
    uint64_t key = kEmpty;
    uint32_t id = 0;
  };
  static constexpr uint64_t kEmpty = 0;

  static uint64_t Mix(uint64_t k) { return SplitMix64(k); }

  // Probe-and-write without the growth check; the rehash loop uses this so
  // rebuilding a table never re-enters the grow path per element.
  bool InsertNoGrow(uint64_t key, uint32_t id);
  void Grow();

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

// Keys are raw content hashes; 0 is reserved as the empty slot marker.
inline uint64_t ContentHash64(const char* data, size_t len, uint64_t seed = 0) {
  uint64_t h = SplitMix64(seed ^ (0x9ddfea08eb382d69ull + len));
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t chunk;
    __builtin_memcpy(&chunk, data + i, 8);
    h = SplitMix64(h ^ chunk);
  }
  uint64_t tail = 0;
  for (size_t j = 0; i + j < len; ++j) {
    tail |= static_cast<uint64_t>(static_cast<unsigned char>(data[i + j])) << (8 * j);
  }
  h = SplitMix64(h ^ tail);
  return h == 0 ? 1 : h;
}

// ---------------------------------------------------------------------------
// Tokenization. Lowercases into `text` and emits [begin, end) spans of the
// alphanumeric runs. Outputs are caller-provided so hot paths can reuse
// buffers.

struct TokenizerParams;  // Defined in params.h; the kernel only needs the tag.

void TokenizeText(std::string_view input, std::string* text,
                  std::vector<std::pair<uint32_t, uint32_t>>* spans);

// ---------------------------------------------------------------------------
// N-gram scans. Both walk the tokenized text and invoke `fn(id)` for every
// dictionary hit; weight accumulation or sparse materialization is the
// caller's choice (fused vs. operator-at-a-time execution).

struct NgramScanConfig {
  uint32_t min_n = 3;  // Char n-gram orders scanned, inclusive.
  uint32_t max_n = 4;
  uint32_t word_orders = 2;  // Word n-gram orders: unigrams + bigrams.
};

// Hash of text[begin, begin+n) — char n-gram key.
inline uint64_t CharNgramKey(const std::string& text, size_t begin, size_t n) {
  return ContentHash64(text.data() + begin, n, /*seed=*/n);
}

// Hash of one token span — word key; bigram keys combine two word keys.
inline uint64_t WordKey(const std::string& text, uint32_t begin, uint32_t end) {
  return ContentHash64(text.data() + begin, end - begin, /*seed=*/0x77);
}
inline uint64_t WordBigramKey(uint64_t a, uint64_t b) {
  const uint64_t h = SplitMix64(a ^ SplitMix64(b));
  return h == 0 ? 1 : h;
}

// Both scans hash every candidate key for one position up front, prefetch
// each key's probe line (HashDict::Prefetch), then resolve the lookups —
// the table misses of a position's candidates overlap instead of
// serializing. Keys are hashed exactly once either way.
template <typename Fn>
void ScanCharNgrams(const std::string& text, const HashDict& dict,
                    const NgramScanConfig& cfg, Fn&& fn) {
  const size_t len = text.size();
  uint64_t keys[16];  // Prefetch window; wider order ranges run in blocks.
  for (size_t begin = 0; begin < len; ++begin) {
    const size_t max_n = std::min<size_t>(cfg.max_n, len - begin);
    if (cfg.min_n > max_n) {
      continue;
    }
    for (size_t n0 = cfg.min_n; n0 <= max_n; n0 += 16) {
      const size_t orders = std::min<size_t>(max_n - n0 + 1, 16);
      for (size_t o = 0; o < orders; ++o) {
        keys[o] = CharNgramKey(text, begin, n0 + o);
        dict.Prefetch(keys[o]);
      }
      for (size_t o = 0; o < orders; ++o) {
        const int64_t id = dict.Find(keys[o]);
        if (id >= 0) {
          fn(static_cast<uint32_t>(id));
        }
      }
    }
  }
}

template <typename Fn>
void ScanWordNgrams(const std::string& text,
                    const std::vector<std::pair<uint32_t, uint32_t>>& spans,
                    const HashDict& dict, const NgramScanConfig& cfg, Fn&& fn) {
  uint64_t prev_key = 0;
  for (size_t t = 0; t < spans.size(); ++t) {
    const uint64_t key = WordKey(text, spans[t].first, spans[t].second);
    dict.Prefetch(key);
    const uint64_t bigram_key =
        cfg.word_orders >= 2 && t > 0 ? WordBigramKey(prev_key, key) : 0;
    if (bigram_key != 0) {
      dict.Prefetch(bigram_key);
    }
    int64_t id = dict.Find(key);
    if (id >= 0) {
      fn(static_cast<uint32_t>(id));
    }
    if (bigram_key != 0) {
      id = dict.Find(bigram_key);
      if (id >= 0) {
        fn(static_cast<uint32_t>(id));
      }
    }
    prev_key = key;
  }
}

// ---------------------------------------------------------------------------
// Dense kernels: one portable implementation (4x-unrolled independent
// accumulators, FMA-friendly and auto-vectorizable). A dense record runs
// through these whether it arrives alone or in a batch, so it scores the
// same bits on every path.

// Dot product over n floats.
float DotF32(const float* a, const float* b, size_t n);

// out[r] = sum_c matrix[r * in_dim + c] * in[c]; matrix is row-major.
void MatVec(const float* matrix, size_t out_dim, size_t in_dim, const float* in,
            float* out);

// out[k] = -||in - centroid_k||^2 (negated squared distance, so larger is
// closer — usable directly as a feature).
void KMeansTransform(const float* centroids, size_t k, size_t dim,
                     const float* in, float* out);

// Structure-of-arrays forms: `in_soa` holds `in_dim` rows of `batch` lanes
// (in_soa[c * batch + b] = record b, dim c) and outputs use the same layout
// (out_soa[r * batch + b]). Each lane is gathered, run through MatVec /
// KMeansTransform and scattered back, so every lane is bit-equal to the
// per-record kernel on that record.
void MatVecBatchSoA(const float* matrix, size_t out_dim, size_t in_dim,
                    const float* in_soa, size_t batch, float* out_soa);
void KMeansTransformBatchSoA(const float* centroids, size_t k, size_t dim,
                             const float* in_soa, size_t batch, float* out_soa);

// Sparse dot product against a dense weight array; ids at or beyond w_dim
// contribute nothing. Double accumulation (matches the Linear stages).
double SparseDot(const uint32_t* ids, const float* vals, size_t nnz,
                 const float* weights, size_t w_dim);

float Sigmoid(float x);

// Parses "f0,f1,...,fn" into out; returns the number of parsed values.
size_t ParseDenseInput(std::string_view input, std::vector<float>* out);

// ---------------------------------------------------------------------------
// Decision forests. One flat array of 16-byte nodes; an internal node's
// children come after it. A leaf's two children are the leaf itself, its
// threshold holds the leaf value and its feature is 0, so a walk needs no
// leaf test: each tree takes exactly `depth` steps of
// n = child[!(x[feature] <= threshold)] — a select, not a branch — and a
// tree shallower than the forest idles on its leaf. NaN compares false and
// goes right. Every walk reads features[0, num_features).

struct TreeNode {
  int32_t feature = 0;
  float threshold = 0.0f;  // Leaf: the leaf value.
  int32_t child[2] = {0, 0};  // [0]: x <= threshold; [1]: otherwise.
};

struct Forest {
  // Trees walked in lockstep by one kernel call, so their dependent load
  // chains overlap. Chosen by measurement on the AC forests (48 trees of
  // depth 7, 24 of depth 5): 8, 12 and 16 within noise of each other, 24+
  // ~25% slower, 4 ~50% slower.
  static constexpr size_t kTreeGroup = 16;

  std::vector<int32_t> roots;
  std::vector<TreeNode> nodes;
  size_t num_features = 0;
  size_t depth = 0;  // Edges on the longest root-to-leaf path of any tree.

  // out[t] = tree t's leaf value for every tree t.
  void EvalTrees(const float* features, float* out) const {
    for (size_t t = 0; t < roots.size(); t += kTreeGroup) {
      Walk<kTreeGroup>(t, std::min(kTreeGroup, roots.size() - t), features,
                       out + t);
    }
  }

  float EvalTree(size_t tree, const float* features) const {
    float value;
    Walk<1>(tree, 1, features, &value);
    return value;
  }

  // Sum of the tree values in tree order.
  float Eval(const float* features) const {
    float values[kTreeGroup];
    float sum = 0.0f;
    for (size_t t = 0; t < roots.size(); t += kTreeGroup) {
      const size_t count = std::min(kTreeGroup, roots.size() - t);
      Walk<kTreeGroup>(t, count, features, values);
      for (size_t i = 0; i < count; ++i) {
        sum += values[i];
      }
    }
    return sum;
  }
  float Eval(const std::vector<float>& features) const {
    return Eval(features.data());
  }

  size_t HeapBytes() const {
    return roots.capacity() * sizeof(int32_t) +
           nodes.capacity() * sizeof(TreeNode);
  }

 private:
  // The one tree walk. Writes the values of trees [first, first + count),
  // 1 <= count <= kLanes, walking kLanes trees in lockstep: lanes past
  // `count` repeat the last tree, so the lane loop has a constant trip
  // count and unrolls with the lanes in registers.
  template <size_t kLanes>
  void Walk(size_t first, size_t count, const float* features,
            float* out) const {
    const TreeNode* base = nodes.data();
    const TreeNode* n[kLanes];
    for (size_t i = 0; i < kLanes; ++i) {
      n[i] = base + roots[first + std::min(i, count - 1)];
    }
    for (size_t step = 0; step < depth; ++step) {
      for (size_t i = 0; i < kLanes; ++i) {
        const TreeNode& node = *n[i];
        n[i] = base + node.child[!(features[node.feature] <= node.threshold)];
      }
    }
    for (size_t i = 0; i < count; ++i) {
      out[i] = n[i]->threshold;
    }
  }
};

// Full binary trees of the given depth (features >= 1) with random split
// features/thresholds and N(0, 1) scaled leaf values, laid out pre-order.
Forest BuildRandomForest(size_t trees, size_t features, size_t depth, Rng& rng);

}  // namespace pretzel

#endif  // PRETZEL_OPS_KERNELS_H_
