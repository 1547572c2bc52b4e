// AnnoyIndex: approximate max-inner-product store built from a forest of
// random-projection trees — the same structure as Spotify's Annoy (the store
// the paper uses, §2.2). Vectors are unit-norm, so angular and inner-product
// orderings coincide.
//
// Build: each tree recursively splits its subset by the perpendicular
// bisector hyperplane of two randomly sampled points (Annoy's "two means"
// split). Query: a best-first traversal over all trees ranked by hyperplane
// margin collects >= search_k candidates, which are then scored exactly.
#ifndef SEESAW_STORE_ANNOY_INDEX_H_
#define SEESAW_STORE_ANNOY_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/statusor.h"
#include "store/vector_store.h"

namespace seesaw::store {

/// Build/query knobs for AnnoyIndex.
struct AnnoyOptions {
  /// Number of trees in the forest. More trees -> higher recall, more memory.
  int num_trees = 16;
  /// Maximum number of items per leaf.
  int leaf_size = 32;
  /// Number of candidates inspected per query; 0 means num_trees * k * 8.
  size_t search_k = 0;
  /// RNG seed for tree construction.
  uint64_t seed = 7;
};

/// Approximate MIPS index over a fixed table of vectors.
class AnnoyIndex : public VectorStore {
 public:
  /// Builds the forest over `vectors` (takes ownership).
  static StatusOr<AnnoyIndex> Build(const AnnoyOptions& options,
                                    linalg::MatrixF vectors);

  size_t size() const override { return vectors_.rows(); }
  size_t dim() const override { return vectors_.cols(); }

  /// Tree traversals are independent per query, so the batch simply fans
  /// queries out across the pool (results independent of the pool by
  /// construction). Cancellation is checkpointed per query (each query is
  /// one independent forest traversal — the natural unit here) and twice
  /// inside it (see QueryOne).
  std::vector<std::vector<SearchResult>> TopKBatch(
      std::span<const linalg::VecSpan> queries, size_t k, const SeenSet& seen,
      ThreadPool* pool, const ScanControl& control) const override;
  using VectorStore::TopKBatch;

  linalg::VecSpan GetVector(uint32_t id) const override {
    return vectors_.Row(id);
  }

  /// Total internal + leaf nodes across all trees (memory diagnostics).
  size_t num_nodes() const { return nodes_.size(); }

  const AnnoyOptions& options() const { return options_; }

 private:
  /// Tree node. Leaf nodes hold a range into leaf_items_; internal nodes hold
  /// a split hyperplane and two children.
  struct Node {
    // Internal-node fields.
    int32_t left = -1;
    int32_t right = -1;
    float bias = 0.0f;
    uint32_t hyperplane_offset = 0;  // into hyperplanes_
    // Leaf fields (leaf iff left == -1).
    uint32_t items_begin = 0;
    uint32_t items_end = 0;
  };

  AnnoyIndex(AnnoyOptions options, linalg::MatrixF vectors)
      : options_(options), vectors_(std::move(vectors)) {}

  /// One query's lookup: best-first forest traversal, then exact scoring of
  /// the candidates. Cancellation is checkpointed before the traversal and
  /// before the candidate-scoring pass.
  std::vector<SearchResult> QueryOne(linalg::VecSpan query, size_t k,
                                     const SeenSet& seen,
                                     const ScanControl& control) const;

  /// Recursively builds the subtree over items[begin, end); returns node id.
  int32_t BuildSubtree(std::vector<uint32_t>& items, size_t begin, size_t end,
                       int depth, Rng& rng);

  AnnoyOptions options_;
  linalg::MatrixF vectors_;
  std::vector<Node> nodes_;
  std::vector<int32_t> roots_;
  std::vector<uint32_t> leaf_items_;
  std::vector<float> hyperplanes_;  // flattened dim-sized normals
};

}  // namespace seesaw::store

#endif  // SEESAW_STORE_ANNOY_INDEX_H_
