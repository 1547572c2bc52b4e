// IvfFlatIndex: inverted-file flat index (FAISS "IVF,Flat" style) —
// k-means coarse quantizer + exhaustive scan of the closest `nprobe`
// inverted lists. The second ANN family alongside AnnoyIndex; §2.2 of the
// paper only requires an approximate MIPS store, and shipping two
// interchangeable backends exercises that abstraction.
#ifndef SEESAW_STORE_IVF_INDEX_H_
#define SEESAW_STORE_IVF_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/statusor.h"
#include "linalg/kmeans.h"
#include "store/vector_store.h"

namespace seesaw::store {

/// Build/query knobs for IvfFlatIndex.
struct IvfOptions {
  /// Number of inverted lists (k-means cells); 0 = sqrt(n) heuristic.
  size_t num_lists = 0;
  /// Lists scanned per query. More lists -> higher recall, slower queries.
  size_t nprobe = 4;
  /// K-means training iterations.
  int train_iters = 20;
  uint64_t seed = 37;
};

/// Inverted-file index over a fixed table of vectors.
class IvfFlatIndex : public VectorStore {
 public:
  /// Trains the quantizer and assigns every vector to a list.
  static StatusOr<IvfFlatIndex> Build(const IvfOptions& options,
                                      linalg::MatrixF vectors);

  size_t size() const override { return vectors_.rows(); }
  size_t dim() const override { return vectors_.cols(); }

  /// Batched lookup: centroids are scored against all queries in one blocked
  /// pass, then each query's probe lists are scanned — in parallel across
  /// queries when a pool is given. Cancellation is checkpointed per probed
  /// list, so a cancelled call stops mid-scan.
  std::vector<std::vector<SearchResult>> TopKBatch(
      std::span<const linalg::VecSpan> queries, size_t k, const SeenSet& seen,
      ThreadPool* pool, const ScanControl& control) const override;
  using VectorStore::TopKBatch;

  linalg::VecSpan GetVector(uint32_t id) const override {
    return vectors_.Row(id);
  }

  size_t num_lists() const { return lists_.size(); }
  const IvfOptions& options() const { return options_; }

 private:
  IvfFlatIndex(IvfOptions options, linalg::MatrixF vectors)
      : options_(options), vectors_(std::move(vectors)) {}

  /// Number of lists scanned per query (nprobe clamped to [1, num_lists]).
  size_t ProbeCount() const;

  /// The ProbeCount() best cells for a query given every cell's centroid
  /// score, ranked by (score desc, cell id asc).
  std::vector<uint32_t> RankCells(linalg::VecSpan centroid_scores) const;

  /// Exhaustive scan of `cells`' member lists under `seen`. Every probed
  /// list is a cancellation checkpoint.
  std::vector<SearchResult> ScanLists(linalg::VecSpan query,
                                      const std::vector<uint32_t>& cells,
                                      size_t k, const SeenSet& seen,
                                      const ScanControl& control) const;

  IvfOptions options_;
  linalg::MatrixF vectors_;
  linalg::MatrixF centroids_;             // num_lists x dim
  std::vector<std::vector<uint32_t>> lists_;  // member ids per cell
};

}  // namespace seesaw::store

#endif  // SEESAW_STORE_IVF_INDEX_H_
