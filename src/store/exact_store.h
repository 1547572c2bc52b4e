// ExactStore: brute-force max-inner-product scan. The accuracy reference for
// AnnoyIndex and the default store at benchmark scale.
//
// The scan is a certified int8 scan: results are bitwise those of scoring
// every unseen row with the fp32 kernel (linalg/simd.h), at close to the
// cost of reading the 4x smaller int8 copy. Create quantizes the table
// (linalg/quantize.h) next to the fp32 master. Each part of a scan scores
// its rows in int8, keeps the k best lower bounds per query, and rescores
// in fp32 only the rows whose upper bound reaches the k-th lower bound; the
// bound's proof is in quantize.h.
//
// The scan scores only the unseen runs SeenSet::NextUnseenRuns hands it,
// and its row ranges (two per pool worker) go through ScatterTopK, the
// same scatter/merge ShardedStore runs over its children.
#ifndef SEESAW_STORE_EXACT_STORE_H_
#define SEESAW_STORE_EXACT_STORE_H_

#include <vector>

#include "common/statusor.h"
#include "linalg/quantize.h"
#include "store/vector_store.h"

namespace seesaw::store {

/// Exact top-k scan over a dense row-major table.
class ExactStore : public VectorStore {
 public:
  /// Takes ownership of `vectors` (rows are the stored vectors) and builds
  /// the quantized scan copy, in parallel row blocks for large tables. Rows
  /// need not be unit-norm, but SeeSaw always stores unit vectors.
  static StatusOr<ExactStore> Create(linalg::MatrixF vectors);

  size_t size() const override { return vectors_.rows(); }
  size_t dim() const override { return vectors_.cols(); }

  /// Batched exact scan: each unseen run of at most 32 rows is scored
  /// against every query at once with the int8 score_block kernel, the
  /// rows it cannot rule out are rescored with the fp32 one, and with a
  /// pool the row ranges run as ScatterTopK parts. Results equal an fp32
  /// scan of every unseen row, bit for bit. Cancellation is checkpointed
  /// per scored run, so a cancelled call stops the scan mid-flight rather
  /// than finishing the table. control.rescored, when set, counts the rows
  /// rescored in fp32.
  std::vector<std::vector<SearchResult>> TopKBatch(
      std::span<const linalg::VecSpan> queries, size_t k, const SeenSet& seen,
      ThreadPool* pool, const ScanControl& control) const override;
  using VectorStore::TopKBatch;

  linalg::VecSpan GetVector(uint32_t id) const override {
    return vectors_.Row(id);
  }

  /// The underlying fp32 table (used to build graphs over the same
  /// vectors, and the scores every lookup returns).
  const linalg::MatrixF& vectors() const { return vectors_; }

  /// The quantized scan copy with its per-row bound terms.
  const linalg::QuantizedTable& quantized() const { return quantized_; }

  /// Binds every table the scan streams (the fp32 master, the quantized
  /// copy, its scales and bound terms) to NUMA node `node`. Placement only:
  /// scan results are bitwise identical wherever the pages live, and on
  /// hosts without multiple nodes this is a successful no-op (see
  /// common/numa.h). Called by ShardedStore when numa_placement is on;
  /// safe any time no scan is in flight.
  void BindStorageToNode(size_t node);

 private:
  explicit ExactStore(linalg::MatrixF vectors)
      : vectors_(std::move(vectors)) {}

  linalg::MatrixF vectors_;
  linalg::QuantizedTable quantized_;
};

}  // namespace seesaw::store

#endif  // SEESAW_STORE_EXACT_STORE_H_
