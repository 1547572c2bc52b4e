// ExactStore: brute-force max-inner-product scan. The accuracy reference for
// AnnoyIndex and the default store at benchmark scale.
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

/// Build options for ExactStore.
struct ExactStoreOptions {
  /// Scan representation. kInt8 builds a quantized copy of the table at
  /// Create (the fp32 master is retained — GetVector()/vectors() always
  /// serve full precision) and scores every lookup through the int8
  /// kernel family. See ScanPrecision for the cross-family contract.
  ScanPrecision precision = ScanPrecision::kFloat32;
};

/// Exact top-k scan over a dense row-major table.
class ExactStore : public VectorStore {
 public:
  /// Takes ownership of `vectors` (rows are the stored vectors). Rows need
  /// not be unit-norm, but SeeSaw always stores unit vectors.
  static StatusOr<ExactStore> Create(linalg::MatrixF vectors);

  /// Same, with explicit scan options (kInt8 quantizes the table here).
  static StatusOr<ExactStore> Create(linalg::MatrixF vectors,
                                     const ExactStoreOptions& options);

  size_t size() const override { return vectors_.rows(); }
  size_t dim() const override { return vectors_.cols(); }

  /// Batched exact scan: each unseen run of at most 32 rows is scored
  /// against every query at once (the fp32 or int8 score_block kernel), and
  /// with a pool the row ranges run as ScatterTopK parts. Cancellation is
  /// checkpointed per scored run, so a cancelled call stops the scan
  /// mid-flight rather than finishing the table.
  std::vector<std::vector<SearchResult>> TopKBatch(
      std::span<const linalg::VecSpan> queries, size_t k, const SeenSet& seen,
      ThreadPool* pool, const ScanControl& control) const override;
  using VectorStore::TopKBatch;

  linalg::VecSpan GetVector(uint32_t id) const override {
    return vectors_.Row(id);
  }

  /// The underlying fp32 table (used to build graphs over the same
  /// vectors); always retained regardless of scan precision.
  const linalg::MatrixF& vectors() const { return vectors_; }

  const ExactStoreOptions& options() const { return options_; }

  /// The quantized scan copy; empty() unless precision == kInt8.
  const linalg::QuantizedTable& quantized() const { return quantized_; }

  /// Binds every table the scan streams (the fp32 master and, for kInt8,
  /// the quantized copy + scales) to NUMA node `node`. Placement only:
  /// scan results are bitwise identical wherever the pages live, and on
  /// hosts without multiple nodes this is a successful no-op (see
  /// common/numa.h). Called by ShardedStore when numa_placement is on;
  /// safe any time no scan is in flight.
  void BindStorageToNode(size_t node);

 private:
  ExactStore(linalg::MatrixF vectors, const ExactStoreOptions& options)
      : vectors_(std::move(vectors)), options_(options) {}

  linalg::MatrixF vectors_;
  ExactStoreOptions options_;
  linalg::QuantizedTable quantized_;  // only populated for kInt8
};

}  // namespace seesaw::store

#endif  // SEESAW_STORE_EXACT_STORE_H_
