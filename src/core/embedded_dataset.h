// EmbeddedDataset: the output of SeeSaw's one-time preprocessing pass
// (§2.4): every image is tiled (multiscale, §4.3), every tile embedded with
// the model, the vectors indexed in a store, and (optionally) the M_D matrix
// of database alignment precomputed.
#ifndef SEESAW_CORE_EMBEDDED_DATASET_H_
#define SEESAW_CORE_EMBEDDED_DATASET_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/statusor.h"
#include "core/multiscale.h"
#include "data/dataset.h"
#include "graph/adjacency.h"
#include "store/annoy_index.h"
#include "store/exact_store.h"
#include "store/ivf_index.h"
#include "store/sharded_store.h"

namespace seesaw::core {

/// One indexed vector: which image and which region it came from.
struct PatchRecord {
  uint32_t image_idx = 0;
  data::Box box;
  bool is_coarse = false;
};

/// Wall-clock breakdown of preprocessing (reported by bench_preprocessing).
struct PreprocessStats {
  double embed_seconds = 0;
  double index_seconds = 0;
  double md_seconds = 0;
  size_t num_vectors = 0;
};

/// Which max-inner-product index backs the store.
enum class StoreBackend {
  kExact,    ///< brute-force scan (accuracy reference)
  kAnnoy,    ///< RP-tree forest (the paper's store, §2.2)
  kIvf,      ///< FAISS-style inverted file
  kSharded,  ///< table partitioned across N exact child stores
};

/// Preprocessing configuration.
struct PreprocessOptions {
  MultiscaleOptions multiscale;
  /// Compute M_D (needed by DB alignment; skip for baseline-only runs).
  bool build_md = true;
  graph::MdOptions md;
  /// Index backend and its tuning knobs.
  StoreBackend backend = StoreBackend::kExact;
  store::AnnoyOptions annoy;
  store::IvfOptions ivf;
  store::ShardedOptions sharded;
  /// Child builder for the kSharded backend; null = in-process ExactStore
  /// children. This is how a deployment swaps the sharded scan's children
  /// for remote stubs (net/remote_store.h) — the factory receives each
  /// shard's row partition and returns the store that serves it, so the
  /// serving stack above never learns where shards live. Note the factory
  /// may ignore the partition matrix entirely (a remote child's rows
  /// already live on its peer) — the shape check still applies.
  store::ShardedStore::ChildFactory sharded_child_factory;
  /// Worker threads for embedding (0 = hardware default).
  size_t num_threads = 0;
};

/// Immutable preprocessed dataset: vectors + patch metadata + store (+ M_D).
class EmbeddedDataset {
 public:
  /// Runs preprocessing over `dataset` (which must outlive the result).
  static StatusOr<EmbeddedDataset> Build(const data::Dataset& dataset,
                                         const PreprocessOptions& options);

  const data::Dataset& dataset() const { return *dataset_; }
  const PreprocessOptions& options() const { return options_; }
  const PreprocessStats& stats() const { return stats_; }

  size_t num_images() const { return dataset_->num_images(); }
  size_t num_vectors() const { return patches_.size(); }
  size_t dim() const { return vectors_->cols(); }

  /// Every patch vector, one row per vector id (for kExact, the store's
  /// own table).
  const linalg::MatrixF& vectors() const { return *vectors_; }
  const PatchRecord& patch(uint32_t vec_id) const { return patches_[vec_id]; }
  const std::vector<PatchRecord>& patches() const { return patches_; }

  /// Vector ids belonging to image `image_idx` (contiguous range).
  std::pair<uint32_t, uint32_t> ImagePatchRange(uint32_t image_idx) const {
    return {image_begin_[image_idx], image_begin_[image_idx + 1]};
  }

  /// The max-inner-product store over all patch vectors.
  const store::VectorStore& store() const { return *store_; }

  /// M_D = X^T (D - W) X, or nullptr when build_md was false.
  const linalg::MatrixF* md() const {
    return md_.has_value() ? &*md_ : nullptr;
  }

  /// Text query vector for a concept (unit norm) — q0 in Listing 1.
  linalg::VectorF TextQuery(size_t concept_id) const {
    return dataset_->model().EmbedText(concept_id);
  }

  /// Persists the preprocessing products (vectors, patch metadata, M_D) so
  /// the embedding pass does not need to be repeated. The store itself is
  /// rebuilt on Load (index builds are cheap relative to embedding).
  Status Save(const std::string& path) const;

  /// Loads a cache written by Save and attaches it to `dataset` (which must
  /// be the same dataset that produced it; basic shape checks are applied).
  /// The store is rebuilt according to `options.backend`.
  static StatusOr<EmbeddedDataset> Load(const std::string& path,
                                        const data::Dataset& dataset,
                                        const PreprocessOptions& options);

 private:
  EmbeddedDataset() = default;

  /// Builds store_ over `vectors` and points vectors_ at the table.
  Status Index(linalg::MatrixF vectors, const PreprocessOptions& options);

  const data::Dataset* dataset_ = nullptr;
  PreprocessOptions options_;
  PreprocessStats stats_;
  // The patch table: *owned_vectors_, or the ExactStore's table when the
  // store owns it (owned_vectors_ then null). Both live on the heap, so
  // vectors_ survives moves of the EmbeddedDataset.
  std::unique_ptr<linalg::MatrixF> owned_vectors_;
  const linalg::MatrixF* vectors_ = nullptr;
  std::vector<PatchRecord> patches_;
  std::vector<uint32_t> image_begin_;  // size num_images+1
  std::unique_ptr<store::VectorStore> store_;
  std::optional<linalg::MatrixF> md_;
};

}  // namespace seesaw::core

#endif  // SEESAW_CORE_EMBEDDED_DATASET_H_
