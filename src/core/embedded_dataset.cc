#include "core/embedded_dataset.h"

#include <algorithm>

#include "common/binary_io.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "linalg/serialize.h"

namespace seesaw::core {

namespace {
// "SSEB" (SeeSaw Embedded) + format version.
constexpr uint32_t kCacheMagic = 0x42455353;
constexpr uint32_t kCacheVersion = 1;

/// Builds the configured store type over `table` (which it takes).
StatusOr<std::unique_ptr<store::VectorStore>> BuildStore(
    const PreprocessOptions& options, linalg::MatrixF table) {
  std::unique_ptr<store::VectorStore> out;
  switch (options.backend) {
    case StoreBackend::kAnnoy: {
      SEESAW_ASSIGN_OR_RETURN(
          store::AnnoyIndex index,
          store::AnnoyIndex::Build(options.annoy, std::move(table)));
      out = std::make_unique<store::AnnoyIndex>(std::move(index));
      break;
    }
    case StoreBackend::kIvf: {
      SEESAW_ASSIGN_OR_RETURN(
          store::IvfFlatIndex index,
          store::IvfFlatIndex::Build(options.ivf, std::move(table)));
      out = std::make_unique<store::IvfFlatIndex>(std::move(index));
      break;
    }
    case StoreBackend::kExact: {
      SEESAW_ASSIGN_OR_RETURN(store::ExactStore index,
                              store::ExactStore::Create(std::move(table)));
      out = std::make_unique<store::ExactStore>(std::move(index));
      break;
    }
    case StoreBackend::kSharded: {
      SEESAW_ASSIGN_OR_RETURN(
          store::ShardedStore index,
          options.sharded_child_factory
              ? store::ShardedStore::Create(std::move(table), options.sharded,
                                            options.sharded_child_factory)
              : store::ShardedStore::Create(std::move(table),
                                            options.sharded));
      out = std::make_unique<store::ShardedStore>(std::move(index));
      break;
    }
  }
  return out;
}
}  // namespace

StatusOr<EmbeddedDataset> EmbeddedDataset::Build(
    const data::Dataset& dataset, const PreprocessOptions& options) {
  if (dataset.num_images() == 0) {
    return Status::InvalidArgument("EmbeddedDataset: empty dataset");
  }
  EmbeddedDataset out;
  out.dataset_ = &dataset;
  out.options_ = options;

  // --- Tile every image. ---
  out.image_begin_.assign(dataset.num_images() + 1, 0);
  for (size_t i = 0; i < dataset.num_images(); ++i) {
    const data::ImageRecord& img = dataset.image(i);
    auto tiles = TileImage(img.width, img.height, options.multiscale);
    out.image_begin_[i + 1] =
        out.image_begin_[i] + static_cast<uint32_t>(tiles.size());
    for (size_t t = 0; t < tiles.size(); ++t) {
      out.patches_.push_back(
          {static_cast<uint32_t>(i), tiles[t], /*is_coarse=*/t == 0});
    }
  }
  out.stats_.num_vectors = out.patches_.size();

  // --- Embed every tile (data-parallel, like the paper's GPU pipeline). ---
  Stopwatch watch;
  const size_t d = dataset.space().dim();
  linalg::MatrixF vectors(out.patches_.size(), d);
  {
    size_t threads = options.num_threads != 0 ? options.num_threads
                                              : ThreadPool::DefaultThreads();
    ThreadPool pool(threads);
    pool.ParallelFor(out.patches_.size(), [&](size_t begin, size_t end) {
      for (size_t v = begin; v < end; ++v) {
        const PatchRecord& p = out.patches_[v];
        // Region index = offset within the image keeps noise deterministic
        // regardless of multiscale settings of other images.
        uint32_t region_index =
            static_cast<uint32_t>(v) - out.image_begin_[p.image_idx];
        linalg::VectorF vec =
            dataset.EmbedRegion(p.image_idx, p.box, region_index);
        std::copy(vec.begin(), vec.end(), vectors.MutableRow(v).begin());
      }
    });
  }
  out.stats_.embed_seconds = watch.ElapsedSeconds();

  // --- Index. ---
  watch.Restart();
  SEESAW_RETURN_IF_ERROR(out.Index(std::move(vectors), options));
  out.stats_.index_seconds = watch.ElapsedSeconds();

  // --- M_D (database alignment preprocessing, §4.2). ---
  if (options.build_md) {
    watch.Restart();
    SEESAW_ASSIGN_OR_RETURN(linalg::MatrixF md,
                            graph::ComputeMd(out.vectors(), options.md));
    out.md_ = std::move(md);
    out.stats_.md_seconds = watch.ElapsedSeconds();
  }
  return out;
}

Status EmbeddedDataset::Save(const std::string& path) const {
  SEESAW_ASSIGN_OR_RETURN(BinaryWriter writer, BinaryWriter::Open(path));
  SEESAW_RETURN_IF_ERROR(writer.WriteU32(kCacheMagic));
  SEESAW_RETURN_IF_ERROR(writer.WriteU32(kCacheVersion));
  SEESAW_RETURN_IF_ERROR(writer.WriteU64(dataset_->num_images()));
  SEESAW_RETURN_IF_ERROR(linalg::SaveMatrix(writer, vectors()));
  SEESAW_RETURN_IF_ERROR(writer.WriteU64(patches_.size()));
  for (const PatchRecord& p : patches_) {
    SEESAW_RETURN_IF_ERROR(writer.WriteU32(p.image_idx));
    SEESAW_RETURN_IF_ERROR(writer.WriteF32(p.box.x0));
    SEESAW_RETURN_IF_ERROR(writer.WriteF32(p.box.y0));
    SEESAW_RETURN_IF_ERROR(writer.WriteF32(p.box.x1));
    SEESAW_RETURN_IF_ERROR(writer.WriteF32(p.box.y1));
    SEESAW_RETURN_IF_ERROR(writer.WriteU32(p.is_coarse ? 1 : 0));
  }
  SEESAW_RETURN_IF_ERROR(writer.WriteU32(md_.has_value() ? 1 : 0));
  if (md_.has_value()) {
    SEESAW_RETURN_IF_ERROR(linalg::SaveMatrix(writer, *md_));
  }
  return writer.Close();
}

StatusOr<EmbeddedDataset> EmbeddedDataset::Load(
    const std::string& path, const data::Dataset& dataset,
    const PreprocessOptions& options) {
  SEESAW_ASSIGN_OR_RETURN(BinaryReader reader, BinaryReader::Open(path));
  SEESAW_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kCacheMagic) {
    return Status::IoError("not a seesaw embedded-dataset cache: " + path);
  }
  SEESAW_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (version != kCacheVersion) {
    return Status::IoError("unsupported cache version");
  }
  SEESAW_ASSIGN_OR_RETURN(uint64_t num_images, reader.ReadU64());
  if (num_images != dataset.num_images()) {
    return Status::FailedPrecondition(
        "cache was built for a different dataset (image count mismatch)");
  }

  EmbeddedDataset out;
  out.dataset_ = &dataset;
  out.options_ = options;
  SEESAW_ASSIGN_OR_RETURN(linalg::MatrixF vectors, linalg::LoadMatrix(reader));
  if (vectors.cols() != dataset.space().dim()) {
    return Status::FailedPrecondition("cache embedding dimension mismatch");
  }

  SEESAW_ASSIGN_OR_RETURN(uint64_t num_patches, reader.ReadU64());
  if (num_patches != vectors.rows()) {
    return Status::IoError("cache patch count does not match vector count");
  }
  out.patches_.resize(num_patches);
  for (PatchRecord& p : out.patches_) {
    SEESAW_ASSIGN_OR_RETURN(p.image_idx, reader.ReadU32());
    SEESAW_ASSIGN_OR_RETURN(p.box.x0, reader.ReadF32());
    SEESAW_ASSIGN_OR_RETURN(p.box.y0, reader.ReadF32());
    SEESAW_ASSIGN_OR_RETURN(p.box.x1, reader.ReadF32());
    SEESAW_ASSIGN_OR_RETURN(p.box.y1, reader.ReadF32());
    SEESAW_ASSIGN_OR_RETURN(uint32_t coarse, reader.ReadU32());
    p.is_coarse = coarse != 0;
    if (p.image_idx >= num_images) {
      return Status::IoError("cache patch references invalid image");
    }
  }
  // Rebuild the per-image ranges (patches are stored in build order:
  // contiguous, ascending image index).
  out.image_begin_.assign(num_images + 1, 0);
  for (size_t v = 0; v < out.patches_.size(); ++v) {
    uint32_t img = out.patches_[v].image_idx;
    if (v > 0 && img < out.patches_[v - 1].image_idx) {
      return Status::IoError("cache patches out of order");
    }
    out.image_begin_[img + 1] = static_cast<uint32_t>(v + 1);
  }
  for (size_t i = 1; i <= num_images; ++i) {
    out.image_begin_[i] =
        std::max(out.image_begin_[i], out.image_begin_[i - 1]);
  }

  SEESAW_ASSIGN_OR_RETURN(uint32_t has_md, reader.ReadU32());
  if (has_md != 0) {
    SEESAW_ASSIGN_OR_RETURN(linalg::MatrixF md, linalg::LoadMatrix(reader));
    if (md.rows() != vectors.cols() || md.cols() != vectors.cols()) {
      return Status::IoError("cache M_D dimension mismatch");
    }
    out.md_ = std::move(md);
  }

  out.stats_.num_vectors = out.patches_.size();
  Stopwatch watch;
  SEESAW_RETURN_IF_ERROR(out.Index(std::move(vectors), options));
  out.stats_.index_seconds = watch.ElapsedSeconds();
  return out;
}

Status EmbeddedDataset::Index(linalg::MatrixF vectors,
                              const PreprocessOptions& options) {
  // The exact store keeps the fp32 rows, so it takes the table and
  // vectors() reads its copy; every other backend indexes a copy of its
  // own. One table-sized buffer less for kExact: the store's int8 scan copy
  // then costs a quarter of the memory it saves.
  const bool store_owns_table = options.backend == StoreBackend::kExact;
  if (!store_owns_table) {
    owned_vectors_ = std::make_unique<linalg::MatrixF>(vectors);
  }
  SEESAW_ASSIGN_OR_RETURN(store_, BuildStore(options, std::move(vectors)));
  vectors_ = store_owns_table
                 ? &static_cast<const store::ExactStore&>(*store_).vectors()
                 : owned_vectors_.get();
  return Status::OK();
}

}  // namespace seesaw::core
