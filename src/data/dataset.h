// Synthetic labeled image datasets (stand-ins for LVIS / ObjectNet / COCO /
// BDD, see DESIGN.md §1).
//
// A Dataset owns a ConceptSpace + SyntheticClip model and a collection of
// ImageRecords whose objects reference concepts. It also serves as the
// ground-truth oracle: the benchmark uses its labels the way the paper uses
// dataset annotations — to decide which results are relevant and to provide
// region-box feedback in place of a human.
#ifndef SEESAW_DATA_DATASET_H_
#define SEESAW_DATA_DATASET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "clip/synthetic_clip.h"
#include "common/statusor.h"
#include "data/box.h"

namespace seesaw::data {

/// One placed object inside an image.
struct ObjectInstance {
  int concept_id = 0;
  int mode_id = 0;
  Box box;
  /// Intrinsic visibility multiplier (lighting, occlusion, pose...).
  float salience = 1.0f;
};

/// One image: geometry, scene background, and its objects.
struct ImageRecord {
  int width = 0;
  int height = 0;
  int background_id = 0;
  uint64_t noise_seed = 0;
  std::vector<ObjectInstance> objects;

  Box Bounds() const {
    return Box{0, 0, static_cast<float>(width), static_cast<float>(height)};
  }
};

/// Generation parameters; four tuned instances live in profiles.h.
struct DatasetProfile {
  std::string name = "synthetic";

  // --- Scale ---
  size_t num_images = 4000;
  size_t num_concepts = 100;
  size_t embedding_dim = 128;
  size_t num_backgrounds = 16;

  // --- Image geometry (pixels) ---
  int min_image_width = 640;
  int max_image_width = 1280;
  int min_image_height = 480;
  int max_image_height = 720;

  // --- Object placement ---
  /// Poisson mean of objects per image, clamped to [min_objects, max_objects].
  double mean_objects_per_image = 3.0;
  int min_objects_per_image = 0;
  int max_objects_per_image = 12;
  /// Object side as a fraction of min(image W, H); log-uniform in
  /// [object_scale_min, object_scale_max].
  double object_scale_min = 0.10;
  double object_scale_max = 0.60;
  /// Zipf exponent for category frequency (0 = uniform, larger = heavier
  /// head and rarer tail categories).
  double zipf_exponent = 0.8;
  /// Log-normal sigma for per-instance salience jitter.
  double salience_sigma = 0.25;

  // --- Embedding behaviour ---
  /// Exponent on (object overlap area / patch area) when converting
  /// geometry to embedding prominence. Lower values saturate small objects
  /// less aggressively (see clip::PatchContent).
  double prominence_gamma = 0.35;
  /// Scene background weight in every patch (clutter).
  double background_weight = 0.40;
  /// Additive embedding noise scale.
  double noise_scale = 0.60;

  // --- Text-query alignment deficits (Fig. 2a) ---
  /// With probability deficit_tail_prob the concept's deficit is drawn from
  /// [deficit_tail_lo, deficit_tail_hi] (hard queries); otherwise from
  /// [deficit_base_lo, deficit_base_hi] (easy queries).
  double deficit_base_lo = 0.02;
  double deficit_base_hi = 0.20;
  double deficit_tail_prob = 0.25;
  double deficit_tail_lo = 0.35;
  double deficit_tail_hi = 0.80;
  /// When true, tail deficits go to the *rarest* concepts (the
  /// ceil(tail_prob * num_concepts) highest Zipf indices) instead of a
  /// Bernoulli draw — BDD's hard classes are exactly its rare ones
  /// (wheelchair), while LVIS's misalignment is spread across the
  /// vocabulary.
  bool deficit_tail_on_rare = false;

  // --- Concept locality (Fig. 2b) ---
  /// Probability a concept has more than one visual mode.
  double multimode_prob = 0.20;
  int max_modes = 3;
  double mode_spread = 0.45;
  /// Text anchoring toward the canonical mode (see
  /// clip::ConceptSpaceOptions::text_canonical_bias).
  double text_canonical_bias = 0.5;
  /// Mode mixture weight decay (see clip::ConceptSpec::mode_weight_decay).
  double mode_weight_decay = 0.6;

  // --- Guarantees ---
  /// After random placement, concepts with fewer positives than this get
  /// objects planted into random images so every category is evaluable.
  size_t min_positives_per_concept = 3;

  /// Optional category names; index i names concept i, remaining concepts
  /// get generated names ("category_017").
  std::vector<std::string> concept_names;

  /// Optional per-concept deficit overrides (index-aligned with concepts).
  /// Entries < 0 — and all concepts beyond the vector — draw from the
  /// base/tail distribution above. Used by scenario benches (Fig. 6) that
  /// need named queries with controlled difficulty.
  std::vector<double> concept_deficits;

  uint64_t seed = 42;
};

/// A generated dataset plus its ground-truth oracle.
class Dataset {
 public:
  /// Generates a dataset from the profile. Deterministic in profile.seed.
  static StatusOr<Dataset> Generate(const DatasetProfile& profile);

  const DatasetProfile& profile() const { return profile_; }
  const clip::ConceptSpace& space() const { return *space_; }
  const clip::SyntheticClip& model() const { return *model_; }

  size_t num_images() const { return images_.size(); }
  const ImageRecord& image(size_t idx) const { return images_[idx]; }
  const std::vector<ImageRecord>& images() const { return images_; }

  /// True when image `image_idx` contains at least one instance of concept.
  bool IsPositive(size_t image_idx, size_t concept_id) const;

  /// Ground-truth boxes of `concept_id` in the image (empty if negative).
  std::vector<Box> ConceptBoxes(size_t image_idx, size_t concept_id) const;

  /// Sorted list of images containing the concept.
  const std::vector<uint32_t>& positives(size_t concept_id) const {
    return positives_[concept_id];
  }

  /// Concepts with at least `min_positives` positive images — the queries of
  /// the paper's benchmark task.
  std::vector<size_t> EvaluableConcepts(size_t min_positives) const;

  /// Semantic content of `region` within the image, as consumed by the
  /// embedding model: every object overlapping the region contributes a
  /// prominence proportional to its salience, visible fraction, and relative
  /// area (profile.prominence_gamma controls saturation). `region_index`
  /// makes the per-patch noise deterministic (same region index -> same
  /// noise).
  clip::PatchContent RegionContent(size_t image_idx, const Box& region,
                                   uint32_t region_index) const;

  /// Embeds a region: model().EmbedPatch(RegionContent(...)).
  linalg::VectorF EmbedRegion(size_t image_idx, const Box& region,
                              uint32_t region_index) const;

 private:
  Dataset() = default;

  /// Linear-scan positivity test used during generation, before the
  /// positives_ index exists.
  bool IsPositiveUnindexed(size_t image_idx, size_t concept_id) const;

  DatasetProfile profile_;
  std::shared_ptr<const clip::ConceptSpace> space_;
  std::unique_ptr<clip::SyntheticClip> model_;
  std::vector<ImageRecord> images_;
  std::vector<std::vector<uint32_t>> positives_;  // per concept, sorted
};

}  // namespace seesaw::data

#endif  // SEESAW_DATA_DATASET_H_
