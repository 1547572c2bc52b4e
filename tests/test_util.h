// Shared fixture builders for the test suites: random embedding-like
// tables, query sets, seen sets, the embedded-dataset fixture, and the
// deterministic scripted user driving interaction-loop tests — the builders
// that used to be duplicated across store_test, topk_batch_test, and
// prefetch_test. Header-only; every test binary links the full library.
#ifndef SEESAW_TESTS_TEST_UTIL_H_
#define SEESAW_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "clip/concept_space.h"
#include "common/rng.h"
#include "core/embedded_dataset.h"
#include "core/searcher_base.h"
#include "data/profiles.h"
#include "linalg/matrix.h"
#include "linalg/vector_ops.h"
#include "store/seen_set.h"
#include "store/vector_store.h"

namespace seesaw::test_util {

/// Random unit-vector table, like an embedding table.
inline linalg::MatrixF RandomTable(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  linalg::MatrixF table(n, d);
  for (size_t i = 0; i < n; ++i) {
    auto row = table.MutableRow(i);
    for (size_t j = 0; j < d; ++j) row[j] = static_cast<float>(rng.Gaussian());
    linalg::NormalizeInPlace(row);
  }
  return table;
}

/// Clustered unit vectors — the shape of real embedding tables (uniform
/// random high-dim data is the known worst case for RP trees and not what
/// the store sees in practice).
inline linalg::MatrixF ClusteredTable(size_t n, size_t d, size_t centers,
                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<linalg::VectorF> mu;
  for (size_t c = 0; c < centers; ++c) {
    mu.push_back(clip::RandomUnitVector(rng, d));
  }
  linalg::MatrixF table(n, d);
  for (size_t i = 0; i < n; ++i) {
    auto row = table.MutableRow(i);
    const linalg::VectorF& center = mu[i % centers];
    for (size_t j = 0; j < d; ++j) {
      row[j] = center[j] + 0.25f * static_cast<float>(rng.Gaussian());
    }
    linalg::NormalizeInPlace(row);
  }
  return table;
}

/// Random unit-norm query set.
inline std::vector<linalg::VectorF> RandomQueries(size_t count, size_t d,
                                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<linalg::VectorF> queries;
  for (size_t i = 0; i < count; ++i) {
    linalg::VectorF q(d);
    for (float& v : q) v = static_cast<float>(rng.Gaussian());
    linalg::NormalizeInPlace(linalg::MutVecSpan(q.data(), q.size()));
    queries.push_back(std::move(q));
  }
  return queries;
}

/// Seen set over [0, capacity) with each id marked with probability
/// `fraction`.
inline store::SeenSet RandomSeenSet(size_t capacity, double fraction,
                                    uint64_t seed) {
  store::SeenSet seen(capacity);
  Rng rng(seed);
  for (size_t id = 0; id < capacity; ++id) {
    if (rng.Uniform() < fraction) seen.Set(static_cast<uint32_t>(id));
  }
  return seen;
}

/// Borrowed spans over a query set (the TopKBatch argument shape).
inline std::vector<linalg::VecSpan> AsSpans(
    const std::vector<linalg::VectorF>& queries) {
  return std::vector<linalg::VecSpan>(queries.begin(), queries.end());
}

/// Asserts two result lists are bitwise identical: same length, and the
/// same id and score bits at every rank.
inline void ExpectIdenticalResults(
    const std::vector<store::SearchResult>& got,
    const std::vector<store::SearchResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
    EXPECT_EQ(std::bit_cast<uint32_t>(got[i].score),
              std::bit_cast<uint32_t>(want[i].score))
        << "rank " << i << ": " << got[i].score << " vs " << want[i].score;
  }
}

/// Independent oracle for exact scans: scores every unseen row of `table`
/// pair by pair with linalg::Dot(row, query), then sorts all candidates
/// under BetterResult and keeps k. Shares no scan loop, heap, int8 filter
/// or merge with any store, so comparing a store against it never compares
/// a path with itself.
inline std::vector<store::SearchResult> BruteForceTopK(
    const linalg::MatrixF& table, linalg::VecSpan query, size_t k,
    const store::SeenSet& seen = store::EmptySeenSet()) {
  std::vector<store::SearchResult> all;
  for (size_t i = 0; i < table.rows(); ++i) {
    const auto id = static_cast<uint32_t>(i);
    if (seen.Test(id)) continue;
    all.push_back({id, linalg::Dot(table.Row(i), query)});
  }
  std::sort(all.begin(), all.end(), store::BetterResult);
  if (all.size() > k) all.resize(k);
  return all;
}

/// A small generated dataset embedded with the given store backend — the
/// fixture the searcher/prefetch/session suites drive end to end.
struct EmbeddedFixture {
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<core::EmbeddedDataset> embedded;
};

inline EmbeddedFixture MakeEmbeddedFixture(core::StoreBackend backend,
                                           double scale = 0.05,
                                           size_t dim = 32,
                                           size_t num_shards = 4) {
  auto profile = data::CocoLikeProfile(scale);
  profile.embedding_dim = dim;
  auto ds = data::Dataset::Generate(profile);
  EXPECT_TRUE(ds.ok());
  EmbeddedFixture f;
  f.dataset = std::make_unique<data::Dataset>(std::move(*ds));
  core::PreprocessOptions options;
  options.multiscale.enabled = false;
  options.build_md = false;
  options.backend = backend;
  options.sharded.num_shards = num_shards;
  auto ed = core::EmbeddedDataset::Build(*f.dataset, options);
  EXPECT_TRUE(ed.ok());
  f.embedded = std::make_unique<core::EmbeddedDataset>(std::move(*ed));
  return f;
}

/// Asserts two image batches are bitwise identical: same length, and the
/// same image index and score bits at every rank.
inline void ExpectSameImageBatch(const std::vector<core::ScoredImage>& got,
                                 const std::vector<core::ScoredImage>& want,
                                 int round) {
  ASSERT_EQ(got.size(), want.size()) << "round " << round;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].image_idx, want[i].image_idx) << "round " << round;
    EXPECT_EQ(got[i].score, want[i].score) << "round " << round;  // bitwise
  }
}

/// How one interaction round deviates from the canonical "label the whole
/// batch in shown order, then refit" loop. The speculation suites use these
/// knobs to drive every consume/invalidate branch of the refit-speculation
/// state machine.
struct RoundScript {
  /// Label the batch back to front instead of in shown order.
  bool reverse_order = false;
  /// Label only the first `max_labels` images of the (possibly reversed)
  /// batch — a user who turns the page early (partial labels).
  size_t max_labels = static_cast<size_t>(-1);
  /// Additionally label one never-shown image (found via some other tool),
  /// interleaved after the first in-batch label — feedback outside the
  /// predicted batch.
  bool label_unshown_image = false;
  /// Call Refit() at the end of the round.
  bool refit = true;
};

/// Deterministic scripted user: fetches a batch, labels it from dataset
/// ground truth (region boxes included), optionally sleeps a fixed think
/// time after each label (mirroring eval::RunSearchTask's timing model, the
/// window speculative prefetch overlaps), and refits. One place for the
/// drive loops the prefetch/speculation suites used to hand-roll.
class ScriptedUser {
 public:
  ScriptedUser(const data::Dataset& dataset, size_t concept_id,
               double think_seconds = 0.0)
      : dataset_(&dataset),
        concept_id_(concept_id),
        think_seconds_(think_seconds) {}

  /// Ground-truth feedback for one image (relevance + concept boxes).
  core::ImageFeedback GroundTruthFeedback(uint32_t image_idx) const {
    core::ImageFeedback fb;
    fb.image_idx = image_idx;
    fb.relevant = dataset_->IsPositive(image_idx, concept_id_);
    if (fb.relevant) {
      fb.boxes = dataset_->ConceptBoxes(image_idx, concept_id_);
    }
    return fb;
  }

  /// One interaction round: fetch a batch of `n`, label it per `script`,
  /// refit (unless the script skips it). Returns the batch as fetched.
  std::vector<core::ScoredImage> DriveRound(core::SearcherBase& searcher,
                                            size_t n,
                                            const RoundScript& script = {}) {
    std::vector<core::ScoredImage> batch = searcher.NextBatch(n);
    std::vector<core::ScoredImage> order = batch;
    if (script.reverse_order) std::reverse(order.begin(), order.end());
    if (order.size() > script.max_labels) order.resize(script.max_labels);
    for (size_t i = 0; i < order.size(); ++i) {
      Label(searcher, order[i].image_idx);
      if (i == 0 && script.label_unshown_image) {
        Label(searcher, FindUnshownImage(searcher, batch));
      }
    }
    if (script.label_unshown_image && order.empty()) {
      Label(searcher, FindUnshownImage(searcher, batch));
    }
    if (script.refit) EXPECT_TRUE(searcher.Refit().ok());
    return batch;
  }

 private:
  void Label(core::SearcherBase& searcher, uint32_t image_idx) {
    searcher.AddFeedback(GroundTruthFeedback(image_idx));
    if (think_seconds_ > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(think_seconds_));
    }
  }

  /// Lowest-index image that is neither seen nor part of `batch`.
  static uint32_t FindUnshownImage(const core::SearcherBase& searcher,
                                   const std::vector<core::ScoredImage>& batch) {
    auto in_batch = [&](uint32_t idx) {
      for (const core::ScoredImage& hit : batch) {
        if (hit.image_idx == idx) return true;
      }
      return false;
    };
    uint32_t idx = 0;
    while (searcher.IsSeen(idx) || in_batch(idx)) ++idx;
    return idx;
  }

  const data::Dataset* dataset_;
  size_t concept_id_;
  double think_seconds_;
};

}  // namespace seesaw::test_util

#endif  // SEESAW_TESTS_TEST_UTIL_H_
