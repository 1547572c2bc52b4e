#include "core/searcher_base.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"
#include "store/vector_store.h"

namespace seesaw::core {

SearcherBase::SearcherBase(const EmbeddedDataset& embedded)
    : embedded_(&embedded),
      seen_images_(embedded.num_images()),
      seen_patches_(embedded.num_vectors()) {}

SearcherBase::~SearcherBase() {
  // Cancel and drain every speculation, including already-invalidated ones
  // that may still be running a fit or a scan round. The tasks only read
  // snapshots (never the searcher), but the embedded dataset and shared
  // budget are only guaranteed alive while the searcher's owner is — and a
  // surviving task could submit nested pool work during pool shutdown.
  if (spec_.has_value()) RetireSpeculation(std::move(*spec_));
  spec_.reset();
  for (TaskHandle& handle : stale_speculations_) handle.Wait();
}

void SearcherBase::MarkSeen(uint32_t image_idx) {
  SEESAW_CHECK_LT(image_idx, seen_images_.capacity());
  if (seen_images_.Test(image_idx)) return;
  // An image outside the predicted batch deviates from the speculation's
  // snapshot; one inside moves the live state toward it.
  if (spec_.has_value() && !spec_->seen_images.Test(image_idx)) {
    InvalidatePrefetch();
  }
  ++generation_;
  seen_images_.Set(image_idx);
  auto [begin, end] = embedded_->ImagePatchRange(image_idx);
  for (uint32_t v = begin; v < end; ++v) seen_patches_.Set(v);
  // A surviving speculation only sees in-batch, previously-unseen images
  // here. When the last predicted label lands, the live state equals the
  // prediction and the refit speculation can start its fit.
  if (spec_.has_value() && spec_->stage == SpecStage::kAwaitLabels &&
      --spec_->images_remaining == 0) {
    ArmPredictedFit();
  }
}

std::vector<ScoredImage> SearcherBase::ComputeTopImages(
    const EmbeddedDataset& embedded, ThreadPool* pool, linalg::VecSpan query,
    size_t n, const store::SeenSet& seen_patches,
    const CancellationToken* cancel) {
  const auto& store = embedded.store();
  const auto& patches = embedded.patches();
  const size_t total = store.size();

  double avg_patches =
      static_cast<double>(total) /
      static_cast<double>(std::max<size_t>(1, embedded.num_images()));
  size_t k = static_cast<size_t>(
      std::max<double>(16.0, (static_cast<double>(n) + 4) * avg_patches * 2));

  std::vector<ScoredImage> out;
  std::unordered_set<uint32_t> picked;
  for (;;) {
    if (cancel != nullptr && cancel->cancelled()) return out;
    k = std::min(k, total);
    // Patches of seen images are excluded inside the store scan via the
    // patch-level bitset; a shared pool (managed sessions) shards the scan,
    // and a null pool scans serially. The cancellation token rides into the
    // scan itself (store::ScanControl) so a cancelled speculation stops
    // mid-scan — per row block / probed list — not just between k-doubling
    // rounds.
    store::ScanControl control;
    control.cancel = cancel;
    linalg::VecSpan queries[] = {query};
    std::vector<std::vector<store::SearchResult>> batch =
        store.TopKBatch(queries, k, seen_patches, pool, control);
    std::vector<store::SearchResult> hits;
    if (!batch.empty()) hits = std::move(batch.front());
    // A cancelled scan returns partial hits; drop them (the caller discards
    // the whole speculation anyway) rather than let a truncated candidate
    // list masquerade as "store exhausted".
    if (cancel != nullptr && cancel->cancelled()) return out;
    out.clear();
    picked.clear();
    // Hits come best-first, so the first patch of an image carries the
    // image's max-pooled score (§4.3).
    for (const auto& h : hits) {
      uint32_t img = patches[h.id].image_idx;
      if (picked.insert(img).second) {
        out.push_back({img, h.score});
        if (out.size() == n) return out;
      }
    }
    if (hits.size() < k || k == total) {
      return out;  // store exhausted; fewer than n unseen images remain
    }
    k *= 2;
  }
}

std::vector<ScoredImage> SearcherBase::TopImages(linalg::VecSpan query,
                                                 size_t n) const {
  return ComputeTopImages(*embedded_, pool_, query, n, seen_patches_,
                          /*cancel=*/nullptr);
}

bool SearcherBase::BeginSchedule(const std::vector<ScoredImage>& batch) {
  // At most one speculation per searcher; a new schedule supersedes the old.
  InvalidatePrefetch();
  std::erase_if(stale_speculations_,
                [](const TaskHandle& handle) { return handle.done(); });
  return prefetch_policy_.enabled && pool_ != nullptr && !batch.empty();
}

SearcherBase::Speculation SearcherBase::MakeSpeculation(
    const std::vector<ScoredImage>& batch, size_t n, size_t* new_images) {
  auto task = std::make_shared<SpecTask>();
  task->seen_patches = seen_patches_;
  task->n = n;

  Speculation spec;
  spec.seen_images = seen_images_;
  // Predict the state after the user labels exactly this batch: every batch
  // image seen (one generation bump each).
  *new_images = 0;
  for (const ScoredImage& hit : batch) {
    if (spec.seen_images.Test(hit.image_idx)) continue;
    spec.seen_images.Set(hit.image_idx);
    auto [begin, end] = embedded_->ImagePatchRange(hit.image_idx);
    for (uint32_t v = begin; v < end; ++v) task->seen_patches.Set(v);
    ++*new_images;
  }
  spec.expected_generation = generation_ + *new_images;
  spec.task = std::move(task);
  return spec;
}

void SearcherBase::SchedulePrefetch(linalg::VecSpan query,
                                    const std::vector<ScoredImage>& batch,
                                    size_t n) {
  if (!BeginSchedule(batch)) return;
  if (budget_ != nullptr && !budget_->TryAcquire()) {
    ++prefetch_stats_.throttled;
    return;
  }

  size_t new_images = 0;
  Speculation spec = MakeSpeculation(batch, n, &new_images);
  spec.stage = SpecStage::kScan;
  spec.query_known = true;  // the query is predicted not to move
  std::shared_ptr<SpecTask> task = spec.task;
  task->query.assign(query.begin(), query.end());
  task->budget = budget_;

  // The task captures no pointer to this searcher: it works on the snapshot
  // and publishes its result through the handle's completion.
  const EmbeddedDataset* embedded = embedded_;
  ThreadPool* pool = pool_;
  spec.handle = pool_->SubmitWithResult([task, embedded, pool] {
    if (!task->cancel.cancelled()) {
      task->result =
          ComputeTopImages(*embedded, pool, task->query, task->n,
                           task->seen_patches, &task->cancel);
    }
    task->ReleaseBudgetOnce();
  });
  ++prefetch_stats_.scheduled;
  spec_ = std::move(spec);
}

void SearcherBase::SchedulePrefetchAfterRefit(
    const std::vector<ScoredImage>& batch, size_t n,
    const QueryAligner& aligner) {
  if (!BeginSchedule(batch)) return;

  size_t new_images = 0;
  Speculation spec = MakeSpeculation(batch, n, &new_images);
  if (new_images == 0) return;  // nothing to wait for; cannot arm
  spec.stage = SpecStage::kAwaitLabels;
  spec.images_remaining = new_images;
  spec.aligner = &aligner;
  // Nothing is submitted and no budget is held until the batch is fully
  // labeled (ArmPredictedFit); an abandoned prediction costs nothing.
  ++prefetch_stats_.scheduled;
  spec_ = std::move(spec);
}

void SearcherBase::ArmPredictedFit() {
  SEESAW_CHECK(spec_.has_value());
  SEESAW_CHECK(spec_->stage == SpecStage::kAwaitLabels);
  // Submission was deferred from schedule time to now, so re-validate the
  // preconditions BeginSchedule checked then: the driver may have detached
  // the pool or disabled the policy in between.
  if (pool_ == nullptr || !prefetch_policy_.enabled) {
    spec_.reset();
    ++prefetch_stats_.invalidated;
    return;
  }
  // The fit burns a worker's CPU, so it is what the shared budget meters:
  // charge the slot here, not at schedule time.
  if (budget_ != nullptr && !budget_->TryAcquire()) {
    ++prefetch_stats_.throttled;
    spec_.reset();  // nothing running, nothing to cancel
    return;
  }
  std::shared_ptr<SpecTask> task = spec_->task;
  task->budget = budget_;
  // Clone the fit state on this (the searcher's) thread, while it is
  // consistent; the task owns the clone outright, so the session can keep
  // accumulating feedback while the fit runs.
  task->snapshot = spec_->aligner->Snapshot();
  spec_->aligner = nullptr;

  // Stage 1: the speculative fit. Publishes its whole outcome — the
  // predicted post-refit query and what Refit() adopts — into the task;
  // readers order themselves after it via fit_handle.Wait().
  spec_->fit_handle = pool_->SubmitWithResult([task] {
    if (!task->cancel.cancelled()) {
      StatusOr<AlignerFit> fit = QueryAligner::FitSnapshot(*task->snapshot);
      if (fit.ok()) {
        task->query = fit->query;
        task->fit = *std::move(fit);
        task->fit_ok = true;
      }
    }
    // Drop the snapshot — the whole accumulated-feedback table — as soon as
    // the outcome is published, not when the speculation is eventually
    // consumed or drained.
    task->snapshot.reset();
  });
  // Stage 2: the scan with the predicted query. Waiting on the fit handle
  // from a pool task is safe: the scan runs the fit itself if it is still
  // queued, and never runs anything else.
  TaskHandle fit_handle = spec_->fit_handle;
  const EmbeddedDataset* embedded = embedded_;
  ThreadPool* pool = pool_;
  spec_->handle =
      pool_->SubmitWithResult([task, fit_handle, embedded, pool]() mutable {
        fit_handle.Wait();
        if (task->fit_ok && !task->cancel.cancelled()) {
          task->result =
              ComputeTopImages(*embedded, pool, task->query, task->n,
                               task->seen_patches, &task->cancel);
        }
        task->ReleaseBudgetOnce();
      });
  spec_->stage = SpecStage::kFitScan;
  // All predicted labels have landed, so the live generation is exactly the
  // predicted one; the only bump still to come is the refit's own.
  SEESAW_CHECK_EQ(spec_->expected_generation, generation_);
  ++prefetch_stats_.refit_fits;
}

std::optional<AlignerFit> SearcherBase::TakeSpeculativeFit(
    const AlignerFitKey& live_key) {
  if (!spec_.has_value() || spec_->stage != SpecStage::kFitScan) {
    return std::nullopt;
  }
  // Claims the fit if it is still queued and parks if a worker runs it;
  // during real think time it has long finished. The wait orders this
  // thread after the fit task's writes.
  spec_->fit_handle.Wait();
  std::optional<AlignerFit>& fit = spec_->task->fit;
  if (!fit.has_value() || fit->key != live_key) return std::nullopt;
  ++prefetch_stats_.refit_adopted;
  return std::exchange(fit, std::nullopt);
}

void SearcherBase::CommitRefit(linalg::VecSpan refit_query, bool query_moved) {
  if (query_moved) ++generation_;
  if (!spec_.has_value()) return;
  switch (spec_->stage) {
    case SpecStage::kScan:
      // A same-query speculation only survives a refit that left the query
      // bitwise unchanged.
      if (query_moved) InvalidatePrefetch();
      return;
    case SpecStage::kAwaitLabels:
      // The refit arrived before the predicted batch was fully labeled
      // (partial labels). A moved query falsifies the prediction outright; an
      // unmoved one keeps the pending speculation plausible — the remaining
      // labels may still arrive.
      if (query_moved) InvalidatePrefetch();
      return;
    case SpecStage::kFitScan:
      break;
  }
  // Wait for the fit stage only (the scan keeps running); during real think
  // time this returns immediately. The wait orders this thread after the
  // fit task's writes.
  spec_->fit_handle.Wait();
  const linalg::VectorF& predicted = spec_->task->query;
  bool match = spec_->task->fit_ok &&
               predicted.size() == refit_query.size() &&
               std::equal(refit_query.begin(), refit_query.end(),
                          predicted.begin());
  if (!match) {
    // The session state moved between arm and refit (extra soft feedback,
    // changed aligner options, duplicate labels, ...), or the fit failed:
    // the scan is running against the wrong query. Cancel it mid-scan.
    ++prefetch_stats_.refit_mismatches;
    InvalidatePrefetch();
    return;
  }
  // Blessed: the refit landed on the predicted bits, so the speculative scan
  // is exactly the lookup the next NextBatch wants. Re-key the speculation
  // to the post-refit generation and let TakePrefetched compare the query.
  spec_->expected_generation = generation_;
  spec_->query_known = true;
  ++prefetch_stats_.refit_matches;
}

std::optional<std::vector<ScoredImage>> SearcherBase::TakePrefetched(
    linalg::VecSpan query, size_t n) {
  if (!spec_.has_value()) return std::nullopt;
  Speculation spec = std::move(*spec_);
  spec_.reset();

  // query_known gates the bit compare: an unblessed kFitScan task may still
  // be writing its predicted query, and a kAwaitLabels one has none at all.
  bool valid = spec.query_known &&
               spec.expected_generation == generation_ && spec.task->n == n;
  if (valid) {
    const linalg::VectorF& spec_query = spec.task->query;
    valid = spec_query.size() == query.size() &&
            std::equal(query.begin(), query.end(), spec_query.begin()) &&
            seen_images_ == spec.seen_images;
  }
  if (!valid) {
    RetireSpeculation(std::move(spec));
    ++prefetch_stats_.misses;
    return std::nullopt;
  }
  spec.handle.Wait();
  if (spec.task->cancel.cancelled()) {
    // Defensive: a cancelled task may hold a partial result.
    ++prefetch_stats_.misses;
    return std::nullopt;
  }
  ++prefetch_stats_.hits;
  if (spec.stage == SpecStage::kFitScan) ++prefetch_stats_.hits_post_refit;
  return std::move(spec.task->result);
}

void SearcherBase::RetireSpeculation(Speculation&& spec) {
  spec.task->cancel.RequestCancel();
  spec.task->ReleaseBudgetOnce();
  // Don't wait here (the foreground recompute should start immediately);
  // park the handles for the destructor to drain. A kAwaitLabels speculation
  // never submitted anything, so its handles are empty.
  if (spec.fit_handle.valid()) {
    stale_speculations_.push_back(std::move(spec.fit_handle));
  }
  if (spec.handle.valid()) {
    stale_speculations_.push_back(std::move(spec.handle));
  }
}

void SearcherBase::InvalidatePrefetch() {
  if (!spec_.has_value()) return;
  RetireSpeculation(std::move(*spec_));
  spec_.reset();
  ++prefetch_stats_.invalidated;
}

std::vector<PatchLabel> SearcherBase::LabelPatches(
    const ImageFeedback& feedback) const {
  auto [begin, end] = embedded_->ImagePatchRange(feedback.image_idx);
  std::vector<PatchLabel> labels;
  labels.reserve(end - begin);
  // Relevant feedback without region boxes means "the whole image is
  // relevant" (a UI without box support, or a keyboard-only mark).
  const bool whole_image = feedback.relevant && feedback.boxes.empty();
  for (uint32_t v = begin; v < end; ++v) {
    bool positive = whole_image;
    if (feedback.relevant && !whole_image) {
      const data::Box& patch_box = embedded_->patch(v).box;
      for (const data::Box& fb_box : feedback.boxes) {
        if (patch_box.Overlaps(fb_box)) {
          positive = true;
          break;
        }
      }
    }
    labels.push_back({v, positive});
  }
  return labels;
}

}  // namespace seesaw::core
