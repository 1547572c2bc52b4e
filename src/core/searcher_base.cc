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
  seen_images_.Set(image_idx);
  auto [begin, end] = embedded_->ImagePatchRange(image_idx);
  for (uint32_t v = begin; v < end; ++v) seen_patches_.Set(v);
  // A surviving speculation only sees in-batch, previously-unseen images
  // here. When the last predicted label lands, the live state equals the
  // prediction and a speculation waiting for labels can start its fit.
  if (spec_.has_value() && !spec_->handle.valid() &&
      --spec_->images_remaining == 0) {
    Arm();
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

void SearcherBase::SchedulePrefetch(linalg::VecSpan query,
                                    const std::vector<ScoredImage>& batch,
                                    size_t n, const QueryAligner* aligner) {
  // At most one speculation per searcher; a new schedule supersedes the old.
  InvalidatePrefetch();
  std::erase_if(stale_speculations_,
                [](const TaskHandle& handle) { return handle.done(); });
  if (!prefetch_policy_.enabled || pool_ == nullptr || batch.empty()) return;

  auto task = std::make_shared<SpecTask>();
  task->seen_patches = seen_patches_;
  task->n = n;
  Speculation spec;
  spec.seen_images = seen_images_;
  // Predict the state after the user labels exactly this batch.
  for (const ScoredImage& hit : batch) {
    if (spec.seen_images.Test(hit.image_idx)) continue;
    spec.seen_images.Set(hit.image_idx);
    auto [begin, end] = embedded_->ImagePatchRange(hit.image_idx);
    for (uint32_t v = begin; v < end; ++v) task->seen_patches.Set(v);
    ++spec.images_remaining;
  }
  if (aligner == nullptr) {
    task->query.assign(query.begin(), query.end());
    spec.consumable = true;  // the query is predicted not to move
  } else if (spec.images_remaining == 0) {
    return;  // nothing to wait for; cannot arm
  }
  spec.aligner = aligner;
  spec.task = std::move(task);
  spec_ = std::move(spec);
  // A same-query scan starts now. A fit waits for the batch's labels:
  // nothing is submitted and no budget is held until then, so an abandoned
  // prediction costs nothing.
  if (aligner == nullptr) Arm();
  if (spec_.has_value()) ++prefetch_stats_.scheduled;
}

void SearcherBase::Arm() {
  SEESAW_CHECK(spec_.has_value());
  // A deferred arm re-validates what SchedulePrefetch checked: the driver
  // may have detached the pool or disabled the policy in between.
  if (pool_ == nullptr || !prefetch_policy_.enabled) {
    spec_.reset();
    ++prefetch_stats_.invalidated;
    return;
  }
  if (budget_ != nullptr && !budget_->TryAcquire()) {
    ++prefetch_stats_.throttled;
    spec_.reset();  // nothing running, nothing to cancel
    return;
  }
  std::shared_ptr<SpecTask> task = spec_->task;
  task->budget = budget_;

  if (spec_->aligner != nullptr) {
    // Every predicted label has landed, and nothing else has.
    SEESAW_CHECK(seen_images_ == spec_->seen_images);
    // Clone the fit state on this (the searcher's) thread, while it is
    // consistent; the task owns the clone outright, so the session can keep
    // accumulating feedback while the fit runs.
    task->snapshot = spec_->aligner->Snapshot();
    // The fit publishes its whole outcome — the predicted post-refit query
    // and what Refit() adopts — into the task; readers order themselves
    // after it via fit_handle.Wait().
    spec_->fit_handle = pool_->SubmitWithResult([task] {
      if (!task->cancel.cancelled()) {
        StatusOr<AlignerFit> fit = QueryAligner::FitSnapshot(*task->snapshot);
        if (fit.ok()) {
          task->query = fit->query;
          task->fit = *std::move(fit);
        }
      }
      // Drop the snapshot — the whole accumulated-feedback table — as soon
      // as the outcome is published, not when the speculation is eventually
      // consumed or drained.
      task->snapshot.reset();
    });
    ++prefetch_stats_.refit_fits;
  }
  // The task captures no pointer to this searcher: it works on the snapshot
  // and publishes its result through the handle's completion. Waiting on
  // the fit from a pool task is safe: the scan runs the fit itself if it is
  // still queued, and never runs anything else.
  TaskHandle fit_handle = spec_->fit_handle;
  const EmbeddedDataset* embedded = embedded_;
  ThreadPool* pool = pool_;
  spec_->handle =
      pool_->SubmitWithResult([task, fit_handle, embedded, pool]() mutable {
        if (fit_handle.valid()) fit_handle.Wait();
        if (!task->query.empty() && !task->cancel.cancelled()) {
          task->result =
              ComputeTopImages(*embedded, pool, task->query, task->n,
                               task->seen_patches, &task->cancel);
        }
        task->ReleaseBudgetOnce();
      });
}

std::optional<AlignerFit> SearcherBase::TakeSpeculativeFit(
    const AlignerFitKey& live_key) {
  if (!spec_.has_value() || !spec_->fit_handle.valid()) return std::nullopt;
  // Claims the fit if it is still queued and parks if a worker runs it;
  // during real think time it has long finished. The wait orders this
  // thread after the fit task's writes.
  spec_->fit_handle.Wait();
  std::optional<AlignerFit>& fit = spec_->task->fit;
  if (!fit.has_value() || fit->key != live_key) {
    // The session state moved between arm and refit (extra soft feedback,
    // changed aligner options, a direct Align(), ...), or the fit failed:
    // the scan is running against a query nobody adopted. Cancel it
    // mid-scan.
    ++prefetch_stats_.refit_mismatches;
    InvalidatePrefetch();
    return std::nullopt;
  }
  // The adopted fit is the refit, so its scan is exactly the lookup the
  // next NextBatch wants.
  spec_->consumable = true;
  ++prefetch_stats_.refit_adopted;
  ++prefetch_stats_.refit_matches;
  return std::exchange(fit, std::nullopt);
}

std::optional<std::vector<ScoredImage>> SearcherBase::TakePrefetched(
    linalg::VecSpan query, size_t n) {
  if (!spec_.has_value()) return std::nullopt;
  Speculation spec = std::move(*spec_);
  spec_.reset();

  // `consumable` gates the bit compare: an unadopted fit task may still be
  // writing its predicted query, and a speculation waiting for labels has
  // none at all.
  bool valid = spec.consumable && spec.task->n == n;
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
  if (spec.fit_handle.valid()) ++prefetch_stats_.hits_post_refit;
  return std::move(spec.task->result);
}

void SearcherBase::RetireSpeculation(Speculation&& spec) {
  spec.task->cancel.RequestCancel();
  spec.task->ReleaseBudgetOnce();
  // Don't wait here (the foreground recompute should start immediately);
  // park the handles for the destructor to drain. A speculation waiting for
  // labels never submitted anything, so its handles are empty.
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

void SearcherBase::InvalidatePendingPrefetch() {
  if (spec_.has_value() && !spec_->handle.valid()) InvalidatePrefetch();
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
