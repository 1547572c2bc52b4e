#include "core/seesaw_searcher.h"

#include "common/check.h"

namespace seesaw::core {

SeeSawSearcher::SeeSawSearcher(const EmbeddedDataset& embedded,
                               linalg::VectorF q_text,
                               const SeeSawOptions& options)
    : SearcherBase(embedded), options_(options), query_(q_text) {
  SEESAW_CHECK_EQ(q_text.size(), embedded.dim());
  set_prefetch_policy(options_.prefetch);
  aligner_ = std::make_unique<QueryAligner>(options_.aligner,
                                            std::move(q_text), embedded.md());
}

std::string SeeSawSearcher::name() const {
  if (!options_.label.empty()) return options_.label;
  if (!options_.update_query) return "zero-shot";
  if (!options_.aligner.loss.use_text_term) return "few-shot";
  if (!options_.aligner.loss.use_db_term) return "query-align";
  return "seesaw";
}

std::vector<ScoredImage> SeeSawSearcher::NextBatch(size_t n) {
  std::vector<ScoredImage> batch;
  if (auto prefetched = TakePrefetched(linalg::VecSpan(query_), n)) {
    batch = std::move(*prefetched);
  } else {
    batch = TopImages(linalg::VecSpan(query_), n);
  }
  // Overlap the next lookup with the user's think time. Zero-shot never
  // moves the query, so the scan can start now; the query-updating variants
  // speculate through the refit instead — once this batch is fully labeled,
  // the aligner runs on a cloned snapshot of the feedback received and the
  // scan launches with the predicted post-refit query.
  if (!options_.update_query) {
    SchedulePrefetch(linalg::VecSpan(query_), batch, n);
  } else {
    SchedulePrefetchAfterRefit(batch, n, *aligner_);
  }
  return batch;
}

void SeeSawSearcher::AddFeedback(const ImageFeedback& feedback) {
  if (options_.update_query) {
    for (const PatchLabel& label : LabelPatches(feedback)) {
      aligner_->AddFeedback(embedded().vectors().Row(label.vec_id),
                            label.positive);
    }
  }
  // Aligner first, then MarkSeen: marking the last predicted image seen arms
  // the speculative refit, whose snapshot must already contain this image's
  // labels. Feedback outside the predicted batch invalidates inside
  // MarkSeen, stopping the background scan at its next checkpoint.
  MarkSeen(feedback.image_idx);
}

Status SeeSawSearcher::Refit() {
  // The aligner's fit generation covers every fit-state mutation — image
  // feedback, soft feedback and options changes through mutable_aligner(),
  // Reset() — so none of them can be silently skipped here.
  if (!options_.update_query ||
      aligner_->fit_generation() == refitted_generation_) {
    return Status::OK();
  }
  // Adopt the speculative fit when it was computed from exactly the live fit
  // state: it is then bit for bit the fit Align() would run (determinism
  // contract, core/aligner.h), so fitting again would only burn CPU.
  linalg::VectorF aligned;
  if (std::optional<AlignerFit> fit =
          TakeSpeculativeFit(aligner_->fit_key())) {
    aligned = aligner_->Adopt(*std::move(fit));
  } else {
    SEESAW_ASSIGN_OR_RETURN(aligned, aligner_->Align());
  }
  const bool moved = aligned != query_;
  if (moved) query_ = std::move(aligned);
  // Reconcile the refit with any speculation: a same-query speculation
  // survives only an unmoved query; a speculative refit survives exactly
  // when this refit landed bitwise on its predicted query (always, after an
  // adoption), in which case the background scan is already computing the
  // next batch.
  CommitRefit(linalg::VecSpan(query_), moved);
  refitted_generation_ = aligner_->fit_generation();
  return Status::OK();
}

}  // namespace seesaw::core
