// SeeSawSearcher: the full system of the paper, and — via its ablation
// switches — the zero-shot, few-shot and query-align-only variants used in
// Tables 2 and 3.
//
//   Method            update_query  loss.use_text_term  loss.use_db_term
//   zero-shot CLIP    false         -                   -
//   few-shot CLIP     true          false               false
//   + query align     true          true                false
//   + DB align        true          true                true
#ifndef SEESAW_CORE_SEESAW_SEARCHER_H_
#define SEESAW_CORE_SEESAW_SEARCHER_H_

#include <memory>
#include <string>

#include "core/aligner.h"
#include "core/searcher_base.h"

namespace seesaw::core {

/// Configuration for SeeSawSearcher.
struct SeeSawOptions {
  AlignerOptions aligner;
  /// When false the query vector is never updated (zero-shot behaviour).
  bool update_query = true;
  /// Think-time speculative prefetch of the next batch (needs a thread
  /// pool; see PrefetchPolicy). Zero-shot variants speculate with the
  /// current query; query-updating variants speculate *through* the refit —
  /// once the shown batch is fully labeled, the aligner runs speculatively
  /// on a cloned snapshot and the scan launches with the predicted post-refit
  /// query. Refit() adopts that fit rather than fitting again, and only an
  /// adopted fit's scan can serve the next batch. Results stay bitwise
  /// identical to the synchronous path whether speculation hits or not.
  PrefetchPolicy prefetch;
  /// Method name override for reports; empty = derived from flags.
  std::string label;
};

/// The user-facing search session state for one text query.
///
/// Threading contract: a searcher is confined to one user thread — the
/// public API (NextBatch/AddFeedback/Refit) is never called concurrently,
/// which is why none of its members carry a SEESAW_GUARDED_BY. Concurrency
/// enters only through the speculation machinery it inherits from
/// SearcherBase: background work runs as pool tasks that communicate back
/// exclusively via TaskHandle completion and the CancellationToken (see the
/// SpecTask/Speculation contracts in searcher_base.h). SessionManager
/// serializes cross-thread access to the sessions themselves.
class SeeSawSearcher : public SearcherBase {
 public:
  /// `q_text` is the embedded text query (q0). The embedded dataset must
  /// outlive the searcher. When DB alignment is enabled but the dataset has
  /// no M_D, the DB term is silently skipped (matching a coarse-only
  /// deployment without preprocessing).
  SeeSawSearcher(const EmbeddedDataset& embedded, linalg::VectorF q_text,
                 const SeeSawOptions& options);

  std::string name() const override;
  std::vector<ScoredImage> NextBatch(size_t n) override;
  void AddFeedback(const ImageFeedback& feedback) override;
  Status Refit() override;

  /// The query vector currently used for lookups.
  const linalg::VectorF& current_query() const { return query_; }

  /// Aligner diagnostics (iterations of the last refit etc.).
  const QueryAligner& aligner() const { return *aligner_; }

  /// Mutable aligner access for advanced drivers (soft feedback from a
  /// propagation front end, mid-session hyper-parameter changes). Any
  /// mutation counts as new fit state, including a direct Align(), which
  /// moves the warm start, and a set_options() with unchanged values: the
  /// next Refit() refuses to adopt an armed speculative fit of the old state
  /// (QueryAligner::fit_key() differs), cancels its speculation and fits
  /// locally, even when the local fit lands on the predicted bits.
  QueryAligner& mutable_aligner() { return *aligner_; }

 private:
  SeeSawOptions options_;
  linalg::VectorF query_;
  std::unique_ptr<QueryAligner> aligner_;
  /// Aligner fit generation the current query_ was refit at; Refit() is a
  /// no-op while the aligner still sits at this generation. Tracking the
  /// generation (not a local dirty flag) makes every fit-state mutation
  /// refit-visible, including ones through mutable_aligner().
  uint64_t refitted_generation_ = 0;
};

}  // namespace seesaw::core

#endif  // SEESAW_CORE_SEESAW_SEARCHER_H_
