// Shared machinery for vector-query searchers: seen-image bookkeeping,
// max-pooled image ranking over the patch store, mapping of box feedback to
// patch labels (§4.3), and think-time speculative prefetch of the next
// batch — including speculation *through* a query-moving refit.
#ifndef SEESAW_CORE_SEARCHER_BASE_H_
#define SEESAW_CORE_SEARCHER_BASE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "core/aligner.h"
#include "core/embedded_dataset.h"
#include "core/searcher.h"
#include "store/seen_set.h"

namespace seesaw::core {

/// One labeled patch derived from image feedback.
struct PatchLabel {
  uint32_t vec_id = 0;
  bool positive = false;
};

/// Think-time speculation policy (SeeSawOptions::prefetch).
///
/// When enabled, a searcher with a thread pool overlaps the next batch's
/// lookup with the user's inspection time. Two speculation shapes exist:
///
///  - Same-query (zero-shot paging): the scan launches right after NextBatch
///    with the current query, predicting the user labels exactly the
///    returned batch and the refit leaves the query unchanged.
///  - Through-the-refit (the full seesaw loop): the speculation first waits
///    for the predicted batch to be fully labeled, then runs the *aligner*
///    speculatively on the feedback received (a cloned snapshot, so the live
///    session is never touched) and launches the scan with the predicted
///    post-refit query. The real Refit() adopts that fit instead of fitting
///    again whenever the snapshot is still the aligner's live fit state
///    (same fit generation and warm start); otherwise it fits locally. The
///    scan is consumed when the refit's query is bitwise the prediction.
///
/// Any deviation — feedback outside the predicted batch, extra soft
/// feedback, changed aligner options, a refit landing on different bits —
/// cancels the speculation (mid-scan, via store::ScanControl) and NextBatch
/// recomputes synchronously. Results are bitwise identical to the
/// non-speculative path in all cases: an adopted fit is the fit Align()
/// would run, by the aligner's determinism contract (core/aligner.h).
struct PrefetchPolicy {
  bool enabled = false;
  /// Maximum speculations in flight across all sessions sharing one
  /// PrefetchBudget; 0 = unlimited. A slot covers the whole speculative
  /// pipeline — including the aligner fit, which burns CPU unlike a pure
  /// scan — so a fleet of idle sessions can neither starve foreground
  /// lookups nor soak the pool in background fits. Read only by the budget's
  /// owner when sizing it (SessionManager, from the service-level policy);
  /// searchers themselves consult just `enabled` and are uncapped unless
  /// handed a budget via set_prefetch_budget.
  size_t max_in_flight = 2;
};

/// Shared in-flight speculation counter for the sessions of one manager.
/// Thread-safe; sessions without a budget speculate without a cap.
///
/// Accounting is a single atomic, exempt from GUARDED_BY (see
/// common/thread_annotations.h): the counter is a pure admission throttle,
/// no data is ever published through it — slot holders synchronize their
/// results via TaskHandle completion — so every access is
/// memory_order_relaxed, and a momentarily stale in_flight() is fine (the
/// CAS in TryAcquire still makes each admission decision against a value
/// that was true at some instant, which is all a cap needs).
class PrefetchBudget {
 public:
  /// `max_in_flight` = 0 means unlimited.
  explicit PrefetchBudget(size_t max_in_flight) : max_(max_in_flight) {}

  /// Claims a slot; false when the budget is exhausted.
  bool TryAcquire() {
    size_t cur = in_flight_.value.load(std::memory_order_relaxed);
    for (;;) {
      if (max_ != 0 && cur >= max_) return false;
      if (in_flight_.value.compare_exchange_weak(
              cur, cur + 1, std::memory_order_relaxed)) {
        return true;
      }
    }
  }

  /// Returns a slot. Every Release must pair with exactly one successful
  /// TryAcquire (SpecTask::ReleaseBudgetOnce is the callers' single-release
  /// gate). An unmatched Release would wrap the unsigned counter to
  /// SIZE_MAX and silently disable speculation manager-wide (in_flight >=
  /// max forever, every future TryAcquire refused) — a negative balance is
  /// a programming error worth an abort, not a quiet throttle.
  void Release() {
    size_t prev = in_flight_.value.fetch_sub(1, std::memory_order_relaxed);
    SEESAW_CHECK_GT(prev, 0u)
        << "PrefetchBudget::Release without a matching TryAcquire";
  }

  size_t in_flight() const {
    return in_flight_.value.load(std::memory_order_relaxed);
  }

 private:
  const size_t max_;  // immutable after construction; read without a lock
  /// Padded to its own line: one budget is shared by every session of a
  /// manager, so under load many pool workers CAS/decrement it while the
  /// const `max_` beside it is read on each admission — unpadded, the
  /// budget's write traffic would also evict readers of whatever the
  /// enclosing object packs around it (memory-audit contract, PR 9).
  CacheAligned<std::atomic<size_t>> in_flight_;
};

/// Per-searcher speculation counters (bench_prefetch_latency reports these).
struct PrefetchStats {
  size_t scheduled = 0;    ///< Speculations scheduled (either shape).
  size_t hits = 0;         ///< NextBatch calls served from a speculation.
  size_t misses = 0;       ///< Speculations invalid at consume time.
  size_t invalidated = 0;  ///< Speculations cancelled eagerly (feedback/refit).
  size_t throttled = 0;    ///< Speculations skipped: shared budget exhausted.
  // Through-the-refit accounting (zero for same-query speculations):
  size_t refit_fits = 0;       ///< Speculative aligner fits launched.
  size_t refit_adopted = 0;    ///< Refits that installed the speculative fit
                               ///< instead of running their own.
  size_t refit_matches = 0;    ///< Refits landing bitwise on the predicted
                               ///< query (the speculative scan survives).
  size_t refit_mismatches = 0; ///< Armed fits discarded at refit time (state
                               ///< diverged between arm and Refit, or the
                               ///< speculative fit failed).
  size_t hits_post_refit = 0;  ///< Subset of `hits` whose scan ran with a
                               ///< predicted post-refit query.
};

/// Base class holding the embedded dataset and the seen sets.
///
/// Seen state is kept at both granularities the system needs: per image for
/// the interaction loop, and per patch vector so the store scan tests a
/// reusable bitset instead of rebuilding an exclusion closure every batch.
///
/// Threading: the searcher itself stays single-threaded (one user drives one
/// session). Speculative tasks never touch the searcher — they work on
/// snapshot copies of the query, the seen sets and (for refit speculation)
/// the aligner state, and only meet the searcher again through TaskHandles,
/// so feedback can mutate the live state while a speculation is in flight.
///
/// Refit-speculation state machine (one speculation at a time):
///
///   NextBatch ── same-query policy ──▶ [kScan: scan(current query)]
///       │
///       └── refit policy ──▶ [kAwaitLabels]
///                                │ last predicted image labeled ("armed")
///                                ▼
///                     [kFitScan: fit(cloned aligner) → scan(predicted q)]
///                                │ Refit(): adopts the fit if its state is
///                                │ live; aligned == predicted (bitwise)
///                                ▼
///                     [blessed: consumable by the next NextBatch]
///
/// Exits from every state: feedback outside the predicted batch, a refit
/// whose query lands on different bits, a changed lookup (n / query /
/// generation) at consume time — each cancels the speculation (the token
/// stops the scan at its next in-scan checkpoint) and the caller recomputes
/// synchronously.
class SearcherBase : public Searcher {
 public:
  explicit SearcherBase(const EmbeddedDataset& embedded);

  /// Cancels and drains any in-flight speculation.
  ~SearcherBase() override;

  const EmbeddedDataset& embedded() const { return *embedded_; }
  size_t num_seen() const { return seen_images_.count(); }
  bool IsSeen(uint32_t image_idx) const { return seen_images_.Test(image_idx); }

  /// Worker pool for sharded store lookups and speculative prefetch; null
  /// (the default) keeps lookups on the calling thread and disables
  /// speculation. Managed sessions share their SessionManager's pool. The
  /// pool must outlive the searcher.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* thread_pool() const { return pool_; }

  /// Speculation policy; subclasses opt in by calling SchedulePrefetch /
  /// SchedulePrefetchAfterRefit / TakePrefetched from their NextBatch.
  void set_prefetch_policy(const PrefetchPolicy& policy) {
    prefetch_policy_ = policy;
  }
  const PrefetchPolicy& prefetch_policy() const { return prefetch_policy_; }

  /// Optional cross-session in-flight cap (owned by the SessionManager; must
  /// outlive every queued speculation, which the manager guarantees by
  /// joining its pool first).
  void set_prefetch_budget(PrefetchBudget* budget) { budget_ = budget; }

  const PrefetchStats& prefetch_stats() const { return prefetch_stats_; }

 protected:
  /// Marks an image (and all of its patch vectors) as shown/labeled.
  /// Invalidates an in-flight speculation when the image deviates from the
  /// predicted batch; arms a pending refit speculation when it completes it.
  void MarkSeen(uint32_t image_idx);

  /// Top-n unseen images by max patch score under `query` (best first).
  /// Retries the store with a growing k until n distinct unseen images are
  /// found or the store is exhausted.
  std::vector<ScoredImage> TopImages(linalg::VecSpan query, size_t n) const;

  /// Schedules a same-query speculative TopImages for the *next* batch on
  /// the pool: same query and n, seen sets snapshotted as if every image of
  /// `batch` had been labeled. For searchers whose refit never moves the
  /// query (zero-shot). No-op when the policy is off, the pool is null, the
  /// batch is empty (store exhausted), or the shared budget is spent.
  void SchedulePrefetch(linalg::VecSpan query,
                        const std::vector<ScoredImage>& batch, size_t n);

  /// Schedules a through-the-refit speculation: the same seen-set prediction
  /// as SchedulePrefetch, but the scan query is unknown until the aligner
  /// runs. The speculation idles (kAwaitLabels) until every image of `batch`
  /// has been labeled; at that moment `aligner` is snapshotted on the
  /// searcher's thread, the shared budget is charged, and a fit → scan
  /// pipeline launches on the pool. CommitRefit later decides consume vs
  /// cancel. No-op under the same conditions as SchedulePrefetch (the budget
  /// is checked at arm time, when CPU is actually about to burn). `aligner`
  /// is the searcher's own and must stay alive while the speculation waits
  /// for labels.
  void SchedulePrefetchAfterRefit(const std::vector<ScoredImage>& batch,
                                  size_t n, const QueryAligner& aligner);

  /// Refit's adoption path. When an armed speculative fit was computed from
  /// `live_key` (the aligner's fit state now), waits for it — claiming it if
  /// it is still queued — and hands over its outcome for
  /// QueryAligner::Adopt. Returns nullopt when there is no armed fit, it
  /// failed or was cancelled, or the state moved since arm time; the caller
  /// then fits locally. Call before CommitRefit, which still compares bits.
  std::optional<AlignerFit> TakeSpeculativeFit(const AlignerFitKey& live_key);

  /// Subclasses call this from Refit() with the freshly aligned query after
  /// updating their live query vector (`query_moved` = the vector changed
  /// bitwise). Bumps the lookup generation on a move, and reconciles any
  /// armed refit speculation: waits for the speculative fit (not the scan),
  /// compares bitwise, and either blesses the speculation to survive the
  /// query move — the next NextBatch can then consume its scan — or cancels
  /// it. Safe to call with no speculation pending (plain generation bump).
  void CommitRefit(linalg::VecSpan refit_query, bool query_moved);

  /// Consumes the speculation if it exactly matches the requested lookup
  /// (generation, query bits, n, and the live seen set all unchanged from
  /// the prediction); otherwise cancels it and returns nullopt, and the
  /// caller computes synchronously. A valid consume waits for the task
  /// (running it here if no worker has started it) and returns its result,
  /// which is bitwise identical to what TopImages would return now.
  std::optional<std::vector<ScoredImage>> TakePrefetched(linalg::VecSpan query,
                                                         size_t n);

  /// Cancels and forgets any in-flight speculation.
  void InvalidatePrefetch();

  /// Converts image feedback to patch labels: for a relevant image, patches
  /// overlapping any feedback box are positive and the rest negative; for an
  /// irrelevant image every patch is negative. (The coarse tile of a
  /// relevant image always overlaps, hence is always positive — exactly the
  /// paper's rule.)
  std::vector<PatchLabel> LabelPatches(const ImageFeedback& feedback) const;

 private:
  /// Lifecycle of the single speculation slot (see the class comment).
  enum class SpecStage {
    kScan,         ///< Scan in flight with a known (unmoved) query.
    kAwaitLabels,  ///< Refit speculation waiting for the batch's labels;
                   ///< nothing submitted, no budget held.
    kFitScan,      ///< Fit → scan pipeline in flight with the predicted
                   ///< post-refit query.
  };

  /// Everything a speculative task reads or writes, shared between the
  /// searcher and the pool tasks so the tasks never dereference the searcher
  /// (which may be mutated or destroyed while they run).
  ///
  /// Threading contract (no mutex, by design — so no GUARDED_BY): each
  /// non-atomic field has exactly one writer phase, and every cross-thread
  /// read is ordered after that writer by a TaskHandle wait (whose
  /// completion is published under the handle's mutex with release/acquire
  /// semantics — see TaskHandle::State::done). Concretely:
  ///  - query/n/seen_patches/snapshot: written on the searcher's thread
  ///    before the task is submitted (Submit's queue mutex orders the
  ///    hand-off); for a kFitScan speculation, `query` is re-written by the
  ///    fit task and only read after fit_handle.Wait(), and `snapshot` is
  ///    read and then reset by the fit task alone.
  ///  - fit_ok/fit: written by the fit task, read after fit_handle.Wait().
  ///    Only the searcher's thread reads `fit` (TakeSpeculativeFit moves it
  ///    out); the scan task reads `query` and `fit_ok`, never `fit`.
  ///  - result: written by the scan task, read after handle.Wait().
  ///  - cancel / budget_released: atomics; safe from any thread at any time.
  /// The thread-safety analysis cannot check handle-ordered hand-offs (it
  /// only knows capabilities), which is exactly why this struct keeps the
  /// explicit per-field contract above and the TSan leg keeps running.
  struct SpecTask {
    linalg::VectorF query;        // lookup query: snapshotted at schedule for
                                  // kScan; written by the fit task for
                                  // kFitScan (read only after its handle)
    store::SeenSet seen_patches;  // snapshot incl. the predicted batch
    size_t n = 0;
    CancellationToken cancel;
    std::vector<ScoredImage> result;  // written by the scan task, read after
                                      // Wait
    std::optional<AlignerSnapshot> snapshot;  // set at arm time (kFitScan
                                              // only), reset by the fit task
    bool fit_ok = false;   // written by the fit task before its handle
                           // completes; read after fit_handle.Wait()
    std::optional<AlignerFit> fit;  // the fit task's whole outcome, until
                                    // TakeSpeculativeFit moves it out

    /// Returns the budget slot exactly once: at task completion, or eagerly
    /// at cancellation so a cancelled-but-still-queued task doesn't hold a
    /// slot and throttle other sessions' live speculations. (The cancelled
    /// task may thus briefly overlap a fresh one — it stops at its next
    /// checkpoint.)
    void ReleaseBudgetOnce() {
      if (budget != nullptr && !budget_released.exchange(true)) {
        budget->Release();
      }
    }
    PrefetchBudget* budget = nullptr;
    std::atomic<bool> budget_released{false};
  };

  /// The searcher-side view of the single speculation slot. Every field is
  /// read and written on the searcher's thread only (one user drives one
  /// session — the class contract); pool tasks see none of this, only the
  /// shared SpecTask above. Stage transitions (kScan / kAwaitLabels →
  /// kFitScan → blessed) therefore need no lock: they are ordinary
  /// single-threaded writes, and the cross-thread edges all run through
  /// `task` and the two handles.
  struct Speculation {
    std::shared_ptr<SpecTask> task;
    store::SeenSet seen_images;  // predicted image-level seen set
    uint64_t expected_generation = 0;
    SpecStage stage = SpecStage::kScan;
    /// Whether task->query is published and safe to read/compare on the
    /// searcher's thread: true from the start for kScan, true after
    /// CommitRefit blessed a kFitScan speculation (its fit handle was
    /// waited, which orders the fit task's write).
    bool query_known = false;
    /// Predicted-batch images not yet labeled (kAwaitLabels arming counter).
    size_t images_remaining = 0;
    const QueryAligner* aligner = nullptr;  // kAwaitLabels only
    TaskHandle fit_handle;  // kFitScan: the fit stage
    TaskHandle handle;      // the scan (kScan, or kFitScan after the fit)
  };

  /// The pure lookup: like TopImages but over explicit inputs only, so it
  /// can run on a pool thread against snapshots. Checks `cancel` (when
  /// non-null) between store rounds and returns early when requested.
  static std::vector<ScoredImage> ComputeTopImages(
      const EmbeddedDataset& embedded, ThreadPool* pool, linalg::VecSpan query,
      size_t n, const store::SeenSet& seen_patches,
      const CancellationToken* cancel);

  /// Shared head of both Schedule entry points: supersedes the current
  /// speculation and prunes finished stale handles. Returns false when the
  /// policy/pool/batch preconditions rule speculation out.
  bool BeginSchedule(const std::vector<ScoredImage>& batch);

  /// Builds the shared speculation skeleton: the task snapshot (seen patches
  /// + predicted batch patches), the predicted image seen set, and the
  /// number of genuinely new images in the batch.
  Speculation MakeSpeculation(const std::vector<ScoredImage>& batch, size_t n,
                              size_t* new_images);

  /// kAwaitLabels → kFitScan: snapshots the aligner (on the calling =
  /// searcher's thread), charges the budget, and launches the fit → scan
  /// pipeline.
  void ArmPredictedFit();

  /// Cancels the speculation's tasks (if any), returns its budget slot and
  /// parks its handles for the destructor to drain.
  void RetireSpeculation(Speculation&& spec);

  const EmbeddedDataset* embedded_;
  store::SeenSet seen_images_;   // over image indices
  store::SeenSet seen_patches_;  // over patch vector ids, fed to the store
  ThreadPool* pool_ = nullptr;

  PrefetchPolicy prefetch_policy_;
  PrefetchBudget* budget_ = nullptr;
  PrefetchStats prefetch_stats_;
  /// Bumped by every state change that can affect a lookup (MarkSeen, query
  /// moves committed via CommitRefit); a speculation predicts the generation
  /// at its consume point.
  uint64_t generation_ = 0;
  std::optional<Speculation> spec_;
  /// Handles of cancelled speculations that may still be running a scan
  /// round. Kept so the destructor can drain them: a task must never
  /// outlive its searcher, or it could submit nested pool work while the
  /// pool is shutting down. Pruned of finished handles on each schedule.
  std::vector<TaskHandle> stale_speculations_;
};

}  // namespace seesaw::core

#endif  // SEESAW_CORE_SEARCHER_BASE_H_
