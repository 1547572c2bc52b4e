// QueryAligner: the `query_align` of Listing 1 — turns the text query plus
// accumulated box feedback into the next query vector by minimizing the
// AlignerLoss with L-BFGS. Work per call grows with the amount of feedback
// (plus a d x d product), never with the database size — the paper's central
// scalability property.
//
// Determinism contract: Align() is a pure function of the aligner's state
// (options, q_text, accumulated examples in insertion order, warm start).
// The whole fit path — AlignerLoss::Evaluate, linalg::DotDouble / MatVec,
// and optim::Lbfgs::Minimize — is sequential arithmetic with no randomness,
// no time dependence and no thread-count dependence, and the SIMD kernel
// layer guarantees bitwise-identical scores per process (linalg/simd.h), so
// identical feedback sequences yield bitwise-identical aligned queries.
// The think-time refit speculation (searcher_base.h) rests on this: a fit
// over a Snapshot() taken at the live fit_key() is bit for bit the fit
// Align() would run, so the real Refit() adopts it (Adopt) instead of
// fitting a second time. Correctness of that adoption — not just the
// speculation's hit rate — depends on the contract, which is enforced by
// tests/aligner_determinism_test.cc.
#ifndef SEESAW_CORE_ALIGNER_H_
#define SEESAW_CORE_ALIGNER_H_

#include <vector>

#include "common/statusor.h"
#include "core/loss.h"
#include "optim/lbfgs.h"

namespace seesaw::core {

/// Aligner configuration.
struct AlignerOptions {
  LossOptions loss;
  optim::LbfgsOptions lbfgs = [] {
    optim::LbfgsOptions o;
    o.max_iterations = 60;  // "a few tens of steps" (§4.4)
    o.gradient_tolerance = 1e-6;
    return o;
  }();
  /// Warm-start each Align() from the previous solution instead of q0.
  bool warm_start = true;
};

/// Names the fit state Align() reads. `fit_generation` versions the
/// feedback, options and resets; `warm_version` counts installed fits,
/// because Align() moves the warm start without bumping the generation. A fit
/// computed at a key is exactly the fit Align() would run while fit_key()
/// still equals it.
struct AlignerFitKey {
  uint64_t fit_generation = 0;
  uint64_t warm_version = 0;
  bool operator==(const AlignerFitKey&) const = default;
};

/// Frozen copy of everything Align() reads: options, text query, the
/// accumulated feedback (deep copy, insertion order preserved) and the warm
/// start. A snapshot is self-contained — FitSnapshot(snapshot) may run on any
/// thread while the live aligner keeps accumulating feedback. Cost: the
/// examples table (num_examples x dim floats), tiny next to one store scan.
struct AlignerSnapshot {
  AlignerOptions options;
  linalg::VectorF q_text;
  AlignerLoss loss;
  optim::VectorD warm;
  bool have_warm = false;
  /// The live fit state the snapshot was taken at.
  AlignerFitKey key;
};

/// The whole outcome of one fit: the query Align() returns plus what it
/// installs in the aligner (the solver result, whose `x` becomes the next
/// warm start). Holds no feedback, so it is cheap to keep.
struct AlignerFit {
  /// The fit state this outcome was computed from.
  AlignerFitKey key;
  /// The unit-normalized next query vector.
  linalg::VectorF query;
  optim::OptimResult result;
  /// False when no feedback was recorded (query == q0, nothing to install).
  bool ran_solver = false;
};

/// Stateful per-search aligner. Not thread-safe; one instance per session.
/// The snapshot fit (Snapshot / FitSnapshot) is the exception: it never
/// touches mutable state, so speculative fits over snapshots may run
/// concurrently with anything. Installing such a fit (Adopt) is a mutation
/// like Align() and belongs to the owning thread.
class QueryAligner {
 public:
  /// `q_text` is the unit CLIP text embedding (q0). `md` may be null.
  QueryAligner(const AlignerOptions& options, linalg::VectorF q_text,
               const linalg::MatrixF* md);

  /// Records one labeled feedback vector (a patch embedding).
  void AddFeedback(linalg::VecSpan x, bool positive, float weight = 1.0f);

  /// Records a soft-labeled example (used by the propagation variant).
  void AddSoftFeedback(linalg::VecSpan x, float y, float weight = 1.0f);

  /// Drops all accumulated feedback (restarts the search).
  void Reset();

  /// Replaces the options mid-session (hyper-parameter adjustment). Counts
  /// as a fit-state change: a speculative fit taken under the old options no
  /// longer predicts Align().
  void set_options(const AlignerOptions& options);
  const AlignerOptions& options() const { return options_; }

  size_t num_positive() const { return num_positive_; }
  size_t num_negative() const { return num_negative_; }
  size_t num_examples() const { return loss_.num_examples(); }

  /// Version counter of the feedback, options and resets: bumped by
  /// AddFeedback, AddSoftFeedback, Reset and set_options, never by Align()
  /// (which moves only the warm start). SeeSawSearcher::Refit() is a no-op
  /// while it is unchanged.
  uint64_t fit_generation() const { return fit_generation_; }

  /// The live fit state: what a fit must have been computed from for
  /// Adopt() to accept it.
  AlignerFitKey fit_key() const { return {fit_generation_, warm_version_}; }

  /// Minimizes the loss and returns the unit-normalized next query vector
  /// q_{t+1}. With no feedback recorded, returns q0 unchanged.
  StatusOr<linalg::VectorF> Align();

  /// Clones the current fit state (cheap deep copy; see AlignerSnapshot).
  AlignerSnapshot Snapshot() const;

  /// The speculative-fit path: runs exactly the minimization Align() would
  /// run from `snapshot`'s state — same code, hence bitwise-identical output
  /// — without touching any live aligner (static: there is nothing to
  /// mutate). Safe to call from pool threads.
  static StatusOr<AlignerFit> FitSnapshot(const AlignerSnapshot& snapshot);

  /// Installs `fit` exactly as Align() installs its own (last_result(), the
  /// warm start) and returns its query. `fit.key` must equal fit_key(): a
  /// fit of any other state is not the fit Align() would run now.
  linalg::VectorF Adopt(AlignerFit fit);

  /// Statistics of the last fit Align() ran or Adopt() installed.
  const optim::OptimResult& last_result() const { return last_result_; }

 private:
  /// The shared fit core behind Align() and FitSnapshot(): a pure function
  /// of its inputs. Keeping both entry points on one code path is what makes
  /// the speculative fit bitwise-predictive of the real one.
  static StatusOr<AlignerFit> Fit(const AlignerOptions& options,
                                  const linalg::VectorF& q_text,
                                  const AlignerLoss& loss,
                                  const optim::VectorD* warm,
                                  AlignerFitKey key);

  AlignerOptions options_;
  linalg::VectorF q_text_;
  AlignerLoss loss_;
  optim::VectorD warm_;
  bool have_warm_ = false;
  size_t num_positive_ = 0;
  size_t num_negative_ = 0;
  uint64_t fit_generation_ = 0;
  uint64_t warm_version_ = 0;
  optim::OptimResult last_result_;
};

}  // namespace seesaw::core

#endif  // SEESAW_CORE_ALIGNER_H_
