#include "core/aligner.h"

#include "common/check.h"

namespace seesaw::core {

QueryAligner::QueryAligner(const AlignerOptions& options,
                           linalg::VectorF q_text, const linalg::MatrixF* md)
    : options_(options),
      q_text_(q_text),
      loss_(options.loss, std::move(q_text), md) {}

void QueryAligner::AddFeedback(linalg::VecSpan x, bool positive,
                               float weight) {
  loss_.AddExample(x, positive ? 1.0f : 0.0f, weight);
  if (positive) {
    ++num_positive_;
  } else {
    ++num_negative_;
  }
  ++fit_generation_;
}

void QueryAligner::AddSoftFeedback(linalg::VecSpan x, float y, float weight) {
  loss_.AddExample(x, y, weight);
  ++fit_generation_;
}

void QueryAligner::Reset() {
  loss_.ClearExamples();
  num_positive_ = 0;
  num_negative_ = 0;
  have_warm_ = false;
  ++fit_generation_;
}

void QueryAligner::set_options(const AlignerOptions& options) {
  options_ = options;
  loss_.set_options(options.loss);
  ++fit_generation_;
}

AlignerSnapshot QueryAligner::Snapshot() const {
  return AlignerSnapshot{options_, q_text_,    loss_,
                         warm_,    have_warm_, fit_key()};
}

StatusOr<AlignerFit> QueryAligner::Fit(const AlignerOptions& options,
                                       const linalg::VectorF& q_text,
                                       const AlignerLoss& loss,
                                       const optim::VectorD* warm,
                                       AlignerFitKey key) {
  AlignerFit fit;
  fit.key = key;
  if (loss.num_examples() == 0) {
    fit.query = q_text;  // no information yet: q1 = q0
    return fit;
  }
  const size_t d = q_text.size();
  optim::VectorD x0;
  if (options.warm_start && warm != nullptr) {
    x0 = *warm;
  } else {
    x0.assign(d, 0.0);
    for (size_t j = 0; j < d; ++j) x0[j] = q_text[j];
  }
  // Lbfgs is stateless between Minimize calls; a local instance keeps this
  // path free of shared mutable state (the speculative fit runs it on pool
  // threads).
  optim::Lbfgs lbfgs(options.lbfgs);
  SEESAW_ASSIGN_OR_RETURN(fit.result,
                          lbfgs.Minimize(loss.AsObjective(), std::move(x0)));
  fit.ran_solver = true;

  linalg::VectorF w(d);
  for (size_t j = 0; j < d; ++j) {
    w[j] = static_cast<float>(fit.result.x[j]);
  }
  float norm = linalg::NormalizeInPlace(linalg::MutVecSpan(w.data(), w.size()));
  if (norm <= 1e-12f) {
    // Degenerate all-zero solution (can only happen with pathological
    // hyper-parameters); fall back to the text query.
    fit.query = q_text;
    return fit;
  }
  fit.query = std::move(w);
  return fit;
}

StatusOr<linalg::VectorF> QueryAligner::Align() {
  SEESAW_ASSIGN_OR_RETURN(
      AlignerFit fit,
      Fit(options_, q_text_, loss_,
          (options_.warm_start && have_warm_) ? &warm_ : nullptr, fit_key()));
  return Adopt(std::move(fit));
}

StatusOr<AlignerFit> QueryAligner::FitSnapshot(
    const AlignerSnapshot& snapshot) {
  return Fit(snapshot.options, snapshot.q_text, snapshot.loss,
             (snapshot.options.warm_start && snapshot.have_warm)
                 ? &snapshot.warm
                 : nullptr,
             snapshot.key);
}

linalg::VectorF QueryAligner::Adopt(AlignerFit fit) {
  SEESAW_CHECK(fit.key == fit_key())
      << "QueryAligner::Adopt: the fit was computed from another fit state";
  if (fit.ran_solver) {
    warm_ = fit.result.x;
    have_warm_ = true;
    ++warm_version_;
    last_result_ = std::move(fit.result);
  }
  return std::move(fit.query);
}

}  // namespace seesaw::core
