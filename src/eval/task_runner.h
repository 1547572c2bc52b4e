// The paper's benchmark task (§5.1): starting from the category-name text
// query, find `target_positives` (10) examples within `max_images` (60)
// inspected images, with the dataset ground truth standing in for the human
// (relevance + region boxes as feedback).
#ifndef SEESAW_EVAL_TASK_RUNNER_H_
#define SEESAW_EVAL_TASK_RUNNER_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/searcher.h"
#include "core/service.h"
#include "data/dataset.h"

namespace seesaw::eval {

/// Task parameters (paper: find 10 within 60).
struct TaskOptions {
  size_t target_positives = 10;
  size_t max_images = 60;
  /// Images shown between refits ("each loop consists of a batch of a user
  /// specified size"). Active-search baselines use 1.
  size_t batch_size = 10;
  /// Simulated human think time per inspected image (seconds). The runner
  /// sleeps this long after each image's feedback — including after the
  /// batch's last label, before the refit — modelling the inspection gap
  /// that speculative prefetch overlaps with (§2.4's interactive-latency
  /// argument): the post-last-label dwell is where a refit speculation runs
  /// its predicted fit + scan. 0 (the default) reproduces the pure-compute
  /// benchmark.
  double think_seconds_per_image = 0.0;
};

/// Outcome of one search task.
///
/// Latency is accounted two ways: `perceived_seconds` is the wall time the
/// simulated user actually waits on the searcher (NextBatch + feedback +
/// refit calls — what prefetch improves), while `total_seconds` is the whole
/// task including simulated think time (with think time 0 the two agree up
/// to timer overhead). Background speculation overlapping think time shows
/// up as perceived < compute-only runs, not as extra total time.
struct TaskResult {
  double ap = 0.0;              ///< Task AP (see metrics.h).
  size_t found = 0;             ///< Positives found (<= target).
  size_t inspected = 0;         ///< Images inspected (<= max_images).
  size_t rounds = 0;            ///< Feedback rounds executed.
  std::vector<char> relevance;  ///< Per-inspected-image relevance sequence.
  double total_seconds = 0.0;   ///< Whole-task wall time (incl. think time).
  /// Mean user-perceived latency per feedback iteration (the Table 6
  /// metric): perceived_seconds / rounds.
  double seconds_per_round = 0.0;
  /// Wall time blocked on the searcher (NextBatch + AddFeedback + Refit).
  double perceived_seconds = 0.0;
  /// Portion of perceived_seconds spent inside NextBatch — the lookup
  /// latency that think-time prefetch hides.
  double nextbatch_seconds = 0.0;
  /// Portion of perceived_seconds spent inside Refit — the aligner fit, or
  /// the wait for a speculative one that Refit adopts.
  double refit_seconds = 0.0;
  /// Total simulated think time slept (inspected * think_seconds_per_image).
  double think_seconds = 0.0;
};

/// Runs one task: drives `searcher` with ground-truth feedback for
/// `concept_id` until the target is met or the budget is exhausted.
TaskResult RunSearchTask(core::Searcher& searcher,
                         const data::Dataset& dataset, size_t concept_id,
                         const TaskOptions& options);

/// Builds a fresh searcher for a concept (captures dataset + method config).
using SearcherFactory =
    std::function<std::unique_ptr<core::Searcher>(size_t concept_id)>;

/// Results of a multi-query benchmark run.
struct BenchmarkRun {
  std::vector<size_t> concepts;
  std::vector<TaskResult> results;

  /// AP values in concept order.
  std::vector<double> Aps() const;
  double MeanAp() const;
};

/// Runs the task for every concept in `concepts` with a fresh searcher each.
BenchmarkRun RunBenchmark(const SearcherFactory& factory,
                          const data::Dataset& dataset,
                          const std::vector<size_t>& concepts,
                          const TaskOptions& options);

/// Runs the task for every concept through `service.sessions()`: each task
/// opens a managed session (by the concept's text query), drives it with
/// ground-truth feedback, and closes it — tasks run concurrently from
/// `driver_threads` driver threads while all sessions share the manager's
/// lookup pool. This is the many-concurrent-users serving path end to end.
///
/// Driver threads mostly block inside session calls whose work runs on the
/// manager's pool, so by default (`driver_threads` = 0) the driver pool is
/// sized to half the session pool (at least 1, at most one per concept)
/// rather than a second full hardware pool — a full-size driver pool doubled
/// the runnable threads and skewed the latency numbers. Size the session
/// pool itself via ServiceOptions::session_threads.
BenchmarkRun RunManagedBenchmark(core::SeeSawService& service,
                                 const data::Dataset& dataset,
                                 const std::vector<size_t>& concepts,
                                 const TaskOptions& options,
                                 size_t driver_threads = 0);

}  // namespace seesaw::eval

#endif  // SEESAW_EVAL_TASK_RUNNER_H_
