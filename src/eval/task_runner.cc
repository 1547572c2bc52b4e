#include "eval/task_runner.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/check.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/session_manager.h"
#include "eval/metrics.h"

namespace seesaw::eval {

TaskResult RunSearchTask(core::Searcher& searcher,
                         const data::Dataset& dataset, size_t concept_id,
                         const TaskOptions& options) {
  SEESAW_CHECK_GT(options.batch_size, 0u);
  TaskResult result;
  Stopwatch total;
  Stopwatch call;  // restarted around each user-facing searcher call

  const auto think = std::chrono::duration<double>(
      std::max(0.0, options.think_seconds_per_image));

  while (result.found < options.target_positives &&
         result.inspected < options.max_images) {
    size_t want = std::min(options.batch_size,
                           options.max_images - result.inspected);
    call.Restart();
    auto batch = searcher.NextBatch(want);
    double nextbatch = call.ElapsedSeconds();
    result.nextbatch_seconds += nextbatch;
    result.perceived_seconds += nextbatch;
    if (batch.empty()) break;  // store exhausted

    // The human inspects the batch image by image (thinking between user
    // actions); we stop mid-batch once the target is met (remaining images
    // are never seen). The think gap is modelled *after* each label: the
    // user lingers over their judgment while moving on to the next image —
    // and after the last label, while deciding to turn the page. That final
    // dwell is exactly the window the refit speculation overlaps: the
    // feedback is complete, so the predicted fit and the next-batch scan
    // run while the user still "thinks".
    for (const core::ScoredImage& hit : batch) {
      bool relevant = dataset.IsPositive(hit.image_idx, concept_id);
      core::ImageFeedback fb;
      fb.image_idx = hit.image_idx;
      fb.relevant = relevant;
      if (relevant) {
        fb.boxes = dataset.ConceptBoxes(hit.image_idx, concept_id);
      }
      call.Restart();
      searcher.AddFeedback(fb);
      result.perceived_seconds += call.ElapsedSeconds();
      if (think.count() > 0) {
        std::this_thread::sleep_for(think);
        result.think_seconds += think.count();
      }
      result.relevance.push_back(relevant ? 1 : 0);
      ++result.inspected;
      if (relevant) ++result.found;
      if (result.found >= options.target_positives ||
          result.inspected >= options.max_images) {
        break;
      }
    }
    call.Restart();
    SEESAW_CHECK(searcher.Refit().ok());
    const double refit = call.ElapsedSeconds();
    result.refit_seconds += refit;
    result.perceived_seconds += refit;
    ++result.rounds;
  }

  result.total_seconds = total.ElapsedSeconds();
  result.seconds_per_round =
      result.rounds > 0 ? result.perceived_seconds /
                              static_cast<double>(result.rounds)
                        : result.perceived_seconds;
  result.ap = TaskAp(result.relevance, dataset.positives(concept_id).size(),
                     options.target_positives);
  return result;
}

std::vector<double> BenchmarkRun::Aps() const {
  std::vector<double> out;
  out.reserve(results.size());
  for (const TaskResult& r : results) out.push_back(r.ap);
  return out;
}

double BenchmarkRun::MeanAp() const { return Mean(Aps()); }

BenchmarkRun RunBenchmark(const SearcherFactory& factory,
                          const data::Dataset& dataset,
                          const std::vector<size_t>& concepts,
                          const TaskOptions& options) {
  BenchmarkRun run;
  run.concepts = concepts;
  run.results.reserve(concepts.size());
  for (size_t concept_id : concepts) {
    auto searcher = factory(concept_id);
    SEESAW_CHECK(searcher != nullptr);
    run.results.push_back(
        RunSearchTask(*searcher, dataset, concept_id, options));
  }
  return run;
}

BenchmarkRun RunManagedBenchmark(core::SeeSawService& service,
                                 const data::Dataset& dataset,
                                 const std::vector<size_t>& concepts,
                                 const TaskOptions& options,
                                 size_t driver_threads) {
  BenchmarkRun run;
  run.concepts = concepts;
  run.results.resize(concepts.size());
  core::SessionManager& manager = service.sessions();
  const core::EmbeddedDataset& embedded = service.embedded();
  // Drivers mostly block inside session calls served by the manager's pool;
  // sizing them as a second full hardware pool oversubscribed the box 2x and
  // skewed latency numbers. Default to half the session pool, bounded by the
  // number of tasks.
  size_t drivers_wanted =
      driver_threads != 0 ? driver_threads
                          : std::max<size_t>(1, manager.pool().num_threads() / 2);
  if (!concepts.empty()) {
    drivers_wanted = std::min(drivers_wanted, concepts.size());
  }
  ThreadPool drivers(drivers_wanted);
  drivers.ParallelFor(concepts.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      auto id = manager.CreateSession(embedded.TextQuery(concepts[i]));
      SEESAW_CHECK(id.ok()) << id.status().ToString();
      auto session = manager.Find(*id);
      SEESAW_CHECK(session != nullptr);
      run.results[i] = RunSearchTask(*session, dataset, concepts[i], options);
      SEESAW_CHECK(manager.Close(*id).ok());
    }
  });
  return run;
}

}  // namespace seesaw::eval
