// Refit speculation: during think time the aligner runs speculatively on
// the feedback already received (a cloned snapshot) and the next-batch scan
// launches with the predicted post-refit query; a real Refit() adopts that
// fit while its snapshot is still the aligner's live fit state (and fits
// locally otherwise), a refit landing on the bitwise-identical aligned
// vector consumes the speculation, and any deviation — partial labels,
// feedback outside the batch, extra soft feedback, changed aligner options,
// a direct Align() — cancels it mid-scan.
//
// The contract under test: bitwise parity with the non-speculative
// execution OR clean invalidation, in every interleaving, on every backend,
// under concurrency. The randomized sweep below drives
// {kExact, kSharded, kIvf} x label patterns x refit timing and asserts the
// speculating searcher's batches equal the baseline's at every round, while
// the targeted tests pin each divergence class to its stats outcome.
// Runs in the TSan leg (`concurrency` label) and the forced-scalar kernel
// leg (`kernel` label).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/embedded_dataset.h"
#include "core/seesaw_searcher.h"
#include "core/session_manager.h"
#include "data/profiles.h"
#include "eval/task_runner.h"
#include "tests/test_util.h"

namespace seesaw::core {
namespace {

using test_util::ExpectSameImageBatch;
using test_util::RoundScript;
using test_util::ScriptedUser;
using Fixture = test_util::EmbeddedFixture;

SeeSawOptions SpeculatingOptions(bool enabled) {
  SeeSawOptions options;  // full seesaw: every refit moves the query
  options.prefetch.enabled = enabled;
  options.prefetch.max_in_flight = 0;
  return options;
}

/// A baseline/speculating searcher pair driven in lockstep by one scripted
/// user; every round asserts bitwise-equal batches.
struct LockstepPair {
  LockstepPair(const Fixture& f, size_t concept_id, ThreadPool* pool,
               const SeeSawOptions& options)
      : user(*f.dataset, concept_id),
        baseline(*f.embedded, f.embedded->TextQuery(concept_id),
                 [&] {
                   SeeSawOptions off = options;
                   off.prefetch.enabled = false;
                   return off;
                 }()),
        speculating(*f.embedded, f.embedded->TextQuery(concept_id), options) {
    baseline.set_thread_pool(pool);
    speculating.set_thread_pool(pool);
  }

  /// Returns false if the batches diverged (callers on worker threads can't
  /// ASSERT).
  bool DriveRound(size_t n, const RoundScript& script, int round) {
    auto expected = user.DriveRound(baseline, n, script);
    auto got = user.DriveRound(speculating, n, script);
    if (expected.size() != got.size()) return false;
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i].image_idx != expected[i].image_idx ||
          got[i].score != expected[i].score) {
        return false;
      }
    }
    ExpectSameImageBatch(got, expected, round);
    return true;
  }

  ScriptedUser user;
  SeeSawSearcher baseline;
  SeeSawSearcher speculating;
};

/// The fit state a later round starts from must not depend on whether the
/// refit adopted a speculative fit or ran its own.
void ExpectSameFitState(const LockstepPair& pair) {
  const QueryAligner& a = pair.speculating.aligner();
  const QueryAligner& b = pair.baseline.aligner();
  EXPECT_EQ(a.fit_key(), b.fit_key());
  EXPECT_EQ(a.Snapshot().warm, b.Snapshot().warm);
  EXPECT_EQ(a.last_result().iterations, b.last_result().iterations);
  EXPECT_EQ(a.last_result().function_evals, b.last_result().function_evals);
}

constexpr StoreBackend kBackends[] = {StoreBackend::kExact,
                                      StoreBackend::kSharded,
                                      StoreBackend::kIvf};

TEST(RefitSpeculationTest, FullBatchRoundsConsumeOnEveryBackend) {
  // The canonical loop — label the whole batch, refit — must now consume:
  // the refit lands bitwise on the predicted query (aligner determinism)
  // and the speculative scan serves the next batch, bit for bit.
  for (StoreBackend backend : kBackends) {
    auto f = test_util::MakeEmbeddedFixture(backend);
    ThreadPool pool(3);
    LockstepPair pair(f, /*concept_id=*/0, &pool, SpeculatingOptions(true));
    const int rounds = 5;
    for (int round = 0; round < rounds; ++round) {
      ASSERT_TRUE(pair.DriveRound(8, {}, round));
    }
    const PrefetchStats& stats = pair.speculating.prefetch_stats();
    EXPECT_GT(stats.refit_fits, 0u);
    EXPECT_GT(stats.refit_matches, 0u);
    EXPECT_GT(stats.hits_post_refit, 0u);
    EXPECT_EQ(stats.refit_mismatches, 0u);
    // Nothing touches the aligner between arm and Refit(), so every refit
    // adopts the speculative fit instead of running L-BFGS again.
    EXPECT_EQ(stats.refit_adopted, stats.refit_matches);
    // Every round after the first is a consume opportunity and none should
    // be lost: the script never deviates.
    EXPECT_EQ(stats.hits_post_refit, static_cast<size_t>(rounds - 1));
  }
}

TEST(RefitSpeculationTest, RandomizedConsumeInvalidateParitySweep) {
  // The acceptance property: across backends x randomized label patterns x
  // refit timing, every consumed speculation is bitwise identical to the
  // non-speculative execution and every divergent round invalidates (the
  // batches stay equal either way). The pattern mix is seeded and spans
  // full / partial / reversed / outside-feedback / soft-feedback /
  // options-change / skipped-refit rounds.
  size_t total_consumed = 0;
  size_t total_divergent = 0;
  for (StoreBackend backend : kBackends) {
    auto f = test_util::MakeEmbeddedFixture(backend);
    ThreadPool pool(3);
    for (uint64_t seed : {11u, 23u}) {
      Rng rng(seed);
      LockstepPair pair(f, /*concept_id=*/0, &pool, SpeculatingOptions(true));
      for (int round = 0; round < 8; ++round) {
        RoundScript script;
        const int pattern = static_cast<int>(rng.Uniform() * 7);
        switch (pattern) {
          case 0:  // canonical full-batch round
            break;
          case 1:  // partial labels: the user turns the page early
            script.max_labels = 3;
            break;
          case 2:  // out-of-order labels within the batch
            script.reverse_order = true;
            break;
          case 3:  // feedback outside the shown batch, interleaved
            script.label_unshown_image = true;
            break;
          case 4: {  // extra soft feedback between labels and refit
            script.refit = false;
            bool ok = pair.DriveRound(6, script, round);
            ASSERT_TRUE(ok) << "backend " << static_cast<int>(backend)
                            << " seed " << seed << " round " << round;
            linalg::VecSpan x = f.embedded->vectors().Row(
                round % f.embedded->num_vectors());
            pair.baseline.mutable_aligner().AddSoftFeedback(x, 0.7f);
            pair.speculating.mutable_aligner().AddSoftFeedback(x, 0.7f);
            EXPECT_TRUE(pair.baseline.Refit().ok());
            EXPECT_TRUE(pair.speculating.Refit().ok());
            continue;
          }
          case 5: {  // aligner options changed between labels and refit
            script.refit = false;
            bool ok = pair.DriveRound(6, script, round);
            ASSERT_TRUE(ok) << "round " << round;
            AlignerOptions changed = pair.baseline.aligner().options();
            changed.lbfgs.max_iterations =
                changed.lbfgs.max_iterations > 10 ? 10 : 60;
            pair.baseline.mutable_aligner().set_options(changed);
            pair.speculating.mutable_aligner().set_options(changed);
            EXPECT_TRUE(pair.baseline.Refit().ok());
            EXPECT_TRUE(pair.speculating.Refit().ok());
            continue;
          }
          case 6:  // refit delayed to the next round
            script.refit = false;
            break;
        }
        bool ok = pair.DriveRound(6, script, round);
        ASSERT_TRUE(ok) << "backend " << static_cast<int>(backend) << " seed "
                        << seed << " round " << round;
      }
      // Drain one more canonical round so a trailing skipped refit resolves.
      ASSERT_TRUE(pair.DriveRound(6, {}, 99));
      const PrefetchStats& stats = pair.speculating.prefetch_stats();
      total_consumed += stats.hits_post_refit;
      total_divergent += stats.refit_mismatches + stats.invalidated +
                         stats.misses;
      // Accounting sanity: every scheduled speculation resolves exactly
      // once (the final round's speculation may still be pending).
      const size_t resolved = stats.hits + stats.misses + stats.invalidated;
      EXPECT_LE(resolved, stats.scheduled);
      EXPECT_GE(resolved + 1, stats.scheduled);
    }
  }
  // The sweep must exercise both arms of the state machine.
  EXPECT_GT(total_consumed, 0u);
  EXPECT_GT(total_divergent, 0u);
}

// ----------------------------------------------- targeted divergence --

TEST(RefitSpeculationDivergenceTest, PartialLabelsInvalidate) {
  // The batch is never fully labeled, so the speculation never arms; the
  // query-moving refit falsifies the prediction and must invalidate it —
  // no fit is ever launched, and nothing is consumed.
  auto f = test_util::MakeEmbeddedFixture(StoreBackend::kExact);
  ThreadPool pool(3);
  LockstepPair pair(f, 0, &pool, SpeculatingOptions(true));
  RoundScript partial;
  partial.max_labels = 3;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(pair.DriveRound(6, partial, round));
  }
  const PrefetchStats& stats = pair.speculating.prefetch_stats();
  EXPECT_EQ(stats.refit_fits, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_GT(stats.invalidated, 0u);
}

TEST(RefitSpeculationDivergenceTest, ReversedLabelsStillConsume) {
  // Label order within the batch does not diverge: the speculative fit is
  // cloned only once the batch is fully labeled, so it sees exactly the
  // example order the real refit sees — reversed for both. Consuming here
  // is correct (and the batches prove it, bit for bit).
  auto f = test_util::MakeEmbeddedFixture(StoreBackend::kExact);
  ThreadPool pool(3);
  LockstepPair pair(f, 0, &pool, SpeculatingOptions(true));
  RoundScript reversed;
  reversed.reverse_order = true;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(pair.DriveRound(6, reversed, round));
  }
  const PrefetchStats& stats = pair.speculating.prefetch_stats();
  EXPECT_GT(stats.hits_post_refit, 0u);
  EXPECT_EQ(stats.refit_mismatches, 0u);
}

TEST(RefitSpeculationDivergenceTest, OutOfOrderFeedbackOutsideBatchInvalidates) {
  // Labels that stray outside the predicted batch mid-sequence (the user
  // labels an image found through another tool between two batch images)
  // deviate from the prediction the moment they land: the speculation is
  // cancelled mid-scan, never consumed.
  auto f = test_util::MakeEmbeddedFixture(StoreBackend::kExact);
  ThreadPool pool(3);
  LockstepPair pair(f, 0, &pool, SpeculatingOptions(true));
  RoundScript stray;
  stray.label_unshown_image = true;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(pair.DriveRound(6, stray, round));
  }
  const PrefetchStats& stats = pair.speculating.prefetch_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_GT(stats.invalidated, 0u);
}

TEST(RefitSpeculationDivergenceTest, SoftFeedbackBetweenArmAndRefitInvalidates) {
  // The batch is fully labeled (the fit arms and runs), then extra soft
  // feedback lands before Refit(): the real aligned query no longer matches
  // the prediction bitwise, so the armed speculation must be discarded —
  // asserted via the refit_mismatches stat — and the next batch must still
  // equal the baseline's.
  auto f = test_util::MakeEmbeddedFixture(StoreBackend::kExact);
  ThreadPool pool(3);
  LockstepPair pair(f, 0, &pool, SpeculatingOptions(true));
  RoundScript no_refit;
  no_refit.refit = false;
  ASSERT_TRUE(pair.DriveRound(6, no_refit, 0));
  linalg::VecSpan x = f.embedded->vectors().Row(1);
  pair.baseline.mutable_aligner().AddSoftFeedback(x, 0.6f);
  pair.speculating.mutable_aligner().AddSoftFeedback(x, 0.6f);
  ASSERT_TRUE(pair.baseline.Refit().ok());
  ASSERT_TRUE(pair.speculating.Refit().ok());
  ASSERT_TRUE(pair.DriveRound(6, {}, 1));
  const PrefetchStats& stats = pair.speculating.prefetch_stats();
  // Round 0's fit mismatched (the soft feedback moved the real alignment);
  // round 1's canonical fit matched. Every launched fit resolved.
  EXPECT_EQ(stats.refit_fits, stats.refit_matches + stats.refit_mismatches);
  EXPECT_GT(stats.refit_mismatches, 0u);
}

TEST(RefitSpeculationDivergenceTest, OptionsChangeBetweenArmAndRefitInvalidates) {
  // Same shape with changed aligner options: the speculative fit ran under
  // the old hyper-parameters, the real refit under the new ones — the
  // aligned vectors differ and the speculation must be discarded.
  auto f = test_util::MakeEmbeddedFixture(StoreBackend::kExact);
  ThreadPool pool(3);
  LockstepPair pair(f, 0, &pool, SpeculatingOptions(true));
  RoundScript no_refit;
  no_refit.refit = false;
  ASSERT_TRUE(pair.DriveRound(6, no_refit, 0));
  AlignerOptions changed = pair.baseline.aligner().options();
  changed.lbfgs.max_iterations = 5;
  pair.baseline.mutable_aligner().set_options(changed);
  pair.speculating.mutable_aligner().set_options(changed);
  ASSERT_TRUE(pair.baseline.Refit().ok());
  ASSERT_TRUE(pair.speculating.Refit().ok());
  ASSERT_TRUE(pair.DriveRound(6, {}, 1));
  EXPECT_GT(pair.speculating.prefetch_stats().refit_mismatches, 0u);
  EXPECT_EQ(pair.speculating.prefetch_stats().hits, 0u);
}

TEST(RefitSpeculationDivergenceTest, SoftFeedbackAloneTriggersARefit) {
  // Regression: Refit() dirtiness is keyed on the aligner's fit generation,
  // not on AddFeedback alone — a round whose only input is soft feedback
  // through mutable_aligner() must still refit (and move the query), in
  // parity on both searchers.
  auto f = test_util::MakeEmbeddedFixture(StoreBackend::kExact);
  ThreadPool pool(2);
  LockstepPair pair(f, 0, &pool, SpeculatingOptions(true));
  const linalg::VectorF q0 = pair.speculating.current_query();
  linalg::VecSpan x = f.embedded->vectors().Row(2);
  pair.baseline.mutable_aligner().AddSoftFeedback(x, 1.0f);
  pair.speculating.mutable_aligner().AddSoftFeedback(x, 1.0f);
  ASSERT_TRUE(pair.baseline.Refit().ok());
  ASSERT_TRUE(pair.speculating.Refit().ok());
  EXPECT_NE(pair.speculating.current_query(), q0)
      << "soft feedback must not be silently dropped by Refit()";
  ASSERT_TRUE(pair.DriveRound(6, {}, 0));
  // And a refit with nothing new since the last one stays a no-op.
  const linalg::VectorF settled = pair.speculating.current_query();
  ASSERT_TRUE(pair.speculating.Refit().ok());
  EXPECT_EQ(pair.speculating.current_query(), settled);
}

TEST(RefitSpeculationDivergenceTest, ExhaustedBudgetThrottlesTheFitStage) {
  // The shared budget is charged at arm time (the fit burns CPU); with the
  // only slot taken, the speculation is dropped instead of armed, the
  // throttle is counted, and the round still matches the baseline.
  auto f = test_util::MakeEmbeddedFixture(StoreBackend::kExact);
  ThreadPool pool(3);
  PrefetchBudget budget(1);
  ASSERT_TRUE(budget.TryAcquire());  // exhaust the only slot
  LockstepPair pair(f, 0, &pool, SpeculatingOptions(true));
  pair.speculating.set_prefetch_budget(&budget);
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(pair.DriveRound(6, {}, round));
  }
  const PrefetchStats& stats = pair.speculating.prefetch_stats();
  EXPECT_GT(stats.throttled, 0u);
  EXPECT_EQ(stats.refit_fits, 0u);
  EXPECT_EQ(stats.hits_post_refit, 0u);
  // No fit ran in the background, so every refit fitted locally.
  EXPECT_EQ(stats.refit_adopted, 0u);
  ExpectSameFitState(pair);
  budget.Release();
  EXPECT_EQ(budget.in_flight(), 0u);
}

TEST(RefitSpeculationDivergenceTest, DirectAlignBetweenArmAndRefitRefusesAdoption) {
  // A mutable_aligner().Align() after the fit armed moves the warm start but
  // not the fit generation. The armed fit started from the old warm start,
  // so Refit() must refuse to adopt it and fit locally — landing exactly
  // where the baseline, which makes the same extra Align(), lands.
  auto f = test_util::MakeEmbeddedFixture(StoreBackend::kExact);
  ThreadPool pool(3);
  LockstepPair pair(f, 0, &pool, SpeculatingOptions(true));
  ASSERT_TRUE(pair.DriveRound(6, {}, 0));
  RoundScript no_refit;
  no_refit.refit = false;
  ASSERT_TRUE(pair.DriveRound(6, no_refit, 1));
  const uint64_t generation = pair.speculating.aligner().fit_generation();
  ASSERT_TRUE(pair.baseline.mutable_aligner().Align().ok());
  ASSERT_TRUE(pair.speculating.mutable_aligner().Align().ok());
  EXPECT_EQ(pair.speculating.aligner().fit_generation(), generation);
  const size_t adopted_before = pair.speculating.prefetch_stats().refit_adopted;
  ASSERT_TRUE(pair.baseline.Refit().ok());
  ASSERT_TRUE(pair.speculating.Refit().ok());
  EXPECT_EQ(pair.speculating.prefetch_stats().refit_adopted, adopted_before);
  EXPECT_EQ(pair.speculating.current_query(), pair.baseline.current_query());
  ExpectSameFitState(pair);
  for (int round = 2; round < 4; ++round) {
    ASSERT_TRUE(pair.DriveRound(6, {}, round));
    ExpectSameFitState(pair);
  }
  const PrefetchStats& stats = pair.speculating.prefetch_stats();
  // Rounds 0, 2 and 3 adopt; round 1's fit was refused (and its scan kept
  // only if the local fit happened to land on the same bits).
  EXPECT_EQ(stats.refit_fits, 4u);
  EXPECT_EQ(stats.refit_adopted, 3u);
  EXPECT_EQ(stats.refit_fits, stats.refit_matches + stats.refit_mismatches);
}

TEST(RefitSpeculationDivergenceTest, CancelledFitFallsBackToLocalFit) {
  // The batch is fully labeled, so the fit arms; then feedback on an image
  // outside the batch cancels the speculation before Refit(). Refit() has
  // nothing to adopt and fits locally, in parity with the baseline.
  auto f = test_util::MakeEmbeddedFixture(StoreBackend::kExact);
  ThreadPool pool(3);
  LockstepPair pair(f, 0, &pool, SpeculatingOptions(true));
  RoundScript no_refit;
  no_refit.refit = false;
  ASSERT_TRUE(pair.DriveRound(6, no_refit, 0));
  ASSERT_EQ(pair.speculating.prefetch_stats().refit_fits, 1u);
  uint32_t unseen = 0;
  while (pair.baseline.IsSeen(unseen)) ++unseen;
  ASSERT_FALSE(pair.speculating.IsSeen(unseen));
  const ImageFeedback stray = pair.user.GroundTruthFeedback(unseen);
  pair.baseline.AddFeedback(stray);
  pair.speculating.AddFeedback(stray);
  ASSERT_TRUE(pair.baseline.Refit().ok());
  ASSERT_TRUE(pair.speculating.Refit().ok());
  const PrefetchStats& stats = pair.speculating.prefetch_stats();
  EXPECT_GT(stats.invalidated, 0u);
  EXPECT_EQ(stats.refit_adopted, 0u);
  EXPECT_EQ(pair.speculating.current_query(), pair.baseline.current_query());
  ExpectSameFitState(pair);
  ASSERT_TRUE(pair.DriveRound(6, {}, 1));
  ExpectSameFitState(pair);
}

// ----------------------------------------------------- concurrency --

TEST(RefitSpeculationConcurrencyTest, ConcurrentSessionsStayInParity) {
  // Several lockstep pairs share one pool, all speculating through their
  // refits at once; every pair must stay in bitwise parity. Runs under the
  // TSan CI leg via the `concurrency` label.
  auto f = test_util::MakeEmbeddedFixture(StoreBackend::kSharded);
  ThreadPool shared_pool(4);
  const int kSessions = 4, kRounds = 4;
  std::vector<std::unique_ptr<LockstepPair>> pairs;
  for (int t = 0; t < kSessions; ++t) {
    pairs.push_back(std::make_unique<LockstepPair>(
        f, /*concept_id=*/t % 2, &shared_pool, SpeculatingOptions(true)));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> drivers;
  for (int t = 0; t < kSessions; ++t) {
    drivers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        if (!pairs[t]->DriveRound(6, {}, round)) ++failures;
      }
    });
  }
  for (auto& d : drivers) d.join();
  EXPECT_EQ(failures.load(), 0);
  size_t consumed = 0;
  for (const auto& pair : pairs) {
    consumed += pair->speculating.prefetch_stats().hits_post_refit;
  }
  EXPECT_GT(consumed, 0u);
}

TEST(RefitSpeculationConcurrencyTest, ManagedSeeSawServiceParityEndToEnd) {
  // The full serving path with the *query-updating* method (the one refit
  // speculation exists for): managed sessions with prefetch on must
  // reproduce the prefetch-off run exactly, with think time making the
  // speculative fits actually overlap.
  auto profile = data::CocoLikeProfile(0.05);
  profile.embedding_dim = 32;
  auto ds = data::Dataset::Generate(profile);
  ASSERT_TRUE(ds.ok());

  auto make_service = [&](bool prefetch_on) {
    ServiceOptions options;
    options.preprocess.multiscale.enabled = false;
    options.preprocess.build_md = false;
    options.session_threads = 3;
    options.search.prefetch.enabled = prefetch_on;
    options.search.prefetch.max_in_flight = 2;
    auto svc = SeeSawService::Create(*ds, options);
    EXPECT_TRUE(svc.ok());
    return std::make_unique<SeeSawService>(std::move(*svc));
  };

  auto concepts = ds->EvaluableConcepts(3);
  ASSERT_FALSE(concepts.empty());
  if (concepts.size() > 3) concepts.resize(3);
  eval::TaskOptions task;
  task.target_positives = 3;
  task.max_images = 24;
  task.batch_size = 6;
  task.think_seconds_per_image = 0.002;

  auto off = make_service(false);
  auto on = make_service(true);
  auto run_off = eval::RunManagedBenchmark(*off, *ds, concepts, task);
  auto run_on = eval::RunManagedBenchmark(*on, *ds, concepts, task);
  ASSERT_EQ(run_off.results.size(), run_on.results.size());
  for (size_t i = 0; i < run_off.results.size(); ++i) {
    EXPECT_EQ(run_off.results[i].relevance, run_on.results[i].relevance);
    EXPECT_EQ(run_off.results[i].found, run_on.results[i].found);
    EXPECT_EQ(run_off.results[i].inspected, run_on.results[i].inspected);
    EXPECT_DOUBLE_EQ(run_off.results[i].ap, run_on.results[i].ap);
  }
  EXPECT_EQ(on->sessions().prefetches_in_flight(), 0u);
}

}  // namespace
}  // namespace seesaw::core
