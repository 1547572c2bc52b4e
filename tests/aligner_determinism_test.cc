// Aligner determinism: the same feedback sequence must yield
// bitwise-identical Align() output — across repeated runs, across a fresh
// clone (Snapshot + FitSnapshot), and under concurrent unrelated pool load.
// This is the invariant the refit speculation rests on: a speculative fit
// over a cloned snapshot is bit for bit the fit Align() would run while the
// state did not change in between, so Refit() adopts it (QueryAligner::Adopt)
// instead of fitting again. See the determinism audits in core/aligner.h and
// optim/lbfgs.h.
#include "core/aligner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/matrix.h"
#include "store/exact_store.h"
#include "store/seen_set.h"
#include "tests/test_util.h"

namespace seesaw::core {
namespace {

using linalg::MatrixF;
using linalg::VectorF;
using test_util::RandomQueries;
using test_util::RandomTable;

constexpr size_t kDim = 24;

VectorF UnitQuery(uint64_t seed) { return RandomQueries(1, kDim, seed)[0]; }

/// A deterministic feedback sequence over random patch vectors: alternating
/// labels with a positive bias, fixed insertion order.
struct FeedbackStep {
  size_t row;
  bool positive;
};

std::vector<FeedbackStep> MakeSequence(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<FeedbackStep> steps;
  for (size_t i = 0; i < n; ++i) {
    steps.push_back({i, rng.Uniform() < 0.4});
  }
  return steps;
}

void ExpectBitwiseEqual(const VectorF& a, const VectorF& b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j], b[j]) << what << " dim " << j;  // bitwise (float ==)
  }
}

/// Everything a later Align() reads besides the feedback: the warm start
/// (exposed through Snapshot()) and the solver statistics.
void ExpectSameFitState(const QueryAligner& a, const QueryAligner& b,
                        const char* what) {
  AlignerSnapshot sa = a.Snapshot();
  AlignerSnapshot sb = b.Snapshot();
  EXPECT_EQ(sa.have_warm, sb.have_warm) << what;
  EXPECT_EQ(sa.warm, sb.warm) << what;  // bitwise (double ==)
  EXPECT_EQ(a.last_result().iterations, b.last_result().iterations) << what;
  EXPECT_EQ(a.last_result().function_evals, b.last_result().function_evals)
      << what;
  EXPECT_EQ(a.last_result().f, b.last_result().f) << what;
}

TEST(AlignerDeterminismTest, RepeatedRunsAreBitwiseIdentical) {
  // Two independent aligners fed the identical sequence must produce
  // bitwise-identical queries at every refit round — including with warm
  // starts accumulating across rounds.
  MatrixF table = RandomTable(40, kDim, 5);
  VectorF q0 = UnitQuery(6);
  AlignerOptions options;
  QueryAligner a(options, q0, nullptr);
  QueryAligner b(options, q0, nullptr);
  auto steps = MakeSequence(24, 7);
  for (size_t round = 0; round < 4; ++round) {
    for (size_t i = round * 6; i < (round + 1) * 6; ++i) {
      a.AddFeedback(table.Row(steps[i].row), steps[i].positive);
      b.AddFeedback(table.Row(steps[i].row), steps[i].positive);
    }
    auto qa = a.Align();
    auto qb = b.Align();
    ASSERT_TRUE(qa.ok());
    ASSERT_TRUE(qb.ok());
    ExpectBitwiseEqual(*qa, *qb, "independent aligners");
    // The solver did identical work, not just reached identical bits.
    EXPECT_EQ(a.last_result().iterations, b.last_result().iterations);
    EXPECT_EQ(a.last_result().function_evals, b.last_result().function_evals);
  }
}

TEST(AlignerDeterminismTest, SnapshotFitMatchesLiveAlign) {
  // The speculative path: a fit over a fresh clone must predict the live
  // Align() bitwise at every round, and adopting it must leave the aligner
  // exactly where Align() would: same warm start, same solver statistics.
  // The adopting aligner only ever adopts, so each round after the first
  // also checks that a round from an adopted state matches an aligner that
  // never speculated.
  MatrixF table = RandomTable(40, kDim, 15);
  VectorF q0 = UnitQuery(16);
  AlignerOptions options;
  QueryAligner adopting(options, q0, nullptr);
  QueryAligner control(options, q0, nullptr);  // never snapshotted
  auto steps = MakeSequence(30, 17);
  for (size_t round = 0; round < 5; ++round) {
    for (size_t i = round * 6; i < (round + 1) * 6; ++i) {
      adopting.AddFeedback(table.Row(steps[i].row), steps[i].positive);
      control.AddFeedback(table.Row(steps[i].row), steps[i].positive);
    }
    AlignerSnapshot snapshot = adopting.Snapshot();
    EXPECT_EQ(snapshot.key, adopting.fit_key());
    auto predicted = QueryAligner::FitSnapshot(snapshot);
    // Run the speculative fit twice to cover fit-vs-fit reproducibility too.
    auto predicted_again = QueryAligner::FitSnapshot(snapshot);
    auto real = control.Align();
    ASSERT_TRUE(predicted.ok());
    ASSERT_TRUE(predicted_again.ok());
    ASSERT_TRUE(real.ok());
    EXPECT_EQ(predicted->key, snapshot.key);
    ExpectBitwiseEqual(predicted->query, *real, "snapshot vs live");
    ExpectBitwiseEqual(predicted->query, predicted_again->query,
                       "snapshot repeat");
    VectorF adopted = adopting.Adopt(*std::move(predicted));
    ExpectBitwiseEqual(adopted, *real, "adopted vs live");
    ExpectSameFitState(adopting, control, "adopted state vs live Align()");
    EXPECT_EQ(adopting.fit_key(), control.fit_key());
  }
}

TEST(AlignerDeterminismTest, SnapshotFitUnderConcurrentPoolLoadIsStable) {
  // The refit speculation runs FitSnapshot on a pool worker while other
  // sessions hammer the same pool with store scans. Neither the unrelated
  // load nor running several speculative fits at once may change a single
  // bit of the result — and the live aligner adopting one of them must end
  // up exactly where its own Align() would have.
  MatrixF table = RandomTable(64, kDim, 25);
  VectorF q0 = UnitQuery(26);
  QueryAligner live(AlignerOptions{}, q0, nullptr);
  QueryAligner control(AlignerOptions{}, q0, nullptr);  // never snapshotted
  auto steps = MakeSequence(20, 27);
  for (const FeedbackStep& s : steps) {
    live.AddFeedback(table.Row(s.row), s.positive);
    control.AddFeedback(table.Row(s.row), s.positive);
  }
  auto snapshot = std::make_shared<AlignerSnapshot>(live.Snapshot());
  auto reference = QueryAligner::FitSnapshot(*snapshot);
  ASSERT_TRUE(reference.ok());

  // Unrelated load: batched scans over a store on the same pool.
  auto store = store::ExactStore::Create(RandomTable(2000, kDim, 28));
  ASSERT_TRUE(store.ok());
  auto queries = RandomQueries(4, kDim, 29);
  std::vector<linalg::VecSpan> spans = test_util::AsSpans(queries);
  ThreadPool pool(4);
  std::atomic<bool> stop{false};
  std::thread load([&] {
    while (!stop.load()) {
      store->TopKBatch(std::span<const linalg::VecSpan>(spans), 25,
                       store::EmptySeenSet(), &pool);
    }
  });

  const int kFits = 8;
  std::vector<AlignerFit> results(kFits);
  std::vector<TaskHandle> handles;
  for (int i = 0; i < kFits; ++i) {
    handles.push_back(pool.SubmitWithResult([snapshot, &results, i] {
      auto r = QueryAligner::FitSnapshot(*snapshot);
      if (r.ok()) results[i] = *std::move(r);
    }));
  }
  for (TaskHandle& h : handles) h.Wait();
  stop.store(true);
  load.join();
  for (int i = 0; i < kFits; ++i) {
    ExpectBitwiseEqual(results[i].query, reference->query,
                       "fit under pool load");
    EXPECT_EQ(results[i].result.x, reference->result.x);
    EXPECT_EQ(results[i].result.iterations, reference->result.iterations);
  }
  // Adopt one of the pool-computed fits; the aligner lands exactly where a
  // never-speculating control's Align() does, and so does its next round.
  VectorF adopted = live.Adopt(std::move(results[0]));
  auto real = control.Align();
  ASSERT_TRUE(real.ok());
  ExpectBitwiseEqual(adopted, *real, "adopted fit vs live align");
  ExpectSameFitState(live, control, "adopted state after load");
  live.AddFeedback(table.Row(0), true);
  control.AddFeedback(table.Row(0), true);
  auto next_live = live.Align();
  auto next_control = control.Align();
  ASSERT_TRUE(next_live.ok());
  ASSERT_TRUE(next_control.ok());
  ExpectBitwiseEqual(*next_live, *next_control, "round after adoption");
  ExpectSameFitState(live, control, "state after the next round");
}

TEST(AlignerDeterminismTest, AdoptRefusesAFitOfAnotherState) {
  // Adopt() installs only a fit of the live state. Align() moves the warm
  // start without bumping the generation, so the key must catch that too.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  MatrixF table = RandomTable(8, kDim, 55);
  QueryAligner aligner(AlignerOptions{}, UnitQuery(56), nullptr);
  for (size_t i = 0; i < 8; ++i) aligner.AddFeedback(table.Row(i), i % 3 == 0);
  auto stale = QueryAligner::FitSnapshot(aligner.Snapshot());
  ASSERT_TRUE(stale.ok());
  const uint64_t generation = aligner.fit_generation();
  ASSERT_TRUE(aligner.Align().ok());
  EXPECT_EQ(aligner.fit_generation(), generation);
  EXPECT_NE(stale->key, aligner.fit_key());
  EXPECT_DEATH(aligner.Adopt(*std::move(stale)), "another fit state");
}

TEST(AlignerDeterminismTest, FitGenerationTracksEveryStateChange) {
  // The generation counter versions the feedback, options and resets; every
  // mutation class bumps it. Together with the warm start it forms the fit
  // key that Refit() checks before adopting a speculative fit.
  MatrixF table = RandomTable(4, kDim, 35);
  QueryAligner aligner(AlignerOptions{}, UnitQuery(36), nullptr);
  uint64_t g0 = aligner.fit_generation();
  aligner.AddFeedback(table.Row(0), true);
  EXPECT_GT(aligner.fit_generation(), g0);
  uint64_t g1 = aligner.fit_generation();
  aligner.AddSoftFeedback(table.Row(1), 0.5f);
  EXPECT_GT(aligner.fit_generation(), g1);
  uint64_t g2 = aligner.fit_generation();
  AlignerOptions changed;
  changed.lbfgs.max_iterations = 7;
  aligner.set_options(changed);
  EXPECT_GT(aligner.fit_generation(), g2);
  EXPECT_EQ(aligner.options().lbfgs.max_iterations, 7);
  uint64_t g3 = aligner.fit_generation();
  aligner.Reset();
  EXPECT_GT(aligner.fit_generation(), g3);
  EXPECT_EQ(aligner.num_examples(), 0u);
  // Align() must not bump the generation. With no feedback it installs
  // nothing; with feedback it moves only the warm start, which the fit key
  // still tracks.
  uint64_t g4 = aligner.fit_generation();
  AlignerFitKey k4 = aligner.fit_key();
  ASSERT_TRUE(aligner.Align().ok());
  EXPECT_EQ(aligner.fit_generation(), g4);
  EXPECT_EQ(aligner.fit_key(), k4);
  aligner.AddFeedback(table.Row(2), true);
  AlignerFitKey k5 = aligner.fit_key();
  ASSERT_TRUE(aligner.Align().ok());
  EXPECT_EQ(aligner.fit_key().fit_generation, k5.fit_generation);
  EXPECT_NE(aligner.fit_key(), k5);
}

TEST(AlignerDeterminismTest, NoFeedbackAndDegenerateCasesStayDeterministic) {
  // Align() with no feedback returns q0 verbatim on both paths.
  VectorF q0 = UnitQuery(46);
  QueryAligner aligner(AlignerOptions{}, q0, nullptr);
  auto a = aligner.Align();
  auto b = QueryAligner::FitSnapshot(aligner.Snapshot());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(b->ran_solver);
  ExpectBitwiseEqual(*a, q0, "no-feedback align");
  ExpectBitwiseEqual(b->query, q0, "no-feedback snapshot fit");
}

}  // namespace
}  // namespace seesaw::core
