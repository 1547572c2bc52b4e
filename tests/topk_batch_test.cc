// Cross-backend parity for the one scan path, TopKBatch: the exact store must
// return exactly what an independent brute-force scan returns, and every
// backend must answer each query of a batch exactly as it answers that
// query alone (TopK, a batch of one) — same ids, same scores, same order —
// with and without exclusions, serial and pooled.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "store/annoy_index.h"
#include "store/exact_store.h"
#include "store/ivf_index.h"
#include "tests/test_util.h"

namespace seesaw::store {
namespace {

using linalg::MatrixF;
using linalg::VecSpan;
using linalg::VectorF;
using test_util::ExpectIdenticalResults;
using test_util::RandomQueries;
using test_util::RandomTable;

/// Asserts TopKBatch(queries)[q] == want(queries[q]) for every query, with
/// `pool` possibly null and `seen` possibly empty.
template <typename Want>
void CheckParity(const VectorStore& store, const std::vector<VectorF>& queries,
                 size_t k, const SeenSet& seen, ThreadPool* pool, Want want) {
  std::vector<VecSpan> spans = test_util::AsSpans(queries);
  auto batched =
      store.TopKBatch(std::span<const VecSpan>(spans), k, seen, pool);
  ASSERT_EQ(batched.size(), queries.size());
  for (size_t q = 0; q < spans.size(); ++q) {
    ExpectIdenticalResults(batched[q], want(spans[q]));
  }
}

/// Batching independence for approximate backends: every query of a batch
/// gets what it gets alone.
void CheckBatchOfOneParity(const VectorStore& store,
                           const std::vector<VectorF>& queries, size_t k,
                           const SeenSet& seen, ThreadPool* pool) {
  CheckParity(store, queries, k, seen, pool,
              [&](VecSpan q) { return store.TopK(q, k, seen); });
}

class TopKBatchParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = RandomTable(600, 16, 17);
    queries_ = RandomQueries(7, 16, 18);
    seen_ = test_util::RandomSeenSet(600, 0.25, 19);
  }

  MatrixF table_;
  std::vector<VectorF> queries_;
  SeenSet seen_;
};

TEST_F(TopKBatchParityTest, ExactStoreMatchesBruteForce) {
  auto store = ExactStore::Create(table_);
  ASSERT_TRUE(store.ok());
  ThreadPool pool(4);
  const SeenSet* seens[] = {&EmptySeenSet(), &seen_};
  ThreadPool* pools[] = {nullptr, &pool};
  for (size_t k : {1u, 10u, 50u, 1000u}) {
    for (const SeenSet* seen : seens) {
      for (ThreadPool* p : pools) {
        CheckParity(*store, queries_, k, *seen, p, [&](VecSpan q) {
          return test_util::BruteForceTopK(table_, q, k, *seen);
        });
      }
    }
    for (VecSpan q : test_util::AsSpans(queries_)) {
      ExpectIdenticalResults(store->TopK(q, k, seen_),
                             test_util::BruteForceTopK(table_, q, k, seen_));
    }
  }
}

TEST_F(TopKBatchParityTest, IvfIndexBatchesLikeSingleQueries) {
  auto store = IvfFlatIndex::Build({}, table_);
  ASSERT_TRUE(store.ok());
  ThreadPool pool(4);
  for (size_t k : {1u, 10u, 50u}) {
    CheckBatchOfOneParity(*store, queries_, k, EmptySeenSet(), nullptr);
    CheckBatchOfOneParity(*store, queries_, k, seen_, nullptr);
    CheckBatchOfOneParity(*store, queries_, k, seen_, &pool);
  }
}

TEST_F(TopKBatchParityTest, AnnoyIndexBatchesLikeSingleQueries) {
  auto store = AnnoyIndex::Build({}, table_);
  ASSERT_TRUE(store.ok());
  ThreadPool pool(4);
  for (size_t k : {1u, 10u, 50u}) {
    CheckBatchOfOneParity(*store, queries_, k, EmptySeenSet(), nullptr);
    CheckBatchOfOneParity(*store, queries_, k, seen_, nullptr);
    CheckBatchOfOneParity(*store, queries_, k, seen_, &pool);
  }
}

TEST_F(TopKBatchParityTest, BaseTopKIsABatchOfOne) {
  // A backend implements only TopKBatch; the base TopK forwards one query
  // with no pool, and maps an empty outer result (a cancelled or failed
  // remote scan) to {} instead of touching a missing front().
  class BatchOnly : public VectorStore {
   public:
    BatchOnly(ExactStore inner, bool fail)
        : inner_(std::move(inner)), fail_(fail) {}
    size_t size() const override { return inner_.size(); }
    size_t dim() const override { return inner_.dim(); }
    std::vector<std::vector<SearchResult>> TopKBatch(
        std::span<const VecSpan> queries, size_t k, const SeenSet& seen,
        ThreadPool* pool, const ScanControl& control) const override {
      EXPECT_EQ(queries.size(), 1u);
      EXPECT_EQ(pool, nullptr);
      if (fail_) return {};
      return inner_.TopKBatch(queries, k, seen, pool, control);
    }
    using VectorStore::TopKBatch;
    VecSpan GetVector(uint32_t id) const override {
      return inner_.GetVector(id);
    }

   private:
    ExactStore inner_;
    bool fail_;
  };
  auto store = ExactStore::Create(table_);
  ASSERT_TRUE(store.ok());
  BatchOnly working(*store, /*fail=*/false);
  BatchOnly failing(std::move(*store), /*fail=*/true);
  for (VecSpan q : test_util::AsSpans(queries_)) {
    ExpectIdenticalResults(working.TopK(q, 25, seen_),
                           test_util::BruteForceTopK(table_, q, 25, seen_));
    EXPECT_TRUE(failing.TopK(q, 25, seen_).empty());
  }
}

TEST(TopKBatchTest, EmptyQueryBatchReturnsEmpty) {
  auto store = ExactStore::Create(RandomTable(20, 4, 3));
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE(store->TopKBatch({}, 5).empty());
}

TEST(TopKBatchTest, KZeroReturnsEmptyPerQuery) {
  // Regression: k == 0 once made the batched exact scan treat its empty
  // heaps as full and dereference an empty Worst().
  auto store = ExactStore::Create(RandomTable(20, 4, 3));
  ASSERT_TRUE(store.ok());
  auto queries = RandomQueries(3, 4, 9);
  std::vector<VecSpan> spans(queries.begin(), queries.end());
  ThreadPool pool(2);
  auto batched = store->TopKBatch(std::span<const VecSpan>(spans), 0,
                                  EmptySeenSet(), &pool);
  ASSERT_EQ(batched.size(), 3u);
  for (const auto& hits : batched) EXPECT_TRUE(hits.empty());
}

TEST(TopKBatchTest, TieBreakIsDeterministicAcrossSharding) {
  // Duplicate rows force score ties; the canonical order (score desc, id
  // asc) must hold no matter how the scan is sharded.
  MatrixF table(64, 4, 0.0f);
  for (size_t i = 0; i < 64; ++i) table.At(i, 0) = 1.0f;
  auto store = ExactStore::Create(std::move(table));
  ASSERT_TRUE(store.ok());
  std::vector<VectorF> queries = {VectorF{1, 0, 0, 0}, VectorF{1, 0, 0, 0}};
  std::vector<VecSpan> spans(queries.begin(), queries.end());
  ThreadPool pool(4);
  auto batched = store->TopKBatch(std::span<const VecSpan>(spans), 10,
                                  EmptySeenSet(), &pool);
  for (const auto& hits : batched) {
    ASSERT_EQ(hits.size(), 10u);
    for (uint32_t i = 0; i < 10; ++i) EXPECT_EQ(hits[i].id, i);
  }
}

TEST(TopKBatchTest, ConcurrentBatchesShareOnePool) {
  // Several "sessions" issue batched lookups against one shared pool at
  // once — each caller must only wait on its own parts. Smoke for the
  // concurrent-serving configuration.
  auto store = ExactStore::Create(RandomTable(400, 8, 23));
  ASSERT_TRUE(store.ok());
  auto queries = RandomQueries(4, 8, 29);
  std::vector<VecSpan> spans(queries.begin(), queries.end());
  ThreadPool shared_pool(4);
  auto want = store->TopKBatch(std::span<const VecSpan>(spans), 12);

  std::vector<std::thread> sessions;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    sessions.emplace_back([&] {
      for (int round = 0; round < 5; ++round) {
        auto got = store->TopKBatch(std::span<const VecSpan>(spans), 12,
                                    EmptySeenSet(), &shared_pool);
        if (got.size() != want.size()) {
          ++failures;
          continue;
        }
        for (size_t q = 0; q < got.size(); ++q) {
          if (got[q].size() != want[q].size()) ++failures;
          for (size_t i = 0; i < got[q].size(); ++i) {
            if (got[q][i].id != want[q][i].id) ++failures;
          }
        }
      }
    });
  }
  for (auto& s : sessions) s.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace seesaw::store
