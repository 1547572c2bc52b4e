#include <gtest/gtest.h>

#include <set>

#include "clip/concept_space.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "store/annoy_index.h"
#include "store/exact_store.h"
#include "tests/test_util.h"

namespace seesaw::store {
namespace {

using linalg::MatrixF;
using linalg::VectorF;
using test_util::ClusteredTable;
using test_util::RandomTable;

// ------------------------------------------------------------ ExactStore --

TEST(ExactStoreTest, RejectsEmptyTable) {
  EXPECT_FALSE(ExactStore::Create(MatrixF()).ok());
}

TEST(ExactStoreTest, FindsTheExactTopItem) {
  MatrixF table = MatrixF::FromRows({
      {1, 0}, {0, 1}, {0.7071f, 0.7071f}});
  auto store = ExactStore::Create(std::move(table));
  ASSERT_TRUE(store.ok());
  auto hits = store->TopK(VectorF{1, 0}, 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 0u);
  EXPECT_FLOAT_EQ(hits[0].score, 1.0f);
}

TEST(ExactStoreTest, ResultsSortedDescending) {
  auto store = ExactStore::Create(RandomTable(200, 16, 1));
  ASSERT_TRUE(store.ok());
  VectorF q = VectorF(store->GetVector(0).begin(), store->GetVector(0).end());
  auto hits = store->TopK(q, 20);
  ASSERT_EQ(hits.size(), 20u);
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i - 1].score, hits[i].score);
  }
  EXPECT_EQ(hits[0].id, 0u);  // the query vector itself
}

TEST(ExactStoreTest, KLargerThanStoreReturnsAll) {
  auto store = ExactStore::Create(RandomTable(5, 8, 2));
  ASSERT_TRUE(store.ok());
  VectorF q(8, 0.5f);
  EXPECT_EQ(store->TopK(q, 50).size(), 5u);
}

TEST(ExactStoreTest, ExclusionPredicateSkipsIds) {
  auto store = ExactStore::Create(RandomTable(50, 8, 3));
  ASSERT_TRUE(store.ok());
  VectorF q(store->GetVector(7).begin(), store->GetVector(7).end());
  auto all = store->TopK(q, 1);
  ASSERT_EQ(all[0].id, 7u);
  SeenSet seen(50);
  seen.Set(7);
  auto filtered = store->TopK(q, 5, seen);
  for (const auto& h : filtered) EXPECT_NE(h.id, 7u);
}

TEST(ExactStoreTest, ExcludingEverythingYieldsEmpty) {
  auto store = ExactStore::Create(RandomTable(10, 4, 4));
  ASSERT_TRUE(store.ok());
  SeenSet seen(10);
  for (uint32_t id = 0; id < 10; ++id) seen.Set(id);
  auto hits = store->TopK(VectorF(4, 1.0f), 3, seen);
  EXPECT_TRUE(hits.empty());
}

TEST(ExactStoreTest, MatchesBruteForceOracle) {
  // The exact scan is the accuracy reference for every approximate backend;
  // pin it, bit for bit, to the independent brute-force scan across seen
  // densities, with a seen set as long as the table.
  MatrixF table = RandomTable(300, 12, 15);
  auto store = ExactStore::Create(table);
  ASSERT_TRUE(store.ok());
  auto queries = test_util::RandomQueries(3, 12, 16);
  for (double fraction : {0.0, 0.3, 0.8}) {
    SeenSet seen = test_util::RandomSeenSet(300, fraction, 17);
    for (const VectorF& q : queries) {
      test_util::ExpectIdenticalResults(
          store->TopK(q, 40, seen),
          test_util::BruteForceTopK(table, q, 40, seen));
    }
  }
}

TEST(ExactStoreTest, CertifiedScanEdgeCasesMatchBruteForce) {
  // The int8 filter must never decide a result: k = 1, k at and past the
  // unseen row count, fully seen tables, all-zero tables (every score ties
  // at zero, so ids decide), exact duplicates and large non-unit rows all
  // return the brute-force fp32 top-k bit for bit, serial and pooled.
  struct Case {
    const char* name;
    MatrixF table;
  };
  std::vector<Case> cases;
  cases.push_back({"clustered", ClusteredTable(400, 16, 5, 18)});
  cases.push_back({"zeros", MatrixF(150, 16)});
  {
    MatrixF dup(400, 16);
    MatrixF base = RandomTable(20, 16, 19);
    for (size_t r = 0; r < 400; ++r) {
      auto src = base.Row(r % 20);
      std::copy(src.begin(), src.end(), dup.MutableRow(r).begin());
    }
    cases.push_back({"duplicates", std::move(dup)});
  }
  {
    MatrixF big = RandomTable(400, 16, 20);
    for (size_t r = 0; r < 400; ++r) {
      for (float& x : big.MutableRow(r)) x *= 1e4f * static_cast<float>(r % 7);
    }
    cases.push_back({"large_norms", std::move(big)});
  }
  ThreadPool pool(3);
  auto queries = test_util::RandomQueries(3, 16, 21);
  auto spans = test_util::AsSpans(queries);
  for (const Case& c : cases) {
    auto store = ExactStore::Create(c.table);
    ASSERT_TRUE(store.ok());
    const size_t n = c.table.rows();
    for (double fraction : {0.0, 0.5, 1.0}) {
      SeenSet seen = test_util::RandomSeenSet(n, fraction, 22);
      size_t unseen = 0;
      for (uint32_t id = 0; id < n; ++id) unseen += seen.Test(id) ? 0 : 1;
      for (size_t k : {size_t{1}, size_t{7}, unseen, unseen + 1, n + 3}) {
        if (k == 0) continue;
        for (ThreadPool* scan_pool :
             {static_cast<ThreadPool*>(nullptr), &pool}) {
          SCOPED_TRACE(testing::Message()
                       << c.name << " seen=" << fraction << " k=" << k
                       << " pooled=" << (scan_pool != nullptr));
          auto got = store->TopKBatch(std::span<const linalg::VecSpan>(spans),
                                      k, seen, scan_pool);
          ASSERT_EQ(got.size(), queries.size());
          for (size_t qi = 0; qi < queries.size(); ++qi) {
            test_util::ExpectIdenticalResults(
                got[qi], test_util::BruteForceTopK(c.table, queries[qi], k,
                                                   seen));
          }
        }
      }
    }
  }
}

TEST(RecallAgainstTest, ComputesOverlapFraction) {
  std::vector<SearchResult> truth = {{1, .9f}, {2, .8f}, {3, .7f}, {4, .6f}};
  std::vector<SearchResult> got = {{2, .8f}, {9, .7f}, {4, .6f}, {8, .1f}};
  EXPECT_DOUBLE_EQ(RecallAgainst(got, truth), 0.5);
  EXPECT_DOUBLE_EQ(RecallAgainst(got, {}), 1.0);
}

TEST(RecallAgainstTest, DuplicateIdsCountOnce) {
  // Regression: set membership is not consumed, so a truth id repeated r
  // times counted r hits against one candidate and inflated recall (2/4
  // here instead of 1/3).
  std::vector<SearchResult> truth = {{1, .9f}, {1, .9f}, {2, .8f}, {3, .7f}};
  std::vector<SearchResult> got = {{1, .9f}, {9, .1f}};
  EXPECT_DOUBLE_EQ(RecallAgainst(got, truth), 1.0 / 3.0);
  // Duplicates in the candidate list must not recall an id twice either.
  std::vector<SearchResult> dup_got = {{2, .8f}, {2, .8f}, {9, .1f}};
  std::vector<SearchResult> four = {{1, .9f}, {2, .8f}, {3, .7f}, {4, .6f}};
  EXPECT_DOUBLE_EQ(RecallAgainst(dup_got, four), 0.25);
  // Fully duplicated truth recalled by a single candidate is exactly 1.
  std::vector<SearchResult> all_same = {{5, .5f}, {5, .5f}, {5, .5f}};
  EXPECT_DOUBLE_EQ(RecallAgainst({{5, .5f}}, all_same), 1.0);
}

// ------------------------------------------------------------ AnnoyIndex --

TEST(AnnoyIndexTest, ValidatesOptionsAndInput) {
  EXPECT_FALSE(AnnoyIndex::Build({}, MatrixF()).ok());
  AnnoyOptions bad_trees;
  bad_trees.num_trees = 0;
  EXPECT_FALSE(AnnoyIndex::Build(bad_trees, RandomTable(10, 4, 5)).ok());
  AnnoyOptions bad_leaf;
  bad_leaf.leaf_size = 1;
  EXPECT_FALSE(AnnoyIndex::Build(bad_leaf, RandomTable(10, 4, 5)).ok());
}

TEST(AnnoyIndexTest, ExactOnTinyData) {
  // With the whole dataset inside leaves, Annoy must equal the exact scan.
  MatrixF table = RandomTable(30, 8, 6);
  auto exact = ExactStore::Create(table);
  AnnoyOptions options;
  options.leaf_size = 32;
  auto annoy = AnnoyIndex::Build(options, std::move(table));
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(annoy.ok());
  Rng rng(7);
  for (int t = 0; t < 10; ++t) {
    VectorF q = clip::RandomUnitVector(rng, 8);
    auto et = exact->TopK(q, 5);
    auto at = annoy->TopK(q, 5);
    EXPECT_GE(RecallAgainst(at, et), 0.99);
  }
}

TEST(AnnoyIndexTest, HandlesDuplicateVectors) {
  // All-identical vectors would break naive splitting; must still build.
  MatrixF table(100, 8, 0.0f);
  for (size_t i = 0; i < 100; ++i) table.At(i, 0) = 1.0f;
  auto annoy = AnnoyIndex::Build({}, std::move(table));
  ASSERT_TRUE(annoy.ok());
  auto hits = annoy->TopK(VectorF{1, 0, 0, 0, 0, 0, 0, 0}, 10);
  EXPECT_EQ(hits.size(), 10u);
}

TEST(AnnoyIndexTest, ExclusionWorks) {
  auto annoy = AnnoyIndex::Build({}, RandomTable(200, 16, 8));
  ASSERT_TRUE(annoy.ok());
  VectorF q(annoy->GetVector(3).begin(), annoy->GetVector(3).end());
  SeenSet seen(200);
  for (uint32_t id = 1; id < 200; id += 2) seen.Set(id);
  auto hits = annoy->TopK(q, 10, seen);
  for (const auto& h : hits) EXPECT_EQ(h.id % 2, 0u);
}

/// Recall sweep across build parameters: more trees must give high recall.
/// This is the §2.2 claim: approximate lookup with minor accuracy drop.
struct AnnoyParam {
  int num_trees;
  double min_recall;
};

class AnnoyRecallSweep : public ::testing::TestWithParam<AnnoyParam> {};

TEST_P(AnnoyRecallSweep, RecallAtTenExceedsThreshold) {
  const auto param = GetParam();
  const size_t n = 2000, d = 32;
  MatrixF table = ClusteredTable(n, d, 20, 9);
  auto exact = ExactStore::Create(table);
  AnnoyOptions options;
  options.num_trees = param.num_trees;
  options.leaf_size = 16;
  auto annoy = AnnoyIndex::Build(options, std::move(table));
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(annoy.ok());

  Rng rng(10);
  double total_recall = 0.0;
  const int queries = 40;
  for (int t = 0; t < queries; ++t) {
    // Queries near the data manifold, like embedded text queries.
    size_t pick = static_cast<size_t>(rng.UniformInt(0, n - 1));
    VectorF q(exact->GetVector(static_cast<uint32_t>(pick)).begin(),
              exact->GetVector(static_cast<uint32_t>(pick)).end());
    VectorF jitter = clip::RandomUnitVector(rng, d);
    linalg::Axpy(0.3f, jitter, linalg::MutVecSpan(q));
    linalg::NormalizeInPlace(linalg::MutVecSpan(q));
    auto et = exact->TopK(q, 10);
    auto at = annoy->TopK(q, 10);
    total_recall += RecallAgainst(at, et);
  }
  EXPECT_GE(total_recall / queries, param.min_recall)
      << "num_trees=" << param.num_trees;
}

INSTANTIATE_TEST_SUITE_P(
    TreeCounts, AnnoyRecallSweep,
    ::testing::Values(AnnoyParam{4, 0.35}, AnnoyParam{8, 0.55},
                      AnnoyParam{16, 0.75}, AnnoyParam{32, 0.85}));

TEST(AnnoyIndexTest, MoreSearchKImprovesRecall) {
  const size_t n = 3000, d = 24;
  MatrixF table = RandomTable(n, d, 11);
  auto exact = ExactStore::Create(table);
  AnnoyOptions small_k;
  small_k.num_trees = 8;
  small_k.search_k = 40;
  AnnoyOptions big_k = small_k;
  big_k.search_k = 1200;
  auto annoy_small = AnnoyIndex::Build(small_k, table);
  auto annoy_big = AnnoyIndex::Build(big_k, std::move(table));
  ASSERT_TRUE(annoy_small.ok());
  ASSERT_TRUE(annoy_big.ok());

  Rng rng(12);
  double recall_small = 0, recall_big = 0;
  for (int t = 0; t < 30; ++t) {
    VectorF q = clip::RandomUnitVector(rng, d);
    auto et = exact->TopK(q, 10);
    recall_small += RecallAgainst(annoy_small->TopK(q, 10), et);
    recall_big += RecallAgainst(annoy_big->TopK(q, 10), et);
  }
  EXPECT_GT(recall_big, recall_small);
}

TEST(AnnoyIndexTest, DeterministicGivenSeed) {
  MatrixF table = RandomTable(500, 16, 13);
  auto a = AnnoyIndex::Build({}, table);
  auto b = AnnoyIndex::Build({}, std::move(table));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Rng rng(14);
  VectorF q = clip::RandomUnitVector(rng, 16);
  auto ha = a->TopK(q, 10);
  auto hb = b->TopK(q, 10);
  ASSERT_EQ(ha.size(), hb.size());
  for (size_t i = 0; i < ha.size(); ++i) EXPECT_EQ(ha[i].id, hb[i].id);
}

}  // namespace
}  // namespace seesaw::store
