#include "store/seen_set.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "store/exact_store.h"
#include "tests/test_util.h"

namespace seesaw::store {
namespace {

using linalg::MatrixF;
using linalg::VectorF;
using test_util::RandomTable;

TEST(SeenSetTest, DefaultIsEmptyWithZeroCapacity) {
  SeenSet seen;
  EXPECT_EQ(seen.capacity(), 0u);
  EXPECT_EQ(seen.count(), 0u);
  EXPECT_TRUE(seen.empty());
  // Any id past capacity is "not seen" — never UB.
  EXPECT_FALSE(seen.Test(0));
  EXPECT_FALSE(seen.Test(12345));
}

TEST(SeenSetTest, SetTestClearRoundTrip) {
  SeenSet seen(130);  // straddles the 64-bit word boundary twice
  EXPECT_EQ(seen.capacity(), 130u);
  for (uint32_t id : {0u, 63u, 64u, 127u, 128u, 129u}) {
    EXPECT_FALSE(seen.Test(id));
    seen.Set(id);
    EXPECT_TRUE(seen.Test(id));
  }
  EXPECT_EQ(seen.count(), 6u);

  // Setting an already-set bit is idempotent.
  seen.Set(64);
  EXPECT_EQ(seen.count(), 6u);

  seen.Reset(64);
  EXPECT_FALSE(seen.Test(64));
  EXPECT_EQ(seen.count(), 5u);
  seen.Reset(64);  // idempotent too
  EXPECT_EQ(seen.count(), 5u);

  seen.Clear();
  EXPECT_EQ(seen.count(), 0u);
  EXPECT_EQ(seen.capacity(), 130u);
  for (uint32_t id = 0; id < 130; ++id) EXPECT_FALSE(seen.Test(id));
}

TEST(SeenSetTest, ResizePreservesBitsAndCount) {
  SeenSet seen(10);
  seen.Set(3);
  seen.Set(9);
  seen.Resize(100);
  EXPECT_TRUE(seen.Test(3));
  EXPECT_TRUE(seen.Test(9));
  EXPECT_FALSE(seen.Test(50));
  EXPECT_EQ(seen.count(), 2u);

  // Shrinking drops out-of-range bits from the count.
  seen.Resize(4);
  EXPECT_TRUE(seen.Test(3));
  EXPECT_FALSE(seen.Test(9));
  EXPECT_EQ(seen.count(), 1u);
}

TEST(SeenSetTest, UnseenIdsPastCapacityAreExcludedFromNothing) {
  SeenSet seen(8);
  seen.Set(7);
  EXPECT_TRUE(seen.Test(7));
  EXPECT_FALSE(seen.Test(8));
  EXPECT_FALSE(seen.Test(1u << 30));
}

TEST(SeenSetTest, SliceMatchesPerIdTestAtEveryOffset) {
  // The slicing contract ShardedStore relies on: out.Test(i) ==
  // in.Test(begin + i) for every alignment of begin/end against the 64-bit
  // word grid, with counts maintained.
  const size_t capacity = 200;
  SeenSet seen(capacity);
  Rng rng(77);
  for (uint32_t id = 0; id < capacity; ++id) {
    if (rng.Uniform() < 0.4) seen.Set(id);
  }
  const std::pair<uint32_t, uint32_t> ranges[] = {
      {0, 64},  {0, 200},  {1, 65},   {63, 64},  {63, 130},
      {64, 64}, {64, 128}, {65, 199}, {100, 137}, {199, 200}};
  for (auto [begin, end] : ranges) {
    SeenSet local = seen.Slice(begin, end);
    EXPECT_EQ(local.capacity(), static_cast<size_t>(end - begin));
    size_t want_count = 0;
    for (uint32_t i = 0; i < end - begin; ++i) {
      EXPECT_EQ(local.Test(i), seen.Test(begin + i))
          << "begin=" << begin << " end=" << end << " i=" << i;
      want_count += seen.Test(begin + i) ? 1 : 0;
    }
    EXPECT_EQ(local.count(), want_count);
  }
}

TEST(SeenSetTest, SlicePastCapacityReadsUnseen) {
  SeenSet seen(70);
  seen.Set(69);
  // The tail beyond capacity is unseen, exactly like Test() reports it.
  SeenSet local = seen.Slice(64, 140);
  EXPECT_EQ(local.capacity(), 76u);
  EXPECT_TRUE(local.Test(5));  // id 69
  EXPECT_EQ(local.count(), 1u);
  for (uint32_t i = 6; i < 76; ++i) EXPECT_FALSE(local.Test(i));

  // Entirely past capacity, and the empty "no exclusions" set: all unseen.
  EXPECT_EQ(seen.Slice(70, 170).count(), 0u);
  EXPECT_EQ(EmptySeenSet().Slice(0, 100).count(), 0u);
  // Degenerate empty range.
  EXPECT_EQ(seen.Slice(10, 10).capacity(), 0u);
}

TEST(SeenSetTest, SliceEqualsManuallyBuiltLocalSet) {
  // operator== must hold against a set built bit by bit (guards the
  // stray-tail-bits invariant).
  SeenSet seen(130);
  for (uint32_t id : {0u, 63u, 64u, 90u, 129u}) seen.Set(id);
  SeenSet want(60);
  for (uint32_t i = 0; i < 60; ++i) {
    if (seen.Test(60 + i)) want.Set(i);
  }
  EXPECT_TRUE(seen.Slice(60, 120) == want);
}

TEST(SeenSetTest, ExclusionHonoredByStoreScan) {
  auto store = ExactStore::Create(RandomTable(64, 8, 5));
  ASSERT_TRUE(store.ok());
  VectorF q(store->GetVector(11).begin(), store->GetVector(11).end());
  ASSERT_EQ(store->TopK(q, 1)[0].id, 11u);

  SeenSet seen(64);
  seen.Set(11);
  for (const auto& h : store->TopK(q, 64, seen)) EXPECT_NE(h.id, 11u);

  // Clearing restores the excluded id.
  seen.Clear();
  EXPECT_EQ(store->TopK(q, 1, seen)[0].id, 11u);
}

TEST(SeenSetTest, NextUnseenRunsMatchesPerIdEnumeration) {
  // The chunked enumeration must produce exactly the blocks a per-id
  // skip-test loop produces — maximal unseen runs chopped at max_run — for
  // every buffer size, so resuming from *pos across chunk boundaries
  // neither drops, splits nor repeats a run.
  for (size_t capacity : {0u, 1u, 63u, 64u, 65u, 200u, 1000u}) {
    for (double fraction : {0.0, 0.1, 0.5, 0.9, 1.0}) {
      SeenSet seen = test_util::RandomSeenSet(capacity, fraction, 18);
      for (uint32_t max_run : {1u, 7u, 32u, 100u}) {
        // Windows inside, straddling, and past capacity (ids past capacity
        // read unseen, same as Test()).
        const uint32_t window_end = static_cast<uint32_t>(capacity) + 70;
        for (uint32_t begin :
             {uint32_t{0}, static_cast<uint32_t>(capacity / 3),
              static_cast<uint32_t>(capacity)}) {
          // Reference: the per-row skip-test loop.
          std::vector<std::pair<uint32_t, uint32_t>> want;
          uint32_t r = begin;
          while (r < window_end) {
            if (seen.Test(r)) {
              ++r;
              continue;
            }
            uint32_t run_end = r + 1;
            while (run_end < window_end && run_end - r < max_run &&
                   !seen.Test(run_end)) {
              ++run_end;
            }
            want.emplace_back(r, run_end);
            r = run_end;
          }
          for (size_t buffer : {1u, 3u, 1024u}) {
            std::vector<SeenSet::Run> chunk(buffer);
            std::vector<std::pair<uint32_t, uint32_t>> got;
            uint32_t pos = begin;
            while (const size_t n =
                       seen.NextUnseenRuns(&pos, window_end, max_run, chunk)) {
              ASSERT_LE(n, buffer);
              for (size_t i = 0; i < n; ++i) {
                got.emplace_back(chunk[i].begin, chunk[i].end);
              }
            }
            EXPECT_EQ(pos, window_end);
            ASSERT_EQ(got, want)
                << "capacity=" << capacity << " fraction=" << fraction
                << " max_run=" << max_run << " begin=" << begin
                << " buffer=" << buffer;
          }
        }
      }
    }
  }
}

TEST(SeenSetTest, FewerThanKWhenExclusionsShrinkTheStore) {
  auto store = ExactStore::Create(RandomTable(10, 4, 6));
  ASSERT_TRUE(store.ok());
  SeenSet seen(10);
  for (uint32_t id = 0; id < 7; ++id) seen.Set(id);
  auto hits = store->TopK(VectorF(4, 0.5f), 5, seen);
  EXPECT_EQ(hits.size(), 3u);  // only ids 7, 8, 9 remain
  for (const auto& h : hits) EXPECT_GE(h.id, 7u);
}

}  // namespace
}  // namespace seesaw::store
