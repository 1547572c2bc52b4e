// Memory-audit regression gates (PR 9): the scratch arena's allocation
// contract (spans survive growth, Reset coalesces, steady state allocates
// nothing), the scan-pool lease discipline under nesting, the CacheAligned
// layout guarantees the padded hot atomics rely on, the bitwise equivalence
// of the in-place query quantizer with the vector-out one it replaced on
// the hot path, and the end-to-end gate: a warm ExactStore::TopKBatch loop
// must not grow the global scratch pool — the "no per-call allocation
// growth" claim, held as a test instead of a comment.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/aligned.h"
#include "common/arena.h"
#include "common/thread_pool.h"
#include "linalg/quantize.h"
#include "store/exact_store.h"
#include "tests/test_util.h"

namespace seesaw {
namespace {

using linalg::MatrixF;
using linalg::VecSpan;
using linalg::VectorF;
using test_util::AsSpans;
using test_util::ExpectIdenticalResults;
using test_util::RandomQueries;
using test_util::RandomSeenSet;
using test_util::RandomTable;

TEST(CacheAlignedTest, LayoutGuarantees) {
  static_assert(alignof(CacheAligned<std::atomic<bool>>) == kCacheLineSize);
  static_assert(sizeof(CacheAligned<std::atomic<size_t>>) == kCacheLineSize);
  // Adjacent padded atomics land on distinct lines — the property every
  // padded hot field (server admission counters, pool latch, prefetch
  // budget) buys with its 64 bytes.
  CacheAligned<std::atomic<size_t>> pair[2];
  auto a = reinterpret_cast<uintptr_t>(&pair[0].value);
  auto b = reinterpret_cast<uintptr_t>(&pair[1].value);
  EXPECT_GE(b - a, kCacheLineSize);
  EXPECT_EQ(a % kCacheLineSize, 0u);
}

TEST(ScratchArenaTest, SpansAreAlignedAndDisjoint) {
  ScratchArena arena;
  auto a = arena.Alloc<float>(7);
  auto b = arena.Alloc<int8_t>(3);
  auto c = arena.Alloc<uint64_t>(1);
  ASSERT_EQ(a.size(), 7u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a.data()) % kCacheLineSize, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b.data()) % kCacheLineSize, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c.data()) % kCacheLineSize, 0u);
  // Writing one span never bleeds into another (disjoint, line-separated).
  std::fill(a.begin(), a.end(), 2.0f);
  std::fill(b.begin(), b.end(), int8_t{-5});
  c[0] = 77;
  for (float v : a) ASSERT_EQ(v, 2.0f);
  for (int8_t v : b) ASSERT_EQ(v, -5);
  EXPECT_EQ(c[0], 77u);
  EXPECT_TRUE(arena.Alloc<float>(0).empty());
}

TEST(ScratchArenaTest, GrowthKeepsOutstandingSpansValid) {
  // The retire-not-realloc contract: spans allocated before a growth stay
  // valid (and intact) after it.
  ScratchArena arena;
  auto early = arena.Alloc<uint32_t>(64);
  std::iota(early.begin(), early.end(), 100u);
  // Force several growths well past the initial block.
  for (int i = 0; i < 8; ++i) {
    auto big = arena.Alloc<uint32_t>(1 << 16);
    big[0] = 1;  // touch to prove it's real memory
  }
  for (size_t i = 0; i < early.size(); ++i) {
    ASSERT_EQ(early[i], 100u + i) << "early span corrupted by growth";
  }
}

TEST(ScratchArenaTest, ResetCoalescesToSteadyState) {
  ScratchArena arena;
  auto shape = [&arena] {
    (void)arena.Alloc<int8_t>(1024);
    (void)arena.Alloc<float>(4096);
    (void)arena.Alloc<float>(256);
  };
  shape();
  arena.Reset();
  shape();  // re-run the high-water shape once more post-coalesce
  arena.Reset();
  const size_t steady = arena.capacity_bytes();
  ASSERT_GT(steady, 0u);
  // Same shape, many cycles: capacity must never move again.
  for (int cycle = 0; cycle < 50; ++cycle) {
    shape();
    arena.Reset();
    ASSERT_EQ(arena.capacity_bytes(), steady) << "cycle " << cycle;
  }
}

TEST(ScratchPoolTest, LeasesReuseArenas) {
  ScratchPool pool;
  EXPECT_EQ(pool.created(), 0u);
  { auto lease = pool.Acquire(); }
  EXPECT_EQ(pool.created(), 1u);
  EXPECT_EQ(pool.outstanding(), 0u);
  // Serial acquires reuse the one arena forever.
  for (int i = 0; i < 100; ++i) {
    auto lease = pool.Acquire();
    (void)lease->Alloc<float>(128);
  }
  EXPECT_EQ(pool.created(), 1u);
}

TEST(ScratchPoolTest, NestingTakesASecondArena) {
  // The nesting thread_local scratch would break: an outer lease still
  // live while an inner scope on the same OS thread acquires (a scan's
  // caller running one of its own shard parts, or a ShardedStore part
  // running a child scan). Each level must get its own arena.
  ScratchPool pool;
  auto outer = pool.Acquire();
  auto data = outer->Alloc<uint32_t>(32);
  std::iota(data.begin(), data.end(), 0u);
  {
    auto inner = pool.Acquire();
    EXPECT_EQ(pool.outstanding(), 2u);
    EXPECT_EQ(pool.created(), 2u);
    auto clobber = inner->Alloc<uint32_t>(32);
    std::fill(clobber.begin(), clobber.end(), 0xFFFFFFFFu);
  }
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(data[i], i) << "outer scratch clobbered by nested lease";
  }
  EXPECT_EQ(pool.outstanding(), 1u);
}

TEST(QuantizeTest, InPlaceMatchesVectorOutBitwise) {
  // QuantizeVectorInto is the hot path's allocation-free variant; the
  // satellite contract is bitwise identity with QuantizeVector.
  for (uint64_t seed : {1u, 2u, 3u}) {
    std::vector<VectorF> queries = RandomQueries(4, 37, seed);
    for (const auto& q : queries) {
      VecSpan span(q.data(), q.size());
      std::vector<int8_t> want;
      const float want_scale = linalg::QuantizeVector(span, &want);
      std::vector<int8_t> got(q.size(), int8_t{99});
      const float got_scale = linalg::QuantizeVectorInto(span, got.data());
      ASSERT_EQ(std::memcmp(&want_scale, &got_scale, sizeof(float)), 0);
      ASSERT_EQ(want.size(), got.size());
      ASSERT_EQ(std::memcmp(want.data(), got.data(), want.size()), 0);
    }
  }
}

TEST(ScanScratchTest, WarmTopKBatchDoesNotGrowThePool) {
  // The end-to-end regression gate for the TopKBatch scratch fix: after the
  // pool has warmed to its peak concurrency, repeated batched scans must
  // not create arenas. (ISSUE 9's "no per-call allocation growth": all
  // per-call scratch — quantized queries, score blocks, admission
  // thresholds — comes from leased arenas whose backing store is retained.)
  constexpr size_t kRows = 4000;
  constexpr size_t kDim = 48;
  MatrixF table = RandomTable(kRows, kDim, /*seed=*/31);
  std::vector<VectorF> queries = RandomQueries(5, kDim, /*seed=*/32);
  std::vector<VecSpan> spans = AsSpans(queries);
  store::SeenSet seen = RandomSeenSet(kRows, /*fraction=*/0.2, /*seed=*/33);

  auto exact_store = store::ExactStore::Create(table);
  ASSERT_TRUE(exact_store.ok());
  ThreadPool pool(3);

  // Serial-path gate (deterministic): without a pool a call leases exactly
  // one call-level arena plus one shard-scan arena, sequentially reused —
  // so after two warm calls the global pool must never grow again. This is
  // the strict "no per-call allocation growth" regression gate. k = 50 and
  // k = 900 both run: the larger k grows the lower-bound heaps and keeps
  // the candidate queue busy, and neither may allocate once warm.
  for (size_t k : {size_t{50}, size_t{900}}) {
    (void)exact_store->TopKBatch(spans, k, seen, /*pool=*/nullptr);
  }
  const size_t serial_warm = GlobalScanScratch().created();
  for (int it = 0; it < 30; ++it) {
    for (size_t k : {size_t{50}, size_t{900}}) {
      (void)exact_store->TopKBatch(spans, k, seen, /*pool=*/nullptr);
    }
  }
  EXPECT_EQ(GlobalScanScratch().created(), serial_warm)
      << "warm serial TopKBatch calls are still creating scratch arenas";

  // Pooled-path gate (bounded): peak lease concurrency is one call-level
  // lease plus at most one shard lease per thread that can run shard tasks
  // (workers + the waiting caller, which runs its own queued parts). *When*
  // that peak is reached is
  // scheduling-dependent, so the pooled gate is the absolute bound — a
  // per-call regression scales with the 40 calls below and blows it.
  for (int it = 0; it < 20; ++it) {
    for (size_t k : {size_t{50}, size_t{900}}) {
      (void)exact_store->TopKBatch(spans, k, seen, &pool);
    }
  }
  EXPECT_LE(GlobalScanScratch().created(), pool.num_threads() + 2)
      << "pooled TopKBatch leases exceed peak concurrency: per-call growth";
  EXPECT_EQ(GlobalScanScratch().outstanding(), 0u);

  // And the arena-backed scan still equals the brute-force oracle exactly
  // (results bitwise identical — the fix must be invisible in outputs).
  auto batched = exact_store->TopKBatch(spans, 50, seen, &pool);
  ASSERT_EQ(batched.size(), spans.size());
  for (size_t qi = 0; qi < spans.size(); ++qi) {
    ExpectIdenticalResults(
        batched[qi], test_util::BruteForceTopK(table, spans[qi], 50, seen));
  }
}

}  // namespace
}  // namespace seesaw
