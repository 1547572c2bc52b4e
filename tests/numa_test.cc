// NUMA layer (common/numa.h) and its wiring: topology sanity, the
// degrade-to-no-op contract on hosts where placement cannot apply (single
// node, out-of-range node ids, sub-page ranges), data integrity across
// BindMemoryToNode, node-hinted thread-pool submission, and the ShardedStore
// placement parity sweep — a placed store must be bitwise identical to an
// unplaced one.
//
// CI runners are single-node, so the *fallback* path is what this suite
// proves exhaustively; on a real multi-node host the same assertions hold
// because placement is an optimization, never semantics. Nothing here may
// assert kApplied — whether placement engages is a host property.
#include "common/numa.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/thread_pool.h"
#include "store/exact_store.h"
#include "store/sharded_store.h"
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

TEST(NumaTopologyTest, SaneOnEveryHost) {
  // The contract floor: at least one node, CurrentNode in range, and
  // Available() consistent with the node count.
  ASSERT_GE(numa::NodeCount(), size_t{1});
  EXPECT_EQ(numa::Available(), numa::NodeCount() > 1);
  EXPECT_LT(numa::CurrentNode(), numa::NodeCount());
  // Out-of-range lookups return an empty list, not UB.
  EXPECT_TRUE(numa::CpusOfNode(numa::NodeCount() + 17).empty());
}

TEST(NumaTopologyTest, NodeForShardRoundRobins) {
  for (size_t shard = 0; shard < 32; ++shard) {
    EXPECT_EQ(numa::NodeForShard(shard), shard % numa::NodeCount());
    EXPECT_LT(numa::NodeForShard(shard), numa::NodeCount());
  }
}

TEST(NumaPlacementTest, OutOfRangeNodeDegradesCleanly) {
  std::vector<float> buffer(4096, 1.5f);
  EXPECT_EQ(numa::BindMemoryToNode(buffer.data(),
                                   buffer.size() * sizeof(float),
                                   numa::NodeCount() + 3),
            numa::Placement::kDegraded);
  EXPECT_EQ(numa::PinThreadToNode(numa::NodeCount() + 3),
            numa::Placement::kDegraded);
  // Degradation must not have touched the data.
  for (float v : buffer) ASSERT_EQ(v, 1.5f);
}

TEST(NumaPlacementTest, SubPageRangeDegrades) {
  alignas(64) char tiny[64];
  EXPECT_EQ(numa::BindMemoryToNode(tiny, sizeof(tiny), 0),
            numa::Placement::kDegraded);
  EXPECT_EQ(numa::BindMemoryToNode(nullptr, 1 << 20, 0),
            numa::Placement::kDegraded);
}

TEST(NumaPlacementTest, BindPreservesContents) {
  // Whether the bind applies (multi-node) or degrades (this CI host), the
  // bytes must be untouched — placement moves pages, never data.
  std::vector<uint32_t> buffer(1 << 16);
  std::iota(buffer.begin(), buffer.end(), 7u);
  const size_t bytes = buffer.size() * sizeof(uint32_t);
  for (size_t node = 0; node < numa::NodeCount(); ++node) {
    (void)numa::BindMemoryToNode(buffer.data(), bytes, node);
    for (size_t i = 0; i < buffer.size(); ++i) {
      ASSERT_EQ(buffer[i], 7u + i) << "corrupted at " << i;
    }
  }
}

TEST(NumaPoolTest, HintedTasksRunOnAnyHost) {
  // Node-hinted submission must execute everywhere: on a single-node host
  // the hints fall through to the general queue; on a multi-node host they
  // land in per-node queues that still drain via the fallback pop order.
  ThreadPoolOptions options;
  options.numa_affinity = true;
  ThreadPool pool(3, options);
  EXPECT_EQ(pool.numa_affinity(), numa::Available());

  std::atomic<size_t> ran{0};
  std::vector<TaskHandle> handles;
  for (size_t i = 0; i < 64; ++i) {
    // Deliberately hint past NodeCount too: a bad hint is a preference for
    // a queue that does not exist, which routes to the general queue.
    handles.push_back(pool.SubmitWithResult(
        [&ran] { ran.fetch_add(1, std::memory_order_relaxed); }, i % 5));
  }
  for (auto& h : handles) h.Wait();
  EXPECT_EQ(ran.load(), 64u);
}

TEST(NumaPoolTest, WorkerNodesCoverAllNodes) {
  ThreadPoolOptions options;
  options.numa_affinity = true;
  ThreadPool pool(2 * numa::NodeCount(), options);
  for (size_t i = 0; i < pool.num_threads(); ++i) {
    if (pool.numa_affinity()) {
      EXPECT_EQ(pool.worker_node(i), i % numa::NodeCount());
    } else {
      EXPECT_EQ(pool.worker_node(i), 0u);
    }
  }
}

TEST(NumaShardedStoreTest, FallbackIsExactlyTheUnplacedStore) {
  // The non-NUMA-host fallback contract: numa_placement=true on a
  // single-node host must produce numa_placed()==false and node 0 for every
  // shard. (On a multi-node host numa_placed() is true instead; the parity
  // sweep below is the assertion that holds either way.)
  MatrixF table = RandomTable(512, 24, /*seed=*/11);
  store::ShardedOptions options;
  options.num_shards = 4;
  options.numa_placement = true;
  auto placed = store::ShardedStore::Create(table, options);
  ASSERT_TRUE(placed.ok());
  EXPECT_EQ(placed->numa_placed(), numa::Available());
  for (size_t s = 0; s < placed->num_shards(); ++s) {
    EXPECT_EQ(placed->shard_node(s), numa::NodeForShard(s));
  }
}

TEST(NumaShardedStoreTest, PlacementParitySweep) {
  // Placed and unplaced must both be bitwise identical to the brute-force
  // scan across shard counts (one shard moves the input matrix instead of
  // copying it), seen sets, and single-query / pooled-batch lookups.
  constexpr size_t kRows = 700;
  constexpr size_t kDim = 32;
  MatrixF table = RandomTable(kRows, kDim, /*seed=*/21);
  std::vector<VectorF> queries = RandomQueries(6, kDim, /*seed=*/22);
  std::vector<VecSpan> spans = AsSpans(queries);
  store::SeenSet seen = RandomSeenSet(kRows, /*fraction=*/0.3, /*seed=*/23);

  ThreadPoolOptions pool_options;
  pool_options.numa_affinity = true;
  ThreadPool pool(3, pool_options);

  for (size_t shards : {size_t{1}, size_t{3}, size_t{8}}) {
    store::ShardedOptions base;
    base.num_shards = shards;
    store::ShardedOptions with_numa = base;
    with_numa.numa_placement = true;

    auto unplaced = store::ShardedStore::Create(table, base);
    auto placed = store::ShardedStore::Create(table, with_numa);
    ASSERT_TRUE(unplaced.ok() && placed.ok());

    for (size_t k : {size_t{1}, size_t{17}, kRows + 5}) {
      auto a = unplaced->TopKBatch(spans, k, seen, &pool);
      auto b = placed->TopKBatch(spans, k, seen, &pool);
      ASSERT_EQ(a.size(), spans.size());
      ASSERT_EQ(b.size(), spans.size());
      for (size_t qi = 0; qi < spans.size(); ++qi) {
        auto want = test_util::BruteForceTopK(table, spans[qi], k, seen);
        ExpectIdenticalResults(placed->TopK(spans[qi], k, seen), want);
        ExpectIdenticalResults(a[qi], want);
        ExpectIdenticalResults(b[qi], want);
      }
    }
  }
}

}  // namespace
}  // namespace seesaw
