// ShardedStore: randomized parity against a single ExactStore (bitwise
// identical ids and scores for every shard count), id/seen-set mapping,
// concurrent-sessions stress on a shared pool, and deterministic in-scan
// cancellation — a blocked scan observes a CancellationToken cancel inside
// one TopKBatch call, for ExactStore, IvfFlatIndex, and ShardedStore.
#include "store/sharded_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <semaphore>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/service.h"
#include "core/session_manager.h"
#include "store/exact_store.h"
#include "store/ivf_index.h"
#include "tests/test_util.h"

namespace seesaw::store {
namespace {

using linalg::MatrixF;
using linalg::VecSpan;
using linalg::VectorF;
using test_util::AsSpans;
using test_util::ExpectIdenticalResults;
using test_util::RandomQueries;
using test_util::RandomSeenSet;
using test_util::RandomTable;

constexpr size_t kShardCounts[] = {1, 2, 3, 7, 16};

/// A table whose rows repeat a handful of distinct vectors, forcing exact
/// score ties across shard boundaries (the tie-break-by-id stress case).
MatrixF DuplicateRowTable(size_t n, size_t d, size_t distinct, uint64_t seed) {
  MatrixF base = RandomTable(distinct, d, seed);
  MatrixF table(n, d);
  for (size_t i = 0; i < n; ++i) {
    auto src = base.Row(i % distinct);
    std::copy(src.begin(), src.end(), table.MutableRow(i).begin());
  }
  return table;
}

/// Asserts ShardedStore == the brute-force fp32 scan of the unsharded table
/// (ExactStore's contract), bitwise, for single queries and batches (serial
/// and pooled) at several k, under the given seen set.
void CheckShardedParity(const ExactStore& exact, const ShardedStore& sharded,
                        const std::vector<VectorF>& queries,
                        const SeenSet& seen, ThreadPool* pool) {
  ASSERT_EQ(exact.size(), sharded.size());
  std::vector<VecSpan> spans = AsSpans(queries);
  const size_t n = exact.size();
  for (size_t k : {size_t{1}, size_t{13}, n + 7}) {
    std::vector<std::vector<SearchResult>> want;
    for (const VecSpan& q : spans) {
      want.push_back(test_util::BruteForceTopK(exact.vectors(), q, k, seen));
    }
    auto serial = sharded.TopKBatch(std::span<const VecSpan>(spans), k, seen,
                                    /*pool=*/nullptr);
    auto pooled =
        sharded.TopKBatch(std::span<const VecSpan>(spans), k, seen, pool);
    ASSERT_EQ(serial.size(), want.size());
    ASSERT_EQ(pooled.size(), want.size());
    for (size_t q = 0; q < want.size(); ++q) {
      ExpectIdenticalResults(sharded.TopK(spans[q], k, seen), want[q]);
      ExpectIdenticalResults(serial[q], want[q]);
      ExpectIdenticalResults(pooled[q], want[q]);
    }
  }
}

TEST(ShardedStoreTest, ValidatesInput) {
  EXPECT_FALSE(ShardedStore::Create(MatrixF(), {}).ok());
  ShardedOptions zero;
  zero.num_shards = 0;
  EXPECT_FALSE(ShardedStore::Create(RandomTable(10, 4, 1), zero).ok());
}

TEST(ShardedStoreTest, PartitionCoversEveryRowOnce) {
  // Odd row count vs shard counts that don't divide it: partitions must be
  // contiguous, non-empty, near-equal, and cover [0, n) exactly.
  const size_t n = 37;
  MatrixF table = RandomTable(n, 5, 2);
  for (size_t shards : kShardCounts) {
    ShardedOptions options;
    options.num_shards = shards;
    auto store = ShardedStore::Create(table, options);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(store->num_shards(), std::min(shards, n));
    EXPECT_EQ(store->size(), n);
    size_t covered = 0;
    for (size_t s = 0; s < store->num_shards(); ++s) {
      const size_t rows = store->shard_begin(s + 1) - store->shard_begin(s);
      EXPECT_GE(rows, n / store->num_shards());
      EXPECT_LE(rows, n / store->num_shards() + 1);
      covered += rows;
    }
    EXPECT_EQ(covered, n);
    // Global-id mapping: GetVector(g) must be the original row g bitwise,
    // and Locate must invert the partition.
    for (uint32_t g = 0; g < n; ++g) {
      auto [s, local] = store->Locate(g);
      EXPECT_EQ(store->shard_begin(s) + local, g);
      auto got = store->GetVector(g);
      auto want = table.Row(g);
      ASSERT_EQ(got.size(), want.size());
      for (size_t j = 0; j < got.size(); ++j) EXPECT_EQ(got[j], want[j]);
    }
  }
}

TEST(ShardedStoreTest, ClampsShardCountToRows) {
  MatrixF table = RandomTable(5, 4, 6);
  auto exact = ExactStore::Create(table);
  ShardedOptions options;
  options.num_shards = 16;
  auto sharded = ShardedStore::Create(table, options);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded->num_shards(), 5u);  // one row per shard
  auto queries = RandomQueries(2, 4, 7);
  CheckShardedParity(*exact, *sharded, queries, EmptySeenSet(),
                     /*pool=*/nullptr);
}

TEST(ShardedStoreTest, OnePartitionHandsTheInputToTheFactory) {
  // One partition is the whole table: the factory must receive the input
  // matrix itself (its row buffer), not a second table-sized copy — with
  // and without NUMA placement, which binds that same buffer. Two
  // partitions still get fresh copies of their ranges.
  for (bool numa_placement : {false, true}) {
    MatrixF table = RandomTable(64, 8, 8);
    const float* input_rows = table.Row(0).data();
    std::vector<const float*> received;
    ShardedStore::ChildFactory factory =
        [&](MatrixF part) -> StatusOr<std::unique_ptr<VectorStore>> {
      received.push_back(part.Row(0).data());
      SEESAW_ASSIGN_OR_RETURN(ExactStore child,
                              ExactStore::Create(std::move(part)));
      return std::unique_ptr<VectorStore>(
          std::make_unique<ExactStore>(std::move(child)));
    };
    ShardedOptions options;
    options.numa_placement = numa_placement;
    MatrixF reference = table;
    auto single = ShardedStore::Create(std::move(table), options, factory);
    ASSERT_TRUE(single.ok());
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(received[0], input_rows);
    auto exact = ExactStore::Create(reference);
    ASSERT_TRUE(exact.ok());
    CheckShardedParity(*exact, *single, RandomQueries(2, 8, 9),
                       EmptySeenSet(), /*pool=*/nullptr);

    received.clear();
    options.num_shards = 2;
    const float* reference_rows = reference.Row(0).data();
    auto two = ShardedStore::Create(reference, options, factory);
    ASSERT_TRUE(two.ok());
    ASSERT_EQ(received.size(), 2u);
    EXPECT_NE(received[0], reference_rows);
  }
}

TEST(ShardedStoreTest, RandomizedParitySweep) {
  // The acceptance property: bitwise-identical TopK/TopKBatch vs a single
  // ExactStore for every shard count, across odd dims/row counts and seen
  // fractions 0 / 0.5 / 0.99.
  struct Case {
    size_t n, d;
    uint64_t seed;
  };
  const Case cases[] = {{157, 7, 3}, {523, 9, 4}, {96, 24, 5}};
  ThreadPool pool(4);
  for (const Case& c : cases) {
    MatrixF table = RandomTable(c.n, c.d, c.seed);
    auto exact = ExactStore::Create(table);
    ASSERT_TRUE(exact.ok());
    auto queries = RandomQueries(4, c.d, c.seed + 100);
    for (size_t shards : kShardCounts) {
      ShardedOptions options;
      options.num_shards = shards;
      auto sharded = ShardedStore::Create(table, options);
      ASSERT_TRUE(sharded.ok());
      for (double fraction : {0.0, 0.5, 0.99}) {
        SeenSet seen = RandomSeenSet(c.n, fraction, c.seed + 7);
        CheckShardedParity(*exact, *sharded, queries, seen, &pool);
      }
      // An empty (capacity-0) global seen set must slice cleanly too.
      CheckShardedParity(*exact, *sharded, queries, EmptySeenSet(), &pool);
    }
  }
}

TEST(ShardedStoreTest, MinRowsPerShardFallsBackToFewerShards) {
  // Small tables auto-fall back: requesting 16 shards of a 300-row table
  // with a 100-row floor yields 3 shards — and stays bitwise equal to the
  // unsharded scan (the floor only changes the partition, never results).
  MatrixF table = RandomTable(300, 8, 31);
  auto exact = ExactStore::Create(table);
  ASSERT_TRUE(exact.ok());
  ShardedOptions options;
  options.num_shards = 16;
  options.min_rows_per_shard = 100;
  auto sharded = ShardedStore::Create(table, options);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded->num_shards(), 3u);
  auto queries = RandomQueries(3, 8, 32);
  SeenSet seen = RandomSeenSet(300, 0.4, 33);
  CheckShardedParity(*exact, *sharded, queries, seen, /*pool=*/nullptr);

  // A floor larger than the table collapses to one shard.
  options.min_rows_per_shard = 1000;
  auto single = ShardedStore::Create(table, options);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->num_shards(), 1u);
}

TEST(ShardedStoreTest, DuplicateScoresTieBreakAcrossShardBoundaries) {
  // Rows repeat 3 distinct vectors, so every shard holds bitwise-equal
  // scores; the global (score desc, id asc) order must survive the merge.
  const size_t n = 131;
  MatrixF table = DuplicateRowTable(n, 6, 3, 11);
  auto exact = ExactStore::Create(table);
  ASSERT_TRUE(exact.ok());
  auto queries = RandomQueries(3, 6, 12);
  ThreadPool pool(4);
  for (size_t shards : kShardCounts) {
    ShardedOptions options;
    options.num_shards = shards;
    auto sharded = ShardedStore::Create(table, options);
    ASSERT_TRUE(sharded.ok());
    for (double fraction : {0.0, 0.5}) {
      SeenSet seen = RandomSeenSet(n, fraction, 13);
      CheckShardedParity(*exact, *sharded, queries, seen, &pool);
    }
  }
}

TEST(ShardedStoreTest, KZeroAndEmptyBatchAreTrivial) {
  ShardedOptions options;
  options.num_shards = 3;
  auto sharded = ShardedStore::Create(RandomTable(20, 4, 31), options);
  ASSERT_TRUE(sharded.ok());
  EXPECT_TRUE(sharded->TopKBatch({}, 5).empty());
  auto queries = RandomQueries(2, 4, 32);
  std::vector<VecSpan> spans = AsSpans(queries);
  auto batched = sharded->TopKBatch(std::span<const VecSpan>(spans), 0);
  ASSERT_EQ(batched.size(), 2u);
  for (const auto& hits : batched) EXPECT_TRUE(hits.empty());
}

TEST(ShardedStoreTest, ConcurrentSessionsStress) {
  // Many "sessions" with distinct seen sets issue batched lookups against
  // one ShardedStore on one shared pool; every result must stay bitwise
  // equal to the single-ExactStore answer. Runs under the TSan CI leg via
  // the `concurrency` label.
  const size_t n = 400, d = 8;
  MatrixF table = RandomTable(n, d, 41);
  auto exact = ExactStore::Create(table);
  ShardedOptions options;
  options.num_shards = 7;
  auto sharded = ShardedStore::Create(table, options);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(sharded.ok());
  ThreadPool shared_pool(4);

  const int kSessions = 8, kRounds = 5;
  std::vector<std::vector<VectorF>> queries;
  std::vector<SeenSet> seen;
  std::vector<std::vector<std::vector<SearchResult>>> want;
  for (int t = 0; t < kSessions; ++t) {
    queries.push_back(RandomQueries(3, d, 50 + t));
    seen.push_back(RandomSeenSet(n, 0.3, 80 + t));
    std::vector<VecSpan> spans = AsSpans(queries.back());
    want.push_back(exact->TopKBatch(std::span<const VecSpan>(spans), 12,
                                    seen.back(), /*pool=*/nullptr));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> sessions;
  for (int t = 0; t < kSessions; ++t) {
    sessions.emplace_back([&, t] {
      std::vector<VecSpan> spans = AsSpans(queries[t]);
      for (int round = 0; round < kRounds; ++round) {
        auto got = sharded->TopKBatch(std::span<const VecSpan>(spans), 12,
                                      seen[t], &shared_pool);
        if (got.size() != want[t].size()) {
          ++failures;
          continue;
        }
        for (size_t q = 0; q < got.size(); ++q) {
          if (got[q].size() != want[t][q].size()) ++failures;
          for (size_t i = 0; i < got[q].size(); ++i) {
            if (got[q][i].id != want[t][q][i].id ||
                got[q][i].score != want[t][q][i].score) {
              ++failures;
            }
          }
        }
      }
    });
  }
  for (auto& s : sessions) s.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ShardedStoreTest, ConcurrentCancellationLeavesOthersIntact) {
  // Half the sessions get cancelled mid-flight while the rest must keep
  // returning exact results — cancellation is per-call state, never shared.
  const size_t n = 600, d = 8;
  MatrixF table = RandomTable(n, d, 61);
  auto exact = ExactStore::Create(table);
  ShardedOptions options;
  options.num_shards = 7;
  auto sharded = ShardedStore::Create(table, options);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(sharded.ok());
  ThreadPool shared_pool(4);

  auto queries = RandomQueries(2, d, 62);
  std::vector<VecSpan> spans = AsSpans(queries);
  auto want = exact->TopKBatch(std::span<const VecSpan>(spans), 10,
                               EmptySeenSet(), /*pool=*/nullptr);

  std::atomic<int> failures{0};
  std::vector<std::thread> sessions;
  for (int t = 0; t < 8; ++t) {
    const bool cancels = (t % 2) == 0;
    sessions.emplace_back([&, cancels] {
      for (int round = 0; round < 5; ++round) {
        CancellationToken token;
        ScanControl control;
        control.cancel = &token;
        if (cancels) token.RequestCancel();  // trips at the first checkpoint
        auto got =
            sharded->TopKBatch(std::span<const VecSpan>(spans), 10,
                               EmptySeenSet(), &shared_pool, control);
        if (cancels) continue;  // partial results, discarded by contract
        if (got.size() != want.size()) {
          ++failures;
          continue;
        }
        for (size_t q = 0; q < got.size(); ++q) {
          if (got[q].size() != want[q].size()) ++failures;
          for (size_t i = 0; i < got[q].size(); ++i) {
            if (got[q][i].id != want[q][i].id ||
                got[q][i].score != want[q][i].score) {
              ++failures;
            }
          }
        }
      }
    });
  }
  for (auto& s : sessions) s.join();
  EXPECT_EQ(failures.load(), 0);
}

// ----------------------------------------------- in-scan cancellation --

/// Runs `fn` (a TopKBatch call) on a worker thread while the main thread
/// drives the deterministic block-then-cancel schedule through the
/// checkpoint hook: the scan parks at its first checkpoint, the test cancels
/// mid-call, the scan resumes and must stop at that very checkpoint.
/// Returns the number of checkpoints the scan hit.
template <typename Fn>
int RunBlockThenCancel(const CancellationToken& token, ScanControl& control,
                       Fn fn) {
  std::atomic<int> checkpoints{0};
  std::binary_semaphore reached{0};
  std::binary_semaphore resume{0};
  control.checkpoint = [&] {
    if (checkpoints.fetch_add(1) == 0) {
      reached.release();
      resume.acquire();
    }
  };
  std::thread scan(fn);
  reached.acquire();            // the scan is parked inside TopKBatch
  token.RequestCancel();        // cancel mid-call
  resume.release();
  scan.join();
  return checkpoints.load();
}

TEST(InScanCancellationTest, ExactStoreStopsMidTopKBatch) {
  // 2048 rows = 64 row blocks; serial scan (no pool) hits one checkpoint
  // per block. Without cancellation all 64 fire; with a cancel delivered
  // while the scan is parked at its first checkpoint, the scan must return
  // from *that* checkpoint — one hit, zero further blocks.
  auto store = ExactStore::Create(RandomTable(2048, 8, 71));
  ASSERT_TRUE(store.ok());
  auto queries = RandomQueries(2, 8, 72);
  std::vector<VecSpan> spans = AsSpans(queries);

  // Baseline: count checkpoints of an uncancelled scan.
  int total_blocks = 0;
  {
    ScanControl control;
    control.checkpoint = [&] { ++total_blocks; };
    auto out = store->TopKBatch(std::span<const VecSpan>(spans), 10,
                                EmptySeenSet(), /*pool=*/nullptr, control);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].size(), 10u);
  }
  EXPECT_EQ(total_blocks, 64);

  CancellationToken token;
  ScanControl control;
  control.cancel = &token;
  std::vector<std::vector<SearchResult>> out;
  int hit = RunBlockThenCancel(token, control, [&] {
    out = store->TopKBatch(std::span<const VecSpan>(spans), 10, EmptySeenSet(),
                           /*pool=*/nullptr, control);
  });
  EXPECT_EQ(hit, 1) << "the scan must stop at the checkpoint that observed "
                       "the cancel, not finish the table";
  ASSERT_EQ(out.size(), 2u);          // partial result: right shape,
  EXPECT_TRUE(out[0].empty());        // nothing scanned before the cancel
}

TEST(InScanCancellationTest, ShardedStoreStopsMidTopKBatchAndSkipsShards) {
  // Serial sharded scan: the first child parks at its first block
  // checkpoint; after the cancel it returns and the parent's per-shard
  // checkpoints skip the remaining shards outright. 2048 rows / 8 shards =
  // 8 blocks per child, 72 checkpoints total uncancelled (64 block + 8
  // shard dispatches); cancelled: 1 block hit + 7 shard-skip hits.
  MatrixF table = RandomTable(2048, 8, 73);
  ShardedOptions options;
  options.num_shards = 8;
  auto store = ShardedStore::Create(table, options);
  ASSERT_TRUE(store.ok());
  auto queries = RandomQueries(2, 8, 74);
  std::vector<VecSpan> spans = AsSpans(queries);

  int total = 0;
  {
    ScanControl control;
    control.checkpoint = [&] { ++total; };
    auto out = store->TopKBatch(std::span<const VecSpan>(spans), 10,
                                EmptySeenSet(), /*pool=*/nullptr, control);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].size(), 10u);
  }
  EXPECT_EQ(total, 72);

  CancellationToken token;
  ScanControl control;
  control.cancel = &token;
  std::vector<std::vector<SearchResult>> out;
  int hit = RunBlockThenCancel(token, control, [&] {
    out = store->TopKBatch(std::span<const VecSpan>(spans), 10, EmptySeenSet(),
                           /*pool=*/nullptr, control);
  });
  // 1 parked shard-dispatch checkpoint + 7 shard-skip checkpoints; no row
  // block is ever scored.
  EXPECT_EQ(hit, 8);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].empty());
}

TEST(InScanCancellationTest, IvfIndexStopsBetweenProbedLists) {
  // nprobe = num_lists makes every list a checkpoint; the parked scan must
  // stop at the checkpoint that observed the cancel (1 list hit per query
  // at most — the second query's ScanLists stops at its own first
  // checkpoint too).
  IvfOptions ivf;
  ivf.num_lists = 16;
  ivf.nprobe = 16;
  auto store = IvfFlatIndex::Build(ivf, RandomTable(512, 8, 75));
  ASSERT_TRUE(store.ok());
  auto queries = RandomQueries(1, 8, 76);
  std::vector<VecSpan> spans = AsSpans(queries);

  int total = 0;
  {
    ScanControl control;
    control.checkpoint = [&] { ++total; };
    auto out = store->TopKBatch(std::span<const VecSpan>(spans), 10,
                                EmptySeenSet(), /*pool=*/nullptr, control);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].size(), 10u);
  }
  EXPECT_EQ(total, static_cast<int>(store->num_lists()));

  CancellationToken token;
  ScanControl control;
  control.cancel = &token;
  std::vector<std::vector<SearchResult>> out;
  int hit = RunBlockThenCancel(token, control, [&] {
    out = store->TopKBatch(std::span<const VecSpan>(spans), 10, EmptySeenSet(),
                           /*pool=*/nullptr, control);
  });
  EXPECT_EQ(hit, 1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].empty());
}

// TopK is a batch of one, so it must hand its ScanControl to that scan: the
// same per-row-block checkpoints, and the same stop at the one that
// observes the cancel.
TEST(InScanCancellationTest, SingleQueryTopKStopsMidScan) {
  // 2048 rows = 64 row-block checkpoints, exactly like the batched scan.
  auto store = ExactStore::Create(RandomTable(2048, 8, 81));
  ASSERT_TRUE(store.ok());
  auto queries = RandomQueries(1, 8, 82);

  int total_blocks = 0;
  {
    ScanControl control;
    control.checkpoint = [&] { ++total_blocks; };
    auto out = store->TopK(queries[0], 10, EmptySeenSet(), control);
    EXPECT_EQ(out.size(), 10u);
    // The checkpoints must not change the result: bitwise equal to the
    // control-free scan.
    ExpectIdenticalResults(out, store->TopK(queries[0], 10));
  }
  EXPECT_EQ(total_blocks, 64);

  CancellationToken token;
  ScanControl control;
  control.cancel = &token;
  std::vector<SearchResult> out;
  int hit = RunBlockThenCancel(token, control, [&] {
    out = store->TopK(queries[0], 10, EmptySeenSet(), control);
  });
  EXPECT_EQ(hit, 1) << "the scan must stop at the checkpoint that observed "
                       "the cancel, not finish the table";
  EXPECT_TRUE(out.empty());  // nothing scanned before the cancel
}

// ------------------------------------------------- service-layer wiring --

TEST(ShardedServiceTest, ManagedSessionsMatchExactBackendBitwise) {
  // ServiceOptions -> kSharded backend -> SessionManager shared pool:
  // batches served through managed sessions must be bitwise identical to
  // the single-ExactStore service.
  auto profile = data::CocoLikeProfile(0.05);
  profile.embedding_dim = 32;
  auto ds = data::Dataset::Generate(profile);
  ASSERT_TRUE(ds.ok());

  auto run_service = [&](core::StoreBackend backend) {
    core::ServiceOptions options;
    options.preprocess.multiscale.enabled = false;
    options.preprocess.build_md = false;
    options.preprocess.backend = backend;
    options.preprocess.sharded.num_shards = 5;
    options.session_threads = 3;
    auto svc = core::SeeSawService::Create(*ds, options);
    EXPECT_TRUE(svc.ok());
    auto& manager = svc->sessions();
    auto id = manager.CreateSession(svc->embedded().TextQuery(0));
    EXPECT_TRUE(id.ok());
    auto session = manager.Find(*id);
    std::vector<core::ScoredImage> batches;
    for (int round = 0; round < 3; ++round) {
      auto batch = session->NextBatch(6);
      for (const auto& hit : batch) {
        core::ImageFeedback fb;
        fb.image_idx = hit.image_idx;
        fb.relevant = ds->IsPositive(hit.image_idx, 0);
        if (fb.relevant) fb.boxes = ds->ConceptBoxes(hit.image_idx, 0);
        session->AddFeedback(fb);
        batches.push_back(hit);
      }
      EXPECT_TRUE(session->Refit().ok());
    }
    EXPECT_TRUE(manager.Close(*id).ok());
    return batches;
  };

  auto exact = run_service(core::StoreBackend::kExact);
  auto sharded = run_service(core::StoreBackend::kSharded);
  ASSERT_EQ(exact.size(), sharded.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(exact[i].image_idx, sharded[i].image_idx) << "position " << i;
    EXPECT_EQ(exact[i].score, sharded[i].score) << "position " << i;
  }
}

}  // namespace
}  // namespace seesaw::store
