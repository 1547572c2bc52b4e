// RemoteStore under the deterministic fault harness and over real sockets:
// bitwise remote-vs-local parity for every shard count / k / seen
// fraction, and the full failure-semantics matrix — retry-then-succeed,
// retries exhausted, a dead peer behind a single-query TopK, deadline
// expiry (never retried), shard death mid-scan surfacing as a typed
// collector error, stale-duplicate replies skipped, backoff monotonicity
// with the jitter envelope, cancellation that abandons an in-flight socket
// wait, forged peer replies and shapes, the store service's k clamp, and
// the retired frame type 8. Fault tests run on a virtual clock
// (tests/fault_socket.h): no sleeps, no wall-clock races.
#include "net/remote_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <semaphore>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/session_manager.h"
#include "data/profiles.h"
#include "net/server.h"
#include "net/store_service.h"
#include "store/exact_store.h"
#include "store/sharded_store.h"
#include "tests/fault_socket.h"
#include "tests/test_util.h"

namespace seesaw {
namespace {

using store::ExactStore;
using store::RemoteStore;
using store::RemoteStoreOptions;
using store::ScanControl;
using store::ScanErrorCollector;
using store::SearchResult;
using store::SeenSet;
using store::ShardedStore;
using store::VectorStore;
using test_util::Delay;
using test_util::Drop;
using test_util::Duplicate;
using test_util::FaultStep;
using test_util::FaultTransport;
using test_util::Pass;
using test_util::RetryLater;
using test_util::Truncate;

// ------------------------------------------------------------- fixtures --

/// Copies shard `s`'s PartitionRange rows out of `table` — the same
/// arithmetic a real shard server applies to its slice of the dataset.
linalg::MatrixF ShardRows(const linalg::MatrixF& table, size_t num_shards,
                          size_t s) {
  auto [first, count] = ShardedStore::PartitionRange(table.rows(), num_shards, s);
  linalg::MatrixF part(count, table.cols());
  for (size_t r = 0; r < count; ++r) {
    auto src = table.Row(first + r);
    std::copy(src.begin(), src.end(), part.MutableRow(r).begin());
  }
  return part;
}

std::unique_ptr<ExactStore> MakeExact(linalg::MatrixF rows) {
  auto made = ExactStore::Create(std::move(rows));
  SEESAW_CHECK(made.ok()) << made.status().ToString();
  return std::make_unique<ExactStore>(std::move(*made));
}

/// Options every fault test starts from: deterministic, no real sleeping.
RemoteStoreOptions FastOptions() {
  RemoteStoreOptions options;
  options.sleep = [](double) {};
  return options;
}

/// A FaultTransport whose peer is a StoreFrameService over `store` (serial
/// scans; determinism beats speed in a fault test).
std::unique_ptr<FaultTransport> StorePeer(const VectorStore& store,
                                          std::vector<FaultStep> script) {
  net::StoreFrameService service(store, /*pool=*/nullptr);
  return std::make_unique<FaultTransport>(
      [service](const net::FrameHeader& header, std::string_view payload) {
        return service.HandleFrame(header, payload);
      },
      std::move(script));
}

/// A ShardedStore whose children are RemoteStores speaking to in-process
/// FaultTransport peers, plus everything that must outlive it. `scripts[s]`
/// is shard s's fault script (missing/short scripts behave as Pass; every
/// script's first step serves the kStoreInfo probe).
struct RemoteSharded {
  std::vector<std::unique_ptr<VectorStore>> peers;  // the per-shard tables
  std::vector<FaultTransport*> transports;          // borrowed, for counters
  std::optional<ShardedStore> sharded;

  ShardedStore& store() { return *sharded; }
};

RemoteSharded MakeRemoteSharded(
    const linalg::MatrixF& table, size_t num_shards,
    std::vector<std::vector<FaultStep>> scripts = {},
    RemoteStoreOptions options = FastOptions()) {
  RemoteSharded out;
  std::vector<std::unique_ptr<VectorStore>> children;
  for (size_t s = 0; s < num_shards; ++s) {
    out.peers.push_back(MakeExact(ShardRows(table, num_shards, s)));
    std::vector<FaultStep> script;
    if (s < scripts.size()) script = std::move(scripts[s]);
    auto transport = StorePeer(*out.peers.back(), std::move(script));
    out.transports.push_back(transport.get());
    auto remote = RemoteStore::Create(std::move(transport), options);
    SEESAW_CHECK(remote.ok()) << remote.status().ToString();
    children.push_back(std::move(*remote));
  }
  auto made = ShardedStore::CreateFromChildren(std::move(children));
  SEESAW_CHECK(made.ok()) << made.status().ToString();
  out.sharded.emplace(std::move(*made));
  return out;
}

/// One RemoteStore over a FaultTransport serving the whole table.
struct RemoteSingle {
  std::unique_ptr<VectorStore> peer;
  FaultTransport* transport = nullptr;  // borrowed
  std::unique_ptr<VectorStore> remote;
};

RemoteSingle MakeRemoteSingle(const linalg::MatrixF& table,
                              std::vector<FaultStep> script,
                              RemoteStoreOptions options = FastOptions()) {
  RemoteSingle out;
  out.peer = MakeExact(table);
  auto transport = StorePeer(*out.peer, std::move(script));
  out.transport = transport.get();
  auto remote = RemoteStore::Create(std::move(transport), options);
  SEESAW_CHECK(remote.ok()) << remote.status().ToString();
  out.remote = std::move(*remote);
  return out;
}

// ------------------------------------------------- remote-local parity --

// A ShardedStore over RemoteStore children returns bit-for-bit what a
// single local ExactStore over the whole table returns (pinned here to the
// brute-force fp32 oracle, which that store matches exactly) — for every
// shard count, k small and large next to a shard, and light/heavy
// exclusion sets. This is the tentpole contract: moving shards out of
// process must be invisible in the results. Each peer certifies its own
// int8 scan (quantization is per row, so a shard's bound terms are those
// of the same rows in the whole table).
TEST(RemoteStoreParity, BitwiseEqualToLocalAcrossShardCounts) {
  constexpr size_t kRows = 400;
  constexpr size_t kQueries = 4;
  ThreadPool pool(4);
  for (size_t dim : {24u, 64u}) {
    linalg::MatrixF table =
        test_util::ClusteredTable(kRows, dim, /*centers=*/8, /*seed=*/dim);
    auto queries = test_util::RandomQueries(kQueries, dim, /*seed=*/7 + dim);
    auto spans = test_util::AsSpans(queries);
    for (size_t shards : {1u, 2u, 3u, 7u}) {
      RemoteSharded remote = MakeRemoteSharded(table, shards);
      ASSERT_EQ(remote.store().size(), kRows);
      ASSERT_EQ(remote.store().dim(), dim);
      for (double fraction : {0.0, 0.3, 0.9}) {
        SeenSet seen = test_util::RandomSeenSet(
            kRows, fraction, /*seed=*/101 * shards + dim);
        for (size_t top_k : {size_t{10}, size_t{45}}) {
          ScanErrorCollector errors;
          ScanControl control;
          control.errors = &errors;
          auto got =
              remote.store().TopKBatch(spans, top_k, seen, &pool, control);
          EXPECT_TRUE(errors.ok()) << errors.first().ToString();
          ASSERT_EQ(got.size(), queries.size());
          for (size_t i = 0; i < queries.size(); ++i) {
            auto want =
                test_util::BruteForceTopK(table, queries[i], top_k, seen);
            test_util::ExpectIdenticalResults(
                remote.store().TopK(queries[i], top_k, seen), want);
            test_util::ExpectIdenticalResults(got[i], want);
          }
        }
      }
    }
  }
}

// k larger than any single shard's row count: the merge must fill from
// across shards exactly like the local reference fills from the whole
// table.
TEST(RemoteStoreParity, KLargerThanShardRows) {
  constexpr size_t kRows = 120;
  constexpr size_t kDim = 16;
  linalg::MatrixF table = test_util::RandomTable(kRows, kDim, /*seed=*/3);
  RemoteSharded remote =
      MakeRemoteSharded(table, /*num_shards=*/7);
  auto queries = test_util::RandomQueries(2, kDim, /*seed=*/11);
  for (const auto& q : queries) {
    // 80 > ceil(120/7) rows per shard; also exercises the full-table tail.
    test_util::ExpectIdenticalResults(remote.store().TopK(q, 80),
                                      test_util::BruteForceTopK(table, q, 80));
  }
}

// GetVector round-trips fp32 bits and pins the result: the second read of
// an id is served from the cache without another RPC, and the span from
// the first read stays valid after further fetches grow the cache.
TEST(RemoteStoreParity, GetVectorParityAndPinnedCache) {
  constexpr size_t kRows = 60;
  constexpr size_t kDim = 12;
  linalg::MatrixF table = test_util::RandomTable(kRows, kDim, /*seed=*/5);
  RemoteSingle fx = MakeRemoteSingle(table, {});

  linalg::VecSpan first = fx.remote->GetVector(7);
  ASSERT_EQ(first.size(), kDim);
  size_t sends_after_first = fx.transport->sends();
  for (uint32_t id : {0u, 33u, 59u}) {
    linalg::VecSpan got = fx.remote->GetVector(id);
    auto want = table.Row(id);
    ASSERT_EQ(got.size(), want.size());
    for (size_t j = 0; j < want.size(); ++j) EXPECT_EQ(got[j], want[j]);
  }
  // Cache hit: no new RPC for the repeated id.
  linalg::VecSpan again = fx.remote->GetVector(7);
  EXPECT_EQ(fx.transport->sends(), sends_after_first + 3);
  // The original span still reads the same bits (pinned, never relocated).
  ASSERT_EQ(again.size(), first.size());
  for (size_t j = 0; j < kDim; ++j) {
    EXPECT_EQ(first[j], table.Row(7)[j]);
    EXPECT_EQ(again[j], first[j]);
  }

  // Out-of-range id: typed NotFound, no RPC burned.
  size_t sends_before = fx.transport->sends();
  EXPECT_TRUE(fx.remote->GetVector(kRows).empty());
  EXPECT_EQ(fx.transport->sends(), sends_before);
  auto* remote = static_cast<RemoteStore*>(fx.remote.get());
  EXPECT_TRUE(remote->last_status().IsNotFound());
}

// ---------------------------------------------------- failure semantics --

// RETRY_LATER shedding is retried with backoff and then succeeds; the
// caller sees full results and no collector error, and the retry consumed
// exactly one backoff sleep inside the jitter envelope.
TEST(RemoteStoreFaults, RetryLaterThenSucceed) {
  linalg::MatrixF table = test_util::RandomTable(80, 16, /*seed=*/21);
  std::vector<double> sleeps;
  RemoteStoreOptions options = FastOptions();
  options.sleep = [&sleeps](double s) { sleeps.push_back(s); };
  RemoteSingle fx =
      MakeRemoteSingle(table, {Pass(), RetryLater(), Pass()}, options);

  auto queries = test_util::RandomQueries(1, 16, /*seed=*/22);
  ScanErrorCollector errors;
  ScanControl control;
  control.errors = &errors;
  auto got = fx.remote->TopK(queries[0], 5, store::EmptySeenSet(), control);
  test_util::ExpectIdenticalResults(
      got, test_util::BruteForceTopK(table, queries[0], 5));

  EXPECT_TRUE(errors.ok());
  EXPECT_EQ(fx.transport->sends(), 3u);  // info + shed attempt + retry
  EXPECT_EQ(fx.transport->steps_left(), 0u);
  ASSERT_EQ(sleeps.size(), 1u);
  // Attempt 0 backoff: base = initial, jitter in [0.5, 1.0).
  EXPECT_GE(sleeps[0], 0.5 * options.backoff_initial_seconds);
  EXPECT_LT(sleeps[0], options.backoff_initial_seconds);
}

// A peer that sheds forever exhausts max_retries: the scan returns empty
// AND reports a typed ResourceExhausted to the collector — degradation is
// loud, never a silent partial.
TEST(RemoteStoreFaults, RetriesExhaustedReportTyped) {
  linalg::MatrixF table = test_util::RandomTable(80, 16, /*seed=*/23);
  std::vector<double> sleeps;
  RemoteStoreOptions options = FastOptions();
  options.max_retries = 3;
  options.sleep = [&sleeps](double s) { sleeps.push_back(s); };
  RemoteSingle fx = MakeRemoteSingle(
      table, {Pass(), RetryLater(), RetryLater(), RetryLater(), RetryLater()},
      options);

  auto queries = test_util::RandomQueries(1, 16, /*seed=*/24);
  ScanErrorCollector errors;
  ScanControl control;
  control.errors = &errors;
  auto got = fx.remote->TopK(queries[0], 5, store::EmptySeenSet(), control);
  EXPECT_TRUE(got.empty());
  ASSERT_FALSE(errors.ok());
  EXPECT_EQ(errors.count(), 1u);
  EXPECT_EQ(errors.first().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(errors.first().message().find("retries exhausted"),
            std::string::npos);
  EXPECT_EQ(fx.transport->sends(), 5u);  // info + 1 attempt + 3 retries
  EXPECT_EQ(sleeps.size(), 3u);          // one backoff per retry
}

// A single-query TopK against a dead peer (every attempt dropped) goes
// through the base wrapper's empty-outer case: the batch-of-one RPC fails,
// TopK returns {} rather than touching a missing front(), and exactly one
// typed IoError reaches the collector.
TEST(RemoteStoreFaults, TopKOnDeadPeerReturnsEmptyAndReportsOnce) {
  linalg::MatrixF table = test_util::RandomTable(80, 16, /*seed=*/47);
  RemoteStoreOptions options = FastOptions();
  options.max_retries = 2;
  RemoteSingle fx =
      MakeRemoteSingle(table, {Pass(), Drop(), Drop(), Drop()}, options);

  auto queries = test_util::RandomQueries(1, 16, /*seed=*/48);
  ScanErrorCollector errors;
  ScanControl control;
  control.errors = &errors;
  auto got = fx.remote->TopK(queries[0], 5, store::EmptySeenSet(), control);
  EXPECT_TRUE(got.empty());
  ASSERT_FALSE(errors.ok());
  EXPECT_EQ(errors.count(), 1u);
  EXPECT_EQ(errors.first().code(), StatusCode::kIoError);
  EXPECT_EQ(fx.transport->steps_left(), 0u);  // 1 attempt + 2 retries
}

// Deadline expiry is final: no retry attempts follow, and the failure
// surfaces as a typed DeadlineExceeded. The virtual clock shows exactly
// the deadline budget was burned — the wait never ran long.
TEST(RemoteStoreFaults, DeadlineExpiryIsNotRetried) {
  linalg::MatrixF table = test_util::RandomTable(80, 16, /*seed=*/25);
  std::vector<double> sleeps;
  RemoteStoreOptions options = FastOptions();
  options.request_deadline_seconds = 1.0;
  options.max_retries = 3;
  options.sleep = [&sleeps](double s) { sleeps.push_back(s); };
  RemoteSingle fx = MakeRemoteSingle(table, {Pass(), Delay(10.0)}, options);

  auto queries = test_util::RandomQueries(1, 16, /*seed=*/26);
  ScanErrorCollector errors;
  ScanControl control;
  control.errors = &errors;
  auto got = fx.remote->TopK(queries[0], 5, store::EmptySeenSet(), control);
  EXPECT_TRUE(got.empty());
  ASSERT_FALSE(errors.ok());
  EXPECT_TRUE(errors.first().IsDeadlineExceeded());
  EXPECT_EQ(fx.transport->sends(), 2u);  // info + the one timed-out attempt
  EXPECT_TRUE(sleeps.empty());  // deadline is final: no backoff
  // The wait burned (at most) the remaining deadline budget and no more —
  // slightly under 1.0 because real time elapses between send and read.
  EXPECT_GT(fx.transport->virtual_now(), 0.9);
  EXPECT_LE(fx.transport->virtual_now(), 1.0);
}

// A connection that dies mid-reply (bytes on the wire when the peer went
// away) is an IO failure: the client reconnects and the retry succeeds.
TEST(RemoteStoreFaults, TruncatedReplyReconnectsAndRetries) {
  linalg::MatrixF table = test_util::RandomTable(80, 16, /*seed=*/27);
  RemoteSingle fx = MakeRemoteSingle(table, {Pass(), Truncate(), Pass()});

  auto queries = test_util::RandomQueries(1, 16, /*seed=*/28);
  ScanErrorCollector errors;
  ScanControl control;
  control.errors = &errors;
  auto got = fx.remote->TopK(queries[0], 5, store::EmptySeenSet(), control);
  test_util::ExpectIdenticalResults(
      got, test_util::BruteForceTopK(table, queries[0], 5));
  EXPECT_TRUE(errors.ok());
  EXPECT_EQ(fx.transport->reconnects(), 1u);
  EXPECT_EQ(fx.transport->sends(), 3u);
}

// One dead shard in a sharded scan: the other shards answer, the scan
// terminates (no hang), and the collector carries a typed IoError so the
// caller knows the merge is invalid. "A dead shard surfaces as a typed
// Status, never a silent partial."
TEST(RemoteStoreFaults, ShardDeathMidScanReportsToCollector) {
  constexpr size_t kRows = 300;
  constexpr size_t kDim = 16;
  linalg::MatrixF table = test_util::RandomTable(kRows, kDim, /*seed=*/29);
  // Shard 1's peer drops the connection on every attempt (info probe
  // passes, then 1 + max_retries = 4 scripted drops).
  std::vector<std::vector<FaultStep>> scripts(3);
  scripts[1] = {Pass(), Drop(), Drop(), Drop(), Drop()};
  RemoteSharded remote = MakeRemoteSharded(table, /*num_shards=*/3, scripts);

  auto queries = test_util::RandomQueries(3, kDim, /*seed=*/30);
  auto spans = test_util::AsSpans(queries);
  ScanErrorCollector errors;
  ScanControl control;
  control.errors = &errors;
  auto got = remote.store().TopKBatch(spans, 10, store::EmptySeenSet(),
                                      /*pool=*/nullptr, control);
  ASSERT_FALSE(errors.ok());
  EXPECT_EQ(errors.count(), 1u);
  EXPECT_EQ(errors.first().code(), StatusCode::kIoError);
  EXPECT_NE(errors.first().message().find("retries exhausted"),
            std::string::npos);
  // Each drop forced a reconnect before the next attempt.
  EXPECT_EQ(remote.transports[1]->reconnects(), 3u);
  // The healthy shards still produced a full-shaped (but must-discard)
  // merge; the contract is the collector flag, not the shape.
  EXPECT_EQ(got.size(), spans.size());
}

// A peer that repeats an old reply before the current one: the stale frame
// (smaller request id) is skipped, the real reply is consumed, and results
// are untouched.
TEST(RemoteStoreFaults, StaleDuplicateReplyIsSkipped) {
  linalg::MatrixF table = test_util::RandomTable(80, 16, /*seed=*/31);
  RemoteSingle fx = MakeRemoteSingle(table, {Pass(), Duplicate()});

  auto queries = test_util::RandomQueries(1, 16, /*seed=*/32);
  ScanErrorCollector errors;
  ScanControl control;
  control.errors = &errors;
  auto got = fx.remote->TopK(queries[0], 5, store::EmptySeenSet(), control);
  test_util::ExpectIdenticalResults(
      got, test_util::BruteForceTopK(table, queries[0], 5));
  EXPECT_TRUE(errors.ok());
  EXPECT_EQ(fx.transport->steps_left(), 0u);
}

// A pre-cancelled scan returns empty without issuing any RPC and without
// reporting an error (cancelled results are discarded by the caller — an
// error report would poison an otherwise healthy merge).
TEST(RemoteStoreFaults, PreCancelledScanSkipsRpcAndReportsNothing) {
  linalg::MatrixF table = test_util::RandomTable(80, 16, /*seed=*/33);
  RemoteSingle fx = MakeRemoteSingle(table, {});
  size_t sends_after_create = fx.transport->sends();

  CancellationToken token;
  token.RequestCancel();
  ScanErrorCollector errors;
  ScanControl control;
  control.cancel = &token;
  control.errors = &errors;
  auto queries = test_util::RandomQueries(1, 16, /*seed=*/34);
  EXPECT_TRUE(
      fx.remote->TopK(queries[0], 5, store::EmptySeenSet(), control).empty());
  auto spans = test_util::AsSpans(queries);
  EXPECT_TRUE(fx.remote
                  ->TopKBatch(spans, 5, store::EmptySeenSet(), nullptr, control)
                  .empty());
  EXPECT_TRUE(errors.ok());
  EXPECT_EQ(errors.count(), 0u);
  EXPECT_EQ(fx.transport->sends(), sends_after_create);
}

// A peer that is dead from the start fails Create with a typed IoError
// after exhausting retries — constructing a RemoteStore never hangs.
TEST(RemoteStoreFaults, CreateFailsTypedOnDeadPeer) {
  linalg::MatrixF table = test_util::RandomTable(40, 8, /*seed=*/35);
  auto peer = MakeExact(table);
  auto transport = StorePeer(*peer, {Drop(), Drop(), Drop(), Drop()});
  auto remote = RemoteStore::Create(std::move(transport), FastOptions());
  ASSERT_FALSE(remote.ok());
  EXPECT_EQ(remote.status().code(), StatusCode::kIoError);
  EXPECT_NE(remote.status().message().find("retries exhausted"),
            std::string::npos);
}

// A peer that forges its hits is caught before the merge. Shard 0 of two
// (rows [0, 50)) answers through a real StoreFrameService, then rewrites
// the reply: a hit id of 50, which after the shard offset names a row of
// shard 1 and would merge silently, or a list longer than the k asked for.
// Both are the "reply malformed" IoError, on the collector and on
// last_status().
TEST(RemoteStoreFaults, ForgedHitsAreRejectedAsMalformed) {
  linalg::MatrixF table = test_util::RandomTable(100, 8, /*seed=*/54);
  auto queries = test_util::RandomQueries(2, 8, /*seed=*/55);
  auto spans = test_util::AsSpans(queries);
  using Forge = std::function<void(net::StoreTopKBatchReply*)>;
  for (const Forge& forge : std::vector<Forge>{
           [](net::StoreTopKBatchReply* r) { r->results[1][0].id = 50; },
           [](net::StoreTopKBatchReply* r) {
             r->results[0].push_back(r->results[0].back());
           }}) {
    auto shard0 = MakeExact(ShardRows(table, 2, 0));
    auto shard1 = MakeExact(ShardRows(table, 2, 1));
    net::StoreFrameService service(*shard0, /*pool=*/nullptr);
    auto forging = std::make_unique<FaultTransport>(
        [&](const net::FrameHeader& header, std::string_view payload) {
          std::string frame = service.HandleFrame(header, payload);
          if (header.type != net::FrameType::kStoreTopKBatch) return frame;
          net::StoreTopKBatchReply reply;
          SEESAW_CHECK(net::DecodeStoreTopKBatchReply(
              std::string_view(frame).substr(net::kHeaderBytes), &reply));
          forge(&reply);
          return net::EncodeFrame(net::FrameType::kStoreTopKBatchReply,
                                  header.request_id,
                                  net::EncodeStoreTopKBatchReply(reply));
        },
        std::vector<FaultStep>{});
    std::vector<std::unique_ptr<VectorStore>> children;
    children.push_back(*RemoteStore::Create(std::move(forging), FastOptions()));
    children.push_back(
        *RemoteStore::Create(StorePeer(*shard1, {}), FastOptions()));
    auto sharded = ShardedStore::CreateFromChildren(std::move(children));
    ASSERT_TRUE(sharded.ok());

    ScanErrorCollector errors;
    ScanControl control;
    control.errors = &errors;
    sharded->TopKBatch(std::span<const linalg::VecSpan>(spans), 5,
                       store::EmptySeenSet(), nullptr, control);
    EXPECT_EQ(errors.count(), 1u);
    EXPECT_EQ(errors.first().code(), StatusCode::kIoError);
    EXPECT_NE(errors.first().message().find("malformed"), std::string::npos);
    const auto& forged = dynamic_cast<const RemoteStore&>(sharded->shard(0));
    EXPECT_EQ(forged.last_status().code(), StatusCode::kIoError);
  }
}

/// A peer that answers every frame with StoreInfo `info` and holds no rows:
/// all RemoteStore::Create asks for.
std::unique_ptr<FaultTransport> ShapeOnlyPeer(net::StoreInfoReply info) {
  return std::make_unique<FaultTransport>(
      [info](const net::FrameHeader& header, std::string_view) {
        return net::EncodeFrame(net::FrameType::kStoreInfoReply,
                                header.request_id,
                                net::EncodeStoreInfoReply(info));
      },
      std::vector<FaultStep>{});
}

// The peer's shape comes off the wire unchecked: a peer claiming 2^40 rows
// (GetVector would size its cache by it), more rows than u32 ids can name,
// no rows, or dim 0 fails Create with a typed IoError.
TEST(RemoteStoreFaults, CreateRejectsForgedStoreInfo) {
  for (net::StoreInfoReply info :
       {net::StoreInfoReply{uint64_t{1} << 40, 8},
        net::StoreInfoReply{uint64_t{UINT32_MAX} + 1, 8},
        net::StoreInfoReply{0, 8}, net::StoreInfoReply{40, 0}}) {
    auto remote = RemoteStore::Create(ShapeOnlyPeer(info), FastOptions());
    ASSERT_FALSE(remote.ok());
    EXPECT_EQ(remote.status().code(), StatusCode::kIoError);
    EXPECT_NE(remote.status().message().find("malformed"), std::string::npos);
  }
}

// Global ids are u32: two peers of 2^31 + 1 rows each would wrap shard 1's
// ids onto shard 0's, so CreateFromChildren refuses them. 2^32 - 1 rows in
// total still fit.
TEST(RemoteStoreFaults, ShardedRowsPastU32IdsAreRejected) {
  auto create = [](uint64_t a, uint64_t b) {
    std::vector<std::unique_ptr<VectorStore>> children;
    for (uint64_t rows : {a, b}) {
      children.push_back(
          *RemoteStore::Create(ShapeOnlyPeer({rows, 4}), FastOptions()));
    }
    return ShardedStore::CreateFromChildren(std::move(children));
  };
  const uint64_t half = uint64_t{1} << 31;
  EXPECT_EQ(create(half + 1, half + 1).status().code(),
            StatusCode::kInvalidArgument);
  auto widest = create(half, half - 1);
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  EXPECT_EQ(widest->size(), size_t{UINT32_MAX});
}

// k arrives from outside the process: the service clamps it to the store
// size before the scan (whose heaps reserve k slots), so a hostile
// k = UINT32_MAX costs nothing and gets exactly the k = size() reply.
TEST(StoreFrameServiceTest, OversizedKIsClampedToStoreSize) {
  constexpr size_t kRows = 50;
  linalg::MatrixF table = test_util::RandomTable(kRows, 8, /*seed=*/49);
  auto store = MakeExact(table);
  net::StoreFrameService service(*store, /*pool=*/nullptr);

  net::StoreTopKBatchRequest req;
  req.queries = test_util::RandomQueries(2, 8, /*seed=*/50);
  req.seen = test_util::RandomSeenSet(kRows, 0.2, /*seed=*/51);
  net::FrameHeader header;
  header.type = net::FrameType::kStoreTopKBatch;
  header.request_id = 9;
  req.k = UINT32_MAX;
  std::string hostile =
      service.HandleFrame(header, net::EncodeStoreTopKBatchRequest(req));
  req.k = kRows;
  std::string bounded =
      service.HandleFrame(header, net::EncodeStoreTopKBatchRequest(req));
  EXPECT_EQ(hostile, bounded);

  net::FrameHeader reply_header;
  ASSERT_TRUE(net::DecodeHeader(hostile, &reply_header));
  ASSERT_EQ(reply_header.type, net::FrameType::kStoreTopKBatchReply);
  net::StoreTopKBatchReply reply;
  ASSERT_TRUE(net::DecodeStoreTopKBatchReply(
      std::string_view(hostile).substr(net::kHeaderBytes), &reply));
  ASSERT_EQ(reply.results.size(), 2u);
  test_util::ExpectIdenticalResults(
      reply.results[0],
      test_util::BruteForceTopK(table, req.queries[0], kRows, req.seen));
}

// A caller's k wider than the u32 wire field is clamped to size() before
// it is narrowed: k = 2^32 + 5 returns every row, exactly like k = size(),
// where a bare cast would have wrapped it to 5.
TEST(RemoteStoreParity, KBeyondWireWidthIsClampedNotWrapped) {
  constexpr size_t kRows = 60;
  linalg::MatrixF table = test_util::RandomTable(kRows, 8, /*seed=*/52);
  RemoteSingle fx = MakeRemoteSingle(table, {});
  auto queries = test_util::RandomQueries(1, 8, /*seed=*/53);
  const size_t wide_k = (size_t{1} << 32) + 5;
  auto got = fx.remote->TopK(queries[0], wide_k, store::EmptySeenSet());
  ASSERT_EQ(got.size(), kRows);
  test_util::ExpectIdenticalResults(
      got, test_util::BruteForceTopK(table, queries[0], kRows));
}

// The backoff schedule is exponential, capped, and jittered within the
// documented envelope: delay(attempt) in [0.5, 1.0) * min(initial * 2^a,
// max), with the base monotone non-decreasing in the attempt number.
TEST(RemoteStoreFaults, BackoffScheduleEnvelopeAndMonotonicity) {
  RemoteStoreOptions options;
  options.backoff_initial_seconds = 0.01;
  options.backoff_max_seconds = 0.25;
  for (uint64_t seed : {1ull, 42ull, 0x5ee5a301ull}) {
    Rng rng(seed);
    double prev_base = 0;
    for (size_t attempt = 0; attempt < 12; ++attempt) {
      double base = std::min(options.backoff_initial_seconds *
                                 std::exp2(static_cast<double>(attempt)),
                             options.backoff_max_seconds);
      double delay = net::BackoffDelaySeconds(options, attempt, rng);
      EXPECT_GE(delay, 0.5 * base) << "attempt " << attempt;
      EXPECT_LT(delay, base) << "attempt " << attempt;
      EXPECT_LE(delay, options.backoff_max_seconds);
      EXPECT_GE(base, prev_base);  // the envelope never shrinks
      prev_base = base;
    }
  }
}

// ------------------------------------------------------- real sockets --

data::DatasetProfile SmallBdd() {
  auto p = data::BddLikeProfile(0.05);
  p.embedding_dim = 32;
  return p;
}

/// The session service every SeeSawServer needs (store mode rides on the
/// same server). Built once: dataset generation dominates the suite.
struct ServiceFixture {
  ServiceFixture() {
    auto ds = data::Dataset::Generate(SmallBdd());
    SEESAW_CHECK(ds.ok());
    dataset = std::make_unique<data::Dataset>(std::move(*ds));
    core::ServiceOptions options;
    options.preprocess.md.k = 5;
    options.session_threads = 2;
    auto svc = core::SeeSawService::Create(*dataset, options);
    SEESAW_CHECK(svc.ok());
    service = std::make_unique<core::SeeSawService>(std::move(*svc));
  }

  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<core::SeeSawService> service;
};

ServiceFixture& Fixture() {
  static ServiceFixture* fixture = new ServiceFixture();
  return *fixture;
}

/// A running SeeSawServer in store mode on an ephemeral loopback port.
struct StoreServerFixture {
  explicit StoreServerFixture(const VectorStore& store)
      : manager(*Fixture().service, /*num_threads=*/2),
        server(manager, [] {
          net::ServerOptions options;
          options.port = 0;
          return options;
        }()) {
    server.ServeStore(store);
    auto started = server.Start();
    SEESAW_CHECK(started.ok()) << started.ToString();
  }

  core::SessionManager manager;
  net::SeeSawServer server;
};

// End-to-end over loopback TCP: two shard servers, RemoteStore children
// via TcpTransport, bitwise parity against the single local reference —
// the exact deployment shape, minus only the second machine.
TEST(RemoteStoreSockets, TwoShardServersBitwiseParity) {
  constexpr size_t kRows = 200;
  constexpr size_t kDim = 16;
  linalg::MatrixF table = test_util::RandomTable(kRows, kDim, /*seed=*/41);

  auto shard0 = MakeExact(ShardRows(table, 2, 0));
  auto shard1 = MakeExact(ShardRows(table, 2, 1));
  StoreServerFixture server0(*shard0);
  StoreServerFixture server1(*shard1);

  std::vector<std::unique_ptr<VectorStore>> children;
  for (const StoreServerFixture* f : {&server0, &server1}) {
    auto remote =
        RemoteStore::Connect("127.0.0.1", f->server.port(), FastOptions());
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    children.push_back(std::move(*remote));
  }
  // The kStoreInfo probe populated shape before any scan.
  EXPECT_EQ(children[0]->size(), shard0->size());
  EXPECT_EQ(children[0]->dim(), kDim);
  auto made = ShardedStore::CreateFromChildren(std::move(children));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  ShardedStore& sharded = *made;
  ASSERT_EQ(sharded.size(), kRows);

  auto queries = test_util::RandomQueries(3, kDim, /*seed=*/42);
  auto spans = test_util::AsSpans(queries);
  SeenSet seen = test_util::RandomSeenSet(kRows, 0.25, /*seed=*/43);
  ScanErrorCollector errors;
  ScanControl control;
  control.errors = &errors;
  auto got = sharded.TopKBatch(spans, 10, seen, /*pool=*/nullptr, control);
  ASSERT_EQ(got.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto want = test_util::BruteForceTopK(table, queries[i], 10, seen);
    test_util::ExpectIdenticalResults(
        sharded.TopK(queries[i], 10, seen, control), want);
    test_util::ExpectIdenticalResults(got[i], want);
  }
  EXPECT_TRUE(errors.ok()) << errors.first().ToString();
  // GetVector crosses the wire with float bits intact too.
  auto row = sharded.GetVector(kRows - 1);
  ASSERT_EQ(row.size(), kDim);
  for (size_t j = 0; j < kDim; ++j) EXPECT_EQ(row[j], table.Row(kRows - 1)[j]);
}

// Frame type 8 (the retired single-query lookup) is never reused: a
// store-mode server answers it with a typed kUnknownType error frame and
// keeps the connection open for the next request.
TEST(RemoteStoreSockets, RetiredFrameTypeGetsUnknownTypeAndConnectionLives) {
  linalg::MatrixF table = test_util::RandomTable(40, 8, /*seed=*/46);
  auto exact = MakeExact(table);
  StoreServerFixture server(*exact);
  auto made = net::TcpTransport::Connect("127.0.0.1", server.server.port());
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  net::Transport& conn = **made;

  constexpr uint16_t kRetiredStoreTopK = 8;
  ASSERT_TRUE(conn.Send(net::EncodeFrame(
                            static_cast<net::FrameType>(kRetiredStoreTopK),
                            /*request_id=*/1, ""))
                  .ok());
  net::FrameHeader header;
  std::string payload;
  ASSERT_TRUE(conn.ReadFrame(&header, &payload, 1u << 20,
                             /*deadline_seconds=*/30.0, nullptr)
                  .ok());
  EXPECT_EQ(header.request_id, 1u);
  ASSERT_EQ(header.type, net::FrameType::kError);
  net::ErrorReply error;
  ASSERT_TRUE(net::DecodeErrorReply(payload, &error));
  EXPECT_EQ(error.code, net::WireError::kUnknownType);

  // Same connection, next request: still served.
  ASSERT_TRUE(
      conn.Send(net::EncodeFrame(net::FrameType::kStoreInfo, 2, "")).ok());
  ASSERT_TRUE(conn.ReadFrame(&header, &payload, 1u << 20,
                             /*deadline_seconds=*/30.0, nullptr)
                  .ok());
  EXPECT_EQ(header.request_id, 2u);
  ASSERT_EQ(header.type, net::FrameType::kStoreInfoReply);
  net::StoreInfoReply info;
  ASSERT_TRUE(net::DecodeStoreInfoReply(payload, &info));
  EXPECT_EQ(info.size, 40u);
}

/// Wraps a store so its scan parks on a semaphore until the test releases
/// it — holds a real server handler mid-scan deterministically.
class BlockingStore : public VectorStore {
 public:
  explicit BlockingStore(const VectorStore& inner) : inner_(&inner) {}

  size_t size() const override { return inner_->size(); }
  size_t dim() const override { return inner_->dim(); }

  std::vector<std::vector<SearchResult>> TopKBatch(
      std::span<const linalg::VecSpan> queries, size_t k, const SeenSet& seen,
      ThreadPool* pool, const ScanControl& control) const override {
    entered_.release();
    release_.acquire();
    release_.release();  // stay open: only the first scan parks
    return inner_->TopKBatch(queries, k, seen, pool, control);
  }

  linalg::VecSpan GetVector(uint32_t id) const override {
    return inner_->GetVector(id);
  }

  /// Blocks until a scan has parked inside TopKBatch.
  void AwaitEntered() const { entered_.acquire(); }
  /// Lets the parked scan (and all future ones) proceed.
  void Release() const { release_.release(); }

 private:
  const VectorStore* inner_;
  mutable std::counting_semaphore<4> entered_{0};
  mutable std::counting_semaphore<4> release_{0};
};

// Cancellation through a real socket wait: the peer's handler is parked
// mid-scan, so no reply is coming; cancelling the token makes the client's
// TopK return promptly (the ~50ms poll slices observe it) instead of
// sitting out the full deadline — and a cancelled scan reports nothing.
TEST(RemoteStoreSockets, CancellationAbandonsInFlightSocketWait) {
  constexpr size_t kRows = 120;
  constexpr size_t kDim = 16;
  linalg::MatrixF table = test_util::RandomTable(kRows, kDim, /*seed=*/44);
  auto exact = MakeExact(table);
  BlockingStore blocking(*exact);
  StoreServerFixture server(blocking);

  RemoteStoreOptions options = FastOptions();
  options.request_deadline_seconds = 120.0;  // cancel must win, not this
  options.max_retries = 0;
  auto made = RemoteStore::Connect("127.0.0.1", server.server.port(), options);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  std::unique_ptr<VectorStore> remote = std::move(*made);

  auto queries = test_util::RandomQueries(1, kDim, /*seed=*/45);
  CancellationToken token;
  ScanErrorCollector errors;
  ScanControl control;
  control.cancel = &token;
  control.errors = &errors;

  std::vector<SearchResult> got;
  Stopwatch clock;
  std::thread scanner([&] {
    got = remote->TopK(queries[0], 5, store::EmptySeenSet(), control);
  });
  blocking.AwaitEntered();  // the request is in the handler, reply pending
  token.RequestCancel();
  scanner.join();
  double waited = clock.ElapsedSeconds();

  EXPECT_TRUE(got.empty());
  EXPECT_TRUE(errors.ok());  // cancelled scans report nothing
  EXPECT_EQ(errors.count(), 0u);
  // Returned via the cancellation poll, not the 120s deadline. Generous
  // bound for sanitizer runs; the real poll slice is ~50ms.
  EXPECT_LT(waited, 30.0);

  blocking.Release();  // let the parked handler finish before teardown
}

}  // namespace
}  // namespace seesaw
