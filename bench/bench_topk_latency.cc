// One-at-a-time vs. batched lookup latency across every store backend.
//
// The interactive loop (§2.2) is bounded by per-iteration lookup latency;
// this bench measures what batching buys: TopKBatch streams each row block
// through the cache once for all queries (ExactStore), scores all centroids
// in one blocked pass (IvfFlatIndex), and fans independent traversals
// across a pool (AnnoyIndex). The "scalar" columns time the same k and seen
// set issued one TopK per query — and TopK is itself a batch of one through
// TopKBatch with no pool, so scalar mode is a loop of batch-of-one calls
// and at --batches=1 it measures the per-call cost of the one scan path.
//
//   ./bench_topk_latency [--n=20000] [--dim=128] [--k=100] [--warmup=1]
//                        [--iters=5] [--threads=0] [--seen=0.1]
//                        [--batches=1,4,8,16] [--shards=1,2,4,8]
//                        [--min-shard-rows=4096] [--csv] [--json]
//
// Every (backend, batch) cell first verifies the pooled batch bitwise
// against a reference, so the bench doubles as a parity check at scale: the
// exact backends (exact, sharded) against single queries on the unsharded
// ExactStore, the approximate ones (ivf, annoy) against their own single
// queries (batching independence). --shards adds one "sharded" backend row
// per shard count (a ShardedStore over the same table), recording the
// shard-scaling curve. Requested shard counts pass through the
// min_rows_per_shard floor (--min-shard-rows, default 4096): small tables
// fall back to fewer shards, because below a few thousand rows per shard
// the fixed per-shard costs make sharding a slowdown — rows record both the
// requested and the effective count. Timing rows report the historical
// means plus p50/p95/p99 over the timed iterations (tail latency is what
// the interactive loop actually exposes to the user).
//
// With --csv, one
//   backend,shards,requested_shards,batch_size,scalar_ms,batched_ms,
//   speedup,batched_qps,scalar_p50_ms,batched_p50_ms,batched_p95_ms,
//   batched_p99_ms
// row per cell goes to stdout (after a header; shards is 0 for the
// unsharded backends) and the table is skipped. With --json, each cell is
// one JSON object per line (no header), which
// scripts/run_bench_suite.sh --json merges across store sizes into
// BENCH_topk.json.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "store/annoy_index.h"
#include "store/exact_store.h"
#include "store/ivf_index.h"
#include "store/sharded_store.h"

namespace seesaw::bench {
namespace {

struct LatencyArgs {
  size_t n = 20000;
  size_t dim = 128;
  size_t k = 100;
  int warmup = 1;
  int iters = 5;
  size_t threads = 0;  // 0 = hardware default
  double seen_fraction = 0.1;
  std::vector<size_t> batches = {1, 4, 8, 16};
  std::vector<size_t> shards;  // empty = no sharded rows
  size_t min_shard_rows = 4096;  // rows-per-shard floor (auto-fallback)
  bool csv = false;
  bool json = false;

  static LatencyArgs Parse(int argc, char** argv) {
    LatencyArgs args;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strncmp(a, "--n=", 4) == 0) args.n = std::atoi(a + 4);
      if (std::strncmp(a, "--dim=", 6) == 0) args.dim = std::atoi(a + 6);
      if (std::strncmp(a, "--k=", 4) == 0) args.k = std::atoi(a + 4);
      if (std::strncmp(a, "--warmup=", 9) == 0) args.warmup = std::atoi(a + 9);
      if (std::strncmp(a, "--iters=", 8) == 0) args.iters = std::atoi(a + 8);
      if (std::strncmp(a, "--threads=", 10) == 0) {
        args.threads = std::atoi(a + 10);
      }
      if (std::strncmp(a, "--seen=", 7) == 0) {
        args.seen_fraction = std::atof(a + 7);
      }
      if (std::strncmp(a, "--batches=", 10) == 0) {
        args.batches.clear();
        for (const char* p = a + 10; *p != '\0';) {
          size_t batch = std::strtoul(p, nullptr, 10);
          if (batch > 0) args.batches.push_back(batch);
          p = std::strchr(p, ',');
          if (p == nullptr) break;
          ++p;
        }
        if (args.batches.empty()) {
          std::fprintf(stderr, "bench_topk_latency: --batches needs positive "
                               "integers, e.g. --batches=1,4,8\n");
          std::exit(2);
        }
      }
      if (std::strncmp(a, "--shards=", 9) == 0) {
        args.shards.clear();
        for (const char* p = a + 9; *p != '\0';) {
          size_t count = std::strtoul(p, nullptr, 10);
          if (count > 0) args.shards.push_back(count);
          p = std::strchr(p, ',');
          if (p == nullptr) break;
          ++p;
        }
        if (args.shards.empty()) {
          std::fprintf(stderr, "bench_topk_latency: --shards needs positive "
                               "integers, e.g. --shards=1,2,4,8\n");
          std::exit(2);
        }
      }
      if (std::strncmp(a, "--min-shard-rows=", 17) == 0) {
        args.min_shard_rows = std::strtoul(a + 17, nullptr, 10);
      }
      if (std::strcmp(a, "--csv") == 0) args.csv = true;
      if (std::strcmp(a, "--json") == 0) args.json = true;
    }
    return args;
  }
};

linalg::MatrixF RandomUnitTable(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  linalg::MatrixF table(n, d);
  for (size_t i = 0; i < n; ++i) {
    auto row = table.MutableRow(i);
    for (size_t j = 0; j < d; ++j) row[j] = static_cast<float>(rng.Gaussian());
    linalg::NormalizeInPlace(row);
  }
  return table;
}

bool SameResults(const std::vector<store::SearchResult>& a,
                 const std::vector<store::SearchResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].score != b[i].score) return false;
  }
  return true;
}

struct Cell {
  // Historical mean fields (continuity with older committed baselines).
  double scalar_ms = 0;
  double batched_ms = 0;
  // Per-iteration latency distributions.
  LatencyStats scalar;
  LatencyStats batched;
  double Speedup() const {
    return batched_ms > 0 ? scalar_ms / batched_ms : 0.0;
  }
};

Cell MeasureBackend(const store::VectorStore& store,
                    const store::VectorStore& reference,
                    const std::vector<linalg::VectorF>& queries,
                    const store::SeenSet& seen, const LatencyArgs& args,
                    ThreadPool* pool) {
  std::vector<linalg::VecSpan> spans(queries.begin(), queries.end());
  auto queries_span = std::span<const linalg::VecSpan>(spans);

  // Parity first: the pooled batch must equal the reference exactly.
  auto batched = store.TopKBatch(queries_span, args.k, seen, pool);
  for (size_t q = 0; q < spans.size(); ++q) {
    SEESAW_CHECK(
        SameResults(batched[q], reference.TopK(spans[q], args.k, seen)))
        << "TopKBatch diverged from the reference at query " << q;
  }

  // Keep the optimizer honest without asserting non-empty results: a fully
  // seen store (--seen=1.0) legitimately returns nothing.
  volatile size_t sink = 0;
  std::vector<double> scalar_samples, batched_samples;
  for (int it = -args.warmup; it < args.iters; ++it) {
    Stopwatch sw;
    for (linalg::VecSpan q : spans) {
      auto hits = store.TopK(q, args.k, seen);
      sink = sink + hits.size();
    }
    if (it >= 0) scalar_samples.push_back(sw.ElapsedSeconds() * 1e3);
  }
  for (int it = -args.warmup; it < args.iters; ++it) {
    Stopwatch sw;
    auto hits = store.TopKBatch(queries_span, args.k, seen, pool);
    SEESAW_CHECK_EQ(hits.size(), spans.size());
    sink = sink + hits.front().size();
    if (it >= 0) batched_samples.push_back(sw.ElapsedSeconds() * 1e3);
  }
  Cell cell;
  cell.scalar = SummarizeLatencies(std::move(scalar_samples));
  cell.batched = SummarizeLatencies(std::move(batched_samples));
  cell.scalar_ms = cell.scalar.mean_ms;
  cell.batched_ms = cell.batched.mean_ms;
  return cell;
}

int Run(int argc, char** argv) {
  LatencyArgs args = LatencyArgs::Parse(argc, argv);

  linalg::MatrixF table = RandomUnitTable(args.n, args.dim, /*seed=*/11);
  auto exact = store::ExactStore::Create(table);
  SEESAW_CHECK(exact.ok());
  auto ivf = store::IvfFlatIndex::Build(store::IvfOptions{}, table);
  SEESAW_CHECK(ivf.ok());
  auto annoy = store::AnnoyIndex::Build(store::AnnoyOptions{}, table);
  SEESAW_CHECK(annoy.ok());

  // The interactive setting: a fraction of the store has been seen already.
  store::SeenSet seen(args.n);
  Rng seen_rng(23);
  for (size_t i = 0; i < args.n; ++i) {
    if (seen_rng.Uniform() < args.seen_fraction) {
      seen.Set(static_cast<uint32_t>(i));
    }
  }

  ThreadPool pool(args.threads == 0 ? ThreadPool::DefaultThreads()
                                    : args.threads);
  Rng query_rng(31);
  auto make_queries = [&](size_t count) {
    std::vector<linalg::VectorF> queries;
    for (size_t i = 0; i < count; ++i) {
      linalg::VectorF q(args.dim);
      for (float& v : q) v = static_cast<float>(query_rng.Gaussian());
      linalg::NormalizeInPlace(linalg::MutVecSpan(q.data(), q.size()));
      queries.push_back(std::move(q));
    }
    return queries;
  };

  struct Backend {
    const char* name;
    const store::VectorStore* store;
    const store::VectorStore* reference;  // what the parity check trusts
    size_t shards = 0;            // effective count; 0 = not sharded
    size_t requested_shards = 0;  // what the flag asked for
  };
  std::vector<Backend> backends = {{"exact", &*exact, &*exact},
                                   {"ivf", &*ivf, &*ivf},
                                   {"annoy", &*annoy, &*annoy}};

  // The --shards axis: one ShardedStore per count over the same table,
  // checked bitwise against the unsharded exact store in every cell. The
  // min_rows_per_shard floor may fall back to fewer effective shards on
  // small tables; rows record both counts.
  std::vector<std::unique_ptr<store::ShardedStore>> sharded_stores;
  for (size_t count : args.shards) {
    store::ShardedOptions sharded_options;
    sharded_options.num_shards = count;
    sharded_options.min_rows_per_shard = args.min_shard_rows;
    auto sharded = store::ShardedStore::Create(table, sharded_options);
    SEESAW_CHECK(sharded.ok());
    sharded_stores.push_back(
        std::make_unique<store::ShardedStore>(std::move(*sharded)));
    // Record the effective count: Create clamps num_shards to the row
    // count and the per-shard floor, and the committed baseline must
    // describe what actually ran.
    backends.push_back({"sharded", sharded_stores.back().get(), &*exact,
                        sharded_stores.back()->num_shards(), count});
  }

  if (args.csv) {
    std::printf("backend,shards,requested_shards,batch_size,scalar_ms,"
                "batched_ms,speedup,batched_qps,scalar_p50_ms,"
                "batched_p50_ms,batched_p95_ms,batched_p99_ms\n");
  } else if (args.json) {
    // One object per line; the suite script wraps them into a document.
  } else {
    std::printf("TopK latency: n=%zu dim=%zu k=%zu seen=%.2f threads=%zu "
                "(ms per batch over %d iters)\n",
                args.n, args.dim, args.k, args.seen_fraction,
                pool.num_threads(), args.iters);
    std::printf("%-8s %6s %6s %12s %12s %9s %12s %10s %10s %10s\n", "backend",
                "shards", "batch", "scalar_ms", "batched_ms", "speedup",
                "batched_qps", "b_p50", "b_p95", "b_p99");
  }

  for (const Backend& backend : backends) {
    for (size_t batch : args.batches) {
      auto queries = make_queries(batch);
      Cell cell = MeasureBackend(*backend.store, *backend.reference, queries,
                                 seen, args, &pool);
      double qps = cell.batched_ms > 0
                       ? static_cast<double>(batch) / (cell.batched_ms / 1e3)
                       : 0.0;
      if (args.csv) {
        std::printf("%s,%zu,%zu,%zu,%.4f,%.4f,%.3f,%.1f,%.4f,%.4f,%.4f,"
                    "%.4f\n",
                    backend.name, backend.shards, backend.requested_shards,
                    batch, cell.scalar_ms, cell.batched_ms, cell.Speedup(),
                    qps, cell.scalar.p50_ms, cell.batched.p50_ms,
                    cell.batched.p95_ms, cell.batched.p99_ms);
      } else if (args.json) {
        std::printf("{\"backend\":\"%s\",\"n\":%zu,\"dim\":%zu,"
                    "\"k\":%zu,\"shards\":%zu,\"requested_shards\":%zu,"
                    "\"batch\":%zu,"
                    "\"scalar_ms\":%.4f,\"batched_ms\":%.4f,"
                    "\"speedup\":%.3f,\"batched_qps\":%.1f,"
                    "\"scalar_p50_ms\":%.4f,\"scalar_p95_ms\":%.4f,"
                    "\"scalar_p99_ms\":%.4f,\"batched_p50_ms\":%.4f,"
                    "\"batched_p95_ms\":%.4f,\"batched_p99_ms\":%.4f}\n",
                    backend.name, args.n, args.dim, args.k, backend.shards,
                    backend.requested_shards, batch, cell.scalar_ms,
                    cell.batched_ms, cell.Speedup(), qps, cell.scalar.p50_ms,
                    cell.scalar.p95_ms, cell.scalar.p99_ms,
                    cell.batched.p50_ms, cell.batched.p95_ms,
                    cell.batched.p99_ms);
      } else {
        std::printf("%-8s %6zu %6zu %12.4f %12.4f %8.2fx %12.1f %10.4f "
                    "%10.4f %10.4f\n",
                    backend.name, backend.shards, batch, cell.scalar_ms,
                    cell.batched_ms, cell.Speedup(), qps, cell.batched.p50_ms,
                    cell.batched.p95_ms, cell.batched.p99_ms);
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace seesaw::bench

int main(int argc, char** argv) { return seesaw::bench::Run(argc, argv); }
