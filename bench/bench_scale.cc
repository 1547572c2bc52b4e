// Million-row scan scale sweep of the certified exact scan.
//
// The paper runs interactive search over datasets up to BDD/ObjectNet scale;
// the open question for this reproduction was whether the exact scan stays
// interactive at millions of rows. This bench answers it with committed
// numbers (BENCH_scale.json via scripts/run_scale_suite.sh): batched TopK
// latency percentiles of the store's one scan (int8 filter, fp32 rescore of
// the rows the bound cannot rule out) over store sizes x shard counts,
// against a plain fp32 brute-force scan, plus a NUMA-placement A/B.
//
//   ./bench_scale [--sizes=1M,4M] [--dim=128] [--k=100] [--batch=8]
//                 [--warmup=1] [--iters=5] [--threads=0] [--shards=0,8]
//                 [--min-shard-rows=4096] [--centers=64]
//                 [--tmpdir=/tmp] [--json]
//
// Size tokens accept K/M suffixes (1M = 1000000). For each size the table
// is *streamed*: clustered CLIP-like rows are generated in fixed-size
// chunks and written once to a temp file (common/binary_io), then loaded
// one store at a time — the unsharded store takes the loaded table, the
// sharded one reads each shard's rows straight into its child — so at most
// one fp32 table and its int8 copy are in memory, which is what makes the
// 16M (8 GB) point fit comfortably.
//
// Every row is gated, not just timed:
//   - the store's results must be bitwise equal to the bench's own fp32
//     brute-force scan (every unseen row scored with the fp32 kernel, no
//     int8 filter) — the certified scan's contract, enforced at full scale;
//   - a forced-scalar int8 ScoreBlock over a sampled row block must be
//     bitwise equal to the active SIMD int8 kernel (the int8 family's
//     within-family contract, on the exact table the bench scans);
//   - with 90% of rows seen, the pooled scan must equal the serial one and
//     the brute-force scan (untimed).
// A violated gate aborts the bench, so a committed BENCH_scale.json is
// itself evidence the contracts held at scale.
//
// Output rows (one JSON object per line under --json, table otherwise):
//   kind=scan:   per (n, shards) scan latency stats — samples, mean/p50/
//                p95/p99 ms, rows/s, GB/s (int8 rows plus their scale and
//                two bound floats), qps, rescored_per_query (rows rescored
//                in fp32 per query, from ScanControl::rescored), the
//                brute-force p50 and speedup_vs_bruteforce_p50.
//   kind=memory: per (n) the NUMA-placement A/B: sharded scan with
//                numa_placement off vs on, both bitwise-verified, plus
//                per-scan hardware counters (perf_event cache misses where
//                the host exposes a PMU, getrusage minor faults everywhere
//                — see common/hw_counters). On single-node hosts placement
//                is a no-op by construction, so `placed` is false and both
//                arms time the one unplaced store.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/binary_io.h"
#include "common/check.h"
#include "common/hw_counters.h"
#include "common/numa.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "linalg/simd.h"
#include "linalg/vector_ops.h"
#include "store/exact_store.h"
#include "store/sharded_store.h"

namespace seesaw::bench {
namespace {

struct ScaleArgs {
  std::vector<size_t> sizes = {1000000};
  size_t dim = 128;
  size_t k = 100;
  size_t batch = 8;
  int warmup = 1;
  int iters = 5;
  size_t threads = 0;
  std::vector<size_t> shards = {0};  // 0 = unsharded ExactStore
  size_t min_shard_rows = 4096;
  size_t centers = 0;  // 0 = auto: 64 rows per cluster, min 64 centers
  std::string tmpdir = "/tmp";
  bool json = false;

  /// "1M" -> 1000000, "250K" -> 250000, plain integers pass through.
  static size_t ParseSizeToken(const char* p, const char** end) {
    char* num_end = nullptr;
    size_t value = std::strtoul(p, &num_end, 10);
    if (*num_end == 'M' || *num_end == 'm') {
      value *= 1000000;
      ++num_end;
    } else if (*num_end == 'K' || *num_end == 'k') {
      value *= 1000;
      ++num_end;
    }
    *end = num_end;
    return value;
  }

  static std::vector<size_t> ParseList(const char* p, bool size_tokens) {
    std::vector<size_t> out;
    while (*p != '\0') {
      const char* end = p;
      size_t value = size_tokens ? ParseSizeToken(p, &end)
                                 : std::strtoul(p, const_cast<char**>(&end), 10);
      if (end != p) out.push_back(value);
      p = std::strchr(end, ',');
      if (p == nullptr) break;
      ++p;
    }
    return out;
  }

  static ScaleArgs Parse(int argc, char** argv) {
    ScaleArgs args;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strncmp(a, "--sizes=", 8) == 0) {
        args.sizes = ParseList(a + 8, /*size_tokens=*/true);
        if (args.sizes.empty()) {
          std::fprintf(stderr,
                       "bench_scale: --sizes needs tokens like 1M,4M,16M\n");
          std::exit(2);
        }
      }
      if (std::strncmp(a, "--dim=", 6) == 0) args.dim = std::atoi(a + 6);
      if (std::strncmp(a, "--k=", 4) == 0) args.k = std::atoi(a + 4);
      if (std::strncmp(a, "--batch=", 8) == 0) args.batch = std::atoi(a + 8);
      if (std::strncmp(a, "--warmup=", 9) == 0) args.warmup = std::atoi(a + 9);
      if (std::strncmp(a, "--iters=", 8) == 0) args.iters = std::atoi(a + 8);
      if (std::strncmp(a, "--threads=", 10) == 0) {
        args.threads = std::atoi(a + 10);
      }
      if (std::strncmp(a, "--shards=", 9) == 0) {
        args.shards = ParseList(a + 9, /*size_tokens=*/false);
        if (args.shards.empty()) args.shards = {0};
      }
      if (std::strncmp(a, "--min-shard-rows=", 17) == 0) {
        args.min_shard_rows = std::strtoul(a + 17, nullptr, 10);
      }
      if (std::strncmp(a, "--centers=", 10) == 0) {
        args.centers = std::strtoul(a + 10, nullptr, 10);
      }
      if (std::strncmp(a, "--tmpdir=", 9) == 0) args.tmpdir = a + 9;
      if (std::strcmp(a, "--json") == 0) args.json = true;
    }
    return args;
  }
};

/// Per-element noise sigma that yields an expected noise *norm* of `norm`
/// regardless of dimension. CLIP-like clusters keep a fixed angular spread;
/// naive per-element sigma would make high-dim "clusters" pure noise.
inline float NoiseSigma(double norm, size_t dim) {
  return static_cast<float>(norm / std::sqrt(static_cast<double>(dim)));
}

/// Streams a clustered CLIP-like unit-vector table to `path` in fixed-size
/// chunks: rows are unit centers plus norm-1.0 Gaussian noise, normalized
/// (within-cluster cosine ~0.5, same-concept CLIP territory), generated
/// without ever holding more than one chunk in memory.
void GenerateTableFile(const std::string& path, size_t n, size_t dim,
                       size_t centers, uint64_t seed) {
  Rng rng(seed);
  const float sigma = NoiseSigma(1.0, dim);
  std::vector<linalg::VectorF> mu(centers);
  for (auto& c : mu) {
    c.resize(dim);
    for (float& x : c) x = static_cast<float>(rng.Gaussian());
    linalg::NormalizeInPlace(linalg::MutVecSpan(c.data(), c.size()));
  }
  auto writer = BinaryWriter::Open(path);
  SEESAW_CHECK(writer.ok()) << writer.status().ToString();
  constexpr size_t kChunkRows = 8192;
  std::vector<float> chunk(kChunkRows * dim);
  for (size_t row = 0; row < n;) {
    const size_t rows = std::min(kChunkRows, n - row);
    for (size_t r = 0; r < rows; ++r) {
      float* out = chunk.data() + r * dim;
      const linalg::VectorF& center = mu[(row + r) % centers];
      for (size_t j = 0; j < dim; ++j) {
        out[j] = center[j] + sigma * static_cast<float>(rng.Gaussian());
      }
      linalg::NormalizeInPlace(linalg::MutVecSpan(out, dim));
    }
    SEESAW_CHECK(writer->WriteFloats(chunk.data(), rows * dim).ok());
    row += rows;
  }
  SEESAW_CHECK(writer->Close().ok());
}

/// Reads the next `rows` rows of a streamed table file.
linalg::MatrixF ReadRows(BinaryReader& reader, size_t rows, size_t dim) {
  linalg::MatrixF table(rows, dim);
  constexpr size_t kChunkRows = 8192;
  for (size_t row = 0; row < rows;) {
    const size_t chunk = std::min(kChunkRows, rows - row);
    SEESAW_CHECK(
        reader.ReadFloats(table.MutableRow(row).data(), chunk * dim).ok());
    row += chunk;
  }
  return table;
}

BinaryReader OpenTableFile(const std::string& path) {
  auto reader = BinaryReader::Open(path);
  SEESAW_CHECK(reader.ok()) << reader.status().ToString();
  return std::move(*reader);
}

/// The sharded store the way ShardedStore::Create partitions it (same
/// shard-count clamp, same PartitionRange), with each child built straight
/// from its rows in the file instead of copied out of a loaded table.
std::unique_ptr<store::ShardedStore> ShardedFromFile(const std::string& path,
                                                     size_t n, size_t dim,
                                                     size_t requested,
                                                     size_t min_rows) {
  const size_t shards = std::min(
      {requested, n, std::max<size_t>(1, n / std::max<size_t>(1, min_rows))});
  BinaryReader reader = OpenTableFile(path);
  std::vector<std::unique_ptr<store::VectorStore>> children;
  for (size_t s = 0; s < shards; ++s) {
    const size_t rows = store::ShardedStore::PartitionRange(n, shards, s).second;
    auto child = store::ExactStore::Create(ReadRows(reader, rows, dim));
    SEESAW_CHECK(child.ok());
    children.push_back(std::make_unique<store::ExactStore>(std::move(*child)));
  }
  auto sharded = store::ShardedStore::CreateFromChildren(std::move(children));
  SEESAW_CHECK(sharded.ok());
  return std::make_unique<store::ShardedStore>(std::move(*sharded));
}

using Hits = std::vector<std::vector<store::SearchResult>>;

/// The bench's own fp32 reference: every unseen row scored with the fp32
/// kernel, row ranges split over the pool, each range keeping its k best
/// per query, merged under BetterResult. It shares only the kernel with the
/// store's scan — no int8 filter, no seen-run walk, no ScatterTopK.
Hits BruteForceTopK(const linalg::MatrixF& table,
                    const std::vector<linalg::VecSpan>& queries, size_t k,
                    const store::SeenSet& seen, ThreadPool& pool) {
  constexpr size_t kBlock = 32;
  const size_t n = table.rows();
  const size_t nq = queries.size();
  const size_t parts = pool.num_threads() * 2;
  std::vector<Hits> part_hits(parts);
  const linalg::KernelTable& kernels = linalg::ActiveKernels();
  pool.ParallelFor(parts, [&](size_t first_part, size_t last_part) {
    std::vector<float> scores(kBlock * nq);
    for (size_t p = first_part; p < last_part; ++p) {
      const size_t begin = n * p / parts;
      const size_t end = n * (p + 1) / parts;
      std::vector<store::TopKHeap> heaps(nq, store::TopKHeap(k));
      for (size_t r = begin; r < end; r += kBlock) {
        const size_t rows = std::min(kBlock, end - r);
        kernels.score_block(table.Row(r).data(), rows, table.cols(),
                            queries.data(), nq, scores.data());
        for (size_t i = 0; i < rows; ++i) {
          const auto id = static_cast<uint32_t>(r + i);
          if (seen.Test(id)) continue;
          for (size_t q = 0; q < nq; ++q) heaps[q].Push(id, scores[i * nq + q]);
        }
      }
      for (auto& heap : heaps) part_hits[p].push_back(heap.Take());
    }
  });
  Hits out(nq);
  for (size_t q = 0; q < nq; ++q) {
    for (Hits& part : part_hits) {
      out[q].insert(out[q].end(), part[q].begin(), part[q].end());
    }
    std::sort(out[q].begin(), out[q].end(), store::BetterResult);
    if (out[q].size() > k) out[q].resize(k);
  }
  return out;
}

/// Bitwise equality of two result sets (ids and score bits).
bool SameHits(const Hits& a, const Hits& b) {
  if (a.size() != b.size()) return false;
  for (size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (size_t i = 0; i < a[q].size(); ++i) {
      if (a[q][i].id != b[q][i].id ||
          std::memcmp(&a[q][i].score, &b[q][i].score, sizeof(float)) != 0) {
        return false;
      }
    }
  }
  return true;
}

/// Within-family gate: forced-scalar int8 ScoreBlock must be bitwise equal
/// to the active SIMD int8 kernel over a sampled block of the *actual*
/// quantized table this bench scans.
void CheckInt8KernelParity(const linalg::QuantizedTable& q,
                           const std::vector<linalg::VecSpan>& queries) {
  const size_t rows = std::min<size_t>(q.rows, 4096);
  const size_t nq = queries.size();
  std::vector<int8_t> qdata(nq * q.cols);
  std::vector<float> qscales(nq);
  for (size_t qi = 0; qi < nq; ++qi) {
    qscales[qi] =
        linalg::QuantizeVectorInto(queries[qi], qdata.data() + qi * q.cols);
  }
  const linalg::Int8KernelTable& scalar = linalg::ScalarInt8Kernels();
  const linalg::Int8KernelTable& active = linalg::ActiveInt8Kernels();
  std::vector<float> want(rows * nq), got(rows * nq);
  scalar.score_block(q.Row(0), q.scales.data(), rows, q.cols, qdata.data(),
                     qscales.data(), nq, want.data());
  active.score_block(q.Row(0), q.scales.data(), rows, q.cols, qdata.data(),
                     qscales.data(), nq, got.data());
  for (size_t i = 0; i < want.size(); ++i) {
    SEESAW_CHECK(std::memcmp(&want[i], &got[i], sizeof(float)) == 0)
        << "int8 kernel '" << active.name
        << "' diverged bitwise from the scalar reference at cell " << i;
  }
}

struct Measurement {
  LatencyStats stats;
  size_t samples = 0;
  double rows_per_sec = 0;
  double gb_per_sec = 0;
  double qps = 0;
  double rescored_per_query = 0;
};

/// Times `scan` (one batched lookup, returning its hits) over warmup +
/// iters runs; `rescored` is the counter the scan feeds, if any.
template <typename Scan>
Measurement Measure(const Scan& scan, size_t n, size_t bytes_per_row,
                    size_t num_queries, const ScaleArgs& args,
                    std::atomic<uint64_t>* rescored) {
  volatile size_t sink = 0;
  std::vector<double> samples;
  for (int it = -args.warmup; it < args.iters; ++it) {
    if (it == 0 && rescored != nullptr) rescored->store(0);
    Stopwatch sw;
    Hits hits = scan();
    const double ms = sw.ElapsedSeconds() * 1e3;
    SEESAW_CHECK_EQ(hits.size(), num_queries);
    sink = sink + hits.front().size();
    if (it >= 0) samples.push_back(ms);
  }
  Measurement m;
  m.samples = samples.size();
  m.stats = SummarizeLatencies(std::move(samples));
  if (rescored != nullptr && m.samples > 0) {
    m.rescored_per_query = static_cast<double>(rescored->load()) /
                           static_cast<double>(m.samples * num_queries);
  }
  if (m.stats.mean_ms > 0) {
    const double seconds = m.stats.mean_ms / 1e3;
    m.rows_per_sec = static_cast<double>(n) / seconds;
    m.gb_per_sec = static_cast<double>(n) *
                   static_cast<double>(bytes_per_row) / seconds / 1e9;
    m.qps = static_cast<double>(num_queries) / seconds;
  }
  return m;
}

/// Times the store's batched scan, gating every run against `want`.
Measurement MeasureStore(const store::VectorStore& store,
                         const std::vector<linalg::VecSpan>& spans,
                         const Hits& want, size_t n, const ScaleArgs& args,
                         ThreadPool* pool) {
  std::atomic<uint64_t> rescored{0};
  store::ScanControl control;
  control.rescored = &rescored;
  auto scan = [&] {
    Hits hits = store.TopKBatch(std::span<const linalg::VecSpan>(spans), args.k,
                                store::EmptySeenSet(), pool, control);
    SEESAW_CHECK(SameHits(hits, want))
        << "scan diverged from the fp32 brute-force scan at n=" << n;
    return hits;
  };
  // int8 codes, plus the per-row scale and two bound floats.
  return Measure(scan, n, args.dim + 3 * sizeof(float), spans.size(), args,
                 &rescored);
}

int Run(int argc, char** argv) {
  ScaleArgs args = ScaleArgs::Parse(argc, argv);
  ThreadPool pool(args.threads == 0 ? ThreadPool::DefaultThreads()
                                    : args.threads);

  if (!args.json) {
    std::printf("scan scale sweep: dim=%zu k=%zu batch=%zu threads=%zu "
                "iters=%d kernel=%s\n",
                args.dim, args.k, args.batch, pool.num_threads(), args.iters,
                linalg::ActiveKernels().name);
    std::printf("%-9s %6s %6s %10s %10s %10s %10s %12s %9s %10s %8s\n", "n",
                "shards", "req", "mean_ms", "p50_ms", "p95_ms", "p99_ms",
                "rows/s", "GB/s", "rescored/q", "vs_bf");
  }

  for (size_t n : args.sizes) {
    SEESAW_CHECK_GT(n, size_t{0});
    const std::string path =
        args.tmpdir + "/seesaw_scale_" + std::to_string(n) + "_" +
        std::to_string(args.dim) + ".bin";
    // Auto center count keeps *cluster size* constant as n grows (datasets
    // grow by adding concepts, not by densifying existing ones) and larger
    // than k: with ~128 same-cluster rows per query, the rank-k boundary
    // falls *inside* a cluster, where score gaps are set by the noise scale
    // — not in the cross-cluster tail, whose gaps shrink as n grows.
    const size_t centers =
        args.centers > 0 ? args.centers : std::max<size_t>(64, n / 128);
    GenerateTableFile(path, n, args.dim, centers, /*seed=*/91);
    linalg::MatrixF table = [&] {
      BinaryReader reader = OpenTableFile(path);
      return ReadRows(reader, n, args.dim);
    }();

    // CLIP-like queries: norm-0.3 perturbations of stored rows (cosine
    // ~0.96 to the source), fixed across every shard count so latencies
    // are comparable.
    Rng qrng(92);
    const float qsigma = NoiseSigma(0.3, args.dim);
    std::vector<linalg::VectorF> queries;
    for (size_t qi = 0; qi < args.batch; ++qi) {
      auto row = table.Row((qi * 1315423911u) % n);
      linalg::VectorF v(row.begin(), row.end());
      for (float& x : v) x += qsigma * static_cast<float>(qrng.Gaussian());
      linalg::NormalizeInPlace(linalg::MutVecSpan(v.data(), v.size()));
      queries.push_back(std::move(v));
    }
    std::vector<linalg::VecSpan> spans(queries.begin(), queries.end());

    // The fp32 brute-force reference: the truth every row is gated on, and
    // the baseline its speedup column is measured against.
    const Hits truth =
        BruteForceTopK(table, spans, args.k, store::EmptySeenSet(), pool);
    const Measurement brute = Measure(
        [&] {
          return BruteForceTopK(table, spans, args.k, store::EmptySeenSet(),
                                pool);
        },
        n, args.dim * sizeof(float), spans.size(), args, nullptr);

    auto emit_scan = [&](size_t effective, size_t requested,
                         const Measurement& m) {
      const double speedup =
          m.stats.p50_ms > 0 ? brute.stats.p50_ms / m.stats.p50_ms : 0.0;
      if (args.json) {
        std::printf(
            "{\"kind\":\"scan\",\"kernel\":\"%s\",\"n\":%zu,\"dim\":%zu,"
            "\"k\":%zu,\"batch\":%zu,\"shards\":%zu,\"requested_shards\":%zu,"
            "\"samples\":%zu,\"mean_ms\":%.3f,\"p50_ms\":%.3f,"
            "\"p95_ms\":%.3f,\"p99_ms\":%.3f,\"rows_per_sec\":%.0f,"
            "\"gb_per_sec\":%.3f,\"qps\":%.2f,\"rescored_per_query\":%.1f,"
            "\"bruteforce_p50_ms\":%.3f,\"speedup_vs_bruteforce_p50\":%.3f}\n",
            linalg::ActiveKernels().name, n, args.dim, args.k, args.batch,
            effective, requested, m.samples,
            m.stats.mean_ms, m.stats.p50_ms, m.stats.p95_ms, m.stats.p99_ms,
            m.rows_per_sec, m.gb_per_sec, m.qps, m.rescored_per_query,
            brute.stats.p50_ms, speedup);
      } else {
        std::printf("%-9zu %6zu %6zu %10.2f %10.2f %10.2f %10.2f %12.0f "
                    "%9.2f %10.1f %7.2fx\n",
                    n, effective, requested, m.stats.mean_ms, m.stats.p50_ms,
                    m.stats.p95_ms, m.stats.p99_ms, m.rows_per_sec,
                    m.gb_per_sec, m.rescored_per_query, speedup);
      }
    };

    // --- the unsharded store (it takes the loaded table). ---
    {
      auto exact = store::ExactStore::Create(std::move(table));
      SEESAW_CHECK(exact.ok());
      CheckInt8KernelParity(exact->quantized(), spans);
      for (size_t requested : args.shards) {
        if (requested != 0) continue;
        emit_scan(0, 0, MeasureStore(*exact, spans, truth, n, args, &pool));
      }

      // High-seen check: 90% of rows seen, pooled == serial == brute force.
      // Its own 4-thread pool, so the scan really splits into row ranges and
      // merges them even when the sweep pool has a single thread.
      ThreadPool check_pool(4);
      store::SeenSet seen(n);
      Rng seen_rng(93);
      for (size_t i = 0; i < n; ++i) {
        if (seen_rng.Uniform() < 0.9) seen.Set(static_cast<uint32_t>(i));
      }
      auto queries_span = std::span<const linalg::VecSpan>(spans);
      const Hits want =
          BruteForceTopK(exact->vectors(), spans, args.k, seen, pool);
      SEESAW_CHECK(SameHits(exact->TopKBatch(queries_span, args.k, seen), want))
          << "serial high-seen scan diverged from brute force at n=" << n;
      SEESAW_CHECK(SameHits(
          exact->TopKBatch(queries_span, args.k, seen, &check_pool), want))
          << "pooled high-seen scan diverged from brute force at n=" << n;
    }

    // --- sharded stores, one at a time, each built from the file. ---
    size_t numa_shards = 8;
    for (size_t requested : args.shards) {
      if (requested == 0) continue;
      numa_shards = requested;
      auto sharded =
          ShardedFromFile(path, n, args.dim, requested, args.min_shard_rows);
      emit_scan(sharded->num_shards(), requested,
                MeasureStore(*sharded, spans, truth, n, args, &pool));
    }

    // --- memory rows: NUMA placement A/B with per-scan counters. ---
    {
      // The placed arm needs a pool with worker->node affinity. Single-node
      // hosts: affinity and placement both degrade to no-ops, the placed
      // store would be the unplaced one, so the row times that one store
      // twice and documents the fallback engaged.
      ThreadPoolOptions affinity_options;
      affinity_options.numa_affinity = true;
      ThreadPool numa_pool(pool.num_threads(), affinity_options);

      std::unique_ptr<store::ShardedStore> unplaced = ShardedFromFile(
          path, n, args.dim, numa_shards, args.min_shard_rows);
      Measurement un_m =
          MeasureStore(*unplaced, spans, truth, n, args, &numa_pool);
      std::unique_ptr<store::ShardedStore> placed;
      if (numa::Available()) {
        unplaced.reset();
        BinaryReader reader = OpenTableFile(path);
        store::ShardedOptions placed_options;
        placed_options.num_shards = numa_shards;
        placed_options.min_rows_per_shard = args.min_shard_rows;
        placed_options.numa_placement = true;
        auto created = store::ShardedStore::Create(
            ReadRows(reader, n, args.dim), placed_options);
        SEESAW_CHECK(created.ok());
        placed = std::make_unique<store::ShardedStore>(std::move(*created));
      } else {
        placed = std::move(unplaced);
      }
      Measurement pl_m =
          MeasureStore(*placed, spans, truth, n, args, &numa_pool);
      // Counters over one representative placed scan (the caller's share of
      // a helped scan — self-profiling counters are per-thread).
      hw::CounterScope scope;
      scope.Start();
      auto hits = placed->TopKBatch(std::span<const linalg::VecSpan>(spans),
                                    args.k, store::EmptySeenSet(), &numa_pool);
      hw::CounterDeltas counters = scope.Read();
      SEESAW_CHECK_EQ(hits.size(), spans.size());

      const double placed_speedup =
          pl_m.stats.p50_ms > 0 ? un_m.stats.p50_ms / pl_m.stats.p50_ms : 0.0;
      if (args.json) {
        std::printf(
            "{\"kind\":\"memory\",\"n\":%zu,\"dim\":%zu,\"k\":%zu,"
            "\"batch\":%zu,\"shards\":%zu,\"numa_available\":%s,"
            "\"placed\":%s,\"samples\":%zu,\"unplaced_p50_ms\":%.3f,"
            "\"unplaced_p95_ms\":%.3f,\"unplaced_p99_ms\":%.3f,"
            "\"placed_p50_ms\":%.3f,\"placed_p95_ms\":%.3f,"
            "\"placed_p99_ms\":%.3f,\"placed_speedup_p50\":%.3f,"
            "\"hw_counters\":%s,\"scan_cache_misses\":%lld,"
            "\"scan_minor_faults\":%lld}\n",
            n, args.dim, args.k, args.batch, placed->num_shards(),
            numa::Available() ? "true" : "false",
            placed->numa_placed() ? "true" : "false", pl_m.samples,
            un_m.stats.p50_ms, un_m.stats.p95_ms, un_m.stats.p99_ms,
            pl_m.stats.p50_ms, pl_m.stats.p95_ms, pl_m.stats.p99_ms,
            placed_speedup, scope.hardware_available() ? "true" : "false",
            static_cast<long long>(counters.cache_misses),
            static_cast<long long>(counters.minor_faults));
      } else {
        std::printf("%-9zu memory numa=%d placed=%d: unplaced_p50=%.2fms "
                    "placed_p50=%.2fms speedup=%.2fx cache_misses=%lld "
                    "minor_faults=%lld\n",
                    n, numa::Available(), placed->numa_placed(),
                    un_m.stats.p50_ms, pl_m.stats.p50_ms, placed_speedup,
                    static_cast<long long>(counters.cache_misses),
                    static_cast<long long>(counters.minor_faults));
      }
    }
    std::remove(path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace seesaw::bench

int main(int argc, char** argv) { return seesaw::bench::Run(argc, argv); }
