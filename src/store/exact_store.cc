#include "store/exact_store.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/arena.h"
#include "common/check.h"
#include "common/numa.h"
#include "common/thread_pool.h"
#include "linalg/simd.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace seesaw::store {

namespace {

/// Rows scored per ScoreBlock call in the batched scan. Small enough that a
/// block (kRowBlock x dim floats) plus the queries stay cache-resident.
constexpr size_t kRowBlock = 32;

/// Unseen runs a shard scan takes from the seen set per refill (8 KB of
/// shard scratch). At 1024 runs the scan kept pace with one that took a
/// whole shard's runs up front, at every seen fraction from 0 to 99%; a
/// 64-run chunk still trailed it by 5-8% at 90% seen (4-core x86, fp32 and
/// int8, dim 128, 283k to 4M rows).
constexpr size_t kRunChunk = 1024;

/// True if any of scores[0..num) might be admitted against thresholds[0..num)
/// — i.e. NOT (score < threshold) for some lane. The negated-compare keeps
/// NaN scores on the "might admit" side, so the caller's scalar admit path
/// (and with it the scan's exact result semantics, ties and NaN included)
/// stays the single source of truth; this is purely a fast reject for the
/// overwhelmingly common all-below-threshold row.
inline bool AnyCandidate(const float* scores, const float* thresholds,
                         size_t num) {
  size_t q = 0;
#if defined(__SSE2__)
  for (; q + 4 <= num; q += 4) {
    const __m128 s = _mm_loadu_ps(scores + q);
    const __m128 t = _mm_loadu_ps(thresholds + q);
    if (_mm_movemask_ps(_mm_cmpnlt_ps(s, t)) != 0) return true;
  }
#endif
  for (; q < num; ++q) {
    if (!(scores[q] < thresholds[q])) return true;
  }
  return false;
}

}  // namespace

StatusOr<ExactStore> ExactStore::Create(linalg::MatrixF vectors) {
  return Create(std::move(vectors), ExactStoreOptions{});
}

StatusOr<ExactStore> ExactStore::Create(linalg::MatrixF vectors,
                                        const ExactStoreOptions& options) {
  if (vectors.rows() == 0 || vectors.cols() == 0) {
    return Status::InvalidArgument("ExactStore: empty vector table");
  }
  ExactStore store(std::move(vectors), options);
  if (options.precision == ScanPrecision::kInt8) {
    store.quantized_ = linalg::QuantizeRows(store.vectors_);
  }
  return store;
}

void ExactStore::BindStorageToNode(size_t node) {
  numa::BindMemoryToNode(vectors_.mutable_data().data(),
                         vectors_.mutable_data().size() * sizeof(float), node);
  if (!quantized_.empty()) {
    numa::BindMemoryToNode(quantized_.data.data(), quantized_.data.size(),
                           node);
    numa::BindMemoryToNode(quantized_.scales.data(),
                           quantized_.scales.size() * sizeof(float), node);
  }
}

std::vector<std::vector<SearchResult>> ExactStore::TopKBatch(
    std::span<const linalg::VecSpan> queries, size_t k, const SeenSet& seen,
    ThreadPool* pool, const ScanControl& control) const {
  const size_t num_queries = queries.size();
  if (num_queries == 0) return {};
  for (linalg::VecSpan q : queries) SEESAW_CHECK_EQ(q.size(), vectors_.cols());
  // k == 0 would make the empty heaps "full" below and their Worst()
  // undefined; the answer is trivially empty anyway.
  if (k == 0) return std::vector<std::vector<SearchResult>>(num_queries);

  const size_t n = vectors_.rows();
  const size_t dim = vectors_.cols();
  const bool int8 = options_.precision == ScanPrecision::kInt8;

  // All call-lifetime scratch comes from a leased arena: after the first
  // call at a given (queries, dim) shape the lease costs zero allocations,
  // where the former fresh-vector scratch paid a malloc/free set per call
  // (tests/memory_audit_test.cc gates this). A *pooled* lease rather than
  // thread_local scratch because HelpUntil waiters are caller-runs: this
  // thread can execute a second TopKBatch as a helped task while shard
  // tasks of this call still read `qdata` — see common/arena.h.
  ScratchPool::Lease call_scratch = GlobalScanScratch().Acquire();

  // Int8 scans quantize the query batch once, into one contiguous block
  // matching the Int8KernelTable::score_block layout (each query quantized
  // in place into its slot — no bounce buffer).
  std::span<int8_t> qdata;
  std::span<float> qscales;
  const linalg::Int8KernelTable* int8_kernels = nullptr;
  const linalg::KernelTable& fp32_kernels = linalg::ActiveKernels();
  if (int8) {
    int8_kernels = &linalg::ActiveInt8Kernels();
    qdata = call_scratch->Alloc<int8_t>(num_queries * dim);
    qscales = call_scratch->Alloc<float>(num_queries);
    for (size_t q = 0; q < num_queries; ++q) {
      qscales[q] =
          linalg::QuantizeVectorInto(queries[q], qdata.data() + q * dim);
    }
  }

  size_t num_shards = 1;
  if (pool != nullptr && pool->num_threads() > 1) {
    // A couple of shards per worker evens out stragglers; never fewer rows
    // per shard than one score block.
    num_shards = std::min(pool->num_threads() * 2,
                          std::max<size_t>(1, n / kRowBlock));
  }
  const size_t rows_per_shard = (n + num_shards - 1) / num_shards;

  // Each shard scans a disjoint row range into its own task-local heaps;
  // ScatterTopK merges them.
  auto scan_shard =
      [&](size_t shard) -> std::vector<std::vector<SearchResult>> {
    const size_t begin = shard * rows_per_shard;
    const size_t end = std::min(begin + rows_per_shard, n);
    std::vector<TopKHeap> heaps(num_queries, TopKHeap(k));
    // Shard-lifetime scratch: leased per shard *task*, so each worker bumps
    // its own arena (allocations are line-aligned — no cross-shard false
    // sharing on the threshold arrays) and a warm pool serves the whole
    // fan-out without touching the allocator. Alloc returns raw memory;
    // the fills below are the required initialization.
    ScratchPool::Lease shard_scratch = GlobalScanScratch().Acquire();
    std::span<float> scores =
        shard_scratch->Alloc<float>(kRowBlock * num_queries);
    std::span<SeenSet::Run> runs =
        shard_scratch->Alloc<SeenSet::Run>(kRunChunk);
    // Per-query admission thresholds mirrored out of the heaps into flat
    // arrays, so the overwhelmingly common reject is one compare instead of
    // a heap-front pointer chase inside the innermost loop.
    std::span<float> worst_score = shard_scratch->Alloc<float>(num_queries);
    std::span<uint32_t> worst_id = shard_scratch->Alloc<uint32_t>(num_queries);
    std::fill(worst_score.begin(), worst_score.end(),
              -std::numeric_limits<float>::infinity());
    std::fill(worst_id.begin(), worst_id.end(), 0u);
    auto admit = [&](size_t q, uint32_t id, float score) {
      TopKHeap& heap = heaps[q];
      if (heap.Full()) {
        if (score < worst_score[q] ||
            (score == worst_score[q] && id > worst_id[q])) {
          return;
        }
      }
      heap.Push(id, score);
      if (heap.Full()) {
        worst_score[q] = heap.Worst().score;
        worst_id[q] = heap.Worst().id;
      }
    };
    // Scores rows [r, run_end) against every query and feeds the heaps.
    auto score_run = [&](size_t r, size_t run_end) {
      if (int8) {
        int8_kernels->score_block(quantized_.Row(r),
                                  quantized_.scales.data() + r, run_end - r,
                                  dim, qdata.data(), qscales.data(),
                                  num_queries, scores.data());
      } else {
        // The kernel MatrixF::ScoreBlock dispatches to, minus its per-call
        // argument checks: runs are short, and the queries were checked
        // once above.
        fp32_kernels.score_block(vectors_.Row(r).data(), run_end - r, dim,
                                 queries.data(), num_queries, scores.data());
      }
      for (size_t row = r; row < run_end; ++row) {
        const float* row_scores = scores.data() + (row - r) * num_queries;
        // Fast reject: until every heap is full the thresholds are -inf and
        // the filter always passes through to admit().
        if (!AnyCandidate(row_scores, worst_score.data(), num_queries)) {
          continue;
        }
        for (size_t q = 0; q < num_queries; ++q) {
          admit(q, static_cast<uint32_t>(row), row_scores[q]);
        }
      }
    };
    // Seen rows are skipped before scoring: blocks are maximal unseen runs,
    // capped at kRowBlock rows, taken from the seen set a chunk at a time.
    // Each block is a cancellation checkpoint: a cancelled scan abandons the
    // rest of this shard's rows and contributes nothing.
    uint32_t pos = static_cast<uint32_t>(begin);
    while (const size_t got = seen.NextUnseenRuns(
               &pos, static_cast<uint32_t>(end), kRowBlock, runs)) {
      for (size_t i = 0; i < got; ++i) {
        if (control.ShouldStop()) return {};
        score_run(runs[i].begin, runs[i].end);
      }
    }
    std::vector<std::vector<SearchResult>> hits(num_queries);
    for (size_t q = 0; q < num_queries; ++q) hits[q] = heaps[q].Take();
    return hits;
  };
  return ScatterTopK(num_shards, num_queries, k, pool, /*part_nodes=*/{},
                     scan_shard);
}

}  // namespace seesaw::store
