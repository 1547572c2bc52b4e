#include "store/exact_store.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
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

/// Rows a part can queue as fp32-rescore candidates: at least this many,
/// and 16 per kept result and query, but never more than the part has
/// rows. A full queue is first compacted against the current thresholds;
/// only if that frees less than half of it are the survivors rescored
/// early. Rescoring early only spends fp32 work on rows a later threshold
/// might have dropped; it never changes results. At 16 per result the
/// queue rarely overflows: the rows that survive a compaction are each
/// query's k best plus those within the bound's slack of them, about 3k
/// per query on clustered dim-128 tables.
constexpr size_t kCandidateQueue = 4096;
constexpr size_t kCandidatesPerResult = 16;

/// Rows a pooled scan gives each shard per result it keeps. A shard
/// rescores at least its k best rows plus those within the bound's slack
/// of them, about 3k on clustered dim-128 tables, so thinner shards spend
/// more on fp32 rescoring than the split saves: at 70.7k rows and
/// k = 496, eight shards rescored 12% of the table, four shards 7%.
constexpr size_t kRowsPerResult = 32;

/// Tables at least this tall quantize on a build-local pool at Create: at
/// 283k x 128 that took QuantizeRows from 90 ms to 43 ms (4-vCPU x86).
constexpr size_t kParallelQuantizeRows = 65536;

/// True if any of values[0..num) might reach thresholds[0..num) — i.e.
/// NOT (value < threshold) for some lane. The negated compare keeps NaN on
/// the "might reach" side, so a NaN score or upper bound is always passed
/// on to the exact path; this is purely a fast reject for the
/// overwhelmingly common all-below-threshold row.
inline bool AnyCandidate(const float* values, const float* thresholds,
                         size_t num) {
  size_t q = 0;
#if defined(__SSE2__)
  for (; q + 4 <= num; q += 4) {
    const __m128 s = _mm_loadu_ps(values + q);
    const __m128 t = _mm_loadu_ps(thresholds + q);
    if (_mm_movemask_ps(_mm_cmpnlt_ps(s, t)) != 0) return true;
  }
#endif
  for (; q < num; ++q) {
    if (!(values[q] < thresholds[q])) return true;
  }
  return false;
}

}  // namespace

StatusOr<ExactStore> ExactStore::Create(linalg::MatrixF vectors) {
  if (vectors.rows() == 0 || vectors.cols() == 0) {
    return Status::InvalidArgument("ExactStore: empty vector table");
  }
  ExactStore store(std::move(vectors));
  std::unique_ptr<ThreadPool> build_pool;
  if (store.vectors_.rows() >= kParallelQuantizeRows) {
    build_pool = std::make_unique<ThreadPool>(ThreadPool::DefaultThreads());
  }
  store.quantized_ = linalg::QuantizeRows(store.vectors_, build_pool.get());
  return store;
}

void ExactStore::BindStorageToNode(size_t node) {
  numa::BindMemoryToNode(vectors_.mutable_data().data(),
                         vectors_.mutable_data().size() * sizeof(float), node);
  numa::BindMemoryToNode(quantized_.data.data(), quantized_.data.size(), node);
  for (std::vector<float>* per_row :
       {&quantized_.scales, &quantized_.l1, &quantized_.errs}) {
    numa::BindMemoryToNode(per_row->data(), per_row->size() * sizeof(float),
                           node);
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

  // All call-lifetime scratch comes from a leased arena: after the first
  // call at a given (queries, dim) shape the lease costs zero allocations
  // (tests/memory_audit_test.cc gates this). A *pooled* lease rather than
  // thread_local scratch because leases nest on this thread: waiting in
  // ScatterTopK, it runs this call's own queued shards (each leasing shard
  // scratch) while other shards still read `qdata` — see common/arena.h.
  ScratchPool::Lease call_scratch = GlobalScanScratch().Acquire();

  // The query batch is quantized once, into one contiguous block matching
  // the Int8KernelTable::score_block layout (each query in place into its
  // slot), and each query gets its certified bound (linalg/quantize.h).
  std::span<int8_t> qdata = call_scratch->Alloc<int8_t>(num_queries * dim);
  std::span<float> qscales = call_scratch->Alloc<float>(num_queries);
  std::span<linalg::QueryBound> bounds =
      call_scratch->Alloc<linalg::QueryBound>(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    int8_t* codes = qdata.data() + q * dim;
    qscales[q] = linalg::QuantizeVectorInto(queries[q], codes);
    bounds[q] = linalg::BoundQuery(queries[q], codes, qscales[q],
                                   quantized_.max_abs);
  }
  const linalg::Int8KernelTable& int8_kernels = linalg::ActiveInt8Kernels();
  const linalg::KernelTable& fp32_kernels = linalg::ActiveKernels();

  size_t num_shards = 1;
  if (pool != nullptr && pool->num_threads() > 1) {
    // A couple of shards per worker evens out stragglers; never fewer rows
    // per shard than one score block, nor than kRowsPerResult per kept
    // result: every shard rescores its own k best and their neighbours.
    num_shards = std::min({pool->num_threads() * 2,
                           std::max<size_t>(1, n / kRowBlock),
                           std::max<size_t>(1, n / kRowsPerResult / k)});
  }
  const size_t rows_per_shard = (n + num_shards - 1) / num_shards;

  // Each shard scans a disjoint row range into its own task-local heaps;
  // ScatterTopK merges them. A shard's top k is exact: a row is dropped
  // only when its upper bound is below the k-th best lower bound among
  // other rows of the shard, i.e. when k rows certainly beat it.
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
    std::span<float> exact_scores =
        shard_scratch->Alloc<float>(kRowBlock * num_queries);
    std::span<uint8_t> maybe = shard_scratch->Alloc<uint8_t>(kRowBlock);
    std::span<SeenSet::Run> runs =
        shard_scratch->Alloc<SeenSet::Run>(kRunChunk);
    // Per-query admission thresholds mirrored out of the fp32 heaps into
    // flat arrays, so a rescored row's reject is one compare.
    std::span<float> worst_score = shard_scratch->Alloc<float>(num_queries);
    std::span<uint32_t> worst_id = shard_scratch->Alloc<uint32_t>(num_queries);
    std::fill(worst_score.begin(), worst_score.end(),
              -std::numeric_limits<float>::infinity());
    std::fill(worst_id.begin(), worst_id.end(), 0u);
    // Per query, the best lower bounds seen so far (a min-heap of at most
    // `low_cap`), and the candidate threshold: the smallest of them once
    // low_cap are held, -inf until then.
    const size_t low_cap = std::max<size_t>(1, std::min(k, end - begin));
    std::span<float> lows = shard_scratch->Alloc<float>(low_cap * num_queries);
    std::span<size_t> low_count = shard_scratch->Alloc<size_t>(num_queries);
    std::span<float> threshold = shard_scratch->Alloc<float>(num_queries);
    std::fill(low_count.begin(), low_count.end(), size_t{0});
    std::fill(threshold.begin(), threshold.end(),
              -std::numeric_limits<float>::infinity());
    // Queued candidate rows (ascending) and their per-query upper bounds.
    const size_t queue_cap =
        std::max<size_t>(1, std::min(end - begin,
                                     std::max(kCandidateQueue,
                                              kCandidatesPerResult * low_cap *
                                                  num_queries)));
    std::span<uint32_t> cand_rows = shard_scratch->Alloc<uint32_t>(queue_cap);
    std::span<float> cand_uppers =
        shard_scratch->Alloc<float>(queue_cap * num_queries);
    size_t num_cand = 0;
    uint64_t rescored = 0;

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
    // Offers a lower bound above threshold[q] (never NaN) to query q's
    // min-heap of the best low_cap lower bounds.
    auto offer_lower = [&](size_t q, float lo) {
      float* heap = lows.data() + q * low_cap;
      size_t& count = low_count[q];
      if (count == low_cap) {
        std::pop_heap(heap, heap + count, std::greater<float>());
        --count;
      }
      heap[count++] = lo;
      std::push_heap(heap, heap + count, std::greater<float>());
      if (count == low_cap) threshold[q] = heap[0];
    };
    // Rescores rows [first, last) (at most kRowBlock) with the fp32 kernel
    // and feeds the heaps: the scores every lookup returns. The kernel
    // MatrixF::ScoreBlock dispatches to, minus its per-call argument
    // checks: the queries were checked once above.
    auto rescore = [&](uint32_t first, uint32_t last) {
      fp32_kernels.score_block(vectors_.Row(first).data(), last - first, dim,
                               queries.data(), num_queries,
                               exact_scores.data());
      for (uint32_t row = first; row < last; ++row) {
        const float* row_scores =
            exact_scores.data() + (row - first) * num_queries;
        for (size_t q = 0; q < num_queries; ++q) {
          admit(q, row, row_scores[q]);
        }
      }
      rescored += last - first;
    };
    auto still_candidate = [&](size_t i) {
      return AnyCandidate(cand_uppers.data() + i * num_queries,
                          threshold.data(), num_queries);
    };
    // Drops the queued rows the current thresholds rule out, keeping the
    // rest queued in order.
    auto compact = [&] {
      size_t kept = 0;
      for (size_t i = 0; i < num_cand; ++i) {
        if (!still_candidate(i)) continue;
        if (kept != i) {
          cand_rows[kept] = cand_rows[i];
          std::copy_n(cand_uppers.data() + i * num_queries, num_queries,
                      cand_uppers.data() + kept * num_queries);
        }
        ++kept;
      }
      num_cand = kept;
    };
    // Rescores the queued rows the current thresholds do not rule out,
    // consecutive rows as one block, and empties the queue.
    auto flush = [&] {
      compact();
      for (size_t i = 0; i < num_cand;) {
        const uint32_t first = cand_rows[i];
        uint32_t last = first + 1;
        for (++i; i < num_cand && cand_rows[i] == last &&
                  last - first < kRowBlock;
             ++i) {
          ++last;
        }
        rescore(first, last);
      }
      num_cand = 0;
    };
    // Scores rows [r, run_end) in int8 against every query and queues the
    // rows whose upper bound reaches a threshold.
    auto score_run = [&](size_t r, size_t run_end) {
      const size_t rows = run_end - r;
      int8_kernels.score_block(quantized_.Row(r),
                               quantized_.scales.data() + r, rows, dim,
                               qdata.data(), qscales.data(), num_queries,
                               scores.data());
      // Rows that might reach a threshold, a query at a time so the row
      // loop vectorizes. Each upper here is a certified bound and the
      // thresholds only rise, so a row this test drops can never reach
      // the top k.
      const float* l1 = quantized_.l1.data() + r;
      const float* err = quantized_.errs.data() + r;
      std::fill_n(maybe.data(), rows, uint8_t{0});
      for (size_t q = 0; q < num_queries; ++q) {
        const linalg::QueryBound bound = bounds[q];
        const float t = threshold[q];
        for (size_t i = 0; i < rows; ++i) {
          const float upper =
              scores[i * num_queries + q] + bound.Slack(l1[i], err[i]);
          maybe[i] |= !(upper < t);
        }
      }
      for (size_t row = r; row < run_end; ++row) {
        if (maybe[row - r] == 0) continue;
        const float* row_scores = scores.data() + (row - r) * num_queries;
        const float l1 = quantized_.l1[row];
        const float err = quantized_.errs[row];
        // Upper bounds go straight into the next queue slot; the slot is
        // only claimed if the row is queued.
        float* uppers = cand_uppers.data() + num_cand * num_queries;
        for (size_t q = 0; q < num_queries; ++q) {
          uppers[q] = row_scores[q] + bounds[q].Slack(l1, err);
        }
        if (!AnyCandidate(uppers, threshold.data(), num_queries)) continue;
        for (size_t q = 0; q < num_queries; ++q) {
          const float lo = row_scores[q] - bounds[q].Slack(l1, err);
          if (lo > threshold[q]) offer_lower(q, lo);
        }
        cand_rows[num_cand++] = static_cast<uint32_t>(row);
        if (num_cand == queue_cap) {
          compact();
          if (2 * num_cand > queue_cap) flush();
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
    flush();
    if (control.rescored != nullptr) {
      control.rescored->fetch_add(rescored, std::memory_order_relaxed);
    }
    std::vector<std::vector<SearchResult>> hits(num_queries);
    for (size_t q = 0; q < num_queries; ++q) hits[q] = heaps[q].Take();
    return hits;
  };
  return ScatterTopK(num_shards, num_queries, k, pool, /*part_nodes=*/{},
                     scan_shard);
}

}  // namespace seesaw::store
