// VectorStore: maximum-inner-product lookup over a table of unit vectors.
//
// This is the "indexed vector store" of the paper's §2.2 (Annoy in their
// implementation). Lookups may be approximate: SeeSaw tolerates results that
// are among the top scores rather than exactly the top (the embedding itself
// carries more error than the index).
//
// Exclusions are expressed as a SeenSet bitset (O(1) branch-predictable test
// in the innermost scan loop). Every backend implements exactly one lookup,
// TopKBatch; a single query (TopK) is a batch of one. Batched lookups may
// shard the work across a ThreadPool and return the same results however
// they are sharded: all backends select with the same total order (score
// descending, id ascending on ties), so the top-k of any candidate set is
// unique, and every fan-out over row ranges or child stores merges through
// the one ScatterTopK below.
#ifndef SEESAW_STORE_VECTOR_STORE_H_
#define SEESAW_STORE_VECTOR_STORE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/cancellation.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "linalg/matrix.h"
#include "linalg/vector_ops.h"
#include "store/seen_set.h"

namespace seesaw {
class ThreadPool;
}  // namespace seesaw

namespace seesaw::store {

/// Thread-safe sink for typed scan failures. The VectorStore lookup
/// signatures return results, not Status — a deliberate choice for the
/// in-process backends, where a scan cannot fail. Remote-backed stores CAN
/// fail (dead peer, deadline, retries exhausted), and "a dead shard
/// surfaces as a typed Status, never a silent partial" needs a channel out
/// of the scan. Callers that talk to remote shards hang a collector on
/// ScanControl::errors; any shard that fails reports here, and the caller
/// MUST treat the merged results as invalid when !ok() (exactly the
/// cancelled-scan discard contract). May be reported to concurrently from
/// every shard worker; the first error is kept (later ones only bump the
/// count), since one dead shard already invalidates the merge.
class ScanErrorCollector {
 public:
  /// Records a failed shard scan. `status` must be non-OK.
  void Report(Status status) {
    MutexLock lock(mu_);
    if (first_.ok()) first_ = std::move(status);
    ++count_;
  }

  /// True when no scan error has been reported (merged results are valid).
  bool ok() const {
    MutexLock lock(mu_);
    return first_.ok();
  }

  /// The first reported error (OK when none).
  Status first() const {
    MutexLock lock(mu_);
    return first_;
  }

  /// Number of failed shard scans reported.
  size_t count() const {
    MutexLock lock(mu_);
    return count_;
  }

 private:
  mutable Mutex mu_;
  Status first_ SEESAW_GUARDED_BY(mu_);
  size_t count_ SEESAW_GUARDED_BY(mu_) = 0;
};

/// In-scan control for every lookup (TopK is a batch of one, so there is
/// one scan path to thread it through): cooperative cancellation, a
/// test-only checkpoint hook, and the typed-failure channel.
///
/// Backends poll ShouldStop() at natural scan checkpoints — per row block
/// for the exact scan, per probed inverted list for IVF, per child shard
/// for ShardedStore, per query for Annoy — so a cancelled speculative
/// lookup stops mid-TopKBatch instead of running the scan to completion.
/// A cancelled call returns early with whatever it has accumulated: the
/// result is safe to destroy but carries no completeness guarantee, so
/// callers that observe `cancel->cancelled()` must discard it (exactly what
/// the speculative-prefetch consume path does).
struct ScanControl {
  /// Cancellation flag polled at every checkpoint; null = not cancellable.
  const CancellationToken* cancel = nullptr;

  /// Test-only hook invoked at every checkpoint *before* the token is
  /// tested. Lets a test block a scan mid-flight deterministically (hook
  /// parks on a semaphore, the test cancels, the hook returns, the scan
  /// observes the cancel). May be invoked concurrently from every worker
  /// scanning a shard, so the hook must be thread-safe. Empty in
  /// production: one branch per checkpoint.
  std::function<void()> checkpoint;

  /// Typed-failure channel for stores whose scans can actually fail
  /// (remote shards). Null for in-process scans — they cannot fail. When
  /// set, a failing store reports its Status here AND returns empty
  /// results; the caller must check errors->ok() before trusting a merge.
  ScanErrorCollector* errors = nullptr;

  /// Rows the certified exact scan rescored in fp32 (the rows its int8
  /// bound could not rule out), added once per scanned part. Null = not
  /// counted. Lets tests and benches see that the int8 filter does its job:
  /// a bound that degraded to "rescore everything" would still return
  /// exact results, only slowly.
  std::atomic<uint64_t>* rescored = nullptr;

  /// Checkpoint: runs the hook (if any) and reports whether the scan should
  /// stop here.
  bool ShouldStop() const {
    if (checkpoint) checkpoint();
    return cancel != nullptr && cancel->cancelled();
  }
};

/// One scored hit.
struct SearchResult {
  uint32_t id = 0;
  float score = 0.0f;
};

/// The canonical result order: higher score first, lower id breaking ties,
/// and NaN scores below every number (NaNs among themselves by id), so the
/// order is total even on tables with non-finite values. Every backend
/// selects and sorts with this order, which makes the exact top-k of any
/// candidate set unique — the property the sharding-independent and
/// remote-vs-local parity guarantees rest on.
inline bool BetterResult(const SearchResult& a, const SearchResult& b) {
  if (a.score > b.score) return true;
  if (a.score < b.score) return false;
  const bool a_nan = a.score != a.score;
  const bool b_nan = b.score != b.score;
  if (a_nan != b_nan) return b_nan;
  return a.id < b.id;
}

/// Bounded accumulator of the k best results under BetterResult. A binary
/// heap whose root is the weakest kept hit; Push is O(log k) only when the
/// candidate actually displaces something.
class TopKHeap {
 public:
  explicit TopKHeap(size_t k) : k_(k) { heap_.reserve(k); }

  void Push(uint32_t id, float score) {
    if (k_ == 0) return;
    SearchResult candidate{id, score};
    if (heap_.size() < k_) {
      heap_.push_back(candidate);
      std::push_heap(heap_.begin(), heap_.end(), BetterResult);
      return;
    }
    if (BetterResult(candidate, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), BetterResult);
      heap_.back() = candidate;
      std::push_heap(heap_.begin(), heap_.end(), BetterResult);
    }
  }

  /// Extracts the kept hits in unspecified order (for ScatterTopK, whose
  /// merge sorts them); the heap is left empty.
  std::vector<SearchResult> Take() { return std::move(heap_); }

  /// Whether k hits are held (a candidate must now beat Worst() to enter).
  bool Full() const { return heap_.size() >= k_; }

  /// The weakest kept hit; only valid when not empty. Callers on the hot
  /// path cache this to reject candidates with one flat compare.
  const SearchResult& Worst() const { return heap_.front(); }

  /// Extracts the kept hits best-first; the heap is left empty.
  std::vector<SearchResult> TakeSorted() {
    std::sort(heap_.begin(), heap_.end(), BetterResult);
    return std::move(heap_);
  }

 private:
  size_t k_;
  std::vector<SearchResult> heap_;
};

/// One part's scan for ScatterTopK: per-query hits with global ids (at
/// most k, any order), or an empty outer vector if the part stopped early
/// or failed.
using PartScan =
    std::function<std::vector<std::vector<SearchResult>>(size_t part)>;

/// The one scatter/merge of the store layer (ExactStore's row ranges,
/// ShardedStore's children): runs every part, then keeps the best k hits
/// per query under BetterResult. Parts run inline with one part or no
/// usable pool, and otherwise as one pool task each, hinted at node
/// part_nodes[p] when part_nodes is non-empty (a pool without numa_affinity
/// ignores the hint). The caller runs its parts that are still queued and
/// parks only on parts a worker is scanning. The global top-k is unique, so
/// merging exact per-part top-ks reproduces a single scan bit for bit. A
/// part whose outer vector is not num_queries long contributes nothing.
/// Always returns num_queries lists, best first.
std::vector<std::vector<SearchResult>> ScatterTopK(
    size_t num_parts, size_t num_queries, size_t k, ThreadPool* pool,
    std::span<const size_t> part_nodes, const PartScan& scan_part);

/// Interface for max-inner-product stores.
///
/// Contract for implementers: a backend implements TopKBatch — the one scan
/// path — and must take (and poll) the ScanControl there; it is the only
/// seam through which a cancelled speculation can stop a scan mid-flight.
/// scripts/check_invariants.py enforces this shape on every override in
/// src/, and forbids TopK overrides outright, so a second scan path cannot
/// creep back in. Stores are immutable after Create and safe for concurrent
/// scans; any internal scratch must be per-call.
class VectorStore {
 public:
  virtual ~VectorStore() = default;

  /// Number of vectors.
  virtual size_t size() const = 0;

  /// Vector dimensionality.
  virtual size_t dim() const = 0;

  /// Multi-query lookup: out[i] holds up to k results with the largest
  /// inner product against queries[i], best first (see BetterResult),
  /// skipping ids marked in `seen`. Fewer than k results are returned only
  /// when the store (after exclusions) is smaller than k or the index
  /// exhausts its candidates. When `pool` is non-null, implementations may
  /// shard the work across it; all sessions of a service share one pool, so
  /// they must only wait on their own pool tasks (ScatterTopK, ParallelFor
  /// and TaskHandle are safe under concurrent callers).
  /// `control` threads cooperative cancellation into the scan itself: every
  /// backend polls control.ShouldStop() at its checkpoints and returns early
  /// (with unspecified partial results, possibly an empty outer vector) once
  /// cancellation is observed.
  virtual std::vector<std::vector<SearchResult>> TopKBatch(
      std::span<const linalg::VecSpan> queries, size_t k, const SeenSet& seen,
      ThreadPool* pool, const ScanControl& control) const = 0;

  /// Convenience overloads: no control / no pool / no exclusions.
  std::vector<std::vector<SearchResult>> TopKBatch(
      std::span<const linalg::VecSpan> queries, size_t k, const SeenSet& seen,
      ThreadPool* pool) const {
    return TopKBatch(queries, k, seen, pool, ScanControl{});
  }
  std::vector<std::vector<SearchResult>> TopKBatch(
      std::span<const linalg::VecSpan> queries, size_t k,
      const SeenSet& seen) const {
    return TopKBatch(queries, k, seen, nullptr, ScanControl{});
  }
  std::vector<std::vector<SearchResult>> TopKBatch(
      std::span<const linalg::VecSpan> queries, size_t k) const {
    return TopKBatch(queries, k, EmptySeenSet(), nullptr, ScanControl{});
  }

  /// Single-query lookup: a batch of one through TopKBatch with no pool.
  /// A scan that returns no per-query list (a cancelled or failed remote
  /// scan) yields {}. Virtual only so that decorators (e.g. timing
  /// wrappers) can intercept it; backends never override it.
  virtual std::vector<SearchResult> TopK(linalg::VecSpan query, size_t k,
                                         const SeenSet& seen,
                                         const ScanControl& control) const {
    const linalg::VecSpan queries[] = {query};
    std::vector<std::vector<SearchResult>> out =
        TopKBatch(queries, k, seen, nullptr, control);
    if (out.empty()) return {};
    return std::move(out.front());
  }

  /// Convenience overloads: no control / no exclusions.
  std::vector<SearchResult> TopK(linalg::VecSpan query, size_t k,
                                 const SeenSet& seen) const {
    return TopK(query, k, seen, ScanControl{});
  }
  std::vector<SearchResult> TopK(linalg::VecSpan query, size_t k) const {
    return TopK(query, k, EmptySeenSet(), ScanControl{});
  }

  /// Read access to vector `id`.
  virtual linalg::VecSpan GetVector(uint32_t id) const = 0;
};

/// Fraction of distinct `truth` ids present in `got` (recall@k for index
/// quality checks; both inputs are TopK outputs over the same query).
/// Duplicate ids in either list count once: an id repeated in `truth` is one
/// item to recall, and repeats in `got` cannot recall it twice.
double RecallAgainst(const std::vector<SearchResult>& got,
                     const std::vector<SearchResult>& truth);

}  // namespace seesaw::store

#endif  // SEESAW_STORE_VECTOR_STORE_H_
