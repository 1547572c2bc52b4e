// ShardedStore: partitions the vector table itself across N child
// VectorStores and serves TopKBatch by scatter-gather over the shards.
//
// The store is only about placement and children: which rows each child
// owns, which NUMA node holds them, and how a global id maps to a child.
// Children are ExactStores, anything a ChildFactory builds, or
// RemoteStores (CreateFromChildren); the fan-out and merge are ScatterTopK
// (store/vector_store.h).
//
// Correctness contract: results are bitwise identical to a single ExactStore
// over the whole table, for every shard count. Three properties make that
// hold:
//   1. Row-range partitioning copies rows verbatim, so a child's Dot /
//      ScoreBlock over local row i computes exactly the global kernel over
//      global row (begin + i) — same bits, same scores.
//   2. Each child returns its exact local top-k under the canonical
//      (score desc, id asc) order; the global top-k is a subset of the
//      union of local top-ks.
//   3. The merge re-sorts the union under the same total order. Scores tie
//      bitwise across shards exactly when they tie in a single store, and
//      global ids are unique, so the selection is the same unique set in
//      the same order.
//
// Exclusions: the session keeps ONE global SeenSet; each lookup slices the
// per-shard view out of it (SeenSet::Slice — a word-shift copy, O(rows/64),
// negligible next to the O(rows * dim) scan it guards).
//
// Cancellation: the ScanControl token is propagated to every child, and the
// store additionally checkpoints before dispatching each shard — a
// cancelled speculative lookup stops mid-scan inside whichever child block
// is running and skips the shards not yet started.
#ifndef SEESAW_STORE_SHARDED_STORE_H_
#define SEESAW_STORE_SHARDED_STORE_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "store/vector_store.h"

namespace seesaw::store {

/// Build knobs for ShardedStore.
struct ShardedOptions {
  /// Number of child stores the table is partitioned into. Clamped to the
  /// row count (a shard always owns at least one row).
  size_t num_shards = 1;

  /// Floor on rows per shard: the effective shard count is additionally
  /// clamped so every shard owns at least this many rows. Small tables fall
  /// back to fewer shards automatically — below a few thousand rows the
  /// per-shard fixed costs (heap setup, slice, merge) outweigh the scan
  /// split, and the sharded store would run *slower* than a single exact
  /// scan. 1 (the default) preserves the historical clamp-to-row-count
  /// behavior; benchmarks use 4096.
  size_t min_rows_per_shard = 1;

  /// NUMA placement: assign shard s to node s % numa::NodeCount(), bind its
  /// table pages there (partition buffer before the factory runs; for
  /// ExactStore children also the quantized copy after), and hint its scan
  /// tasks at workers pinned to that node when the pool has numa_affinity.
  /// Placement is an optimization, never semantics: results stay bitwise
  /// identical to the unplaced store (the hint only moves *where* a shard
  /// task runs), and on single-node or non-Linux hosts the whole feature
  /// degrades to a no-op — so this knob is always safe to enable.
  bool numa_placement = false;
};

/// Row-range-partitioned store over N child VectorStores.
class ShardedStore : public VectorStore {
 public:
  /// Builds one child store from its partition of the table (rows are
  /// copied verbatim, ids are partition-local; a one-partition store hands
  /// the factory the input matrix itself).
  using ChildFactory =
      std::function<StatusOr<std::unique_ptr<VectorStore>>(linalg::MatrixF)>;

  /// Partitions `vectors` into options.num_shards contiguous row ranges of
  /// near-equal size (the first rows%shards ranges hold one extra row) and
  /// builds an ExactStore child per range.
  static StatusOr<ShardedStore> Create(linalg::MatrixF vectors,
                                       const ShardedOptions& options);

  /// Same partitioning, children built by `factory` (e.g. per-shard IVF).
  static StatusOr<ShardedStore> Create(linalg::MatrixF vectors,
                                       const ShardedOptions& options,
                                       const ChildFactory& factory);

  /// The row range [first, first+count) shard `s` of `num_shards` owns over
  /// an `n`-row table — the exact partition arithmetic Create uses (base =
  /// n/num_shards rows each, the first n%num_shards shards one extra).
  /// Exposed so out-of-process children (a shard server slicing its table
  /// rows, tools building per-shard tables) partition identically to an
  /// in-process build; the bitwise remote-vs-local parity contract starts
  /// here.
  static std::pair<size_t, size_t> PartitionRange(size_t n, size_t num_shards,
                                                  size_t s);

  /// Assembles a sharded store from already-built children (e.g.
  /// RemoteStores connected to shard servers). Children are taken in shard
  /// order: child c serves global rows [sum(sizes 0..c-1), +size(c)), so
  /// callers must list them in the same order PartitionRange numbers
  /// shards. All children must share a dimensionality and be non-empty,
  /// and together hold at most 2^32-1 rows (ids are u32); otherwise
  /// InvalidArgument. No NUMA placement (children own their memory).
  static StatusOr<ShardedStore> CreateFromChildren(
      std::vector<std::unique_ptr<VectorStore>> children);

  size_t size() const override { return begin_.back(); }
  size_t dim() const override { return dim_; }

  /// Batched lookup: one ScatterTopK part per shard (serially without a
  /// usable pool; each child may shard its own scan on the same pool —
  /// nested fan-out is safe), slicing the global seen set per shard and
  /// offsetting each child's hits to global ids. Exactly equal to a single
  /// ExactStore's TopKBatch. `control` is propagated to every child and
  /// checkpointed per shard.
  std::vector<std::vector<SearchResult>> TopKBatch(
      std::span<const linalg::VecSpan> queries, size_t k, const SeenSet& seen,
      ThreadPool* pool, const ScanControl& control) const override;
  using VectorStore::TopKBatch;

  linalg::VecSpan GetVector(uint32_t id) const override;

  size_t num_shards() const { return shards_.size(); }
  const VectorStore& shard(size_t s) const { return *shards_[s]; }

  /// First global row id owned by shard `s` (shard_begin(num_shards()) ==
  /// size()); shard s owns [shard_begin(s), shard_begin(s+1)).
  uint32_t shard_begin(size_t s) const { return begin_[s]; }

  /// The NUMA node shard `s` was assigned (and its scans are hinted at).
  /// Always 0 when built without numa_placement or on a single-node host.
  size_t shard_node(size_t s) const { return shard_nodes_[s]; }

  /// Whether placement engaged at Create (numa_placement requested AND the
  /// host is multi-node). False means the store is byte-for-byte the
  /// unplaced one.
  bool numa_placed() const { return numa_placed_; }

  /// Global id -> (shard index, shard-local id).
  std::pair<size_t, uint32_t> Locate(uint32_t global_id) const;

 private:
  ShardedStore(std::vector<std::unique_ptr<VectorStore>> shards,
               std::vector<uint32_t> begin, size_t dim)
      : shards_(std::move(shards)),
        begin_(std::move(begin)),
        dim_(dim),
        shard_nodes_(shards_.size(), 0) {}

  std::vector<std::unique_ptr<VectorStore>> shards_;
  std::vector<uint32_t> begin_;  // size num_shards()+1, begin_[0] == 0
  size_t dim_ = 0;
  std::vector<size_t> shard_nodes_;  // size num_shards(), all 0 if unplaced
  bool numa_placed_ = false;
};

}  // namespace seesaw::store

#endif  // SEESAW_STORE_SHARDED_STORE_H_
