#include "store/sharded_store.h"

#include <algorithm>

#include "common/check.h"
#include "common/numa.h"
#include "common/thread_pool.h"
#include "store/exact_store.h"

namespace seesaw::store {

StatusOr<ShardedStore> ShardedStore::Create(linalg::MatrixF vectors,
                                            const ShardedOptions& options) {
  return Create(std::move(vectors), options,
                [](linalg::MatrixF part)
                    -> StatusOr<std::unique_ptr<VectorStore>> {
                  SEESAW_ASSIGN_OR_RETURN(ExactStore child,
                                          ExactStore::Create(std::move(part)));
                  return std::unique_ptr<VectorStore>(
                      std::make_unique<ExactStore>(std::move(child)));
                });
}

StatusOr<ShardedStore> ShardedStore::Create(linalg::MatrixF vectors,
                                            const ShardedOptions& options,
                                            const ChildFactory& factory) {
  if (vectors.rows() == 0 || vectors.cols() == 0) {
    return Status::InvalidArgument("ShardedStore: empty vector table");
  }
  if (options.num_shards == 0) {
    return Status::InvalidArgument("ShardedStore: num_shards must be >= 1");
  }
  const size_t n = vectors.rows();
  const size_t d = vectors.cols();
  // Near-equal contiguous ranges (PartitionRange); clamping keeps every
  // shard non-empty and at least min_rows_per_shard rows wide (small tables
  // automatically fall back to fewer shards — see ShardedOptions).
  const size_t floor_rows = std::max<size_t>(1, options.min_rows_per_shard);
  const size_t max_shards = std::max<size_t>(1, n / floor_rows);
  const size_t num_shards = std::min({options.num_shards, n, max_shards});

  // Placement engages only where it can matter; everywhere else the store
  // is constructed exactly as before (numa_placed() false, nodes all 0) —
  // that degenerate path IS the documented non-NUMA fallback, not a
  // separate code path, which is what keeps it bitwise-trivially correct.
  const bool place = options.numa_placement && numa::Available();

  std::vector<std::unique_ptr<VectorStore>> shards;
  std::vector<size_t> shard_nodes(num_shards, 0);
  for (size_t s = 0; s < num_shards; ++s) {
    const auto [first, rows] = PartitionRange(n, num_shards, s);
    // One partition is the whole table: hand the input over instead of
    // holding a second table-sized copy beside it while the child builds.
    linalg::MatrixF part;
    if (num_shards == 1) {
      part = std::move(vectors);
    } else {
      part = linalg::MatrixF(rows, d);
      std::copy_n(vectors.Row(first).data(), rows * d,
                  part.mutable_data().data());
    }
    const size_t node = place ? numa::NodeForShard(s) : 0;
    shard_nodes[s] = node;
    if (place) {
      // Bind the partition buffer *before* the factory runs: the rows were
      // written by some (arbitrary-node) thread, so first-touch put them
      // wherever that ran — MPOL_MF_MOVE migrates them to the shard's
      // node. Children that take ownership by moving the matrix keep this
      // binding for free (vector moves preserve the heap block).
      numa::BindMemoryToNode(part.mutable_data().data(),
                             part.mutable_data().size() * sizeof(float),
                             node);
    }
    SEESAW_ASSIGN_OR_RETURN(std::unique_ptr<VectorStore> child,
                            factory(std::move(part)));
    if (child == nullptr || child->size() != rows || child->dim() != d) {
      return Status::InvalidArgument(
          "ShardedStore: child factory returned a store of the wrong shape");
    }
    if (place) {
      // Buffers the child built itself (the quantized copy) came from
      // the factory's thread, not the bound partition — rebind them. Only
      // ExactStore children are known here; custom factories that allocate
      // their own side tables handle placement themselves.
      if (auto* exact = dynamic_cast<ExactStore*>(child.get())) {
        exact->BindStorageToNode(node);
      }
    }
    shards.push_back(std::move(child));
  }
  SEESAW_ASSIGN_OR_RETURN(ShardedStore store,
                          CreateFromChildren(std::move(shards)));
  store.shard_nodes_ = std::move(shard_nodes);
  store.numa_placed_ = place;
  return store;
}

std::pair<size_t, size_t> ShardedStore::PartitionRange(size_t n,
                                                       size_t num_shards,
                                                       size_t s) {
  SEESAW_CHECK_GT(num_shards, size_t{0});
  SEESAW_CHECK_LT(s, num_shards);
  const size_t base = n / num_shards;
  const size_t extra = n % num_shards;
  const size_t first = s * base + std::min(s, extra);
  const size_t count = base + (s < extra ? 1 : 0);
  return {first, count};
}

StatusOr<ShardedStore> ShardedStore::CreateFromChildren(
    std::vector<std::unique_ptr<VectorStore>> children) {
  if (children.empty()) {
    return Status::InvalidArgument("ShardedStore: no children");
  }
  const size_t d = children[0]->dim();
  std::vector<uint32_t> begin(children.size() + 1, 0);
  uint64_t total = 0;
  for (size_t s = 0; s < children.size(); ++s) {
    if (children[s] == nullptr || children[s]->size() == 0) {
      return Status::InvalidArgument("ShardedStore: empty child store");
    }
    if (children[s]->dim() != d) {
      return Status::InvalidArgument(
          "ShardedStore: children disagree on dimensionality");
    }
    // Global ids are u32 (SearchResult::id, the wire): a table past that
    // would wrap ids and merge hits from one shard under another's rows.
    total += children[s]->size();
    if (total > UINT32_MAX) {
      return Status::InvalidArgument(
          "ShardedStore: children hold more than 2^32-1 rows in total");
    }
    begin[s + 1] = static_cast<uint32_t>(total);
  }
  return ShardedStore(std::move(children), std::move(begin), d);
}

std::pair<size_t, uint32_t> ShardedStore::Locate(uint32_t global_id) const {
  SEESAW_CHECK_LT(global_id, begin_.back());
  // First partition start past the id, minus one, owns it.
  size_t s = static_cast<size_t>(
      std::upper_bound(begin_.begin(), begin_.end(), global_id) -
      begin_.begin() - 1);
  return {s, global_id - begin_[s]};
}

linalg::VecSpan ShardedStore::GetVector(uint32_t id) const {
  auto [s, local] = Locate(id);
  return shards_[s]->GetVector(local);
}

std::vector<std::vector<SearchResult>> ShardedStore::TopKBatch(
    std::span<const linalg::VecSpan> queries, size_t k, const SeenSet& seen,
    ThreadPool* pool, const ScanControl& control) const {
  const size_t num_queries = queries.size();
  if (num_queries == 0) return {};
  for (linalg::VecSpan q : queries) SEESAW_CHECK_EQ(q.size(), dim_);
  if (k == 0) return std::vector<std::vector<SearchResult>>(num_queries);

  // Placed shards hint each scan at a worker on the node holding the
  // shard's pages; unplaced ones take the plain ParallelFor dispatch.
  std::span<const size_t> nodes;
  if (numa_placed_) nodes = shard_nodes_;
  return ScatterTopK(
      shards_.size(), num_queries, k, pool, nodes,
      [&](size_t s) -> std::vector<std::vector<SearchResult>> {
        // Checkpoint before the child scan so shards not yet started are
        // skipped outright once the token trips; the child checkpoints per
        // block/list.
        if (control.ShouldStop()) return {};
        SeenSet local = seen.Slice(begin_[s], begin_[s + 1]);
        std::vector<std::vector<SearchResult>> hits =
            shards_[s]->TopKBatch(queries, k, local, pool, control);
        for (auto& list : hits) {
          for (SearchResult& hit : list) hit.id += begin_[s];
        }
        return hits;
      });
}

}  // namespace seesaw::store
