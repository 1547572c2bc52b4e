#include "store/sharded_store.h"

#include <algorithm>

#include "common/check.h"
#include "common/numa.h"
#include "common/thread_pool.h"
#include "store/exact_store.h"

namespace seesaw::store {

StatusOr<ShardedStore> ShardedStore::Create(linalg::MatrixF vectors,
                                            const ShardedOptions& options) {
  ExactStoreOptions child_options;
  child_options.precision = options.precision;
  return Create(std::move(vectors), options,
                [child_options](linalg::MatrixF part)
                    -> StatusOr<std::unique_ptr<VectorStore>> {
                  SEESAW_ASSIGN_OR_RETURN(
                      ExactStore child,
                      ExactStore::Create(std::move(part), child_options));
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
  // Near-equal contiguous ranges; clamping keeps every shard non-empty and
  // at least min_rows_per_shard rows wide (small tables automatically fall
  // back to fewer shards — see ShardedOptions).
  const size_t floor_rows = std::max<size_t>(1, options.min_rows_per_shard);
  const size_t max_shards = std::max<size_t>(1, n / floor_rows);
  const size_t num_shards = std::min({options.num_shards, n, max_shards});
  const size_t base = n / num_shards;
  const size_t extra = n % num_shards;

  // Placement engages only where it can matter; everywhere else the store
  // is constructed exactly as before (numa_placed() false, nodes all 0) —
  // that degenerate path IS the documented non-NUMA fallback, not a
  // separate code path, which is what keeps it bitwise-trivially correct.
  const bool place = options.numa_placement && numa::Available();

  std::vector<std::unique_ptr<VectorStore>> shards;
  std::vector<uint32_t> begin(num_shards + 1, 0);
  std::vector<size_t> shard_nodes(num_shards, 0);
  size_t row = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t rows = base + (s < extra ? 1 : 0);
    linalg::MatrixF part(rows, d);
    for (size_t r = 0; r < rows; ++r) {
      auto src = vectors.Row(row + r);
      std::copy(src.begin(), src.end(), part.MutableRow(r).begin());
    }
    const size_t node = place ? numa::NodeForShard(s) : 0;
    shard_nodes[s] = node;
    if (place) {
      // Bind the partition buffer *before* the factory runs: the rows were
      // just written by this (arbitrary-node) thread, so first-touch put
      // them wherever Create runs — MPOL_MF_MOVE migrates them to the
      // shard's node. Children that take ownership by moving the matrix
      // keep this binding for free (vector moves preserve the heap block).
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
      // Buffers the child built itself (the int8 quantized copy) came from
      // the factory's thread, not the bound partition — rebind them. Only
      // ExactStore children are known here; custom factories that allocate
      // their own side tables handle placement themselves.
      if (auto* exact = dynamic_cast<ExactStore*>(child.get())) {
        exact->BindStorageToNode(node);
      }
    }
    shards.push_back(std::move(child));
    row += rows;
    begin[s + 1] = static_cast<uint32_t>(row);
  }
  return ShardedStore(std::move(shards), std::move(begin), d,
                      std::move(shard_nodes), place);
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
  for (size_t s = 0; s < children.size(); ++s) {
    if (children[s] == nullptr || children[s]->size() == 0) {
      return Status::InvalidArgument("ShardedStore: empty child store");
    }
    if (children[s]->dim() != d) {
      return Status::InvalidArgument(
          "ShardedStore: children disagree on dimensionality");
    }
    begin[s + 1] =
        begin[s] + static_cast<uint32_t>(children[s]->size());
  }
  std::vector<size_t> shard_nodes(children.size(), 0);
  return ShardedStore(std::move(children), std::move(begin), d,
                      std::move(shard_nodes), /*numa_placed=*/false);
}

void ShardedStore::DispatchShards(
    ThreadPool* pool, const std::function<void(size_t)>& scan_shard) const {
  const size_t num_shards = shards_.size();
  if (pool == nullptr || pool->num_threads() <= 1 || num_shards <= 1) {
    for (size_t s = 0; s < num_shards; ++s) scan_shard(s);
    return;
  }
  if (numa_placed_ && pool->numa_affinity()) {
    // One hinted task per shard, so shard s runs (preferentially) on a
    // worker pinned to the node holding shard s's pages. Waiting handle by
    // handle keeps the ParallelFor contract: this thread helps drain the
    // queue while it waits, so nested fan-out cannot deadlock, and all
    // shards are complete when we return.
    std::vector<TaskHandle> handles;
    handles.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      handles.push_back(
          pool->SubmitWithResult([&scan_shard, s] { scan_shard(s); },
                                 shard_nodes_[s]));
    }
    for (TaskHandle& handle : handles) handle.Wait();
    return;
  }
  pool->ParallelFor(num_shards, [&](size_t b, size_t e) {
    for (size_t s = b; s < e; ++s) scan_shard(s);
  });
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

  const size_t num_shards = shards_.size();
  // per_shard[s][q]: local hits remapped to global ids. A shard skipped by
  // cancellation leaves its slot empty (size() != num_queries). Merge state
  // is per-call and lock-free by partitioning: worker s writes only slot s
  // (disjoint slots of a pre-sized vector), and the merge reads them only
  // after the dispatch latch — whose completion is mutex-published — so
  // there is no concurrent access to annotate.
  std::vector<std::vector<std::vector<SearchResult>>> per_shard(num_shards);
  auto scan_shard = [&](size_t s) {
    // Checkpoint before the dispatch so shards not yet started are skipped
    // outright once the token trips; the child checkpoints per block/list.
    if (control.ShouldStop()) return;
    SeenSet local = seen.Slice(begin_[s], begin_[s + 1]);
    per_shard[s] = shards_[s]->TopKBatch(queries, k, local, pool, control);
    const uint32_t offset = begin_[s];
    for (auto& hits : per_shard[s]) {
      for (SearchResult& hit : hits) hit.id += offset;
    }
  };
  DispatchShards(pool, scan_shard);

  std::vector<std::vector<SearchResult>> out(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    std::vector<SearchResult> merged;
    for (size_t s = 0; s < num_shards; ++s) {
      if (per_shard[s].size() != num_queries) continue;  // cancelled shard
      const auto& hits = per_shard[s][q];
      merged.insert(merged.end(), hits.begin(), hits.end());
    }
    out[q] = MergeTopK(std::move(merged), k);
  }
  return out;
}

}  // namespace seesaw::store
