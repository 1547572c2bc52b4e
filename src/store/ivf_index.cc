#include "store/ivf_index.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/thread_pool.h"

namespace seesaw::store {

StatusOr<IvfFlatIndex> IvfFlatIndex::Build(const IvfOptions& options,
                                           linalg::MatrixF vectors) {
  if (vectors.rows() == 0 || vectors.cols() == 0) {
    return Status::InvalidArgument("IvfFlatIndex: empty vector table");
  }
  IvfFlatIndex index(options, std::move(vectors));
  const size_t n = index.vectors_.rows();

  size_t num_lists = options.num_lists != 0
                         ? options.num_lists
                         : std::max<size_t>(
                               1, static_cast<size_t>(std::sqrt(
                                      static_cast<double>(n))));
  num_lists = std::min(num_lists, n);

  linalg::KMeansOptions km;
  km.num_clusters = num_lists;
  km.max_iters = options.train_iters;
  km.seed = options.seed;
  SEESAW_ASSIGN_OR_RETURN(linalg::KMeansResult clustering,
                          linalg::KMeans(index.vectors_, km));
  index.centroids_ = std::move(clustering.centroids);
  index.lists_.assign(index.centroids_.rows(), {});
  for (size_t i = 0; i < n; ++i) {
    index.lists_[clustering.assignment[i]].push_back(
        static_cast<uint32_t>(i));
  }
  return index;
}

size_t IvfFlatIndex::ProbeCount() const {
  return std::min(std::max<size_t>(options_.nprobe, 1), lists_.size());
}

std::vector<uint32_t> IvfFlatIndex::RankCells(
    linalg::VecSpan centroid_scores) const {
  SEESAW_CHECK_EQ(centroid_scores.size(), lists_.size());
  std::vector<uint32_t> cells(lists_.size());
  std::iota(cells.begin(), cells.end(), 0u);
  size_t probe = ProbeCount();
  std::partial_sort(cells.begin(), cells.begin() + probe, cells.end(),
                    [centroid_scores](uint32_t a, uint32_t b) {
                      if (centroid_scores[a] != centroid_scores[b]) {
                        return centroid_scores[a] > centroid_scores[b];
                      }
                      return a < b;
                    });
  cells.resize(probe);
  return cells;
}

std::vector<SearchResult> IvfFlatIndex::ScanLists(
    linalg::VecSpan query, const std::vector<uint32_t>& cells, size_t k,
    const SeenSet& seen, const ScanControl& control) const {
  TopKHeap heap(k);
  for (uint32_t cell : cells) {
    if (control.ShouldStop()) break;
    for (uint32_t id : lists_[cell]) {
      if (seen.Test(id)) continue;
      heap.Push(id, linalg::Dot(vectors_.Row(id), query));
    }
  }
  return heap.TakeSorted();
}

std::vector<std::vector<SearchResult>> IvfFlatIndex::TopKBatch(
    std::span<const linalg::VecSpan> queries, size_t k, const SeenSet& seen,
    ThreadPool* pool, const ScanControl& control) const {
  const size_t num_queries = queries.size();
  if (num_queries == 0) return {};
  for (linalg::VecSpan q : queries) SEESAW_CHECK_EQ(q.size(), vectors_.cols());

  // One blocked pass scores every centroid against every query
  // (centroid_scores is num_lists x num_queries, row-major). Cells are
  // ranked by centroid inner product (vectors are unit norm, so inner
  // product ordering ~ distance ordering).
  const size_t num_cells = centroids_.rows();
  std::vector<float> centroid_scores(num_cells * num_queries);
  centroids_.ScoreBlock(
      0, num_cells, queries,
      linalg::MutVecSpan(centroid_scores.data(), centroid_scores.size()));

  // Transpose once to query-major so each query's cell ranking reads one
  // contiguous row. The previous per-query column gather re-walked the
  // num_cells x num_queries block with a num_queries stride for every query
  // (O(num_cells * num_queries) cache-hostile loads per query).
  std::vector<float> scores_by_query(num_queries * num_cells);
  for (size_t c = 0; c < num_cells; ++c) {
    const float* row = &centroid_scores[c * num_queries];
    for (size_t q = 0; q < num_queries; ++q) {
      scores_by_query[q * num_cells + c] = row[q];
    }
  }

  std::vector<std::vector<SearchResult>> out(num_queries);
  auto run_query = [&](size_t q) {
    linalg::VecSpan scores(&scores_by_query[q * num_cells], num_cells);
    out[q] = ScanLists(queries[q], RankCells(scores), k, seen, control);
  };

  if (pool != nullptr && pool->num_threads() > 1 && num_queries > 1) {
    pool->ParallelFor(num_queries, [&](size_t begin, size_t end) {
      for (size_t q = begin; q < end; ++q) run_query(q);
    });
  } else {
    for (size_t q = 0; q < num_queries; ++q) run_query(q);
  }
  return out;
}

}  // namespace seesaw::store
