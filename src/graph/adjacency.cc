#include "graph/adjacency.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/check.h"
#include "graph/nn_descent.h"

namespace seesaw::graph {

using linalg::MatrixF;
using linalg::SparseMatrixF;
using linalg::Triplet;
using linalg::VectorF;

double MedianNeighborDistance(const KnnGraph& graph) {
  std::vector<float> d2;
  for (const auto& nbrs : graph.neighbors) {
    for (const Neighbor& nb : nbrs) d2.push_back(nb.dist2);
  }
  if (d2.empty()) return 0.0;
  size_t mid = d2.size() / 2;
  std::nth_element(d2.begin(), d2.begin() + mid, d2.end());
  return std::sqrt(static_cast<double>(d2[mid]));
}

SparseMatrixF GaussianAdjacency(const KnnGraph& graph, double sigma) {
  SEESAW_CHECK_GT(sigma, 0.0);
  const size_t n = graph.num_nodes();
  const double inv = 1.0 / (2.0 * sigma * sigma);
  // Deduplicate symmetric edges keeping the max weight (i<j canonical form).
  std::map<std::pair<uint32_t, uint32_t>, float> edges;
  for (size_t i = 0; i < n; ++i) {
    for (const Neighbor& nb : graph.neighbors[i]) {
      if (nb.id == i) continue;
      float w = static_cast<float>(std::exp(-static_cast<double>(nb.dist2) * inv));
      if (w <= 0.0f) continue;
      uint32_t lo = std::min(static_cast<uint32_t>(i), nb.id);
      uint32_t hi = std::max(static_cast<uint32_t>(i), nb.id);
      auto [it, inserted] = edges.try_emplace({lo, hi}, w);
      if (!inserted) it->second = std::max(it->second, w);
    }
  }
  std::vector<Triplet> triplets;
  triplets.reserve(edges.size() * 2);
  for (const auto& [key, w] : edges) {
    triplets.push_back({key.first, key.second, w});
    triplets.push_back({key.second, key.first, w});
  }
  return SparseMatrixF::FromTriplets(n, n, std::move(triplets));
}

SparseMatrixF Laplacian(const SparseMatrixF& w) {
  SEESAW_CHECK_EQ(w.rows(), w.cols());
  const size_t n = w.rows();
  VectorF deg = w.RowSums();
  std::vector<Triplet> triplets;
  triplets.reserve(w.nnz() + n);
  for (size_t r = 0; r < n; ++r) {
    triplets.push_back(
        {static_cast<uint32_t>(r), static_cast<uint32_t>(r), deg[r]});
    auto idx = w.RowIndices(r);
    auto val = w.RowValues(r);
    for (size_t e = 0; e < idx.size(); ++e) {
      triplets.push_back({static_cast<uint32_t>(r), idx[e], -val[e]});
    }
  }
  return SparseMatrixF::FromTriplets(n, n, std::move(triplets));
}

StatusOr<MatrixF> ComputeMd(const MatrixF& x, const MdOptions& options) {
  if (x.rows() < 2) {
    return Status::InvalidArgument("ComputeMd: need at least 2 vectors");
  }
  if (options.k == 0) {
    return Status::InvalidArgument("ComputeMd: k must be positive");
  }

  // Optionally subsample rows (preprocessing shortcut from §4.2).
  const MatrixF* table = &x;
  MatrixF sampled;
  if (options.sample_size != 0 && options.sample_size < x.rows()) {
    Rng rng(options.seed);
    auto idx = rng.SampleWithoutReplacement(x.rows(), options.sample_size);
    sampled = MatrixF(idx.size(), x.cols());
    for (size_t r = 0; r < idx.size(); ++r) {
      auto src = x.Row(idx[r]);
      std::copy(src.begin(), src.end(), sampled.MutableRow(r).begin());
    }
    table = &sampled;
  }

  KnnGraph graph;
  if (table->rows() <= options.exact_threshold) {
    graph = ExactKnn(*table, options.k);
  } else {
    NnDescentOptions nnd;
    nnd.k = options.k;
    nnd.seed = options.seed;
    SEESAW_ASSIGN_OR_RETURN(graph, NnDescent(*table, nnd));
  }

  double sigma = options.sigma;
  if (sigma <= 0.0) {
    sigma = MedianNeighborDistance(graph);
    if (sigma <= 0.0) sigma = 1.0;  // degenerate graph of identical points
  }
  SparseMatrixF w = GaussianAdjacency(graph, sigma);
  SparseMatrixF lap = Laplacian(w);
  MatrixF md = lap.ProjectQuadratic(*table);
  // Normalize to trace(M_D) = d: the quadratic form of a random unit vector
  // is then ~1 regardless of dataset size, graph degree, or kernel scale,
  // which makes lambda_D transferable across datasets and sample sizes.
  double trace = 0.0;
  for (size_t j = 0; j < md.rows(); ++j) trace += md.At(j, j);
  if (trace > 1e-20) {
    md.ScaleBy(static_cast<float>(static_cast<double>(md.rows()) / trace));
  }
  // Symmetrize away accumulation round-off: L is symmetric, so M_D must be.
  return md.Symmetrized();
}

}  // namespace seesaw::graph
