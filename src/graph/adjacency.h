// Gaussian-kernel adjacency, graph Laplacian, and the M_D matrix of
// database alignment (§4.2): M_D = X^T (D - W) X.
#ifndef SEESAW_GRAPH_ADJACENCY_H_
#define SEESAW_GRAPH_ADJACENCY_H_

#include <cstdint>

#include "common/rng.h"
#include "common/statusor.h"
#include "graph/knn.h"
#include "linalg/sparse.h"

namespace seesaw::graph {

/// Median Euclidean distance over all kNN edges — the adaptive kernel width
/// used when a caller passes sigma <= 0. (The paper fixes sigma = .05 for
/// its CLIP embeddings; the adaptive width generalizes that choice to any
/// embedding's distance scale.)
double MedianNeighborDistance(const KnnGraph& graph);

/// Builds the symmetric Gaussian-weighted adjacency W from a kNN graph:
/// w_ij = exp(-d(i,j)^2 / (2 sigma^2)) for every (directed) kNN edge, then
/// symmetrized by summing W + W^T with duplicate edges merged (an edge
/// present in both directions keeps the larger weight, not the sum, to stay
/// faithful to "similarity" semantics).
linalg::SparseMatrixF GaussianAdjacency(const KnnGraph& graph, double sigma);

/// Unnormalized graph Laplacian L = D - W as a sparse matrix.
linalg::SparseMatrixF Laplacian(const linalg::SparseMatrixF& w);

/// Options for ComputeMd.
struct MdOptions {
  /// Neighbors per node in the kNN graph (paper: k = 10).
  size_t k = 10;
  /// Gaussian kernel width (paper: sigma = .05 for CLIP's distance scale);
  /// <= 0 selects the adaptive width MedianNeighborDistance(graph).
  double sigma = 0.0;
  /// If non-zero and smaller than the table, M_D is computed over a uniform
  /// sample of this many rows — the preprocessing shortcut the paper
  /// describes ("a sample of a few thousand vectors produces a very similar
  /// M_D"). The result is rescaled so the quadratic form is comparable
  /// across sample sizes.
  size_t sample_size = 0;
  /// Seed for sampling.
  uint64_t seed = 17;
  /// Build the graph with NN-descent when the table exceeds this many rows;
  /// exact kNN below (exact is faster than NN-descent for small n).
  size_t exact_threshold = 2048;
};

/// Computes M_D = X^T (D - W) X over the rows of `x` (d x d, symmetric
/// positive semi-definite up to round-off). This is the once-per-dataset
/// preprocessing product that makes DB alignment O(d^2) at query time.
StatusOr<linalg::MatrixF> ComputeMd(const linalg::MatrixF& x,
                                    const MdOptions& options);

}  // namespace seesaw::graph

#endif  // SEESAW_GRAPH_ADJACENCY_H_
