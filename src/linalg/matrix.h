// Dense row-major float32 matrix.
#ifndef SEESAW_LINALG_MATRIX_H_
#define SEESAW_LINALG_MATRIX_H_

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/vector_ops.h"

namespace seesaw::linalg {

/// Row-major dense matrix of float32.
///
/// Rows are exposed as spans so embedding tables (N x d) can be scored
/// without copies. Also used for the small symmetric d x d matrix M_D.
class MatrixF {
 public:
  /// Empty 0x0 matrix.
  MatrixF() = default;

  /// rows x cols matrix initialized to `fill`.
  MatrixF(size_t rows, size_t cols, float fill = 0.0f);

  /// Builds from `rows` equally-sized vectors (must be non-empty to infer
  /// the column count, unless rows itself is empty).
  static MatrixF FromRows(const std::vector<VectorF>& rows);

  /// Identity matrix of size n x n.
  static MatrixF Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  float& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// Read-only view of row r.
  VecSpan Row(size_t r) const;

  /// Mutable view of row r.
  MutVecSpan MutableRow(size_t r);

  /// y = M * x  (x has cols() entries; result has rows() entries).
  VectorF MatVec(VecSpan x) const;

  /// Blocked matrix x multi-vector scoring: fills `out` (row-major,
  /// (row_end - row_begin) x queries.size()) with the inner products of rows
  /// [row_begin, row_end) against every query. Each stored row is streamed
  /// through the cache once while all queries score against it — the batched
  /// exact-scan kernel, served by the runtime-dispatched SIMD layer
  /// (linalg/simd.h). Scores are bitwise identical to per-row Dot().
  void ScoreBlock(size_t row_begin, size_t row_end,
                  std::span<const VecSpan> queries, MutVecSpan out) const;

  /// y = M^T * x (x has rows() entries; result has cols() entries).
  VectorF TransposeMatVec(VecSpan x) const;

  /// Quadratic form x^T M x (M must be square, x must have cols() entries).
  double QuadraticForm(VecSpan x) const;

  /// M += alpha * v v^T (rank-1 update; M must be square of dim v.size()).
  void AddOuterProduct(float alpha, VecSpan v);

  /// M += alpha * u v^T (u has rows() entries, v has cols() entries).
  void AddOuterProduct(float alpha, VecSpan u, VecSpan v);

  /// Scales every entry by alpha.
  void ScaleBy(float alpha);

  /// (M + M^T) / 2, for symmetrizing numerically-asymmetric accumulations.
  MatrixF Symmetrized() const;

  /// Maximum absolute entry, 0 for empty matrices.
  float MaxAbs() const;

  /// Frobenius norm.
  double FrobeniusNorm() const;

  /// Underlying storage (row-major), e.g. for serialization.
  const std::vector<float>& data() const { return data_; }
  std::vector<float>& mutable_data() { return data_; }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace seesaw::linalg

#endif  // SEESAW_LINALG_MATRIX_H_
