#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "linalg/simd.h"

namespace seesaw::linalg {

MatrixF::MatrixF(size_t rows, size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

MatrixF MatrixF::FromRows(const std::vector<VectorF>& rows) {
  if (rows.empty()) return MatrixF();
  MatrixF m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    SEESAW_CHECK_EQ(rows[r].size(), m.cols_) << "ragged rows";
    std::copy(rows[r].begin(), rows[r].end(), m.data_.begin() + r * m.cols_);
  }
  return m;
}

MatrixF MatrixF::Identity(size_t n) {
  MatrixF m(n, n);
  for (size_t i = 0; i < n; ++i) m.At(i, i) = 1.0f;
  return m;
}

VecSpan MatrixF::Row(size_t r) const {
  SEESAW_CHECK_LT(r, rows_);
  return VecSpan(data_.data() + r * cols_, cols_);
}

MutVecSpan MatrixF::MutableRow(size_t r) {
  SEESAW_CHECK_LT(r, rows_);
  return MutVecSpan(data_.data() + r * cols_, cols_);
}

VectorF MatrixF::MatVec(VecSpan x) const {
  SEESAW_CHECK_EQ(x.size(), cols_);
  VectorF y(rows_, 0.0f);
  for (size_t r = 0; r < rows_; ++r) y[r] = Dot(Row(r), x);
  return y;
}

void MatrixF::ScoreBlock(size_t row_begin, size_t row_end,
                         std::span<const VecSpan> queries,
                         MutVecSpan out) const {
  SEESAW_CHECK_LE(row_begin, row_end);
  SEESAW_CHECK_LE(row_end, rows_);
  const size_t q = queries.size();
  SEESAW_CHECK_EQ(out.size(), (row_end - row_begin) * q);
  for (VecSpan query : queries) SEESAW_CHECK_EQ(query.size(), cols_);
  // The dispatched kernel may block rows x queries in registers (2x2 on
  // AVX2); per-(row, query) accumulation order is fixed by the spec
  // (simd.h), so every score stays bitwise identical to per-row Dot().
  ActiveKernels().score_block(data_.data() + row_begin * cols_,
                              row_end - row_begin, cols_, queries.data(), q,
                              out.data());
}

VectorF MatrixF::TransposeMatVec(VecSpan x) const {
  SEESAW_CHECK_EQ(x.size(), rows_);
  VectorF y(cols_, 0.0f);
  for (size_t r = 0; r < rows_; ++r) {
    Axpy(x[r], Row(r), MutVecSpan(y.data(), y.size()));
  }
  return y;
}

double MatrixF::QuadraticForm(VecSpan x) const {
  SEESAW_CHECK_EQ(rows_, cols_);
  SEESAW_CHECK_EQ(x.size(), cols_);
  double acc = 0.0;
  for (size_t r = 0; r < rows_; ++r) {
    acc += static_cast<double>(x[r]) * Dot(Row(r), x);
  }
  return acc;
}

void MatrixF::AddOuterProduct(float alpha, VecSpan v) {
  AddOuterProduct(alpha, v, v);
}

void MatrixF::AddOuterProduct(float alpha, VecSpan u, VecSpan v) {
  SEESAW_CHECK_EQ(u.size(), rows_);
  SEESAW_CHECK_EQ(v.size(), cols_);
  for (size_t r = 0; r < rows_; ++r) {
    float a = alpha * u[r];
    if (a == 0.0f) continue;
    float* row = data_.data() + r * cols_;
    for (size_t c = 0; c < cols_; ++c) row[c] += a * v[c];
  }
}

void MatrixF::ScaleBy(float alpha) {
  for (float& v : data_) v *= alpha;
}

MatrixF MatrixF::Symmetrized() const {
  SEESAW_CHECK_EQ(rows_, cols_);
  MatrixF out(rows_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) {
      out.At(r, c) = 0.5f * (At(r, c) + At(c, r));
    }
  }
  return out;
}

float MatrixF::MaxAbs() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::abs(v));
  return m;
}

double MatrixF::FrobeniusNorm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return std::sqrt(acc);
}

}  // namespace seesaw::linalg
