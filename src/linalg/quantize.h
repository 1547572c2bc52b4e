// Symmetric per-row int8 quantization of embedding tables.
//
// At million-row scale the fp32 scan is memory-bandwidth-bound: every
// TopKBatch streams rows*dim*4 bytes through the core. Quantizing the table
// to int8 cuts that stream 4x and lets the integer kernels process 32 MACs
// per instruction, which is where the 2-4x scan speedup at n >= 1M comes
// from (BENCH_scale.json).
//
// Scheme: symmetric (zero-point-free) per-row quantization.
//
//   scale_r = max_i |row[i]| / 127          (1.0 for an all-zero row)
//   q[i]    = clamp(round(row[i] / scale_r), -127, 127)
//
// Queries are quantized the same way once per scan. The approximate score is
//
//   score(r, q) = float(sum_i q_row[i] * q_query[i]) * (scale_r * scale_q)
//
// with the integer sum accumulated exactly in int32 (dim <= 131072 cannot
// overflow: |q| <= 127 so each product is <= 16129). Because the integer sum
// is exact regardless of accumulation order, every int8 kernel is bitwise
// identical by construction — the only float ops are the two multiplies
// above, performed in one fixed order by every implementation.
//
// The [-127, 127] clamp (never -128) is load-bearing for the AVX2 kernel:
// vpmaddubsw saturates pairs at int16, and 2 * 127 * 127 = 32258 < 32767 is
// the margin that makes the sign-trick path exact. See kernels_avx2.cc.
//
// Accuracy: int8 scores are not fp32 scores, but the gap is bounded, and
// the bound is what makes the int8 scan exact (store/exact_store.h scans in
// int8, then rescores in fp32 only the rows the bound cannot rule out).
// QuantizeRows stores two floats per row next to its scale:
//
//   l1[r]   >= s_r * sum_i |r^_i|             (L_r, rounded up)
//   errs[r] >= max_i |r_i - s_r * r^_i|       (E_r, measured, rounded up)
//
// By the scheme E_r is s_r/2 up to the rounding of the scale; it is 0 for
// rows that quantize exactly (all-zero rows, rows on the int8 grid), so
// those rows carry no row-error term.
// For a query q the scan measures F_q >= max_i |q_i - s_q * q^_i|,
// N_q >= ||q||_1 and M_q = max_i |q_i| (QueryBound). With P = sum r_i q_i
// the exact real inner product, F the fp32 kernel's score (simd.h) and S
// the int8 kernel's score:
//
//   (1) quantization:  P - s_r s_q I = sum s_r r^_i (q_i - s_q q^_i)
//                                      + sum (r_i - s_r r^_i) q_i,
//       so |P - s_r s_q I| <= F_q L_r + E_r N_q   (I = sum r^_i q^_i, exact).
//   (2) fp32 kernel: every product reaches the result through at most
//       m = d + 12 roundings (one lane FMA per 16-element chunk plus one
//       trailing chunk, four reduction adds, at most seven tail FMAs), so
//       |F - P| <= g sum |r_i q_i| + 2 (d + 7) eta with g = 2 m u >= gamma_m
//       (u = 2^-24, eta = 2^-150 per underflowing rounding, m u <= 1/2).
//       sum |r_i q_i| <= sum (s_r |r^_i| + E_r) |q_i| <= M_q L_r + E_r N_q.
//   (3) int8 score: S = fl(float(I) * fl(s_r * s_q)) is at most three
//       roundings from s_r s_q I, so |S - s_r s_q I| <= 4u * 127 s_q L_r
//       + (127^2 d (1 + u)^2 + 1) eta, since |s_r s_q I| <= 127 s_q L_r.
//   (4) the scan forms lo = fl(S - slack) and hi = fl(S + slack); each adds
//       at most u |S| + u slack + eta <= 127 s_q L_r u (1 + 4u) + u slack
//       + eta of rounding.
//
// Summing (1)-(4): lo <= F <= hi whenever
//
//   slack (1 - u) >= a L_r + b E_r + c,   a = F_q + g M_q + 6u * 127 s_q,
//                                         b = N_q (1 + g),
//                                         c = (16200 d + 20) eta.
//
// QueryBound rounds a and b up by a factor (1 + 2^-20) >= (1 - u)^-4 and
// uses floor = (d + 1) 2^-120 >= 2c + 4 eta; Slack() then evaluates
// A L_r + B E_r + floor in float, which adds at most three roundings
// (relative u each, absolute eta each when a product underflows), all
// absorbed by those two margins. Every stored or measured input is itself
// rounded up (computed in double, then converted to float upward), so the
// float evaluation is an upper bound on the real one.
//
// The proof needs finite scores: a query is *open* — its bound is NaN, so
// every row stays a candidate and no row tightens the threshold — when the
// query or the table (max_abs is +inf if any entry is non-finite) holds a
// non-finite value, when 4 (d + 16) max_abs M_q could overflow a float
// (then fp32 partial sums could overflow and the score order stop being a
// total order), or when d > 131072 (past it the int32 sum could overflow;
// up to it m u <= 1/128).
#ifndef SEESAW_LINALG_QUANTIZE_H_
#define SEESAW_LINALG_QUANTIZE_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector_ops.h"

namespace seesaw {
class ThreadPool;
}  // namespace seesaw

namespace seesaw::linalg {

/// A row-major int8 table with one float scale per row, plus the per-row
/// terms of the certified error bound (see the accuracy note above). Rows
/// are contiguous (row stride == cols), matching the
/// Int8KernelTable::score_block layout.
struct QuantizedTable {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<int8_t> data;    // rows * cols, row-major
  std::vector<float> scales;   // per-row dequantization scale s_r
  std::vector<float> l1;       // L_r >= s_r * sum |codes|, rounded up
  std::vector<float> errs;     // E_r >= max |row - s_r * codes|, rounded up
  float max_abs = 0.0f;        // max |entry|; +inf if any entry is non-finite

  bool empty() const { return rows == 0 || cols == 0; }
  const int8_t* Row(size_t r) const { return data.data() + r * cols; }
  float scale(size_t r) const { return scales[r]; }
};

/// One query's coefficients of the certified bound: for every row r of a
/// QuantizedTable `t`, the int8 score S of (r, query) and the fp32 kernel
/// score F satisfy fl(S - slack) <= F <= fl(S + slack) with
/// slack = Slack(t.l1[r], t.errs[r]). An open bound (open() true) has NaN
/// coefficients: its slack is NaN, which the scan's negated compares treat
/// as "always a candidate, never a threshold".
/// Trivial (no member initializers), so scan scratch arenas can hold it.
struct QueryBound {
  float l1_coef;   // A: multiplies L_r
  float err_coef;  // B: multiplies E_r
  float floor;     // absolute underflow margin

  bool open() const { return l1_coef != l1_coef; }
  float Slack(float l1, float err) const {
    return l1_coef * l1 + (err_coef * err + floor);
  }
};
/// Quantizes one float vector symmetrically into `out` (resized to
/// src.size()); returns the scale. Deterministic: round-to-nearest-even
/// (std::nearbyintf under the default rounding mode), clamped to ±127.
float QuantizeVector(VecSpan src, std::vector<int8_t>* out);

/// In-place variant for callers that own the destination (the batched scan
/// quantizes each query directly into its slot of one contiguous arena
/// block instead of bouncing through a temporary vector). `out` must hold
/// src.size() bytes. Bit-for-bit the same quantization as QuantizeVector —
/// both run the identical MaxAbs + round-to-nearest-even pipeline.
float QuantizeVectorInto(VecSpan src, int8_t* out);

/// Quantizes every row of `table` independently and computes the per-row
/// bound terms (l1, errs) and the table's max_abs in the same pass. With a
/// pool the rows are split into blocks across its workers; the result is
/// byte-for-byte the serial one (rows are independent).
QuantizedTable QuantizeRows(const MatrixF& table, ThreadPool* pool = nullptr);

/// The certified bound of one query against tables whose largest entry is
/// `table_max_abs`: `codes`/`scale` are the query's quantization (as
/// QuantizeVectorInto wrote them). Open when the proof's preconditions fail
/// (non-finite values, possible overflow, huge dim).
QueryBound BoundQuery(VecSpan query, const int8_t* codes, float scale,
                      float table_max_abs);

/// Reconstructs row `r` of a quantized table as floats (for round-trip
/// error tests): out[i] = q[i] * scale_r. The per-element reconstruction
/// error is bounded by scale_r / 2 = max|row| / 254.
VectorF DequantizeRow(const QuantizedTable& table, size_t r);

}  // namespace seesaw::linalg

#endif  // SEESAW_LINALG_QUANTIZE_H_
