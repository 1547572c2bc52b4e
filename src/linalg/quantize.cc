#include "linalg/quantize.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/check.h"
#include "common/thread_pool.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace seesaw::linalg {

namespace {

#if defined(__SSE2__)
/// |x| lane-wise (clears the sign bits).
inline __m128 AbsPs(__m128 x) {
  return _mm_and_ps(x, _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff)));
}

/// Largest lane; lanes hold no NaN.
inline float HorizontalMax(__m128 v) {
  v = _mm_max_ps(v, _mm_movehl_ps(v, v));
  v = _mm_max_ps(v, _mm_shuffle_ps(v, v, 1));
  return _mm_cvtss_f32(v);
}
#endif

/// Largest |x| over a span, NaN entries ignored; 0 for empty spans.
float MaxAbs(VecSpan v) {
  float m = 0.0f;
  size_t i = 0;
#if defined(__SSE2__)
  // Four running maxima: max is exact and order-free, so this is the
  // scalar loop's value. maxps(a, m) keeps m when a is NaN, as std::max
  // does below.
  __m128 vm = _mm_setzero_ps();
  for (; i + 4 <= v.size(); i += 4) {
    vm = _mm_max_ps(AbsPs(_mm_loadu_ps(v.data() + i)), vm);
  }
  m = HorizontalMax(vm);
#endif
  for (; i < v.size(); ++i) m = std::max(m, std::fabs(v[i]));
  return m;
}

/// Quantizes `src` with a known scale into `out` (sized already).
void QuantizeWithScale(VecSpan src, float scale, int8_t* out) {
  const float inv = 1.0f / scale;
  size_t i = 0;
#if defined(__SSE2__)
  // Clamping before rounding gives the same codes as after (the bounds are
  // integers, and both orders send NaN to -127), and on clamped values
  // cvtps2dq rounds to nearest-even exactly as nearbyintf does — four
  // codes at a time, without a libm call per element.
  const __m128 vinv = _mm_set1_ps(inv);
  const __m128 lo = _mm_set1_ps(-127.0f);
  const __m128 hi = _mm_set1_ps(127.0f);
  for (; i + 4 <= src.size(); i += 4) {
    __m128 q = _mm_mul_ps(_mm_loadu_ps(src.data() + i), vinv);
    q = _mm_min_ps(_mm_max_ps(q, lo), hi);
    __m128i v = _mm_cvtps_epi32(q);
    v = _mm_packs_epi16(_mm_packs_epi32(v, v), v);
    const int32_t packed = _mm_cvtsi128_si32(v);
    std::memcpy(out + i, &packed, sizeof(packed));
  }
#endif
  for (; i < src.size(); ++i) {
    // nearbyintf rounds to nearest-even under the default rounding mode —
    // the same on every platform, keeping quantized tables reproducible.
    float q = std::nearbyintf(src[i] * inv);
    q = std::min(127.0f, std::max(-127.0f, q));
    out[i] = static_cast<int8_t>(q);
  }
}

/// Rows per parallel quantization block: big enough that a block amortizes
/// its task dispatch, small enough to spread a 283k-row table over workers.
constexpr size_t kQuantizeBlockRows = 4096;

/// The smallest float >= x (x finite and non-negative, or +inf).
float RoundUpToFloat(double x) {
  float f = static_cast<float>(x);
  if (static_cast<double>(f) < x) {
    f = std::nextafter(f, std::numeric_limits<float>::infinity());
  }
  return f;
}

/// Bound terms of one quantized row (quantize.h): L >= s * sum |codes| and
/// E >= max |src - s * codes|, plus the row's largest |entry| (+inf if any
/// entry is non-finite). The products are exact in double (24-bit scale
/// times an integer below 2^27); the differences are exact whenever a code
/// is non-zero and the element is near s * code, and within 2^-53 relative
/// otherwise, which the 2^-50 factor covers.
void RowBoundTerms(VecSpan src, const int8_t* codes, float scale, float* l1,
                   float* err, float* max_abs) {
  const size_t n = src.size();
  const double s = scale;
  // Code magnitudes sum exactly in float: below 127 * 2^17 < 2^24.
  float code_sum = 0.0f;
  double max_err = 0.0;
  float row_max = 0.0f;
  bool non_finite = false;
  size_t i = 0;
#if defined(__SSE2__)
  // The scalar loop below, four entries at a time with per-lane running
  // sums and maxima (exact, so the lane split does not change the result).
  const __m128 float_max = _mm_set1_ps(std::numeric_limits<float>::max());
  const __m128d vs = _mm_set1_pd(s);
  const __m128d abs_pd = _mm_castsi128_pd(_mm_set1_epi64x(0x7fffffffffffffff));
  __m128 vsum = _mm_setzero_ps();
  __m128 vmax = _mm_setzero_ps();
  __m128 vbad = _mm_setzero_ps();
  __m128d verr = _mm_setzero_pd();
  for (; i + 4 <= n; i += 4) {
    const __m128 x = _mm_loadu_ps(src.data() + i);
    int32_t packed;
    std::memcpy(&packed, codes + i, sizeof(packed));
    __m128i c = _mm_cvtsi32_si128(packed);
    c = _mm_unpacklo_epi8(c, _mm_cmplt_epi8(c, _mm_setzero_si128()));
    c = _mm_unpacklo_epi16(c, _mm_cmplt_epi16(c, _mm_setzero_si128()));
    const __m128 cf = _mm_cvtepi32_ps(c);
    vsum = _mm_add_ps(vsum, AbsPs(cf));
    const __m128 ax = AbsPs(x);
    vmax = _mm_max_ps(ax, vmax);
    vbad = _mm_or_ps(vbad, _mm_cmpnle_ps(ax, float_max));  // inf and NaN
    const __m128d e_lo = _mm_and_pd(
        _mm_sub_pd(_mm_cvtps_pd(x), _mm_mul_pd(vs, _mm_cvtps_pd(cf))), abs_pd);
    const __m128d e_hi = _mm_and_pd(
        _mm_sub_pd(_mm_cvtps_pd(_mm_movehl_ps(x, x)),
                   _mm_mul_pd(vs, _mm_cvtps_pd(_mm_movehl_ps(cf, cf)))),
        abs_pd);
    verr = _mm_max_pd(e_hi, _mm_max_pd(e_lo, verr));
  }
  alignas(16) float lanes[4];
  _mm_store_ps(lanes, vsum);
  code_sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  row_max = HorizontalMax(vmax);
  non_finite = _mm_movemask_ps(vbad) != 0;
  alignas(16) double err_lanes[2];
  _mm_store_pd(err_lanes, verr);
  max_err = std::max(err_lanes[0], err_lanes[1]);
#endif
  for (; i < n; ++i) {
    const float a = std::fabs(src[i]);
    code_sum += static_cast<float>(std::abs(int32_t{codes[i]}));
    row_max = std::max(row_max, a);
    non_finite |= !(a <= std::numeric_limits<float>::max());
    max_err = std::max(max_err, std::fabs(static_cast<double>(src[i]) -
                                          s * static_cast<double>(codes[i])));
  }
  *l1 = RoundUpToFloat(s * static_cast<double>(code_sum));
  *err = RoundUpToFloat(max_err * (1.0 + 0x1p-50));
  *max_abs = non_finite ? std::numeric_limits<float>::infinity() : row_max;
}

}  // namespace

float QuantizeVector(VecSpan src, std::vector<int8_t>* out) {
  out->resize(src.size());
  return QuantizeVectorInto(src, out->data());
}

float QuantizeVectorInto(VecSpan src, int8_t* out) {
  const float max_abs = MaxAbs(src);
  // An all-zero (or empty) vector quantizes to zeros with unit scale, so
  // dequantization is exact and no division by zero occurs.
  const float scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
  QuantizeWithScale(src, scale, out);
  return scale;
}

QuantizedTable QuantizeRows(const MatrixF& table, ThreadPool* pool) {
  QuantizedTable out;
  out.rows = table.rows();
  out.cols = table.cols();
  out.data.resize(out.rows * out.cols);
  out.scales.resize(out.rows);
  out.l1.resize(out.rows);
  out.errs.resize(out.rows);
  const size_t num_blocks =
      (out.rows + kQuantizeBlockRows - 1) / kQuantizeBlockRows;
  std::vector<float> block_max(num_blocks, 0.0f);
  auto quantize_blocks = [&](size_t first, size_t last) {
    for (size_t b = first; b < last; ++b) {
      const size_t end = std::min(out.rows, (b + 1) * kQuantizeBlockRows);
      float max_abs = 0.0f;
      for (size_t r = b * kQuantizeBlockRows; r < end; ++r) {
        VecSpan row = table.Row(r);
        int8_t* codes = out.data.data() + r * out.cols;
        out.scales[r] = QuantizeVectorInto(row, codes);
        float row_max = 0.0f;
        RowBoundTerms(row, codes, out.scales[r], &out.l1[r], &out.errs[r],
                      &row_max);
        max_abs = std::max(max_abs, row_max);
      }
      block_max[b] = max_abs;
    }
  };
  if (pool != nullptr && num_blocks > 1) {
    pool->ParallelFor(num_blocks, quantize_blocks);
  } else {
    quantize_blocks(0, num_blocks);
  }
  for (float m : block_max) out.max_abs = std::max(out.max_abs, m);
  return out;
}

QueryBound BoundQuery(VecSpan query, const int8_t* codes, float scale,
                      float table_max_abs) {
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  constexpr QueryBound kOpen{kNaN, kNaN, kNaN};
  const size_t d = query.size();
  if (d > 131072) return kOpen;
  double q_max = 0.0, q_l1 = 0.0, q_err = 0.0;
  for (size_t i = 0; i < d; ++i) {
    const double x = query[i];
    if (!std::isfinite(x)) return kOpen;
    q_max = std::max(q_max, std::fabs(x));
    q_l1 += std::fabs(x);
    q_err = std::max(q_err, std::fabs(x - static_cast<double>(scale) *
                                              static_cast<double>(codes[i])));
  }
  // Finite fp32 scores: every partial sum of every row's score stays below
  // 2 d max_abs M_q. !(x < max) keeps a NaN/inf table max open.
  const double reach = 4.0 * static_cast<double>(d + 16) *
                       static_cast<double>(table_max_abs) * q_max;
  if (!(reach < static_cast<double>(std::numeric_limits<float>::max()))) {
    return kOpen;
  }
  constexpr double kU = 0x1p-24;
  constexpr double kMargin = 1.0 + 0x1p-19;  // >= (1 + 2^-20) after rounding
  const double g = 2.0 * static_cast<double>(d + 12) * kU;
  // q_l1 and q_err carry at most d double roundings: 2^-30 covers them.
  const double a = q_err * (1.0 + 0x1p-30) + g * q_max +
                   6.0 * kU * 127.0 * static_cast<double>(scale);
  const double b = q_l1 * (1.0 + 0x1p-30) * (1.0 + g);
  QueryBound bound;
  bound.l1_coef = RoundUpToFloat(a * kMargin);
  bound.err_coef = RoundUpToFloat(b * kMargin);
  bound.floor = RoundUpToFloat(static_cast<double>(d + 1) * 0x1p-120);
  return bound;
}

VectorF DequantizeRow(const QuantizedTable& table, size_t r) {
  SEESAW_CHECK_LT(r, table.rows);
  VectorF out(table.cols);
  const int8_t* q = table.Row(r);
  const float scale = table.scales[r];
  for (size_t i = 0; i < table.cols; ++i) {
    out[i] = static_cast<float>(q[i]) * scale;
  }
  return out;
}

}  // namespace seesaw::linalg
