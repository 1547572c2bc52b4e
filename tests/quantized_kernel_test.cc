// The int8 quantized scoring path and the certified scan built on it:
//
//   1. Within-family: every int8 kernel the CPU supports (scalar reference,
//      AVX2, NEON) is *bitwise* identical — over odd dims, remainder tails,
//      unaligned buffers, and full-scale ±127 saturation stress. The int32
//      accumulation is exact, so this holds by construction; these tests
//      catch any intrinsics path that silently saturates or drops lanes.
//   2. The certified bound (linalg/quantize.h): for every (row, query) of
//      random, clustered and adversarial tables, the fp32 kernel's score
//      lies within the int8 score's slack, as the scan computes it.
//   3. The certified scan: ExactStore returns the brute-force fp32 top-k
//      bit for bit — serial and pooled, forced-scalar and active kernels —
//      across seen densities, ties, non-finite rows and queries, zero rows
//      and large norms, while rescoring only a small share of rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/matrix.h"
#include "linalg/quantize.h"
#include "linalg/simd.h"
#include "linalg/vector_ops.h"
#include "store/exact_store.h"
#include "store/sharded_store.h"
#include "tests/test_util.h"

namespace seesaw::linalg {
namespace {

using store::ExactStore;
using store::SearchResult;
using store::SeenSet;
using store::ShardedOptions;
using store::ShardedStore;
using test_util::AsSpans;
using test_util::BruteForceTopK;
using test_util::ClusteredTable;
using test_util::ExpectIdenticalResults;
using test_util::RandomQueries;
using test_util::RandomSeenSet;
using test_util::RandomTable;

uint32_t Bits(float v) { return std::bit_cast<uint32_t>(v); }

::testing::AssertionResult BitEq(float expected, float actual) {
  if (Bits(expected) == Bits(actual)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "expected " << expected << " (0x" << std::hex << Bits(expected)
         << ") got " << actual << " (0x" << Bits(actual) << ")";
}

/// Quantized-range int8 values. Never -128: the quantizer clamps to ±127,
/// and the AVX2 sign-trick kernel relies on that margin.
std::vector<int8_t> RandomInt8(Rng& rng, size_t n) {
  std::vector<int8_t> v(n);
  for (int8_t& x : v) x = static_cast<int8_t>(rng.UniformInt(-127, 127));
  return v;
}

/// Positive per-row/query scales across a few decades.
std::vector<float> RandomScales(Rng& rng, size_t n) {
  std::vector<float> s(n);
  for (float& x : s) x = static_cast<float>(rng.LogNormal(-4.0, 1.5));
  return s;
}

/// Same dim sweep as the fp32 parity suite: every tail shape plus
/// vector-width boundaries.
std::vector<size_t> SweepDims() {
  std::vector<size_t> dims;
  for (size_t d = 0; d <= 34; ++d) dims.push_back(d);
  for (size_t d : {63u, 64u, 65u, 100u, 127u, 128u, 129u, 255u, 256u, 257u,
                   511u, 512u, 513u}) {
    dims.push_back(d);
  }
  return dims;
}

class QuantizedKernelTest : public ::testing::Test {
 protected:
  void TearDown() override { ASSERT_TRUE(ForceKernels("auto")); }
};

TEST_F(QuantizedKernelTest, EverySupportedNameHasAnInt8Sibling) {
  for (const std::string& name : SupportedKernels()) {
    const Int8KernelTable* table = FindInt8Kernels(name);
    ASSERT_NE(table, nullptr) << name;
    EXPECT_STREQ(table->name, name.c_str());
  }
  EXPECT_NE(FindInt8Kernels("auto"), nullptr);
  EXPECT_EQ(FindInt8Kernels("bogus"), nullptr);
}

TEST_F(QuantizedKernelTest, DotI32ExactParityAcrossKernelsAndDims) {
  const Int8KernelTable& ref = ScalarInt8Kernels();
  Rng rng(41);
  for (const std::string& name : SupportedKernels()) {
    const Int8KernelTable* kernel = FindInt8Kernels(name);
    ASSERT_NE(kernel, nullptr);
    for (size_t dim : SweepDims()) {
      std::vector<int8_t> a = RandomInt8(rng, dim);
      std::vector<int8_t> b = RandomInt8(rng, dim);
      EXPECT_EQ(ref.dot_i32(a.data(), b.data(), dim),
                kernel->dot_i32(a.data(), b.data(), dim))
          << name << " dim=" << dim;
    }
  }
}

TEST_F(QuantizedKernelTest, FullScaleSaturationStressIsExact) {
  // Worst case for the AVX2 maddubs path: adjacent pairs both at ±127, so
  // every pairwise int16 sum hits ±32258 — inside int16 only because the
  // quantizer never emits -128. An implementation that saturates (or uses
  // the full [-128, 127] range) diverges from the exact sum here.
  const Int8KernelTable& ref = ScalarInt8Kernels();
  for (const std::string& name : SupportedKernels()) {
    const Int8KernelTable* kernel = FindInt8Kernels(name);
    ASSERT_NE(kernel, nullptr);
    for (size_t dim : {1u, 2u, 31u, 32u, 33u, 64u, 257u, 512u}) {
      for (int sa : {+1, -1}) {
        for (int sb : {+1, -1}) {
          std::vector<int8_t> a(dim, static_cast<int8_t>(sa * 127));
          std::vector<int8_t> b(dim, static_cast<int8_t>(sb * 127));
          const int32_t want = static_cast<int32_t>(dim) * 127 * 127 * sa * sb;
          EXPECT_EQ(want, ref.dot_i32(a.data(), b.data(), dim));
          EXPECT_EQ(want, kernel->dot_i32(a.data(), b.data(), dim))
              << name << " dim=" << dim << " signs " << sa << "," << sb;
        }
      }
      // Alternating signs: pair sums cancel, partial sums stay large.
      std::vector<int8_t> a(dim), b(dim, 127);
      for (size_t i = 0; i < dim; ++i) a[i] = (i % 2 == 0) ? 127 : -127;
      EXPECT_EQ(ref.dot_i32(a.data(), b.data(), dim),
                kernel->dot_i32(a.data(), b.data(), dim))
          << name << " alternating dim=" << dim;
    }
  }
}

TEST_F(QuantizedKernelTest, UnalignedInt8BuffersMatchScalar) {
  Rng rng(43);
  const size_t dim = 131;
  // Sub-buffers starting at every misalignment an int8 pointer can have
  // relative to a 32-byte vector register.
  std::vector<int8_t> a_buf = RandomInt8(rng, dim + 32);
  std::vector<int8_t> b_buf = RandomInt8(rng, dim + 32);
  const Int8KernelTable& ref = ScalarInt8Kernels();
  for (const std::string& name : SupportedKernels()) {
    const Int8KernelTable* kernel = FindInt8Kernels(name);
    ASSERT_NE(kernel, nullptr);
    for (size_t offset_a = 0; offset_a < 32; ++offset_a) {
      for (size_t offset_b : {0u, 1u, 7u, 15u, 31u}) {
        const int8_t* a = a_buf.data() + offset_a;
        const int8_t* b = b_buf.data() + offset_b;
        EXPECT_EQ(ref.dot_i32(a, b, dim), kernel->dot_i32(a, b, dim))
            << name << " offsets " << offset_a << "," << offset_b;
      }
    }
  }
}

TEST_F(QuantizedKernelTest, ScoreBlockBitwiseParityAcrossKernels) {
  Rng rng(47);
  const Int8KernelTable& ref = ScalarInt8Kernels();
  for (const std::string& name : SupportedKernels()) {
    const Int8KernelTable* kernel = FindInt8Kernels(name);
    ASSERT_NE(kernel, nullptr);
    // dim 128 with batch >= 8 exercises the register-resident row-sweep
    // specialization (and batch 9/19 its mixed group + remainder split).
    for (size_t dim : {1u, 5u, 33u, 64u, 128u, 129u, 200u}) {
      for (size_t rows : {1u, 2u, 3u, 5u, 8u}) {
        std::vector<int8_t> table = RandomInt8(rng, rows * dim);
        std::vector<float> row_scales = RandomScales(rng, rows);
        for (size_t batch : {1u, 2u, 3u, 4u, 7u, 8u, 9u, 16u, 19u}) {
          std::vector<int8_t> queries = RandomInt8(rng, batch * dim);
          std::vector<float> query_scales = RandomScales(rng, batch);
          std::vector<float> want(rows * batch), got(rows * batch);
          ref.score_block(table.data(), row_scales.data(), rows, dim,
                          queries.data(), query_scales.data(), batch,
                          want.data());
          kernel->score_block(table.data(), row_scales.data(), rows, dim,
                              queries.data(), query_scales.data(), batch,
                              got.data());
          for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_TRUE(BitEq(want[i], got[i]))
                << name << " dim=" << dim << " rows=" << rows
                << " batch=" << batch << " cell=" << i;
          }
          // The spec pins the cell formula, so score_block must also equal
          // per-pair dot_i32 with the fixed-order scale multiply.
          for (size_t r = 0; r < rows; ++r) {
            for (size_t q = 0; q < batch; ++q) {
              const int32_t acc = ref.dot_i32(
                  table.data() + r * dim, queries.data() + q * dim, dim);
              const float combined = row_scales[r] * query_scales[q];
              EXPECT_TRUE(BitEq(static_cast<float>(acc) * combined,
                                got[r * batch + q]))
                  << name << " r=" << r << " q=" << q;
            }
          }
        }
      }
    }
  }
}

TEST_F(QuantizedKernelTest, ForcedNameSelectsBothFamilies) {
  for (const std::string& name : SupportedKernels()) {
    ASSERT_TRUE(ForceKernels(name));
    EXPECT_STREQ(ActiveKernels().name, name.c_str());
    EXPECT_STREQ(ActiveInt8Kernels().name, name.c_str());
  }
  ASSERT_TRUE(ForceKernels("auto"));
  EXPECT_STREQ(ActiveKernels().name, ActiveInt8Kernels().name);
}

TEST_F(QuantizedKernelTest, EnvVarPinsInt8FamilyAtFirstResolution) {
  ASSERT_EQ(setenv("SEESAW_FORCE_KERNEL", "scalar", /*overwrite=*/1), 0);
  internal::ResetKernelsForTest();
  EXPECT_STREQ(ActiveInt8Kernels().name, "scalar");
  ASSERT_EQ(unsetenv("SEESAW_FORCE_KERNEL"), 0);
  internal::ResetKernelsForTest();
  EXPECT_EQ(std::string(ActiveInt8Kernels().name), SupportedKernels().front());
}

TEST_F(QuantizedKernelTest, EmptyInputsAreZero) {
  for (const std::string& name : SupportedKernels()) {
    const Int8KernelTable* kernel = FindInt8Kernels(name);
    ASSERT_NE(kernel, nullptr);
    EXPECT_EQ(0, kernel->dot_i32(nullptr, nullptr, 0)) << name;
    kernel->score_block(nullptr, nullptr, 0, 0, nullptr, nullptr, 0, nullptr);
  }
}

TEST_F(QuantizedKernelTest, QuantizeRoundTripErrorBound) {
  Rng rng(53);
  for (size_t dim : {1u, 7u, 32u, 129u}) {
    MatrixF table = RandomTable(8, dim, 54 + dim);
    QuantizedTable q = QuantizeRows(table);
    ASSERT_EQ(q.rows, 8u);
    ASSERT_EQ(q.cols, dim);
    for (size_t r = 0; r < q.rows; ++r) {
      // Codes stay in the symmetric range: -128 never appears.
      for (size_t i = 0; i < dim; ++i) {
        EXPECT_GE(q.Row(r)[i], -127) << "r=" << r << " i=" << i;
        EXPECT_LE(q.Row(r)[i], 127);
      }
      // Per-element reconstruction error is half a quantization step.
      VectorF deq = DequantizeRow(q, r);
      const float bound = q.scale(r) * 0.500001f;
      for (size_t i = 0; i < dim; ++i) {
        EXPECT_LE(std::abs(deq[i] - table.Row(r)[i]), bound)
            << "r=" << r << " i=" << i << " scale=" << q.scale(r);
      }
      // The max-magnitude element maps to exactly ±127.
      float max_abs = 0.0f;
      for (size_t i = 0; i < dim; ++i) {
        max_abs = std::max(max_abs, std::abs(table.Row(r)[i]));
      }
      if (max_abs > 0.0f) {
        int8_t max_code = 0;
        for (size_t i = 0; i < dim; ++i) {
          max_code = std::max(max_code, static_cast<int8_t>(
                                            std::abs(q.Row(r)[i])));
        }
        EXPECT_EQ(max_code, 127) << "r=" << r;
      }
    }
  }
  // All-zero rows quantize to all-zero codes with the sentinel scale 1.0.
  MatrixF zeros(2, 16);
  QuantizedTable qz = QuantizeRows(zeros);
  for (size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(qz.scale(r), 1.0f);
    for (size_t i = 0; i < 16; ++i) EXPECT_EQ(qz.Row(r)[i], 0);
  }
  // Query quantization is the same scheme.
  VectorF query(33);
  for (float& x : query) x = static_cast<float>(rng.Gaussian());
  std::vector<int8_t> codes;
  const float scale = QuantizeVector(query, &codes);
  ASSERT_EQ(codes.size(), query.size());
  for (size_t i = 0; i < query.size(); ++i) {
    EXPECT_LE(std::abs(codes[i] * scale - query[i]), scale * 0.500001f);
  }
}

TEST_F(QuantizedKernelTest, BoundTermsCoverTheQuantizationError) {
  // l1 and errs are upper bounds (rounded up) on s_r * sum |codes| and the
  // measured max reconstruction error; rows on the int8 grid get errs == 0.
  MatrixF table = RandomTable(16, 37, 55);
  for (size_t i = 0; i < 37; ++i) {
    table.MutableRow(0)[i] = static_cast<float>(static_cast<int>(i % 9) - 4);
    table.MutableRow(1)[i] = 0.0f;
  }
  table.MutableRow(0)[3] = 127.0f;  // scale exactly 1: codes == values
  QuantizedTable q = QuantizeRows(table);
  for (size_t r = 0; r < q.rows; ++r) {
    double code_l1 = 0.0, max_err = 0.0;
    for (size_t i = 0; i < q.cols; ++i) {
      code_l1 += std::abs(static_cast<double>(q.Row(r)[i]));
      max_err = std::max(max_err, std::abs(static_cast<double>(table.Row(r)[i]) -
                                           static_cast<double>(q.scale(r)) *
                                               q.Row(r)[i]));
    }
    EXPECT_GE(static_cast<double>(q.l1[r]), code_l1 * q.scale(r)) << r;
    EXPECT_GE(static_cast<double>(q.errs[r]), max_err) << r;
    EXPECT_LE(q.errs[r], q.scale(r) * 0.500001f) << r;
  }
  EXPECT_EQ(q.errs[0], 0.0f);
  EXPECT_EQ(q.errs[1], 0.0f);
  EXPECT_EQ(q.l1[1], 0.0f);
  EXPECT_EQ(q.max_abs, 127.0f);
  // Any non-finite entry makes the table-wide max_abs +inf.
  table.MutableRow(9)[2] = std::nanf("");
  EXPECT_EQ(QuantizeRows(table).max_abs,
            std::numeric_limits<float>::infinity());
}

/// The quantization scheme of quantize.h written out element by element:
/// the reference the vectorized quantizer must match byte for byte.
float ReferenceQuantize(VecSpan row, std::vector<int8_t>* codes) {
  float max_abs = 0.0f;
  for (float x : row) max_abs = std::max(max_abs, std::fabs(x));
  const float scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
  const float inv = 1.0f / scale;
  codes->resize(row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    const float q = std::nearbyintf(row[i] * inv);
    (*codes)[i] = static_cast<int8_t>(std::min(127.0f, std::max(-127.0f, q)));
  }
  return scale;
}

TEST_F(QuantizedKernelTest, ParallelQuantizeRowsMatchesSerialReference) {
  // Row blocks quantized on a pool must give the serial bytes, scales and
  // bound terms exactly, at row counts around the block size; codes and
  // scales must also equal the element-by-element reference, including
  // half-step ties, odd widths and non-finite entries.
  ThreadPool pool(3);
  for (size_t rows : {1u, 7u, 4095u, 4097u, 12289u}) {
    MatrixF table = ClusteredTable(rows, 19, 8, 56 + rows);
    for (size_t r = 0; r < rows; r += 7) {
      MutVecSpan row = table.MutableRow(r);
      row[0] = 127.0f;  // scale 1: the next entries sit on half steps
      for (size_t i = 1; i < 19; ++i) {
        row[i] = static_cast<float>(static_cast<int>(i) - 9) + 0.5f;
      }
    }
    if (rows > 5) {
      table.MutableRow(3)[4] = std::nanf("");
      table.MutableRow(5)[18] = -std::numeric_limits<float>::infinity();
    }
    QuantizedTable serial = QuantizeRows(table);
    QuantizedTable pooled = QuantizeRows(table, &pool);
    ASSERT_EQ(pooled.data, serial.data) << rows;
    ASSERT_EQ(pooled.scales.size(), rows);
    for (size_t r = 0; r < rows; ++r) {
      ASSERT_TRUE(BitEq(serial.scales[r], pooled.scales[r])) << r;
      ASSERT_TRUE(BitEq(serial.l1[r], pooled.l1[r])) << r;
      ASSERT_TRUE(BitEq(serial.errs[r], pooled.errs[r])) << r;
      std::vector<int8_t> codes;
      ASSERT_TRUE(BitEq(ReferenceQuantize(table.Row(r), &codes),
                        serial.scales[r]));
      ASSERT_TRUE(std::equal(codes.begin(), codes.end(), serial.Row(r))) << r;
    }
    EXPECT_TRUE(BitEq(serial.max_abs, pooled.max_abs));
  }
}

/// Rows built to stress the bound: huge dynamic range inside a row, values
/// on half-step rounding boundaries, subnormal and near-underflow rows,
/// zero rows, large and tiny norms, duplicates and 1-ulp neighbours.
MatrixF AdversarialTable(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  MatrixF table = RandomTable(n, dim, seed);
  for (size_t r = 0; r < n; ++r) {
    MutVecSpan row = table.MutableRow(r);
    switch (r % 10) {
      case 0:  // one dominant element, the rest far below one step
        for (float& x : row) x *= 1e-4f;
        row[r % dim] = 3.0f;
        break;
      case 1:  // every element on a half-step boundary of scale 1
        for (size_t i = 0; i < dim; ++i) {
          row[i] = static_cast<float>(rng.UniformInt(-126, 126)) + 0.5f;
        }
        row[0] = 127.0f;
        break;
      case 2:  // subnormal entries
        for (float& x : row) x *= 1e-39f;
        break;
      case 3:  // all zero
        std::fill(row.begin(), row.end(), 0.0f);
        break;
      case 4:  // large norm
        for (float& x : row) x *= 3e6f;
        break;
      case 5:  // tiny norm
        for (float& x : row) x *= 2e-9f;
        break;
      case 6:  // duplicate of the previous row
        if (r > 0) {
          auto prev = table.Row(r - 1);
          std::copy(prev.begin(), prev.end(), row.begin());
        }
        break;
      case 7:  // one ulp away from the previous row in one element
        if (r > 0) {
          auto prev = table.Row(r - 1);
          std::copy(prev.begin(), prev.end(), row.begin());
          row[r % dim] = std::nextafter(row[r % dim], 2.0f);
        }
        break;
      default:
        break;
    }
  }
  return table;
}

/// Queries for the bound sweep: unit, scaled, one-hot, zero, and noisy
/// copies of stored rows.
std::vector<VectorF> BoundQueries(const MatrixF& table, uint64_t seed) {
  const size_t dim = table.cols();
  std::vector<VectorF> queries = RandomQueries(4, dim, seed);
  Rng rng(seed + 1);
  for (size_t i = 0; i < 3; ++i) {
    auto row = table.Row((i * 37 + 5) % table.rows());
    VectorF q(row.begin(), row.end());
    for (float& x : q) x += 0.05f * static_cast<float>(rng.Gaussian());
    queries.push_back(std::move(q));
  }
  VectorF big = queries[0];
  for (float& x : big) x *= 1e5f;
  VectorF tiny = queries[1];
  for (float& x : tiny) x *= 1e-30f;
  VectorF one_hot(dim, 0.0f);
  one_hot[dim / 2] = -0.7f;
  queries.push_back(std::move(big));
  queries.push_back(std::move(tiny));
  queries.push_back(std::move(one_hot));
  queries.push_back(VectorF(dim, 0.0f));
  return queries;
}

TEST_F(QuantizedKernelTest, CertifiedBoundHoldsForEveryPair) {
  // For every (row, query): the fp32 kernel score F lies in
  // [fl(S - slack), fl(S + slack)] with S the int8 score and slack the
  // certified bound, evaluated exactly as the scan does. F and S are the
  // same bits under every kernel, so checking the active ones suffices.
  struct Case {
    const char* name;
    MatrixF table;
  };
  std::vector<Case> cases;
  for (size_t dim : {5u, 24u, 128u, 131u}) {
    cases.push_back({"random", RandomTable(300, dim, 57 + dim)});
    cases.push_back({"clustered", ClusteredTable(300, dim, 6, 58 + dim)});
    cases.push_back({"adversarial", AdversarialTable(300, dim, 59 + dim)});
  }
  const KernelTable& fp32 = ActiveKernels();
  const Int8KernelTable& int8 = ActiveInt8Kernels();
  for (const Case& c : cases) {
    const size_t dim = c.table.cols();
    QuantizedTable q = QuantizeRows(c.table);
    double worst_ratio = 0.0;
    for (const VectorF& query : BoundQueries(c.table, 60 + dim)) {
      std::vector<int8_t> codes(dim);
      const float scale = QuantizeVectorInto(query, codes.data());
      const QueryBound bound = BoundQuery(query, codes.data(), scale, q.max_abs);
      ASSERT_FALSE(bound.open()) << c.name << " dim=" << dim;
      const VecSpan span(query);
      for (size_t r = 0; r < q.rows; ++r) {
        float s = 0.0f, f = 0.0f;
        int8.score_block(q.Row(r), &q.scales[r], 1, dim, codes.data(), &scale,
                         1, &s);
        fp32.score_block(c.table.Row(r).data(), 1, dim, &span, 1, &f);
        const float slack = bound.Slack(q.l1[r], q.errs[r]);
        ASSERT_LE(s - slack, f) << c.name << " dim=" << dim << " r=" << r;
        ASSERT_GE(s + slack, f) << c.name << " dim=" << dim << " r=" << r;
        ASSERT_LE(std::abs(static_cast<double>(f) - s),
                  static_cast<double>(slack));
        if (slack > 0) {
          worst_ratio = std::max(
              worst_ratio, std::abs(static_cast<double>(f) - s) / slack);
        }
      }
    }
    // Informational: how much of the slack the worst pair used.
    RecordProperty(std::string(c.name) + "_dim" + std::to_string(dim),
                   std::to_string(worst_ratio));
  }
}

TEST_F(QuantizedKernelTest, BoundIsOpenExactlyWhenTheProofDoesNotApply) {
  MatrixF table = RandomTable(8, 16, 61);
  QuantizedTable q = QuantizeRows(table);
  auto bound_of = [&](const VectorF& query, float max_abs) {
    std::vector<int8_t> codes(query.size());
    const float scale = QuantizeVectorInto(query, codes.data());
    return BoundQuery(query, codes.data(), scale, max_abs);
  };
  VectorF query = RandomQueries(1, 16, 62)[0];
  EXPECT_FALSE(bound_of(query, q.max_abs).open());
  // A non-finite table or query, or scores that could overflow.
  EXPECT_TRUE(bound_of(query, std::numeric_limits<float>::infinity()).open());
  VectorF nan_query = query;
  nan_query[3] = std::nanf("");
  EXPECT_TRUE(bound_of(nan_query, q.max_abs).open());
  VectorF inf_query = query;
  inf_query[0] = -std::numeric_limits<float>::infinity();
  EXPECT_TRUE(bound_of(inf_query, q.max_abs).open());
  VectorF huge = query;
  for (float& x : huge) x *= 1e30f;
  EXPECT_TRUE(bound_of(huge, 1e10f).open());
  EXPECT_FALSE(bound_of(huge, 1e-10f).open());
  // An open bound's slack is NaN: never below a threshold, never above one.
  const QueryBound open = bound_of(query, std::numeric_limits<float>::infinity());
  const float slack = open.Slack(1.0f, 0.5f);
  EXPECT_FALSE(slack < 0.0f || slack >= 0.0f);
}

TEST_F(QuantizedKernelTest, Int8StoreParityAcrossForcedKernels) {
  // The scan on every supported kernel is bitwise equal to the brute-force
  // fp32 oracle computed on the forced-scalar kernel, for single queries
  // and batches.
  const size_t n = 523, dim = 48;
  MatrixF table = ClusteredTable(n, dim, 16, 63);
  auto store = ExactStore::Create(table);
  ASSERT_TRUE(store.ok());
  auto queries = RandomQueries(3, dim, 64);
  auto spans = AsSpans(queries);
  SeenSet seen = RandomSeenSet(n, 0.3, 65);

  ASSERT_TRUE(ForceKernels("scalar"));
  std::vector<std::vector<SearchResult>> want;
  for (const VectorF& q : queries) {
    want.push_back(BruteForceTopK(table, q, 37, seen));
  }

  for (const std::string& name : SupportedKernels()) {
    ASSERT_TRUE(ForceKernels(name));
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      ExpectIdenticalResults(store->TopK(queries[qi], 37, seen), want[qi]);
    }
    auto got_batch =
        store->TopKBatch(std::span<const VecSpan>(spans), 37, seen);
    ASSERT_EQ(got_batch.size(), want.size());
    for (size_t qi = 0; qi < want.size(); ++qi) {
      ExpectIdenticalResults(got_batch[qi], want[qi]);
    }
  }
}

TEST_F(QuantizedKernelTest, BatchedInt8ScanMatchesBruteForce) {
  // The blocked batch scan (int8 filter, fp32 rescore) and the per-pair
  // fp32 oracle return bitwise equal results.
  const size_t n = 311, dim = 32;
  MatrixF table = ClusteredTable(n, dim, 8, 67);
  auto store = ExactStore::Create(table);
  ASSERT_TRUE(store.ok());
  auto queries = RandomQueries(4, dim, 68);
  auto spans = AsSpans(queries);
  for (double fraction : {0.0, 0.4, 0.9}) {
    SeenSet seen = RandomSeenSet(n, fraction, 69);
    auto batched =
        store->TopKBatch(std::span<const VecSpan>(spans), 25, seen);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      ExpectIdenticalResults(batched[qi],
                             BruteForceTopK(table, queries[qi], 25, seen));
    }
  }
}

TEST_F(QuantizedKernelTest, SeenRunScanMatchesBruteForce) {
  // The scan scores only the unseen runs the seen set hands it, a chunk at
  // a time. Whatever the seen density, and for seen sets that end before
  // the table does (rows past capacity are unseen), the result must be the
  // brute-force top-k bit for bit — serial and pooled — on clustered rows
  // with near-tied scores.
  const size_t dim = 24;
  auto queries = RandomQueries(3, dim, 72);
  auto spans = AsSpans(queries);
  ThreadPool pool(3);
  for (size_t capacity : {0u, 1u, 63u, 64u, 65u, 200u, 1000u}) {
    const size_t n = capacity + 70;
    MatrixF table = ClusteredTable(n, dim, 8, 71);
    auto store = ExactStore::Create(table);
    ASSERT_TRUE(store.ok());
    for (double fraction : {0.0, 0.3, 0.7, 0.97, 1.0}) {
      SeenSet seen = RandomSeenSet(capacity, fraction, 73);
      for (ThreadPool* scan_pool : {static_cast<ThreadPool*>(nullptr),
                                    &pool}) {
        auto got = store->TopKBatch(std::span<const VecSpan>(spans), 19,
                                    seen, scan_pool);
        ASSERT_EQ(got.size(), queries.size());
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          SCOPED_TRACE(testing::Message()
                       << "capacity=" << capacity << " fraction=" << fraction
                       << " pooled=" << (scan_pool != nullptr));
          ExpectIdenticalResults(got[qi],
                                 BruteForceTopK(table, queries[qi], 19, seen));
        }
      }
    }
  }
}

/// One adversarial scan case: a table and the queries run against it.
struct ScanCase {
  std::string name;
  MatrixF table;
  std::vector<VectorF> queries;
};

std::vector<ScanCase> AdversarialScanCases() {
  const size_t n = 240, dim = 20;
  const float kInf = std::numeric_limits<float>::infinity();
  std::vector<ScanCase> cases;
  auto add = [&](std::string name, MatrixF table) {
    std::vector<VectorF> queries = RandomQueries(2, dim, 75);
    auto row = table.Row(17);
    queries.emplace_back(row.begin(), row.end());  // ties with row 17's twins
    cases.push_back({std::move(name), std::move(table), std::move(queries)});
  };
  {
    // Exact ties: every row repeated four times.
    MatrixF base = ClusteredTable(n / 4, dim, 4, 76);
    MatrixF table(n, dim);
    for (size_t r = 0; r < n; ++r) {
      auto src = base.Row(r / 4);
      std::copy(src.begin(), src.end(), table.MutableRow(r).begin());
    }
    add("duplicates", std::move(table));
  }
  {
    // Neighbours one ulp apart in every element: scores tie or differ by
    // an ulp or two.
    MatrixF table = ClusteredTable(n, dim, 3, 77);
    for (size_t r = 1; r < n; r += 2) {
      auto prev = table.Row(r - 1);
      MutVecSpan row = table.MutableRow(r);
      for (size_t i = 0; i < dim; ++i) {
        row[i] = std::nextafter(prev[i], (r % 4 == 1) ? kInf : -kInf);
      }
    }
    add("ulp_neighbours", std::move(table));
  }
  {
    MatrixF table = ClusteredTable(n, dim, 4, 78);
    table.MutableRow(5)[0] = kInf;
    table.MutableRow(40)[3] = -kInf;
    table.MutableRow(41)[2] = kInf;
    table.MutableRow(41)[7] = -kInf;  // inf + -inf: a NaN score
    add("inf_rows", std::move(table));
  }
  {
    MatrixF table = ClusteredTable(n, dim, 4, 79);
    table.MutableRow(0)[1] = std::nanf("");
    table.MutableRow(100)[0] = std::nanf("");
    table.MutableRow(239)[19] = std::nanf("");
    add("nan_rows", std::move(table));
  }
  {
    ScanCase c{"nonfinite_query", ClusteredTable(n, dim, 4, 80), {}};
    c.queries = RandomQueries(3, dim, 81);
    c.queries[0][4] = std::nanf("");
    c.queries[1][0] = kInf;
    cases.push_back(std::move(c));
  }
  {
    MatrixF table = ClusteredTable(n, dim, 4, 82);
    for (size_t r = 0; r < n; r += 3) {
      std::fill(table.MutableRow(r).begin(), table.MutableRow(r).end(), 0.0f);
    }
    ScanCase c{"zero_rows", std::move(table), RandomQueries(2, dim, 83)};
    c.queries.push_back(VectorF(dim, 0.0f));  // every score zero: id order
    cases.push_back(std::move(c));
  }
  {
    // Non-unit rows over twelve decades, some of them large.
    MatrixF table = ClusteredTable(n, dim, 4, 84);
    for (size_t r = 0; r < n; ++r) {
      const float scale = std::pow(10.0f, static_cast<float>(r % 13) - 6.0f);
      for (float& x : table.MutableRow(r)) x *= scale;
    }
    add("large_norms", std::move(table));
  }
  {
    // Scores that overflow fp32: the bound must open, not lie.
    MatrixF table = ClusteredTable(n, dim, 4, 85);
    for (float& x : table.MutableRow(9)) x *= 1e30f;
    ScanCase c{"overflow", std::move(table), RandomQueries(2, dim, 86)};
    for (float& x : c.queries[1]) x *= 1e20f;
    cases.push_back(std::move(c));
  }
  {
    // Rounding inversions: every row has scale 1 (one entry 127), and for
    // queries weighting entries 1 and 2 equally the int8 order inverts the
    // fp32 one. Every 20th row is (1.48, 2.48): codes (1, 2), fp32 score
    // 3.96 w. Nine in 20 are (1.52, 1.52): codes (2, 2), score 3.04 w. Only
    // the row-error term of the bound keeps the true top rows candidates.
    MatrixF table(n, dim);
    for (size_t r = 0; r < n; ++r) {
      MutVecSpan row = table.MutableRow(r);
      row[0] = 127.0f;
      const size_t kind = r % 20;
      row[1] = kind == 0 ? 1.48f : kind < 10 ? 1.52f : 0.48f;
      row[2] = kind == 0 ? 2.48f : kind < 10 ? 1.52f : 0.48f;
    }
    ScanCase c{"rounding_inversion", std::move(table), {}};
    for (float w : {1.0f, 0.25f}) {
      VectorF q(dim, 0.0f);
      q[1] = w;
      q[2] = w;
      c.queries.push_back(std::move(q));
    }
    cases.push_back(std::move(c));
  }
  add("adversarial", AdversarialTable(n, dim, 87));
  return cases;
}

TEST_F(QuantizedKernelTest, CertifiedScanMatchesBruteForceOnAdversarialTables) {
  ThreadPool pool(3);
  for (const ScanCase& c : AdversarialScanCases()) {
    auto store = ExactStore::Create(c.table);
    ASSERT_TRUE(store.ok());
    const size_t n = c.table.rows();
    auto spans = AsSpans(c.queries);
    for (const char* kernel : {"scalar", "auto"}) {
      ASSERT_TRUE(ForceKernels(kernel));
      for (double fraction : {0.0, 0.6, 1.0}) {
        SeenSet seen = RandomSeenSet(n, fraction, 88);
        for (size_t k : {size_t{1}, size_t{9}, n + 5}) {
          for (ThreadPool* scan_pool :
               {static_cast<ThreadPool*>(nullptr), &pool}) {
            SCOPED_TRACE(testing::Message()
                         << c.name << " kernel=" << kernel << " seen="
                         << fraction << " k=" << k
                         << " pooled=" << (scan_pool != nullptr));
            auto got = store->TopKBatch(std::span<const VecSpan>(spans), k,
                                        seen, scan_pool);
            ASSERT_EQ(got.size(), c.queries.size());
            for (size_t qi = 0; qi < c.queries.size(); ++qi) {
              ExpectIdenticalResults(
                  got[qi], BruteForceTopK(c.table, c.queries[qi], k, seen));
            }
          }
        }
      }
    }
  }
}

TEST_F(QuantizedKernelTest, FastPathRescoresFewRows) {
  // The int8 filter must actually filter: on a clustered 20k-row table at
  // k = 100, fewer than 10% of rows may be rescored in fp32. A bound that
  // silently degraded to "rescore everything" would pass every parity test
  // above and fail here.
  const size_t n = 20000, dim = 64, k = 100;
  MatrixF table = ClusteredTable(n, dim, 64, 89);
  auto store = ExactStore::Create(table);
  ASSERT_TRUE(store.ok());
  // CLIP-like queries: noisy copies of stored rows.
  Rng rng(90);
  std::vector<VectorF> queries;
  for (size_t qi = 0; qi < 4; ++qi) {
    auto row = table.Row((qi * 4999) % n);
    VectorF v(row.begin(), row.end());
    for (float& x : v) x += 0.1f * static_cast<float>(rng.Gaussian());
    NormalizeInPlace(MutVecSpan(v.data(), v.size()));
    queries.push_back(std::move(v));
  }
  ThreadPool pool(2);
  for (ThreadPool* scan_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (const VectorF& q : queries) {
      std::atomic<uint64_t> rescored{0};
      store::ScanControl control;
      control.rescored = &rescored;
      const VecSpan spans[] = {q};
      auto got = store->TopKBatch(spans, k, store::EmptySeenSet(), scan_pool,
                                  control);
      ASSERT_EQ(got.size(), 1u);
      ExpectIdenticalResults(got[0], BruteForceTopK(table, q, k));
      EXPECT_GE(rescored.load(), k);
      EXPECT_LT(rescored.load(), n / 10)
          << "pooled=" << (scan_pool != nullptr);
    }
  }
}

}  // namespace
}  // namespace seesaw::linalg
