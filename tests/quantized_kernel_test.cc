// The int8 quantized scoring path, tested at both contract tiers:
//
//   1. Within-family: every int8 kernel the CPU supports (scalar reference,
//      AVX2, NEON) is *bitwise* identical — over odd dims, remainder tails,
//      unaligned buffers, and full-scale ±127 saturation stress. The int32
//      accumulation is exact, so this holds by construction; these tests
//      catch any intrinsics path that silently saturates or drops lanes.
//   2. Cross-family: int8 scores approximate fp32 scores. The gate is
//      recall@100 >= 0.99 against the fp32 exact scan on clustered
//      CLIP-like tables (test_util::ClusteredTable), plus a per-element
//      quantize -> dequantize round-trip error bound.
//
// The exact scan's seen-run walk is pinned against the brute-force oracle
// here too, for both precisions, serial and pooled, across seen densities
// and seen sets shorter than the table.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
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
using store::ExactStoreOptions;
using store::ScanPrecision;
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
  QuantizedVector qq = QuantizeQuery(query);
  ASSERT_EQ(qq.data.size(), query.size());
  for (size_t i = 0; i < query.size(); ++i) {
    EXPECT_LE(std::abs(qq.data[i] * qq.scale - query[i]),
              qq.scale * 0.500001f);
  }
}

TEST_F(QuantizedKernelTest, RecallGateVsFp32OnClusteredData) {
  // The cross-family acceptance gate: scanning the quantized table must
  // recover >= 0.99 of the fp32 top-100 on clustered CLIP-like data.
  const size_t n = 4000, dim = 64, k = 100;
  MatrixF table = ClusteredTable(n, dim, /*centers=*/32, /*seed=*/61);
  auto fp32 = ExactStore::Create(table);
  ASSERT_TRUE(fp32.ok());
  ExactStoreOptions options;
  options.precision = ScanPrecision::kInt8;
  auto int8 = ExactStore::Create(table, options);
  ASSERT_TRUE(int8.ok());

  // CLIP-like queries: noisy copies of stored rows (text embeddings land
  // near the image clusters they describe).
  Rng rng(62);
  std::vector<VectorF> queries;
  for (size_t qi = 0; qi < 20; ++qi) {
    auto row = table.Row((qi * 197) % n);
    VectorF v(row.begin(), row.end());
    for (float& x : v) x += 0.1f * static_cast<float>(rng.Gaussian());
    NormalizeInPlace(MutVecSpan(v.data(), v.size()));
    queries.push_back(std::move(v));
  }

  double recall_sum = 0.0;
  for (const VectorF& q : queries) {
    auto truth = fp32->TopK(q, k);
    auto got = int8->TopK(q, k);
    recall_sum += store::RecallAgainst(got, truth);
  }
  const double recall = recall_sum / static_cast<double>(queries.size());
  EXPECT_GE(recall, 0.99) << "int8 recall@" << k << " vs fp32 scan";
}

TEST_F(QuantizedKernelTest, Int8StoreParityAcrossForcedKernels) {
  // The acceptance criterion at the store level: the int8 scan on every
  // supported kernel is bitwise equal to the brute-force int8 oracle
  // computed on the forced-scalar kernel, for single queries and batches.
  const size_t n = 523, dim = 48;
  MatrixF table = ClusteredTable(n, dim, 16, 63);
  ExactStoreOptions options;
  options.precision = ScanPrecision::kInt8;
  auto store = ExactStore::Create(table, options);
  ASSERT_TRUE(store.ok());
  auto queries = RandomQueries(3, dim, 64);
  auto spans = AsSpans(queries);
  SeenSet seen = RandomSeenSet(n, 0.3, 65);

  ASSERT_TRUE(ForceKernels("scalar"));
  std::vector<std::vector<store::SearchResult>> want;
  for (const VectorF& q : queries) {
    want.push_back(BruteForceTopK(table, q, 37, seen, ScanPrecision::kInt8));
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
  // Within the int8 family, the blocked batch scan and the per-pair oracle
  // compute the same fixed-order arithmetic — bitwise equal results.
  const size_t n = 311, dim = 32;
  MatrixF table = ClusteredTable(n, dim, 8, 67);
  ExactStoreOptions options;
  options.precision = ScanPrecision::kInt8;
  auto store = ExactStore::Create(table, options);
  ASSERT_TRUE(store.ok());
  auto queries = RandomQueries(4, dim, 68);
  auto spans = AsSpans(queries);
  for (double fraction : {0.0, 0.4, 0.9}) {
    SeenSet seen = RandomSeenSet(n, fraction, 69);
    auto batched =
        store->TopKBatch(std::span<const VecSpan>(spans), 25, seen);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      ExpectIdenticalResults(
          batched[qi],
          BruteForceTopK(table, queries[qi], 25, seen, ScanPrecision::kInt8));
    }
  }
}

TEST_F(QuantizedKernelTest, SeenRunScanMatchesBruteForce) {
  // The scan scores only the unseen runs the seen set hands it, a chunk at
  // a time. Whatever the seen density, and for seen sets that end before
  // the table does (rows past capacity are unseen), the result must be the
  // brute-force top-k bit for bit — serial and pooled, both precisions
  // (within the int8 family the scan and the oracle compute the same
  // fixed-order arithmetic), on clustered rows with near-tied scores.
  const size_t dim = 24;
  auto queries = RandomQueries(3, dim, 72);
  auto spans = AsSpans(queries);
  ThreadPool pool(3);
  for (size_t capacity : {0u, 1u, 63u, 64u, 65u, 200u, 1000u}) {
    const size_t n = capacity + 70;
    MatrixF table = ClusteredTable(n, dim, 8, 71);
    for (ScanPrecision precision :
         {ScanPrecision::kFloat32, ScanPrecision::kInt8}) {
      ExactStoreOptions options;
      options.precision = precision;
      auto store = ExactStore::Create(table, options);
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
                         << "capacity=" << capacity << " fraction="
                         << fraction << " pooled=" << (scan_pool != nullptr));
            ExpectIdenticalResults(
                got[qi],
                BruteForceTopK(table, queries[qi], 19, seen, precision));
          }
        }
      }
    }
  }
}

TEST_F(QuantizedKernelTest, Fp32PathIsUnchangedByDefaultOptions) {
  // Options default to fp32; a default store must return exactly what the
  // brute-force fp32 oracle returns, with most rows seen.
  const size_t n = 257, dim = 16;
  MatrixF table = RandomTable(n, dim, 79);
  auto store = ExactStore::Create(table);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->options().precision, ScanPrecision::kFloat32);
  EXPECT_TRUE(store->quantized().empty());
  auto queries = RandomQueries(2, dim, 80);
  SeenSet seen = RandomSeenSet(n, 0.8, 81);
  for (const VectorF& q : queries) {
    ExpectIdenticalResults(store->TopK(q, 11, seen),
                           BruteForceTopK(table, q, 11, seen));
  }
}

}  // namespace
}  // namespace seesaw::linalg
