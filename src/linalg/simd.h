// Runtime-dispatched SIMD scoring kernels.
//
// The dense inner-product scan is the hot path of the interactive loop
// (ExactStore row blocks, IVF centroid + list scoring, aligner/loss inner
// products), so Dot / DotBatch / ScoreBlock route through a per-process
// kernel table selected once by CPU-feature detection: AVX2+FMA on x86-64,
// NEON on aarch64, and a portable scalar reference everywhere.
//
// Every implementation computes the *same arithmetic spec*, so results are
// bitwise identical across kernels on a given machine — and across machines
// for all inputs whose operations don't *generate* a NaN (architectures
// disagree on the default NaN's sign bit, e.g. inf + -inf is 0xFFC00000 on
// x86 but 0x7FC00000 on aarch64; existing NaN payloads propagate
// identically):
//
//   - Eight virtual fused-multiply-add lanes, split into two banks A and B
//     that consume interleaved 8-element chunks (elements [16j, 16j+8) feed
//     bank A, [16j+8, 16j+16) feed bank B; one trailing full 8-chunk feeds
//     bank A). Each lane accumulates with a single-rounding fused
//     multiply-add — std::fmaf in the scalar reference, vfmadd/vfma in the
//     vector kernels.
//   - A fixed reduction tree: s[l] = A[l] + B[l]; u[l] = s[l] + s[l+4];
//     result = (u[0] + u[1]) + (u[2] + u[3]).
//   - The tail (n mod 8 elements) folds into the reduced sum sequentially:
//     r = fma(a[i], b[i], r).
//
// Blocked kernels (DotBatch, ScoreBlock) may interleave rows and queries in
// registers but never change the per-(row, query) accumulation order, so
// DotBatch/ScoreBlock stay bitwise equal to per-pair Dot — the invariant the
// batched query engine's parity guarantees are built on.
//
// Selection: the first call resolves SEESAW_FORCE_KERNEL
// ("scalar" | "avx2" | "avx512vnni" | "neon" | "auto"; unknown or
// unsupported values abort), else picks the best kernel the CPU supports.
// Tests switch kernels programmatically via ForceKernels().
#ifndef SEESAW_LINALG_SIMD_H_
#define SEESAW_LINALG_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "linalg/vector_ops.h"

namespace seesaw::linalg {

/// One kernel implementation. All sizes are validated by the callers
/// (vector_ops.cc / matrix.cc); kernels assume consistent inputs.
struct KernelTable {
  /// Stable name used by SEESAW_FORCE_KERNEL and ForceKernels().
  const char* name;

  /// r = <a, b> in spec order.
  float (*dot)(VecSpan a, VecSpan b);

  /// out[q] = <a, queries[q]> for q in [0, num_queries).
  void (*dot_batch)(VecSpan a, const VecSpan* queries, size_t num_queries,
                    float* out);

  /// out[r * num_queries + q] = <row r, queries[q]> for num_rows contiguous
  /// rows of `dim` floats starting at `rows` (row stride == dim).
  void (*score_block)(const float* rows, size_t num_rows, size_t dim,
                      const VecSpan* queries, size_t num_queries, float* out);
};

/// The int8 kernel family: scoring over symmetric per-row-quantized tables
/// (linalg/quantize.h). A separate *family* from the fp32 kernels — its
/// scores are not the fp32 scores, and nothing returns them: ExactStore
/// uses them only to rule rows out, within the certified bound of
/// quantize.h, and rescores every row it keeps with the fp32 kernels above.
/// *Within* the family every kernel is bitwise identical by construction:
/// the int32 accumulation is exact, and the only float operations are the
/// two scale multiplies below, performed in one fixed order:
///
///   combined = row_scale * query_scale;          // one rounding
///   out      = float(int32_sum) * combined;      // one rounding
///
/// Dispatch follows the fp32 table: the same SEESAW_FORCE_KERNEL /
/// ForceKernels() name selects both families together, so a forced-scalar CI
/// leg pins every scoring path at once.
struct Int8KernelTable {
  /// Stable name; matches the fp32 table resolved under the same name.
  const char* name;

  /// Exact int32 inner product of two int8 vectors.
  int32_t (*dot_i32)(const int8_t* a, const int8_t* b, size_t n);

  /// out[r * num_queries + q] =
  ///   float(<rows[r], queries[q]>_i32) * (row_scales[r] * query_scales[q])
  /// for num_rows contiguous int8 rows of `dim` entries (row stride == dim);
  /// queries are likewise contiguous int8 vectors of `dim` entries (query
  /// stride == dim).
  void (*score_block)(const int8_t* rows, const float* row_scales,
                      size_t num_rows, size_t dim, const int8_t* queries,
                      const float* query_scales, size_t num_queries,
                      float* out);
};

/// The portable reference implementation; always available, and the
/// ground truth the vector kernels are parity-tested against.
const KernelTable& ScalarKernels();

/// The portable int8 reference implementation; always available.
const Int8KernelTable& ScalarInt8Kernels();

/// The active table. First call resolves SEESAW_FORCE_KERNEL (aborting on an
/// unknown or unsupported name), else auto-detects. Thread-safe; the result
/// is cached in an atomic so steady-state dispatch is one load.
const KernelTable& ActiveKernels();

/// The active int8 table; resolves by the same name (and the same
/// SEESAW_FORCE_KERNEL / ForceKernels state) as ActiveKernels().
const Int8KernelTable& ActiveInt8Kernels();

/// Forces the active tables (both families) by name ("scalar", "avx2",
/// "avx512vnni", "neon"), or back to CPU auto-detection with "auto".
/// Returns false (and
/// leaves the active tables unchanged) if the name is unknown or unsupported
/// on this CPU. Intended for tests and benchmarks; not synchronized with
/// in-flight scans.
bool ForceKernels(std::string_view name);

/// Kernel names usable on this CPU, best first. Always contains "scalar".
std::vector<std::string> SupportedKernels();

/// Looks up a supported kernel table by name ("auto" resolves to CPU
/// detection); nullptr if unknown or unsupported on this CPU.
const KernelTable* FindKernels(std::string_view name);

/// Int8 counterpart of FindKernels; the same names resolve (every supported
/// fp32 table ships an int8 sibling).
const Int8KernelTable* FindInt8Kernels(std::string_view name);

namespace internal {
/// Arch-specific tables, nullptr when the CPU (or the build architecture)
/// lacks the feature. Defined unconditionally so the dispatcher links on
/// every platform.
const KernelTable* Avx2KernelsOrNull();
const KernelTable* NeonKernelsOrNull();
const Int8KernelTable* Avx2Int8KernelsOrNull();
const Int8KernelTable* NeonInt8KernelsOrNull();
/// AVX512-VNNI configuration: vpdpbusd int8 scoring paired with the AVX2
/// fp32 members (the fp32 accumulation spec is contract-pinned, and the
/// fp32 scan is DRAM-bound — wider fp32 vectors buy nothing).
const KernelTable* Avx512VnniKernelsOrNull();
const Int8KernelTable* Avx512VnniInt8KernelsOrNull();

/// Drops the cached active table so the next ActiveKernels() call re-reads
/// SEESAW_FORCE_KERNEL. Test-only.
void ResetKernelsForTest();
}  // namespace internal

}  // namespace seesaw::linalg

#endif  // SEESAW_LINALG_SIMD_H_
