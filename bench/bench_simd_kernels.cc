// Scalar-reference vs dispatched SIMD kernel throughput across dims x batch
// sizes (Dot, DotBatch, ScoreBlock — the kernels behind every scan).
//
//   ./bench_simd_kernels [--rows=4096] [--dims=64,128,256,512]
//                        [--batches=1,4,8,16] [--warmup=2] [--iters=10]
//                        [--json]
//
// Every (kernel, op, dim, batch) cell is parity-checked bitwise against the
// scalar reference before timing, so the bench doubles as a dispatch-path
// correctness gate.
//
// With --json, one JSON document goes to stdout:
//   {"meta": {...}, "rows": [{"kernel": ..., "op": ..., "dim": ...,
//     "batch": ..., "ms": ..., "gflops": ..., "speedup_vs_scalar": ...}]}
// scripts/run_bench_suite.sh --json writes it to BENCH_simd.json so perf is
// tracked across PRs.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "linalg/matrix.h"
#include "linalg/simd.h"
#include "linalg/vector_ops.h"

namespace seesaw::bench {
namespace {

struct SimdBenchArgs {
  size_t rows = 4096;
  std::vector<size_t> dims = {64, 128, 256, 512};
  std::vector<size_t> batches = {1, 4, 8, 16};
  int warmup = 2;
  int iters = 10;
  bool json = false;

  static std::vector<size_t> ParseList(const char* p) {
    std::vector<size_t> out;
    while (*p != '\0') {
      size_t v = std::strtoul(p, nullptr, 10);
      if (v > 0) out.push_back(v);
      p = std::strchr(p, ',');
      if (p == nullptr) break;
      ++p;
    }
    return out;
  }

  static SimdBenchArgs Parse(int argc, char** argv) {
    SimdBenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strncmp(a, "--rows=", 7) == 0) args.rows = std::atoi(a + 7);
      if (std::strncmp(a, "--dims=", 7) == 0) args.dims = ParseList(a + 7);
      if (std::strncmp(a, "--batches=", 10) == 0) {
        args.batches = ParseList(a + 10);
      }
      if (std::strncmp(a, "--warmup=", 9) == 0) args.warmup = std::atoi(a + 9);
      if (std::strncmp(a, "--iters=", 8) == 0) args.iters = std::atoi(a + 8);
      if (std::strcmp(a, "--json") == 0) args.json = true;
    }
    SEESAW_CHECK(!args.dims.empty() && !args.batches.empty());
    SEESAW_CHECK_GT(args.rows, 0) << "--rows must be >= 1";
    SEESAW_CHECK_GT(args.iters, 0) << "--iters must be >= 1";
    SEESAW_CHECK_GE(args.warmup, 0) << "--warmup must be >= 0";
    return args;
  }
};

linalg::MatrixF RandomTable(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  linalg::MatrixF table(n, d);
  for (float& v : table.mutable_data()) {
    v = static_cast<float>(rng.Gaussian());
  }
  return table;
}

struct Row {
  std::string kernel;
  std::string op;
  size_t dim = 0;
  size_t batch = 0;
  double ms = 0;
  double gflops = 0;
  double speedup_vs_scalar = 0;
};

double MedianMs(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

int Run(int argc, char** argv) {
  SimdBenchArgs args = SimdBenchArgs::Parse(argc, argv);

  struct Impl {
    std::string name;
    const linalg::KernelTable* table;
  };
  // Scalar first so every later row can report its speedup against it.
  std::vector<Impl> impls = {{"scalar", &linalg::ScalarKernels()}};
  for (const std::string& name : linalg::SupportedKernels()) {
    if (name != "scalar") impls.push_back({name, linalg::FindKernels(name)});
  }
  const std::string dispatched = linalg::SupportedKernels().front();

  std::vector<Row> rows_out;
  // scalar_ms[(op, dim, batch)] for speedup columns; scalar runs first.
  std::map<std::string, double> scalar_ms;
  auto key = [](const std::string& op, size_t dim, size_t batch) {
    return op + "/" + std::to_string(dim) + "/" + std::to_string(batch);
  };

  for (size_t dim : args.dims) {
    linalg::MatrixF table = RandomTable(args.rows, dim, /*seed=*/5);
    for (size_t batch : args.batches) {
      linalg::MatrixF query_table = RandomTable(batch, dim, /*seed=*/89);
      std::vector<linalg::VecSpan> queries;
      for (size_t q = 0; q < batch; ++q) {
        queries.push_back(query_table.Row(q));
      }
      std::vector<float> ref(args.rows * batch);
      linalg::ScalarKernels().score_block(table.data().data(), args.rows, dim,
                                          queries.data(), batch, ref.data());
      for (const Impl& impl : impls) {
        std::vector<float> out(args.rows * batch);
        auto score_all = [&] {
          impl.table->score_block(table.data().data(), args.rows, dim,
                                  queries.data(), batch, out.data());
        };
        score_all();
        // Bitwise parity against the scalar reference gates the timing.
        for (size_t i = 0; i < ref.size(); ++i) {
          SEESAW_CHECK_EQ(std::bit_cast<uint32_t>(ref[i]),
                          std::bit_cast<uint32_t>(out[i]))
              << impl.name << " diverged at cell " << i << " (dim=" << dim
              << " batch=" << batch << ")";
        }
        std::vector<double> samples;
        for (int it = -args.warmup; it < args.iters; ++it) {
          Stopwatch sw;
          score_all();
          if (it >= 0) samples.push_back(sw.ElapsedSeconds() * 1e3);
        }
        Row row;
        row.kernel = impl.name;
        row.op = "score_block";
        row.dim = dim;
        row.batch = batch;
        row.ms = MedianMs(samples);
        const double flops = 2.0 * static_cast<double>(args.rows) *
                             static_cast<double>(dim) *
                             static_cast<double>(batch);
        row.gflops = row.ms > 0 ? flops / (row.ms * 1e6) : 0;
        if (impl.name == "scalar") {
          scalar_ms[key(row.op, dim, batch)] = row.ms;
        }
        double base = scalar_ms[key(row.op, dim, batch)];
        row.speedup_vs_scalar = row.ms > 0 ? base / row.ms : 0;
        rows_out.push_back(row);
      }
    }

    // Single-pair Dot across the table rows (the scalar-scan inner loop).
    {
      linalg::MatrixF query_table = RandomTable(1, dim, /*seed=*/97);
      linalg::VecSpan query = query_table.Row(0);
      for (const Impl& impl : impls) {
        auto dot_all = [&] {
          float sink = 0;
          for (size_t r = 0; r < args.rows; ++r) {
            sink += impl.table->dot(table.Row(r), query);
          }
          return sink;
        };
        volatile float guard = dot_all();
        (void)guard;
        std::vector<double> samples;
        for (int it = -args.warmup; it < args.iters; ++it) {
          Stopwatch sw;
          guard = dot_all();
          if (it >= 0) samples.push_back(sw.ElapsedSeconds() * 1e3);
        }
        Row row;
        row.kernel = impl.name;
        row.op = "dot";
        row.dim = dim;
        row.batch = 1;
        row.ms = MedianMs(samples);
        const double flops =
            2.0 * static_cast<double>(args.rows) * static_cast<double>(dim);
        row.gflops = row.ms > 0 ? flops / (row.ms * 1e6) : 0;
        if (impl.name == "scalar") scalar_ms[key(row.op, dim, 1)] = row.ms;
        double base = scalar_ms[key(row.op, dim, 1)];
        row.speedup_vs_scalar = row.ms > 0 ? base / row.ms : 0;
        rows_out.push_back(row);
      }
    }
  }

  if (args.json) {
    std::printf("{\"bench\":\"simd_kernels\",\"meta\":{\"rows\":%zu,"
                "\"warmup\":%d,\"iters\":%d,\"dispatched\":\"%s\"},"
                "\"rows\":[",
                args.rows, args.warmup, args.iters, dispatched.c_str());
    for (size_t i = 0; i < rows_out.size(); ++i) {
      const Row& r = rows_out[i];
      std::printf("%s{\"kernel\":\"%s\",\"op\":\"%s\",\"dim\":%zu,"
                  "\"batch\":%zu,\"ms\":%.5f,\"gflops\":%.3f,"
                  "\"speedup_vs_scalar\":%.3f}",
                  i == 0 ? "" : ",", r.kernel.c_str(), r.op.c_str(), r.dim,
                  r.batch, r.ms, r.gflops, r.speedup_vs_scalar);
    }
    std::printf("]}\n");
  } else {
    std::printf("SIMD kernels: rows=%zu dispatched=%s (median of %d iters)\n",
                args.rows, dispatched.c_str(), args.iters);
    std::printf("%-12s %-12s %5s %6s %10s %9s %9s\n", "op", "kernel", "dim",
                "batch", "ms", "gflops", "vs_scalar");
    for (const Row& r : rows_out) {
      std::printf("%-12s %-12s %5zu %6zu %10.4f %9.2f %8.2fx\n", r.op.c_str(),
                  r.kernel.c_str(), r.dim, r.batch, r.ms, r.gflops,
                  r.speedup_vs_scalar);
    }
  }
  return 0;
}

}  // namespace
}  // namespace seesaw::bench

int main(int argc, char** argv) { return seesaw::bench::Run(argc, argv); }
