// Diagnostic (not a paper artifact): the memory-audit evidence tool.
//
// Four probes, each printing counters (hardware where the host has a PMU,
// software everywhere):
//
//   topology   what the NUMA layer sees (nodes, CPUs, availability) and
//              whether placement/pinning would apply or degrade here.
//   alignment  padded-vs-packed contended-atomic A/B: N threads each
//              hammering their own counter, once packed on shared cache
//              lines and once CacheAligned. On a multi-core host the packed
//              arm shows the coherence-miss blowup the server's admission
//              counters would suffer unpadded; on a single-core host the
//              arms honestly tie (no second writer, no ping-pong).
//   churn      fresh-vectors-vs-arena scratch A/B over the exact allocation
//              shape ExactStore::TopKBatch uses, plus the end-to-end check
//              that a warm GlobalScanScratch pool serves repeated real
//              TopKBatch calls without creating arenas.
//   placement  builds the same table as a placed and an unplaced
//              ShardedStore and proves the results bitwise identical — the
//              fallback contract CI smokes on its single-node runner.
//
// --json emits one object with every probe's numbers for scripts;
// scripts/run_memory_smoke.sh gates CI on the invariant fields (parity,
// fallback, zero steady-state arena creation) and ignores the
// host-dependent ones.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <memory>
#include <thread>
#include <vector>

#include "common/aligned.h"
#include "common/arena.h"
#include "common/hw_counters.h"
#include "common/numa.h"
#include "common/thread_pool.h"
#include "linalg/matrix.h"
#include "store/exact_store.h"
#include "store/seen_set.h"
#include "store/sharded_store.h"

namespace {

// Allocation counting for the churn probe: every operator new in this
// binary bumps the counter. Relaxed is fine — the probe reads it only
// before/after single-threaded regions.
std::atomic<uint64_t> g_alloc_count{0};

}  // namespace

void* operator new(size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace seesaw {
namespace {

struct Args {
  size_t threads = std::thread::hardware_concurrency();
  size_t spins = 4'000'000;  // per-thread counter bumps in the alignment A/B
  size_t churn_iters = 200;
  size_t rows = 20000;
  size_t dim = 64;
  size_t queries = 8;
  bool json = false;
};

double NowMs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

void PrintCounters(const char* label, const hw::CounterDeltas& d,
                   double wall_ms) {
  std::printf("  %-22s wall=%.1fms", label, wall_ms);
  if (d.cache_misses >= 0) {
    std::printf(" cache_refs=%lld cache_misses=%lld",
                static_cast<long long>(d.cache_references),
                static_cast<long long>(d.cache_misses));
  }
  if (d.minor_faults >= 0) {
    std::printf(" minor_faults=%lld", static_cast<long long>(d.minor_faults));
  }
  std::printf("\n");
}

// ------------------------------------------------------------- alignment --

struct AlignmentResult {
  double packed_ms = 0;
  double padded_ms = 0;
  int64_t packed_cache_misses = -1;
  int64_t padded_cache_misses = -1;
  bool hardware = false;
};

/// Runs `threads` writers, each doing `spins` fetch_adds on its own atomic;
/// `stride_objects` selects packed (adjacent words) vs padded (own line).
template <typename Slot>
double HammerCounters(size_t threads, size_t spins, std::vector<Slot>& slots,
                      hw::CounterDeltas* deltas) {
  std::atomic<bool> go{false};
  std::atomic<size_t> ready{0};
  std::unique_ptr<ThreadPool> pool;
  std::vector<TaskHandle> handles;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads - 1);
    for (size_t t = 1; t < threads; ++t) {
      handles.push_back(pool->SubmitWithResult([&, t] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
        }
        auto& counter = slots[t].value;
        for (size_t i = 0; i < spins; ++i) {
          counter.fetch_add(1, std::memory_order_relaxed);
        }
      }));
    }
    // Every hammer task occupies its own worker; wait until all are spinning
    // on `go` so the measured window covers only contended bumping.
    while (ready.load() + 1 < threads) {
    }
  }
  // This thread is the measured writer: self-profiling counters are
  // per-thread, and its line is the one the others' writes would ping-pong.
  hw::CounterScope scope;
  const double begin = NowMs();
  scope.Start();
  go.store(true, std::memory_order_release);
  auto& counter = slots[0].value;
  for (size_t i = 0; i < spins; ++i) {
    counter.fetch_add(1, std::memory_order_relaxed);
  }
  *deltas = scope.Read();
  const double mine = NowMs() - begin;
  for (auto& h : handles) h.Wait();
  return mine;
}

struct PackedSlot {
  std::atomic<uint64_t> value{0};
};
struct PaddedSlot {
  CacheAligned<std::atomic<uint64_t>> padded;
  std::atomic<uint64_t>& value = padded.value;
};

AlignmentResult RunAlignment(const Args& args) {
  AlignmentResult r;
  const size_t threads = std::max<size_t>(1, args.threads);
  hw::CounterDeltas packed_d, padded_d;
  {
    std::vector<PackedSlot> slots(threads);
    r.packed_ms = HammerCounters(threads, args.spins, slots, &packed_d);
  }
  {
    std::vector<PaddedSlot> slots(threads);
    r.padded_ms = HammerCounters(threads, args.spins, slots, &padded_d);
  }
  r.packed_cache_misses = packed_d.cache_misses;
  r.padded_cache_misses = padded_d.cache_misses;
  r.hardware = packed_d.cache_misses >= 0;
  std::printf("alignment A/B: %zu threads x %zu bumps on own atomic\n",
              threads, args.spins);
  PrintCounters("packed (shared lines)", packed_d, r.packed_ms);
  PrintCounters("padded (own line)", padded_d, r.padded_ms);
  if (threads == 1) {
    std::printf("  (single-core host: arms tie by construction — no second "
                "writer to ping-pong with)\n");
  }
  return r;
}

// ----------------------------------------------------------------- churn --

struct ChurnResult {
  uint64_t fresh_allocs_per_iter = 0;
  uint64_t arena_allocs_per_iter = 0;
  int64_t fresh_minor_faults = -1;
  int64_t arena_minor_faults = -1;
  double fresh_ms = 0;
  double arena_ms = 0;
  bool scan_serial_flat = false;
  uint64_t scan_arenas_created = 0;
  uint64_t scan_arena_bound = 0;
  uint64_t scan_allocs_delta_warm = 0;
};

ChurnResult RunChurn(const Args& args) {
  ChurnResult r;
  const size_t dim = args.dim;
  const size_t nq = args.queries;
  const size_t block = 32 * nq;  // kRowBlock * queries, TopKBatch's shape
  volatile float sink = 0;

  // Arm A: the pre-audit shape — fresh vectors every "call".
  {
    hw::CounterScope scope;
    const uint64_t a0 = g_alloc_count.load();
    const double t0 = NowMs();
    scope.Start();
    for (size_t it = 0; it < args.churn_iters; ++it) {
      std::vector<int8_t> qdata(nq * dim);
      std::vector<float> qscales(nq);
      std::vector<float> scores(block);
      std::vector<float> worst(nq, -1e30f);
      qdata[it % qdata.size()] = static_cast<int8_t>(it);
      sink = sink + scores[it % block] + qscales[0] + worst[0];
    }
    auto d = scope.Read();
    r.fresh_ms = NowMs() - t0;
    r.fresh_minor_faults = d.minor_faults;
    r.fresh_allocs_per_iter =
        (g_alloc_count.load() - a0) / args.churn_iters;
  }

  // Arm B: the audited shape — one pooled arena, reset per call.
  {
    ScratchPool pool;
    { auto warm = pool.Acquire(); }  // warm-up outside the measured region
    hw::CounterScope scope;
    const uint64_t a0 = g_alloc_count.load();
    const double t0 = NowMs();
    scope.Start();
    for (size_t it = 0; it < args.churn_iters; ++it) {
      auto lease = pool.Acquire();
      auto qdata = lease->Alloc<int8_t>(nq * dim);
      auto qscales = lease->Alloc<float>(nq);
      auto scores = lease->Alloc<float>(block);
      auto worst = lease->Alloc<float>(nq);
      qdata[it % qdata.size()] = static_cast<int8_t>(it);
      sink = sink + scores[it % block] + qscales[0] + worst[0];
    }
    auto d = scope.Read();
    r.arena_ms = NowMs() - t0;
    r.arena_minor_faults = d.minor_faults;
    r.arena_allocs_per_iter =
        (g_alloc_count.load() - a0) / args.churn_iters;
  }
  (void)sink;

  // End to end: repeated real TopKBatch calls against the process-wide
  // scan pool, gated the same two ways as memory_audit_test:
  //  - serial (pool=nullptr) is deterministic — one call-level lease plus
  //    one sequentially reused scan lease — so after two warm calls
  //    created() must never move again (strict equality);
  //  - pooled peak lease concurrency is bounded by the threads that can run
  //    shard tasks, but *when* the peak is reached is scheduling-dependent,
  //    so the pooled gate is the absolute bound (created <= threads + 2);
  //    per-call growth over the loop below blows it immediately.
  {
    std::mt19937 rng(7);
    std::normal_distribution<float> dist(0.f, 1.f);
    linalg::MatrixF table(args.rows, dim);
    for (size_t i = 0; i < args.rows; ++i) {
      for (auto& v : table.MutableRow(i)) v = dist(rng);
    }
    auto built = store::ExactStore::Create(std::move(table));
    linalg::MatrixF queries(nq, dim);
    for (size_t q = 0; q < nq; ++q) {
      for (auto& v : queries.MutableRow(q)) v = dist(rng);
    }
    std::vector<linalg::VecSpan> spans;
    for (size_t q = 0; q < nq; ++q) spans.push_back(queries.Row(q));
    store::SeenSet seen(args.rows);
    ThreadPool pool(2);

    // Serial gate: two calls warm the sequential lease pattern; created()
    // must then stay put across the measured loop.
    (void)built->TopKBatch(spans, 100, seen, /*pool=*/nullptr);
    (void)built->TopKBatch(spans, 100, seen, /*pool=*/nullptr);
    const uint64_t serial_warm = GlobalScanScratch().created();
    const uint64_t a0 = g_alloc_count.load();
    for (int it = 0; it < 20; ++it) {
      (void)built->TopKBatch(spans, 100, seen, /*pool=*/nullptr);
    }
    r.scan_allocs_delta_warm = (g_alloc_count.load() - a0) / 20;
    r.scan_serial_flat = GlobalScanScratch().created() == serial_warm;

    // Pooled gate: hammer the pool-dispatched path; final created() must
    // stay within the peak-lease bound.
    for (int it = 0; it < 20; ++it) {
      (void)built->TopKBatch(spans, 100, seen, &pool);
    }
    r.scan_arenas_created = GlobalScanScratch().created();
    r.scan_arena_bound = pool.num_threads() + 2;
  }

  std::printf("churn A/B: %zu iters of TopKBatch-shaped scratch "
              "(%zu queries x dim %zu)\n",
              args.churn_iters, nq, dim);
  std::printf("  fresh vectors: %llu allocs/iter, %.2fms (minor_faults=%lld)\n",
              static_cast<unsigned long long>(r.fresh_allocs_per_iter),
              r.fresh_ms, static_cast<long long>(r.fresh_minor_faults));
  std::printf("  pooled arena:  %llu allocs/iter, %.2fms (minor_faults=%lld)\n",
              static_cast<unsigned long long>(r.arena_allocs_per_iter),
              r.arena_ms, static_cast<long long>(r.arena_minor_faults));
  std::printf("  real TopKBatch warm loops: serial created() %s, pooled "
              "created=%llu (bound %llu), %llu allocs/warm serial call\n",
              r.scan_serial_flat ? "flat" : "GREW",
              static_cast<unsigned long long>(r.scan_arenas_created),
              static_cast<unsigned long long>(r.scan_arena_bound),
              static_cast<unsigned long long>(r.scan_allocs_delta_warm));
  return r;
}

// ------------------------------------------------------------- placement --

struct PlacementResult {
  bool numa_available = false;
  size_t nodes = 1;
  bool placed = false;
  bool bitwise_equal = false;
  size_t shards = 4;
};

PlacementResult RunPlacement(const Args& args) {
  PlacementResult r;
  r.numa_available = numa::Available();
  r.nodes = numa::NodeCount();

  std::mt19937 rng(11);
  std::normal_distribution<float> dist(0.f, 1.f);
  linalg::MatrixF table(args.rows, args.dim);
  for (size_t i = 0; i < args.rows; ++i) {
    for (auto& v : table.MutableRow(i)) v = dist(rng);
  }
  linalg::MatrixF queries(args.queries, args.dim);
  for (size_t q = 0; q < args.queries; ++q) {
    for (auto& v : queries.MutableRow(q)) v = dist(rng);
  }
  std::vector<linalg::VecSpan> spans;
  for (size_t q = 0; q < args.queries; ++q) spans.push_back(queries.Row(q));
  store::SeenSet seen(args.rows);

  auto copy = [&] {
    linalg::MatrixF m(args.rows, args.dim);
    for (size_t i = 0; i < args.rows; ++i) {
      auto src = table.Row(i);
      std::copy(src.begin(), src.end(), m.MutableRow(i).begin());
    }
    return m;
  };

  store::ShardedOptions base;
  base.num_shards = r.shards;
  store::ShardedOptions placed = base;
  placed.numa_placement = true;

  ThreadPoolOptions pool_options;
  pool_options.numa_affinity = true;
  ThreadPool pool(std::max<size_t>(2, args.threads), pool_options);

  auto unplaced_store = store::ShardedStore::Create(copy(), base);
  auto placed_store = store::ShardedStore::Create(copy(), placed);
  r.placed = placed_store->numa_placed();

  auto a = unplaced_store->TopKBatch(spans, 100, seen, &pool);
  auto b = placed_store->TopKBatch(spans, 100, seen, &pool);
  r.bitwise_equal = a.size() == b.size();
  for (size_t q = 0; r.bitwise_equal && q < a.size(); ++q) {
    r.bitwise_equal = a[q].size() == b[q].size();
    for (size_t i = 0; r.bitwise_equal && i < a[q].size(); ++i) {
      r.bitwise_equal =
          a[q][i].id == b[q][i].id &&
          std::memcmp(&a[q][i].score, &b[q][i].score, sizeof(float)) == 0;
    }
  }

  std::printf("placement: numa_available=%d nodes=%zu placed=%d "
              "bitwise_equal_vs_unplaced=%d\n",
              r.numa_available, r.nodes, r.placed, r.bitwise_equal);
  for (size_t s = 0; s < placed_store->num_shards(); ++s) {
    std::printf("  shard %zu -> node %zu (worker pinning: %s)\n", s,
                placed_store->shard_node(s),
                pool.numa_affinity() ? "on" : "degraded/no-op");
  }
  return r;
}

int Run(const Args& args) {
  std::printf("diag_memory: topology\n");
  std::printf("  numa_available=%d nodes=%zu cacheline=%zu\n",
              numa::Available(), numa::NodeCount(), kCacheLineSize);
  for (size_t n = 0; n < numa::NodeCount(); ++n) {
    std::printf("  node %zu: %zu cpus\n", n, numa::CpusOfNode(n).size());
  }
  {
    hw::CounterScope probe;
    std::printf("  hardware counters: %s\n",
                probe.hardware_available()
                    ? "perf_event available"
                    : "unavailable (software fallback: faults/cpu-time)");
  }

  AlignmentResult alignment = RunAlignment(args);
  ChurnResult churn = RunChurn(args);
  PlacementResult placement = RunPlacement(args);

  if (args.json) {
    std::printf(
        "JSON{\"numa_available\": %s, \"nodes\": %zu, "
        "\"hardware_counters\": %s, "
        "\"alignment\": {\"threads\": %zu, \"packed_ms\": %.3f, "
        "\"padded_ms\": %.3f, \"packed_cache_misses\": %lld, "
        "\"padded_cache_misses\": %lld}, "
        "\"churn\": {\"fresh_allocs_per_iter\": %llu, "
        "\"arena_allocs_per_iter\": %llu, \"fresh_minor_faults\": %lld, "
        "\"arena_minor_faults\": %lld, \"scan_serial_flat\": %s, "
        "\"scan_arenas_created\": %llu, \"scan_arena_bound\": %llu, "
        "\"scan_allocs_per_warm_call\": %llu}, "
        "\"placement\": {\"placed\": %s, \"bitwise_equal\": %s}}\n",
        numa::Available() ? "true" : "false", numa::NodeCount(),
        alignment.hardware ? "true" : "false", args.threads,
        alignment.packed_ms, alignment.padded_ms,
        static_cast<long long>(alignment.packed_cache_misses),
        static_cast<long long>(alignment.padded_cache_misses),
        static_cast<unsigned long long>(churn.fresh_allocs_per_iter),
        static_cast<unsigned long long>(churn.arena_allocs_per_iter),
        static_cast<long long>(churn.fresh_minor_faults),
        static_cast<long long>(churn.arena_minor_faults),
        churn.scan_serial_flat ? "true" : "false",
        static_cast<unsigned long long>(churn.scan_arenas_created),
        static_cast<unsigned long long>(churn.scan_arena_bound),
        static_cast<unsigned long long>(churn.scan_allocs_delta_warm),
        placement.placed ? "true" : "false",
        placement.bitwise_equal ? "true" : "false");
  }

  // Invariants any host must satisfy (CI smoke gates on the JSON mirror of
  // these): parity regardless of placement, steady warm arena pool.
  if (!placement.bitwise_equal) {
    std::fprintf(stderr, "FAIL: placed store diverged from unplaced\n");
    return 1;
  }
  if (!churn.scan_serial_flat) {
    std::fprintf(stderr,
                 "FAIL: warm serial TopKBatch calls still create arenas\n");
    return 1;
  }
  if (churn.scan_arenas_created > churn.scan_arena_bound) {
    std::fprintf(stderr,
                 "FAIL: pooled TopKBatch leases exceed the peak-concurrency "
                 "bound (per-call growth)\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace seesaw

int main(int argc, char** argv) {
  seesaw::Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value("--threads=")) {
      args.threads = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--spins=")) {
      args.spins = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--churn-iters=")) {
      args.churn_iters = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--rows=")) {
      args.rows = std::strtoull(v, nullptr, 10);
    } else if (arg == "--json") {
      args.json = true;
    } else {
      std::fprintf(stderr,
                   "usage: diag_memory [--threads=N] [--spins=N] "
                   "[--churn-iters=N] [--rows=N] [--json]\n");
      return 2;
    }
  }
  if (args.threads == 0) args.threads = 2;
  return seesaw::Run(args);
}
