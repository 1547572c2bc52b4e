// seesaw_benchmark: the end-to-end benchmark of SeeSaw's interactive search
// loop (label -> refit -> next batch), one workload per process.
//
//   seesaw_benchmark --workload think|saturate|remote --seed N --seconds S
//                    --trace 0|1 [--out_dir DIR] [--git_sha SHA]
//                    [--git_dirty 0|1]
//
// Every session runs the paper's §5.1 task (find 10 positives within 60
// images, batches of 10, ground-truth relevance and boxes as feedback)
// against one service configuration; the workloads differ only in the
// table, the M_D preprocessing and the traffic (kWorkloads below,
// README.md). The seed sets the arrival schedule, the think jitter and the
// order of concepts (the table is fixed, see Profile()); the program
// receives only the generated inputs. Times and closed-loop rates are
// reported at nominal host speed, scaled by a host-speed probe that runs
// beside the workload (HostProbe).
//
// Output: one "metric <name> <value> <unit> samples=<n>" line per metric,
// then, as the last stdout line, one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A results file with provenance, configuration, sample counts
// and span self-time summaries, and for --trace 1 a Chrome trace-event file,
// go to --out_dir. Exit status 1 (and no JSON) when the correctness gate
// fails or a declared percentile lacks the samples to support it.
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/service.h"
#include "core/session_manager.h"
#include "data/profiles.h"
#include "eval/metrics.h"
#include "eval/task_runner.h"
#include "linalg/simd.h"
#include "net/client.h"
#include "net/remote_store.h"
#include "net/server.h"
#include "store/exact_store.h"
#include "store/sharded_store.h"

#ifndef SEESAW_BENCHMARK_BUILD_TYPE
#define SEESAW_BENCHMARK_BUILD_TYPE "unknown"
#endif

namespace seesaw::loopbench {
namespace {

// ---------------------------------------------------------------- config --

struct Workload {
  const char* name;
  /// BddLikeProfile scale: 1 -> ~70.7k rows (36 MB at dim 128, fits a
  /// 100 MB L3), 4 -> ~283k rows (145 MB, does not).
  double scale;
  /// Rows M_D is computed over (the paper's §4.2 sampling shortcut).
  size_t md_sample_rows;
  /// Sessions over loopback TCP with think time (open loop); otherwise
  /// in-process sessions back to back (closed loop).
  bool wire;
  /// Store = kRemoteShards RemoteStore children on in-process peers.
  bool remote_shards;
};

// think: the interactive deployment — mostly small feedback frames, and
//   the think dwell is speculation's window; M_D dominates setup.
// saturate: capacity — the scan runs out of cache, the aligner is on the
//   critical path, speculation has no window (its fits are overhead).
// remote: the store wire path — store frames to two peers, one connection
//   per shard, scatter/merge.
constexpr Workload kWorkloads[] = {
    {"think", 1.0, 16000, true, false},
    {"saturate", 4.0, 4000, false, false},
    {"remote", 1.0, 4000, false, true},
};

constexpr size_t kDim = 128;
constexpr size_t kSetupRepeats = 3;
constexpr size_t kRemoteShards = 2;
constexpr double kThinkMsPerImage = 100.0;  // jittered +-25% per session
/// think arrival rate. At 40/s the four blocking connections queued calls
/// behind 8 ms refits (generator lateness p99 near 9 ms), which amplified
/// every change in host speed: turn_ms.p50 spread 0.14 over five runs
/// against 0.05 at 20/s.
constexpr double kSessionsPerSecond = 20.0;
constexpr double kTurnSloMs = 100.0;
constexpr int64_t kTraceWindowNs = 1'000'000'000;

size_t Nproc() { return ThreadPool::DefaultThreads(); }

/// Generator threads (closed-loop clients, or open-loop drivers each owning
/// one connection): at most four, and never more than the host has cores.
size_t GeneratorThreads() { return std::min<size_t>(4, Nproc()); }

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string git_sha = "unknown";
  std::string git_dirty = "unknown";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "seesaw_benchmark: %s\nusage: seesaw_benchmark --workload "
               "think|saturate|remote --seed N --seconds S --trace 0|1 "
               "[--out_dir DIR] [--git_sha SHA] [--git_dirty 0|1]\n",
               why);
  std::exit(2);
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      f.workload = value;
    } else if (flag == "--seed") {
      f.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      f.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      f.trace = value == "1";
    } else if (flag == "--out_dir") {
      f.out_dir = value;
    } else if (flag == "--git_sha") {
      f.git_sha = value;
    } else if (flag == "--git_dirty") {
      f.git_dirty = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (f.seconds <= 0) Usage("--seconds must be > 0");
  return f;
}

// --------------------------------------------------------------- tracing --

/// One timed interval at a layer boundary. `parent` is the enclosing span
/// on the same thread; `request` is the session call the span serves (0 for
/// work with no caller on its thread: server handlers, pool tasks, peers).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  uint32_t tid = 0;
  int64_t k = -1;  // store lookups: the k asked for
};

/// In-memory span sink, written out after the run. A traced run alternates
/// by one-second window — odd windows traced, even ones not — so the same
/// run yields both the per-layer spans and what recording them costs
/// (trace.overhead_share). Disabled, a span costs one atomic load.
class Tracer {
 public:
  void Start(bool enabled, int64_t t0_ns) {
    t0_ns_.store(t0_ns, std::memory_order_relaxed);
    enabled_.store(enabled, std::memory_order_release);
  }
  void Stop() { enabled_.store(false, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  int64_t Window(int64_t ns) const {
    return (ns - t0_ns_.load(std::memory_order_relaxed)) / kTraceWindowNs;
  }
  static bool WindowTraced(int64_t window) { return window % 2 == 1; }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(const Span& span) {
    MutexLock lock(mu_);
    spans_.push_back(span);
  }

  std::vector<Span> TakeSpans() {
    MutexLock lock(mu_);
    return std::move(spans_);
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> t0_ns_{0};
  std::atomic<uint64_t> next_id_{1};
  Mutex mu_;
  std::vector<Span> spans_ SEESAW_GUARDED_BY(mu_);
};

struct SpanContext {
  uint64_t span = 0;
  uint64_t request = 0;
};
thread_local SpanContext tls_context;

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

/// Records one span over its scope. A span opened inside a traced span on
/// the same thread is traced too, so a call that straddles a window
/// boundary keeps its children.
class ScopedSpan {
 public:
  /// `new_request`: the span is a session call of its own (the driver's
  /// calls); otherwise it inherits the request of the enclosing span.
  ScopedSpan(Tracer& tracer, const char* name, bool new_request,
             int64_t k = -1) {
    if (!tracer.enabled()) return;
    const int64_t now = NowNs();
    if (tls_context.span == 0 && !Tracer::WindowTraced(tracer.Window(now))) {
      return;
    }
    tracer_ = &tracer;
    saved_ = tls_context;
    span_.name = name;
    span_.start_ns = now;
    span_.id = tracer.NextId();
    span_.parent = saved_.span;
    span_.request = new_request ? span_.id : saved_.request;
    span_.tid = ThreadIndex();
    span_.k = k;
    tls_context = {span_.id, span_.request};
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.end_ns = NowNs();
    tls_context = saved_;
    tracer_->Record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  SpanContext saved_;
  Span span_;
};

/// VectorStore decorator that records one span per lookup and otherwise
/// forwards. `fg_name` names foreground lookups and `bg_name` speculative
/// ones (a ScanControl carrying a cancellation token); a layer that cannot
/// tell them apart passes the same name twice.
class TimedStore : public store::VectorStore {
 public:
  TimedStore(std::unique_ptr<store::VectorStore> inner, Tracer& tracer,
             const char* fg_name, const char* bg_name)
      : inner_(std::move(inner)),
        tracer_(tracer),
        fg_name_(fg_name),
        bg_name_(bg_name) {}

  size_t size() const override { return inner_->size(); }
  size_t dim() const override { return inner_->dim(); }
  linalg::VecSpan GetVector(uint32_t id) const override {
    return inner_->GetVector(id);
  }

  std::vector<store::SearchResult> TopK(
      linalg::VecSpan query, size_t k, const store::SeenSet& seen,
      const store::ScanControl& control) const override {
    ScopedSpan span(tracer_, Name(control), false, static_cast<int64_t>(k));
    return inner_->TopK(query, k, seen, control);
  }
  using VectorStore::TopK;

  std::vector<std::vector<store::SearchResult>> TopKBatch(
      std::span<const linalg::VecSpan> queries, size_t k,
      const store::SeenSet& seen, ThreadPool* pool,
      const store::ScanControl& control) const override {
    ScopedSpan span(tracer_, Name(control), false, static_cast<int64_t>(k));
    return inner_->TopKBatch(queries, k, seen, pool, control);
  }
  using VectorStore::TopKBatch;

 private:
  const char* Name(const store::ScanControl& control) const {
    return control.cancel != nullptr ? bg_name_ : fg_name_;
  }

  std::unique_ptr<store::VectorStore> inner_;
  Tracer& tracer_;
  const char* fg_name_;
  const char* bg_name_;
};

std::unique_ptr<store::VectorStore> Timed(
    std::unique_ptr<store::VectorStore> inner, Tracer& tracer,
    const char* fg_name, const char* bg_name) {
  return std::make_unique<TimedStore>(std::move(inner), tracer, fg_name,
                                      bg_name);
}

// ----------------------------------------------------------- environment --

struct SetupTimes {
  double total_s = 0;
  double generate_s = 0;
  double embed_s = 0;
  double index_s = 0;
  double md_s = 0;
};

/// One store-mode peer of the remote workload: its shard's rows behind an
/// in-process SeeSawServer. Members are destroyed server first.
struct Peer {
  std::unique_ptr<store::VectorStore> store;
  std::unique_ptr<core::SessionManager> manager;
  std::unique_ptr<net::SeeSawServer> server;
};

struct Environment {
  // The peers (and the tiny service their managers need) are declared
  // before `service`: its RemoteStore children talk to them until it dies.
  std::unique_ptr<data::Dataset> peer_dataset;
  std::unique_ptr<core::SeeSawService> peer_service;
  std::vector<std::unique_ptr<Peer>> peers;
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<core::SeeSawService> service;
  std::unique_ptr<net::SeeSawServer> server;  // wire workloads only
  SetupTimes times;
};

/// The store every workload serves from: a 1-shard kSharded store whose
/// child is a TimedStore — result-identical to the plain exact store under
/// the sharded store's bitwise-parity contract, and the only seam where a
/// decorator can sit without touching the library.
store::ShardedStore::ChildFactory LocalChild(Tracer& tracer) {
  return [&tracer](linalg::MatrixF rows)
             -> StatusOr<std::unique_ptr<store::VectorStore>> {
    SEESAW_ASSIGN_OR_RETURN(store::ExactStore exact,
                            store::ExactStore::Create(std::move(rows)));
    auto scan = Timed(std::make_unique<store::ExactStore>(std::move(exact)),
                      tracer, "store.scan", "store.scan");
    return Timed(std::move(scan), tracer, "store.fg", "store.bg");
  };
}

/// The remote workload's child: a ShardedStore over kRemoteShards
/// RemoteStores, each connected over loopback to an in-process store-mode
/// peer serving its row range — the same partition a kRemoteShards-shard
/// local store would build.
store::ShardedStore::ChildFactory RemoteChild(Environment* env,
                                              Tracer& tracer) {
  return [env, &tracer](linalg::MatrixF rows)
             -> StatusOr<std::unique_ptr<store::VectorStore>> {
    std::vector<std::unique_ptr<store::VectorStore>> shards;
    for (size_t s = 0; s < kRemoteShards; ++s) {
      auto [first, count] =
          store::ShardedStore::PartitionRange(rows.rows(), kRemoteShards, s);
      linalg::MatrixF part(count, rows.cols());
      for (size_t r = 0; r < count; ++r) {
        auto src = rows.Row(first + r);
        std::copy(src.begin(), src.end(), part.MutableRow(r).begin());
      }
      SEESAW_ASSIGN_OR_RETURN(store::ExactStore exact,
                              store::ExactStore::Create(std::move(part)));
      auto peer = std::make_unique<Peer>();
      peer->store =
          Timed(std::make_unique<store::ExactStore>(std::move(exact)), tracer,
                "store.scan", "store.scan");
      peer->manager = std::make_unique<core::SessionManager>(
          *env->peer_service, std::max<size_t>(1, Nproc() / kRemoteShards));
      peer->server = std::make_unique<net::SeeSawServer>(*peer->manager,
                                                         net::ServerOptions{});
      peer->server->ServeStore(*peer->store);
      SEESAW_RETURN_IF_ERROR(peer->server->Start());
      SEESAW_ASSIGN_OR_RETURN(
          std::unique_ptr<store::RemoteStore> remote,
          store::RemoteStore::Connect("127.0.0.1", peer->server->port(),
                                      store::RemoteStoreOptions{}));
      shards.push_back(
          Timed(std::move(remote), tracer, "remote.shard", "remote.shard"));
      env->peers.push_back(std::move(peer));
    }
    SEESAW_ASSIGN_OR_RETURN(
        store::ShardedStore sharded,
        store::ShardedStore::CreateFromChildren(std::move(shards)));
    return Timed(std::make_unique<store::ShardedStore>(std::move(sharded)),
                 tracer, "store.fg", "store.bg");
  };
}

core::PreprocessOptions Preprocess(const Workload& w) {
  core::PreprocessOptions p;
  p.md.k = 5;
  p.md.sample_size = w.md_sample_rows;
  return p;
}

core::ServiceOptions ServiceConfig(const Workload& w, Environment* env,
                                   Tracer& tracer) {
  core::ServiceOptions o;
  o.preprocess = Preprocess(w);
  o.preprocess.backend = core::StoreBackend::kSharded;
  o.preprocess.sharded.num_shards = 1;
  o.preprocess.sharded_child_factory =
      w.remote_shards ? RemoteChild(env, tracer) : LocalChild(tracer);
  o.session_threads = Nproc();
  o.session_limits.max_inflight_per_session = 1;
  o.search.prefetch.enabled = true;
  o.search.prefetch.max_in_flight = 2;
  return o;
}

/// The table keeps the profile's own seed. Seeding it from --seed changed
/// the work itself: the hard concepts' session depth moved with the data,
/// and rounds_per_s on `saturate` ranged 110-154 over six seeds.
data::DatasetProfile Profile(const Workload& w) {
  data::DatasetProfile p = data::BddLikeProfile(w.scale);
  p.embedding_dim = kDim;
  return p;
}

std::unique_ptr<Environment> BuildEnvironment(const Workload& w,
                                              Tracer& tracer) {
  Stopwatch total;
  auto env = std::make_unique<Environment>();
  if (w.remote_shards) {
    // The peers serve store frames only; their managers still need a
    // service, so they share this tiny one.
    data::DatasetProfile tiny = data::BddLikeProfile(0.05);
    tiny.embedding_dim = 16;
    auto ds = data::Dataset::Generate(tiny);
    SEESAW_CHECK(ds.ok()) << ds.status().ToString();
    env->peer_dataset = std::make_unique<data::Dataset>(std::move(*ds));
    core::ServiceOptions peer_options;
    peer_options.preprocess.build_md = false;
    auto svc = core::SeeSawService::Create(*env->peer_dataset, peer_options);
    SEESAW_CHECK(svc.ok()) << svc.status().ToString();
    env->peer_service =
        std::make_unique<core::SeeSawService>(std::move(*svc));
  }

  Stopwatch generate;
  auto ds = data::Dataset::Generate(Profile(w));
  SEESAW_CHECK(ds.ok()) << ds.status().ToString();
  env->dataset = std::make_unique<data::Dataset>(std::move(*ds));
  env->times.generate_s = generate.ElapsedSeconds();

  auto svc = core::SeeSawService::Create(*env->dataset,
                                         ServiceConfig(w, env.get(), tracer));
  SEESAW_CHECK(svc.ok()) << svc.status().ToString();
  env->service = std::make_unique<core::SeeSawService>(std::move(*svc));
  const core::PreprocessStats& stats = env->service->embedded().stats();
  env->times.embed_s = stats.embed_seconds;
  env->times.index_s = stats.index_seconds;
  env->times.md_s = stats.md_seconds;

  // Creating the manager starts its pool: part of standing the service up.
  core::SessionManager& manager = env->service->sessions();
  if (w.wire) {
    env->server =
        std::make_unique<net::SeeSawServer>(manager, net::ServerOptions{});
    Status started = env->server->Start();
    SEESAW_CHECK(started.ok()) << started.ToString();
  }
  env->times.total_s = total.ElapsedSeconds();
  return env;
}

/// The session mix: the concepts generated with a tail alignment deficit —
/// the paper's hard queries, the ones zero-shot CLIP misses. The others
/// are found in the first batch of 10, so a session of theirs never runs a
/// refit -> next-batch turn and would not exercise the loop. Derived from
/// the generator's ground truth, never from the program's behaviour.
std::vector<size_t> SessionConcepts(const data::Dataset& dataset) {
  const data::DatasetProfile& p = dataset.profile();
  std::vector<size_t> out;
  const size_t min_positives = eval::TaskOptions{}.target_positives;
  for (size_t c : dataset.EvaluableConcepts(min_positives)) {
    if (dataset.space().concept_at(c).alignment_deficit >= p.deficit_tail_lo) {
      out.push_back(c);
    }
  }
  SEESAW_CHECK(!out.empty()) << "no hard concepts in this dataset";
  return out;
}

/// Seeded concept order: a shuffle of the mix, cycled, so every concept
/// gets the same share of sessions.
class ConceptPlan {
 public:
  ConceptPlan(std::vector<size_t> concepts, Rng& rng)
      : order_(std::move(concepts)) {
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1],
                order_[static_cast<size_t>(
                    rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
    }
  }
  size_t ConceptOf(size_t session) const {
    return order_[session % order_.size()];
  }

 private:
  std::vector<size_t> order_;
};

core::ImageFeedback GroundTruth(const data::Dataset& dataset,
                                uint32_t image_idx, size_t concept_id) {
  core::ImageFeedback fb;
  fb.image_idx = image_idx;
  fb.relevant = dataset.IsPositive(image_idx, concept_id);
  if (fb.relevant) fb.boxes = dataset.ConceptBoxes(image_idx, concept_id);
  return fb;
}

// ------------------------------------------------------------ accounting --

/// A refit -> next-batch turn: the user's wait from the moment the turn was
/// due (last label plus think time) to the next batch.
struct Turn {
  double ms = 0;
  bool ok = false;
  int64_t window = -1;  // trace window holding the whole turn; -1 = straddles
};

/// Samples of one generator thread, merged after the run (no locking).
struct ClientLog {
  std::vector<double> first_batch_ms, label_ms;
  std::vector<Turn> turns;
  std::vector<double> create_ms, next_batch_ms, feedback_ms, refit_ms;
  std::vector<double> late_ms;  // generator lateness: call start - due
  uint64_t attempted = 0;       // session calls issued
  uint64_t failed = 0;          // session calls that finally failed
  uint64_t retries = 0;         // RETRY_LATER resends
  int64_t last_end_ns = 0;      // closed loop: the next call's due time

  void Merge(const ClientLog& o) {
    auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(first_batch_ms, o.first_batch_ms);
    cat(label_ms, o.label_ms);
    turns.insert(turns.end(), o.turns.begin(), o.turns.end());
    cat(create_ms, o.create_ms);
    cat(next_batch_ms, o.next_batch_ms);
    cat(feedback_ms, o.feedback_ms);
    cat(refit_ms, o.refit_ms);
    cat(late_ms, o.late_ms);
    attempted += o.attempted;
    failed += o.failed;
    retries += o.retries;
  }
};

/// One measured session: its task outcome and speculation counters.
struct SessionRecord {
  size_t concept_id = 0;
  eval::TaskResult result;
  core::PrefetchStats spec;
  bool failed = false;
};

Turn MakeTurn(const Tracer& tracer, int64_t due_ns, int64_t end_ns, bool ok) {
  Turn t;
  t.ms = Ms(end_ns - due_ns);
  t.ok = ok;
  const int64_t w = tracer.Window(due_ns);
  t.window = w == tracer.Window(end_ns) ? w : -1;
  return t;
}

// ------------------------------------------------------------ closed loop --

/// core::Searcher over one managed session that times every call
/// eval::RunSearchTask makes. Each call is due when the previous one
/// returned (zero think time).
class TimedSearcher : public core::Searcher {
 public:
  TimedSearcher(core::SeeSawSearcher& session, ClientLog& log, Tracer& tracer,
                int64_t created_due_ns)
      : session_(session),
        log_(log),
        tracer_(tracer),
        first_due_ns_(created_due_ns) {}

  std::string name() const override { return session_.name(); }

  std::vector<core::ScoredImage> NextBatch(size_t n) override {
    const int64_t due = log_.last_end_ns;
    const int64_t start = Begin(due);
    std::vector<core::ScoredImage> batch;
    {
      ScopedSpan span(tracer_, "call.next_batch", true);
      batch = session_.NextBatch(n);
    }
    const int64_t end = End(start, log_.next_batch_ms);
    if (first_due_ns_ >= 0) {
      log_.first_batch_ms.push_back(Ms(end - first_due_ns_));
      first_due_ns_ = -1;
    } else {
      log_.turns.push_back(MakeTurn(tracer_, turn_due_ns_, end, true));
    }
    return batch;
  }

  void AddFeedback(const core::ImageFeedback& feedback) override {
    const int64_t due = log_.last_end_ns;
    const int64_t start = Begin(due);
    {
      ScopedSpan span(tracer_, "call.feedback", true);
      session_.AddFeedback(feedback);
    }
    const int64_t end = End(start, log_.feedback_ms);
    log_.label_ms.push_back(Ms(end - due));
  }

  Status Refit() override {
    turn_due_ns_ = log_.last_end_ns;
    const int64_t start = Begin(turn_due_ns_);
    Status s;
    {
      ScopedSpan span(tracer_, "call.refit", true);
      s = session_.Refit();
    }
    End(start, log_.refit_ms);
    return s;
  }

 private:
  int64_t Begin(int64_t due) {
    const int64_t start = NowNs();
    log_.late_ms.push_back(Ms(start - due));
    ++log_.attempted;
    return start;
  }
  int64_t End(int64_t start, std::vector<double>& samples) {
    const int64_t end = NowNs();
    samples.push_back(Ms(end - start));
    log_.last_end_ns = end;
    return end;
  }

  core::SeeSawSearcher& session_;
  ClientLog& log_;
  Tracer& tracer_;
  int64_t first_due_ns_;
  int64_t turn_due_ns_ = 0;
};

/// Closed loop: GeneratorThreads() clients run sessions back to back
/// through the in-process SessionManager until the deadline; sessions in
/// flight at the deadline run to completion.
void RunClosedLoop(Environment& env, const ConceptPlan& plan, double seconds,
                   Tracer& tracer, std::vector<ClientLog>& logs,
                   std::vector<SessionRecord>& sessions) {
  core::SessionManager& manager = env.service->sessions();
  const core::EmbeddedDataset& embedded = env.service->embedded();
  const size_t clients = logs.size();
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::atomic<size_t> next_session{0};
  std::vector<std::vector<SessionRecord>> per_client(clients);

  ThreadPool pool(clients);
  std::vector<TaskHandle> handles;
  for (size_t c = 0; c < clients; ++c) {
    handles.push_back(pool.SubmitWithResult([&, c] {
      ClientLog& log = logs[c];
      log.last_end_ns = NowNs();
      while (NowNs() < deadline) {
        SessionRecord rec;
        rec.concept_id = plan.ConceptOf(
            next_session.fetch_add(1, std::memory_order_relaxed));
        const int64_t due = log.last_end_ns;
        const int64_t start = NowNs();
        log.late_ms.push_back(Ms(start - due));
        ++log.attempted;
        StatusOr<core::SessionId> id = [&] {
          ScopedSpan span(tracer, "call.create", true);
          return manager.CreateSession(embedded.TextQuery(rec.concept_id));
        }();
        log.last_end_ns = NowNs();
        log.create_ms.push_back(Ms(log.last_end_ns - start));
        if (!id.ok()) {
          ++log.failed;
          continue;
        }
        std::shared_ptr<core::SeeSawSearcher> session = manager.Find(*id);
        SEESAW_CHECK(session != nullptr);
        TimedSearcher timed(*session, log, tracer, due);
        rec.result = eval::RunSearchTask(timed, *env.dataset, rec.concept_id,
                                         eval::TaskOptions{});
        rec.spec = session->prefetch_stats();
        session.reset();
        ++log.attempted;
        {
          ScopedSpan span(tracer, "call.close", true);
          if (!manager.Close(*id).ok()) ++log.failed;
        }
        log.last_end_ns = NowNs();
        per_client[c].push_back(std::move(rec));
      }
    }));
  }
  for (TaskHandle& h : handles) h.Wait();
  for (auto& recs : per_client) {
    for (auto& r : recs) sessions.push_back(std::move(r));
  }
}

// -------------------------------------------------------------- open loop --

/// One scripted user of the wire workload. It follows eval::RunSearchTask
/// step for step (the correctness gate replays it with that function), but
/// as events on a shared schedule, so GeneratorThreads() connections serve
/// every live session and each call is timed from when it was due.
struct WireSession {
  explicit WireSession(uint64_t think_seed) : think_rng(think_seed) {}

  enum class Next { kStart, kLabel, kTurn };
  Next next = Next::kStart;
  Rng think_rng;
  uint64_t sid = 0;
  std::vector<core::ScoredImage> batch;
  size_t pos = 0;  // next image of `batch` to label
  SessionRecord record;
};

struct Event {
  int64_t due_ns;
  uint32_t session;
};
struct LaterFirst {
  bool operator()(const Event& a, const Event& b) const {
    return a.due_ns > b.due_ns;
  }
};

/// Due-time heap shared by the driver threads.
class EventQueue {
 public:
  explicit EventQueue(size_t sessions) : live_(sessions) {}

  void Push(Event e) {
    MutexLock lock(mu_);
    heap_.push(e);
  }

  /// Blocks until an event is due and pops it; false once every session
  /// has finished. Sleeps until the earliest due time: events pushed while
  /// it sleeps are a think time away, and their pusher re-checks the heap.
  bool Next(Event* out) {
    for (;;) {
      int64_t wake = 0;
      {
        MutexLock lock(mu_);
        if (live_ == 0) return false;
        const int64_t now = NowNs();
        if (!heap_.empty() && heap_.top().due_ns <= now) {
          *out = heap_.top();
          heap_.pop();
          return true;
        }
        constexpr int64_t kMaxNapNs = 2'000'000;
        wake = heap_.empty() ? now + kMaxNapNs
                             : std::min(heap_.top().due_ns, now + kMaxNapNs);
      }
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(wake)));
    }
  }

  void Finish() {
    MutexLock lock(mu_);
    --live_;
  }

 private:
  Mutex mu_;
  std::priority_queue<Event, std::vector<Event>, LaterFirst> heap_
      SEESAW_GUARDED_BY(mu_);
  size_t live_ SEESAW_GUARDED_BY(mu_);
};

class WireDriver {
 public:
  WireDriver(Environment& env, Tracer& tracer)
      : env_(env), tracer_(tracer), options_() {}

  /// Runs the session's due event; returns when the next one is due, or -1
  /// when the session is over.
  int64_t Step(WireSession& s, int64_t due, net::SeeSawClient& client,
               ClientLog& log) {
    switch (s.next) {
      case WireSession::Next::kStart:
        return Start(s, due, client, log);
      case WireSession::Next::kLabel:
        return Label(s, due, client, log);
      case WireSession::Next::kTurn:
        return TurnStep(s, due, client, log);
    }
    return -1;
  }

 private:
  /// One session call: resent while the server sheds it with RETRY_LATER
  /// (its latency, added to `samples` when given, includes the resends);
  /// any other error fails it.
  template <typename Op>
  Status Call(net::SeeSawClient& client, ClientLog& log, const char* name,
              std::vector<double>* samples, Op&& op) {
    ++log.attempted;
    const int64_t start = NowNs();
    ScopedSpan span(tracer_, name, true);
    Status s;
    for (int attempt = 1;; ++attempt) {
      s = op();
      if (s.ok() || s.code() != StatusCode::kResourceExhausted ||
          !net::IsRetriable(client.last_wire_error()) || attempt >= 100) {
        break;
      }
      ++log.retries;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (samples != nullptr) samples->push_back(Ms(NowNs() - start));
    if (!s.ok()) ++log.failed;
    return s;
  }

  Status NextBatch(WireSession& s, net::SeeSawClient& client,
                   ClientLog& log) {
    const eval::TaskResult& r = s.record.result;
    const size_t want = std::min(options_.batch_size,
                                 options_.max_images - r.inspected);
    return Call(client, log, "call.next_batch", &log.next_batch_ms, [&] {
      auto batch = client.NextBatch(s.sid, want);
      if (!batch.ok()) return batch.status();
      s.batch = std::move(*batch);
      s.pos = 0;
      return Status::OK();
    });
  }

  int64_t Start(WireSession& s, int64_t due, net::SeeSawClient& client,
                ClientLog& log) {
    log.late_ms.push_back(Ms(NowNs() - due));
    const linalg::VectorF query =
        env_.service->embedded().TextQuery(s.record.concept_id);
    Status st = Call(client, log, "call.create", &log.create_ms, [&] {
      auto sid = client.CreateSessionFromVector(query);
      if (!sid.ok()) return sid.status();
      s.sid = *sid;
      return Status::OK();
    });
    if (st.ok()) st = NextBatch(s, client, log);
    if (!st.ok()) return Fail(s);
    const int64_t end = NowNs();
    log.first_batch_ms.push_back(Ms(end - due));
    return AfterBatch(s, end, client, log);
  }

  // RunSearchTask labels the first image as soon as the batch arrives.
  int64_t AfterBatch(WireSession& s, int64_t now, net::SeeSawClient& client,
                     ClientLog& log) {
    if (s.batch.empty()) return Close(s, client, log);  // store exhausted
    return Label(s, now, client, log);
  }

  int64_t Label(WireSession& s, int64_t due, net::SeeSawClient& client,
                ClientLog& log) {
    log.late_ms.push_back(Ms(NowNs() - due));
    const core::ImageFeedback fb = GroundTruth(
        *env_.dataset, s.batch[s.pos].image_idx, s.record.concept_id);
    Status st = Call(client, log, "call.feedback", &log.feedback_ms,
                     [&] { return client.AddFeedback(s.sid, fb); });
    if (!st.ok()) return Fail(s);
    const int64_t end = NowNs();
    log.label_ms.push_back(Ms(end - due));

    eval::TaskResult& r = s.record.result;
    r.relevance.push_back(fb.relevant ? 1 : 0);
    ++r.inspected;
    if (fb.relevant) ++r.found;
    ++s.pos;
    const bool batch_done = r.found >= options_.target_positives ||
                            r.inspected >= options_.max_images ||
                            s.pos == s.batch.size();
    s.next = batch_done ? WireSession::Next::kTurn : WireSession::Next::kLabel;
    const double think_ms = kThinkMsPerImage * s.think_rng.Uniform(0.75, 1.25);
    return end + static_cast<int64_t>(think_ms * 1e6);
  }

  int64_t TurnStep(WireSession& s, int64_t due, net::SeeSawClient& client,
                   ClientLog& log) {
    log.late_ms.push_back(Ms(NowNs() - due));
    eval::TaskResult& r = s.record.result;
    const bool more = r.found < options_.target_positives &&
                      r.inspected < options_.max_images;
    Status st = Call(client, log, "call.refit", &log.refit_ms,
                     [&] { return client.Refit(s.sid); });
    if (st.ok()) {
      ++r.rounds;
      if (!more) return Close(s, client, log);
      st = NextBatch(s, client, log);
    }
    const int64_t end = NowNs();
    if (more) log.turns.push_back(MakeTurn(tracer_, due, end, st.ok()));
    if (!st.ok()) return Fail(s);
    return AfterBatch(s, end, client, log);
  }

  int64_t Close(WireSession& s, net::SeeSawClient& client, ClientLog& log) {
    // The server is in-process, so the session's speculation counters are
    // read straight off it; no request of this session is in flight.
    if (auto session = env_.service->sessions().Find(s.sid)) {
      s.record.spec = session->prefetch_stats();
    }
    if (!Call(client, log, "call.close", nullptr,
              [&] { return client.CloseSession(s.sid); })
             .ok()) {
      return Fail(s);
    }
    s.record.result.ap =
        eval::TaskAp(s.record.result.relevance,
                     env_.dataset->positives(s.record.concept_id).size(),
                     options_.target_positives);
    return -1;
  }

  int64_t Fail(WireSession& s) {
    s.record.failed = true;
    return -1;
  }

  Environment& env_;
  Tracer& tracer_;
  const eval::TaskOptions options_;
};

/// Open loop over the wire: sessions arrive at kSessionsPerSecond for
/// `seconds` (arrival times uniform given their count, i.e. a Poisson
/// process conditioned on the count), and run to completion.
void RunWireLoop(Environment& env, const ConceptPlan& plan, double seconds,
                 Rng& rng, Tracer& tracer, std::vector<ClientLog>& logs,
                 std::vector<SessionRecord>& sessions) {
  const size_t n = std::max<size_t>(
      1, static_cast<size_t>(std::lround(kSessionsPerSecond * seconds)));
  std::vector<double> arrivals(n);
  for (double& a : arrivals) a = rng.Uniform(0.0, seconds);
  std::sort(arrivals.begin(), arrivals.end());

  std::vector<std::unique_ptr<net::SeeSawClient>> clients;
  for (size_t c = 0; c < logs.size(); ++c) {
    auto client = net::SeeSawClient::Connect("127.0.0.1", env.server->port());
    SEESAW_CHECK(client.ok()) << client.status().ToString();
    clients.push_back(
        std::make_unique<net::SeeSawClient>(std::move(*client)));
  }

  std::vector<WireSession> wire;
  wire.reserve(n);
  EventQueue queue(n);
  const int64_t t0 = NowNs();
  for (size_t i = 0; i < n; ++i) {
    wire.emplace_back(static_cast<uint64_t>(rng.UniformInt(0, INT64_MAX)));
    wire.back().record.concept_id = plan.ConceptOf(i);
    queue.Push({t0 + static_cast<int64_t>(arrivals[i] * 1e9),
                static_cast<uint32_t>(i)});
  }

  WireDriver driver(env, tracer);
  ThreadPool pool(logs.size());
  std::vector<TaskHandle> handles;
  for (size_t c = 0; c < logs.size(); ++c) {
    handles.push_back(pool.SubmitWithResult([&, c] {
      Event e{};
      while (queue.Next(&e)) {
        const int64_t next =
            driver.Step(wire[e.session], e.due_ns, *clients[c], logs[c]);
        if (next < 0) {
          queue.Finish();
        } else {
          queue.Push({next, e.session});
        }
      }
    }));
  }
  for (TaskHandle& h : handles) h.Wait();
  for (WireSession& s : wire) sessions.push_back(std::move(s.record));
}

// ------------------------------------------------------ correctness gate --

/// Replays each distinct concept once on a plain searcher — no pool, no
/// speculation, `reference`'s store — and requires every measured session
/// to have made exactly the same decisions.
bool CorrectnessGate(const data::Dataset& dataset,
                     const core::EmbeddedDataset& reference,
                     const std::vector<SessionRecord>& sessions) {
  std::map<size_t, eval::TaskResult> replay;
  size_t mismatches = 0;
  for (const SessionRecord& s : sessions) {
    if (s.failed) continue;
    auto it = replay.find(s.concept_id);
    if (it == replay.end()) {
      core::SeeSawSearcher searcher(reference,
                                    reference.TextQuery(s.concept_id),
                                    core::SeeSawOptions{});
      it = replay
               .emplace(s.concept_id,
                        eval::RunSearchTask(searcher, dataset, s.concept_id,
                                            eval::TaskOptions{}))
               .first;
    }
    const eval::TaskResult& a = it->second;
    const eval::TaskResult& b = s.result;
    if (a.found != b.found || a.inspected != b.inspected ||
        a.rounds != b.rounds || a.relevance != b.relevance || a.ap != b.ap) {
      if (++mismatches <= 5) {
        std::fprintf(stderr,
                     "gate: concept %zu replay found=%zu inspected=%zu "
                     "rounds=%zu ap=%.6f, measured found=%zu inspected=%zu "
                     "rounds=%zu ap=%.6f\n",
                     s.concept_id, a.found, a.inspected, a.rounds, a.ap, b.found,
                     b.inspected, b.rounds, b.ap);
      }
    }
  }
  std::fprintf(stderr, "gate: %zu sessions, %zu concepts replayed, %zu "
               "mismatches\n", sessions.size(), replay.size(), mismatches);
  return mismatches == 0 && !replay.empty();
}

// --------------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

/// The metrics of one run. A percentile is reported only with at least ten
/// samples beyond it (p50 needs 20, p95 200, p99 1000); one short of
/// samples fails the run rather than print what would really be the max.
/// Percentiles are of times in the measured phase and are reported at
/// nominal host speed: divided by the phase's host slowdown (HostProbe).
class Report {
 public:
  explicit Report(double slowdown) : slowdown_(slowdown) {}

  void Add(const std::string& name, double value, const char* unit,
           size_t samples) {
    metrics_.push_back({name, value, unit, samples});
  }

  void Percentile(const std::string& name, std::vector<double> v, double p,
                  const char* unit) {
    const double beyond = static_cast<double>(v.size()) * (1.0 - p / 100.0);
    if (v.empty() || beyond < 10.0 - 1e-9) {
      std::fprintf(stderr,
                   "metric %s: %zu samples cannot support p%g (needs %.0f)\n",
                   name.c_str(), v.size(), p, std::ceil(10.0 / (1 - p / 100)));
      short_of_samples_ = true;
      Add(name, 0, unit, v.size());
      return;
    }
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    Add(name, v[rank - 1] / slowdown_, unit, v.size());
  }

  bool short_of_samples() const { return short_of_samples_; }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  double slowdown_;
  std::vector<Metric> metrics_;
  bool short_of_samples_ = false;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Share(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Median of one SetupTimes field over the repeated set-ups.
double SetupMedian(const std::vector<SetupTimes>& setups,
                   double SetupTimes::*field) {
  std::vector<double> v;
  for (const SetupTimes& t : setups) v.push_back(t.*field);
  return Median(std::move(v));
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Server-side counters summed over every in-process server the workload
/// runs (the session server, or the store peers).
net::ServerStats ServerTotals(const Environment& env) {
  net::ServerStats total;
  auto add = [&total](const net::ServerStats& s) {
    total.requests_ok += s.requests_ok;
    total.requests_error += s.requests_error + s.malformed_frames;
    total.requests_shed += s.requests_shed;
  };
  if (env.server) add(env.server->stats());
  for (const auto& peer : env.peers) add(peer->server->stats());
  return total;
}

// ------------------------------------------------------------ host probe --

constexpr size_t kProbeRows = 131072;     // 64 MB at kDim: more than L2
constexpr size_t kProbeSliceRows = 8192;  // 4 MB per scan burst
constexpr size_t kProbeMatrixRows = 64;   // 32 KB at kDim: L1-resident
constexpr size_t kProbeProducts = 20;     // matrix-vector products per burst
constexpr auto kProbePeriod = std::chrono::milliseconds(50);
/// About each burst's median on the development host in a quiet hour; they
/// only set the scale of the reported numbers.
constexpr double kProbeNominalScanMs = 0.7;
constexpr double kProbeNominalComputeMs = 0.09;

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// The host's speed over an interval, against nominal: > 1 is slower.
struct HostSpeed {
  double slowdown = 1;
  size_t bursts = 0;
};

/// Host-speed probe. The development host is a 4-vCPU guest whose cores,
/// L3 and memory bandwidth other tenants share, and its speed drifts by a
/// quarter and more over minutes; every time in a run drifts with it. Raw
/// times of ten runs of one build spread by 0.08-0.47 (quartiles over
/// median), too wide for a bound to mean anything.
///
/// So a thread of the benchmark's own times two fixed bursts every
/// kProbePeriod, for the whole run, in code no change to the library
/// touches: a scan (dot products of a query against a 4 MB slice of a 64 MB
/// table, the next slice each time — memory-bound, like the store scan) and
/// a compute burst (matrix-vector products on an L1-resident matrix —
/// core-bound, like the aligner fit). Each is timed in the thread's CPU
/// time, so a burst that waits for a core does not count. Over an interval,
/// the host's slowdown is the geometric mean of the two bursts' medians,
/// each over its nominal time. Reported times are divided by it and
/// closed-loop rates multiplied by it. On ten runs per workload either
/// burst alone left spreads up to 0.085; the two together, up to 0.078,
/// most under 0.05. The probe costs about 2% of one core.
class HostProbe {
 public:
  HostProbe()
      : table_(kProbeRows * kDim),
        matrix_(kProbeMatrixRows * kDim),
        query_(kDim),
        product_(kProbeMatrixRows) {
    for (size_t i = 0; i < table_.size(); ++i) {
      table_[i] = static_cast<float>(i % 89) * 0.01f;
    }
    for (size_t i = 0; i < matrix_.size(); ++i) {
      matrix_[i] = static_cast<float>(i % 97) * 0.01f;
    }
    for (size_t j = 0; j < kDim; ++j) {
      query_[j] = 0.5f + 0.001f * static_cast<float>(j);
    }
    handle_ = pool_.SubmitWithResult([this] { Loop(); });
  }
  ~HostProbe() {
    stop_.store(true, std::memory_order_release);
    handle_.Wait();
  }
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// From the bursts that ended in [from_ns, to_ns); a slowdown of 1 when
  /// there are none.
  HostSpeed Speed(int64_t from_ns, int64_t to_ns) const {
    std::vector<double> scan_ms, compute_ms;
    {
      MutexLock lock(mu_);
      for (const Burst& b : bursts_) {
        if (b.at_ns < from_ns || b.at_ns >= to_ns) continue;
        scan_ms.push_back(b.scan_ms);
        compute_ms.push_back(b.compute_ms);
      }
    }
    HostSpeed speed;
    speed.bursts = scan_ms.size();
    if (speed.bursts > 0) {
      speed.slowdown =
          std::sqrt(Median(std::move(scan_ms)) / kProbeNominalScanMs *
                    Median(std::move(compute_ms)) / kProbeNominalComputeMs);
    }
    return speed;
  }

 private:
  struct Burst {
    int64_t at_ns;
    double scan_ms;
    double compute_ms;
  };

  void Loop() {
    size_t slice = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      Burst burst{};
      const double scan_start = ThreadCpuMs();
      float best = -1e30f;
      for (size_t row = slice * kProbeSliceRows;
           row < (slice + 1) * kProbeSliceRows; ++row) {
        const float* r = &table_[row * kDim];
        float dot = 0;
        for (size_t j = 0; j < kDim; ++j) dot += r[j] * query_[j];
        best = std::max(best, dot);
      }
      const double compute_start = ThreadCpuMs();
      burst.scan_ms = compute_start - scan_start;
      // Each product feeds the next, so none can be skipped or hoisted.
      for (size_t p = 0; p < kProbeProducts; ++p) {
        for (size_t i = 0; i < kProbeMatrixRows; ++i) {
          const float* r = &matrix_[i * kDim];
          float dot = 0;
          for (size_t j = 0; j < kDim; ++j) dot += r[j] * query_[j];
          product_[i] = dot;
        }
        for (size_t i = 0; i < kProbeMatrixRows; ++i) {
          query_[i] = 0.5f + 0.001f * static_cast<float>(i) +
                      product_[i] * 1e-9f;
        }
      }
      burst.compute_ms = ThreadCpuMs() - compute_start;
      burst.at_ns = NowNs();
      sink_ += best + product_[0];
      {
        MutexLock lock(mu_);
        bursts_.push_back(burst);
      }
      slice = (slice + 1) % (kProbeRows / kProbeSliceRows);
      std::this_thread::sleep_for(kProbePeriod);
    }
  }

  std::vector<float> table_;
  std::vector<float> matrix_;
  std::vector<float> query_;
  std::vector<float> product_;
  float sink_ = 0;  // keeps the bursts' results live
  std::atomic<bool> stop_{false};
  mutable Mutex mu_;
  std::vector<Burst> bursts_ SEESAW_GUARDED_BY(mu_);
  ThreadPool pool_{1};
  TaskHandle handle_;
};

/// What one measured phase produced, for the metric computations.
struct RunData {
  std::vector<SetupTimes> setups;
  ClientLog log;
  std::vector<SessionRecord> sessions;
  std::vector<Span> spans;
  double wall_s = 0;
  double cpu_s = 0;
  double traced_s = 0;  // wall time inside traced windows
  net::ServerStats server;
  bool closed_loop = false;
  HostSpeed setup_host;  // over the set-ups
  HostSpeed host;        // over the measured phase
};

size_t Rounds(const RunData& d) {
  size_t rounds = 0;
  for (const SessionRecord& s : d.sessions) rounds += s.result.rounds;
  return rounds;
}

/// Every time and closed-loop rate below is at nominal host speed (see
/// HostProbe). An open-loop rate is the offered load, which host speed
/// does not set, so it stays as measured.
void EndToEndMetrics(const RunData& d, Report& r) {
  r.Add("setup_s",
        SetupMedian(d.setups, &SetupTimes::total_s) / d.setup_host.slowdown,
        "s", d.setups.size());
  r.Percentile("first_batch_ms.p50", d.log.first_batch_ms, 50, "ms");
  std::vector<double> turn_ms;
  size_t within_slo = 0;
  for (const Turn& t : d.log.turns) {
    if (!t.ok) continue;
    turn_ms.push_back(t.ms);
    if (t.ms / d.host.slowdown <= kTurnSloMs) ++within_slo;
  }
  r.Percentile("turn_ms.p50", turn_ms, 50, "ms");
  r.Percentile("turn_ms.p95", turn_ms, 95, "ms");
  r.Add("turn_slo_share",
        Share(static_cast<double>(within_slo),
              static_cast<double>(d.log.turns.size())),
        "share", d.log.turns.size());
  const size_t rounds = Rounds(d);
  const double rate_scale = d.closed_loop ? d.host.slowdown : 1.0;
  r.Add("rounds_per_s",
        Share(static_cast<double>(rounds), d.wall_s) * rate_scale, "1/s",
        rounds);
  r.Add("cpu_ms_per_round",
        Share(d.cpu_s * 1e3, static_cast<double>(rounds)) / d.host.slowdown,
        "ms", rounds);
  // Over the distinct concepts — the paper's mean AP over the query set.
  // Every session of a concept has the same AP (the correctness gate holds
  // each to its replay), so the value does not depend on the session count.
  std::map<size_t, double> ap;
  for (const SessionRecord& s : d.sessions) {
    if (!s.failed) ap[s.concept_id] = s.result.ap;
  }
  double ap_sum = 0;
  for (const auto& [concept_id, value] : ap) ap_sum += value;
  r.Add("mean_ap", Share(ap_sum, static_cast<double>(ap.size())), "ap",
        ap.size());
  r.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
}

struct SpanStats {
  std::vector<double> ms;
  double total_ms = 0;
  double self_ms = 0;
  double k_sum = 0;
};

std::map<std::string, SpanStats> SummarizeSpans(const std::vector<Span>& spans) {
  std::map<uint64_t, double> child_ms;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ms[s.parent] += Ms(s.end_ns - s.start_ns);
  }
  std::map<std::string, SpanStats> out;
  for (const Span& s : spans) {
    SpanStats& st = out[s.name];
    const double ms = Ms(s.end_ns - s.start_ns);
    st.ms.push_back(ms);
    st.total_ms += ms;
    auto it = child_ms.find(s.id);
    st.self_ms += ms - (it == child_ms.end() ? 0.0 : it->second);
    if (s.k >= 0) st.k_sum += static_cast<double>(s.k);
  }
  return out;
}

void PerLayerMetrics(const RunData& d, const Workload& w, Report& r) {
  std::map<std::string, SpanStats> spans = SummarizeSpans(d.spans);
  auto& nb = spans["call.next_batch"];
  auto& fg = spans["store.fg"];
  auto& bg = spans["store.bg"];
  auto& scan = spans["store.scan"];

  // Generator.
  r.Percentile("gen.late_ms.p99", d.log.late_ms, 99, "ms");
  r.Add("gen.sessions", static_cast<double>(d.sessions.size()), "count",
        d.sessions.size());
  r.Add("gen.turns", static_cast<double>(d.log.turns.size()), "count",
        d.log.turns.size());
  r.Add("gen.cpu_share",
        Share(d.cpu_s, d.wall_s * static_cast<double>(Nproc())), "share", 1);

  // End-to-end tails too noisy between runs on a shared host to carry a
  // bound (their spread reached 0.37 over ten runs on `think`).
  r.Percentile("first_batch_ms.p95", d.log.first_batch_ms, 95, "ms");
  r.Percentile("label_ms.p99", d.log.label_ms, 99, "ms");

  // Session calls as the client sees them: RPCs on `think`, direct calls on
  // the in-process workloads.
  r.Percentile("call.create_ms.p50", d.log.create_ms, 50, "ms");
  r.Percentile("call.next_batch_ms.p50", d.log.next_batch_ms, 50, "ms");
  r.Percentile("call.next_batch_ms.p99", d.log.next_batch_ms, 99, "ms");
  r.Percentile("call.feedback_ms.p50", d.log.feedback_ms, 50, "ms");
  r.Percentile("call.feedback_ms.p99", d.log.feedback_ms, 99, "ms");
  r.Percentile("call.refit_ms.p50", d.log.refit_ms, 50, "ms");
  r.Percentile("call.refit_ms.p99", d.log.refit_ms, 99, "ms");
  // Every foreground lookup runs inside exactly one NextBatch, so the
  // NextBatch time not spent in them needs no span linkage across threads.
  r.Add("call.next_batch.self_ms.mean",
        Share(nb.total_ms - fg.total_ms, static_cast<double>(nb.ms.size())) /
            d.host.slowdown,
        "ms", nb.ms.size());

  // Speculation, summed over the measured sessions.
  core::PrefetchStats spec;
  size_t next_batches = 0;
  size_t completed = 0;
  for (const SessionRecord& s : d.sessions) {
    if (s.failed) continue;
    ++completed;
    spec.scheduled += s.spec.scheduled;
    spec.hits += s.spec.hits;
    spec.throttled += s.spec.throttled;
    spec.refit_fits += s.spec.refit_fits;
    spec.refit_matches += s.spec.refit_matches;
    spec.hits_post_refit += s.spec.hits_post_refit;
    next_batches += s.result.rounds;
  }
  const double later_batches =
      static_cast<double>(next_batches) - static_cast<double>(completed);
  r.Add("spec.scheduled", static_cast<double>(spec.scheduled), "count", 1);
  r.Add("spec.throttled", static_cast<double>(spec.throttled), "count", 1);
  r.Add("spec.refit_fits", static_cast<double>(spec.refit_fits), "count", 1);
  r.Add("spec.hit_share", Share(static_cast<double>(spec.hits), later_batches),
        "share", static_cast<size_t>(std::max(0.0, later_batches)));
  r.Add("spec.refit_match_share",
        Share(static_cast<double>(spec.refit_matches),
              static_cast<double>(spec.refit_fits)),
        "share", spec.refit_fits);
  r.Add("spec.wasted_share",
        Share(static_cast<double>(spec.refit_fits - spec.hits_post_refit),
              static_cast<double>(spec.refit_fits)),
        "share", spec.refit_fits);

  // Store: the lookup as the session sees it (fg / speculative bg), and
  // the innermost row scan (on the peers, for `remote`).
  r.Percentile("store.fg_ms.p50", fg.ms, 50, "ms");
  r.Percentile("store.fg_ms.p95", fg.ms, 95, "ms");
  r.Percentile("store.bg_ms.p50", bg.ms, 50, "ms");
  r.Percentile("store.bg_ms.p95", bg.ms, 95, "ms");
  r.Percentile("store.scan_ms.p50", scan.ms, 50, "ms");
  r.Percentile("store.scan_ms.p95", scan.ms, 95, "ms");
  r.Add("store.fg_per_next_batch",
        Share(static_cast<double>(fg.ms.size()),
              static_cast<double>(nb.ms.size())),
        "ratio", nb.ms.size());
  r.Add("store.bg_per_next_batch",
        Share(static_cast<double>(bg.ms.size()),
              static_cast<double>(nb.ms.size())),
        "ratio", nb.ms.size());
  const double lookups = static_cast<double>(fg.ms.size() + bg.ms.size());
  r.Add("store.k.mean", Share(fg.k_sum + bg.k_sum, lookups), "count",
        fg.ms.size() + bg.ms.size());
  r.Add("store.busy_share",
        Share(fg.total_ms + bg.total_ms,
              d.traced_s * 1e3 * static_cast<double>(Nproc())),
        "share", fg.ms.size() + bg.ms.size());
  const double shards = w.remote_shards ? kRemoteShards : 1.0;
  r.Add("store.outside_scan_share",
        1.0 - Share(scan.total_ms / shards, fg.total_ms + bg.total_ms),
        "share", scan.ms.size());

  // Wire: client resends and the in-process servers' counters.
  const double requests = static_cast<double>(
      d.server.requests_ok + d.server.requests_error + d.server.requests_shed);
  r.Add("net.rpc.retries", static_cast<double>(d.log.retries), "count", 1);
  r.Add("net.server.requests", requests, "count", 1);
  r.Add("net.server.shed_share",
        Share(static_cast<double>(d.server.requests_shed), requests), "share",
        static_cast<size_t>(requests));
  r.Add("net.server.errors", static_cast<double>(d.server.requests_error),
        "count", 1);

  // Setup phases, medians over the repeated set-ups like setup_s.
  const size_t setups = d.setups.size();
  auto setup = [&](const char* name, double SetupTimes::*field) {
    r.Add(name, SetupMedian(d.setups, field) / d.setup_host.slowdown, "s",
          setups);
  };
  setup("setup.generate_s", &SetupTimes::generate_s);
  setup("setup.embed_s", &SetupTimes::embed_s);
  setup("setup.index_s", &SetupTimes::index_s);
  setup("setup.md_s", &SetupTimes::md_s);

  // The host's speed against nominal, by which every time above was
  // divided (HostProbe).
  r.Add("host.setup_slowdown", d.setup_host.slowdown, "ratio",
        d.setup_host.bursts);
  r.Add("host.slowdown", d.host.slowdown, "ratio", d.host.bursts);

  r.Add("quality.failed_share",
        Share(static_cast<double>(d.log.failed),
              static_cast<double>(d.log.attempted)),
        "share", d.log.attempted);

  // Tracing overhead: turns wholly inside traced windows against turns
  // wholly inside untraced ones, from this same run.
  std::vector<double> traced, untraced;
  for (const Turn& t : d.log.turns) {
    if (!t.ok || t.window < 0) continue;
    (Tracer::WindowTraced(t.window) ? traced : untraced).push_back(t.ms);
  }
  double overhead = 0;
  if (traced.size() >= 20 && untraced.size() >= 20) {
    overhead = Median(traced) / Median(untraced) - 1.0;
  } else {
    std::fprintf(stderr, "trace.overhead_share: too few turns per half\n");
  }
  r.Add("trace.overhead_share", overhead, "share",
        std::min(traced.size(), untraced.size()));
}

// ------------------------------------------------------------ provenance --

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model = model.c_str();  // cut at the first NUL
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ConfigJson(const Workload& w, const Flags& f,
                       const Environment& env) {
  const eval::TaskOptions task;
  std::string out = "{";
  out += "\"workload\":" + JsonString(w.name);
  out += ",\"seed\":" + std::to_string(f.seed);
  out += ",\"seconds\":" + JsonNumber(f.seconds);
  out += ",\"trace\":" + std::string(f.trace ? "true" : "false");
  out += ",\"profile\":\"bdd\",\"scale\":" + JsonNumber(w.scale);
  out += ",\"dim\":" + std::to_string(kDim);
  out += ",\"rows\":" + std::to_string(env.service->embedded().num_vectors());
  out += ",\"md_k\":5,\"md_sample_rows\":" + std::to_string(w.md_sample_rows);
  out += ",\"store\":" + JsonString(w.remote_shards
                                        ? "sharded(1)>sharded(2)>remote>exact"
                                        : "sharded(1)>exact");
  out += ",\"precision\":\"fp32\"";
  out += ",\"session_threads\":" + std::to_string(Nproc());
  out += ",\"max_inflight_per_session\":1";
  out += ",\"prefetch\":{\"enabled\":true,\"max_in_flight\":2}";
  out += ",\"traffic\":" + JsonString(w.wire ? "open loop, TCP" : "closed loop, in-process");
  out += ",\"generator_threads\":" + std::to_string(GeneratorThreads());
  if (w.wire) {
    out += ",\"sessions_per_s\":" + JsonNumber(kSessionsPerSecond);
    out += ",\"think_ms_per_image\":" + JsonNumber(kThinkMsPerImage);
  }
  out += ",\"task\":{\"target_positives\":" +
         std::to_string(task.target_positives) +
         ",\"max_images\":" + std::to_string(task.max_images) +
         ",\"batch_size\":" + std::to_string(task.batch_size) + "}";
  out += ",\"setup_repeats\":" + std::to_string(kSetupRepeats);
  return out + "}";
}

void WriteResults(const std::string& path, const Workload& w, const Flags& f,
                  const Environment& env, const RunData& d, const Report& r,
                  bool correct) {
  std::ofstream out(path);
  out << "{\"provenance\":{\"git_sha\":" << JsonString(f.git_sha)
      << ",\"git_dirty\":" << JsonString(f.git_dirty)
      << ",\"cpu_model\":" << JsonString(CpuModel())
      << ",\"nproc\":" << Nproc()
      << ",\"simd_kernel\":" << JsonString(linalg::ActiveKernels().name)
      << ",\"build_type\":" << JsonString(SEESAW_BENCHMARK_BUILD_TYPE)
      << ",\"seed\":" << f.seed << "},\n\"host\":{\"setup_slowdown\":"
      << JsonNumber(d.setup_host.slowdown)
      << ",\"setup_bursts\":" << d.setup_host.bursts
      << ",\"slowdown\":" << JsonNumber(d.host.slowdown)
      << ",\"bursts\":" << d.host.bursts
      << ",\"nominal_scan_ms\":" << JsonNumber(kProbeNominalScanMs)
      << ",\"nominal_compute_ms\":" << JsonNumber(kProbeNominalComputeMs)
      << "},\n\"config\":" << ConfigJson(w, f, env)
      << ",\n\"correct\":" << (correct ? "true" : "false")
      << ",\n\"metrics\":{";
  bool first = true;
  for (const Metric& m : r.metrics()) {
    out << (first ? "\n" : ",\n") << JsonString(m.name)
        << ":{\"value\":" << JsonNumber(m.value)
        << ",\"unit\":" << JsonString(m.unit) << ",\"samples\":" << m.samples
        << "}";
    first = false;
  }
  out << "},\n\"spans\":{";
  first = true;
  for (auto& [name, st] : SummarizeSpans(d.spans)) {
    out << (first ? "\n" : ",\n") << JsonString(name)
        << ":{\"count\":" << st.ms.size()
        << ",\"total_ms\":" << JsonNumber(st.total_ms)
        << ",\"self_ms\":" << JsonNumber(st.self_ms) << "}";
    first = false;
  }
  out << "}}\n";
}

/// Chrome trace-event JSON (load it in Perfetto or chrome://tracing).
void WriteTrace(const std::string& path, const std::vector<Span>& spans,
                int64_t t0_ns) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans) {
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"request\":%llu,\"k\":%lld}}",
                  first ? "" : ",", s.name, s.tid,
                  static_cast<double>(s.start_ns - t0_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request),
                  static_cast<long long>(s.k));
    out << buf;
    first = false;
  }
  out << "\n]}\n";
}

// ------------------------------------------------------------------ main --

/// Ends the process, with no result line, if the run outlives `limit_s`. A
/// session call can deadlock inside the server (README, "Known issue"); the
/// run then fails promptly instead of hanging.
class Watchdog {
 public:
  explicit Watchdog(double limit_s) {
    const int64_t deadline = NowNs() + static_cast<int64_t>(limit_s * 1e9);
    handle_ = pool_.SubmitWithResult([this, deadline, limit_s] {
      while (!done_.load(std::memory_order_acquire)) {
        if (NowNs() > deadline) {
          std::fprintf(stderr,
                       "watchdog: run exceeded %.0f s; a session call is "
                       "stuck\n",
                       limit_s);
          std::_Exit(3);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
  }
  ~Watchdog() {
    done_.store(true, std::memory_order_release);
    handle_.Wait();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::atomic<bool> done_{false};
  ThreadPool pool_{1};
  TaskHandle handle_;
};

int Run(const Flags& flags) {
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (flags.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) Usage(("unknown workload '" + flags.workload + "'").c_str());

  // Set-up, traffic, drain and replay take well under `seconds` + 2 min.
  Watchdog watchdog(flags.seconds + 120.0);
  HostProbe probe;  // before the set-ups: they are timed too
  Tracer tracer;
  RunData data;
  data.closed_loop = !w->wire;

  // Setup, repeated; setup_s is the median, the last environment serves.
  std::unique_ptr<Environment> env;
  const int64_t setup_start = NowNs();
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    env.reset();
    env = BuildEnvironment(*w, tracer);
    data.setups.push_back(env->times);
  }
  data.setup_host = probe.Speed(setup_start, NowNs());
  Rng rng(flags.seed ^ 0x5ee5a7c0ffeeULL);
  ConceptPlan plan(SessionConcepts(*env->dataset), rng);

  // Measured phase.
  std::vector<ClientLog> logs(GeneratorThreads());
  const net::ServerStats server_before = ServerTotals(*env);
  const double cpu_before = CpuSeconds();
  const int64_t t0 = NowNs();
  tracer.Start(flags.trace, t0);
  if (w->wire) {
    RunWireLoop(*env, plan, flags.seconds, rng, tracer, logs, data.sessions);
  } else {
    RunClosedLoop(*env, plan, flags.seconds, tracer, logs, data.sessions);
  }
  tracer.Stop();
  const int64_t t1 = NowNs();
  data.wall_s = static_cast<double>(t1 - t0) / 1e9;
  data.cpu_s = CpuSeconds() - cpu_before;
  data.host = probe.Speed(t0, t1);
  const net::ServerStats server_after = ServerTotals(*env);
  data.server.requests_ok =
      server_after.requests_ok - server_before.requests_ok;
  data.server.requests_error =
      server_after.requests_error - server_before.requests_error;
  data.server.requests_shed =
      server_after.requests_shed - server_before.requests_shed;
  for (const ClientLog& l : logs) data.log.Merge(l);
  data.spans = tracer.TakeSpans();
  for (int64_t win = 0; win <= tracer.Window(t1); ++win) {
    if (!Tracer::WindowTraced(win)) continue;
    const int64_t lo = std::max(t0, t0 + win * kTraceWindowNs);
    const int64_t hi = std::min(t1, t0 + (win + 1) * kTraceWindowNs);
    if (hi > lo) data.traced_s += static_cast<double>(hi - lo) / 1e9;
  }

  // Correctness gate. The remote workload replays on a local exact store
  // over the same rows; the others on their own store, scanned serially.
  bool correct = false;
  if (w->remote_shards) {
    auto local = core::EmbeddedDataset::Build(*env->dataset, Preprocess(*w));
    SEESAW_CHECK(local.ok()) << local.status().ToString();
    correct = CorrectnessGate(*env->dataset, *local, data.sessions);
  } else {
    correct = CorrectnessGate(*env->dataset, env->service->embedded(),
                              data.sessions);
  }

  Report report(data.host.slowdown);
  if (flags.trace) {
    PerLayerMetrics(data, *w, report);
  } else {
    EndToEndMetrics(data, report);
  }
  for (const Metric& m : report.metrics()) {
    std::printf("metric %-32s %.6g %s samples=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  const std::string tag =
      std::string(w->name) + (flags.trace ? "_trace" : "");
  WriteResults(flags.out_dir + "/results_" + tag + ".json", *w, flags, *env,
               data, report, correct);
  if (flags.trace) {
    WriteTrace(flags.out_dir + "/trace_" + std::string(w->name) + ".json",
               data.spans, t0);
  }
  std::fprintf(stderr,
               "%s: %zu sessions, %zu rounds, %zu turns in %.2fs; cpu %.2fs; "
               "host slowdown %.3f (set-up %.3f); kernel %s\n",
               w->name, data.sessions.size(), Rounds(data),
               data.log.turns.size(), data.wall_s, data.cpu_s,
               data.host.slowdown, data.setup_host.slowdown,
               linalg::ActiveKernels().name);
  if (!correct || report.short_of_samples()) {
    std::fprintf(stderr, "FAILED: %s\n",
                 !correct ? "correctness gate" : "percentile sample counts");
    return 1;
  }

  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(data.log.attempted) +
                     ", \"failed\": " + std::to_string(data.log.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : report.metrics()) {
    json += (first ? "" : ", ") + JsonString(m.name) +
            ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
    first = false;
  }
  std::printf("%s}}\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace seesaw::loopbench

int main(int argc, char** argv) {
  return seesaw::loopbench::Run(seesaw::loopbench::ParseFlags(argc, argv));
}
