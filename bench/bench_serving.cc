// bench_serving: open-loop load generator for the TCP serving front end
// (src/net). Thousands of concurrent think-time user sessions drive a
// SeeSawServer over real loopback sockets; the bench reports user-perceived
// latency percentiles per call kind (create / NextBatch / feedback / refit),
// the shed rate (typed RETRY_LATER replies — the server degrading
// gracefully, not failing), and session churn. Committed as
// BENCH_serving.json by scripts/run_bench_suite.sh.
//
// Perceived latency follows the task_runner accounting: the wall time a
// session is blocked on a call, *including* the back-off-and-resend loop a
// RETRY_LATER shed costs the user. Sheds are therefore visible twice — in
// the shed counters and in the latency tail — which is the honest view.
//
// Modes:
//  * load (default): --sessions open-loop sessions, each Create ->
//    --rounds x (think -> NextBatch -> per-image feedback -> Refit) ->
//    think -> Close. Sessions ramp in over --ramp_ms and are scheduled from
//    a due-time heap drained by --threads driver workers, so concurrency is
//    the session count, not the worker count. Ground-truth relevance comes
//    from the locally generated dataset (deterministic, seed-stable), so a
//    --connect server must be built from this repo with the same
//    --scale/--dim.
//  * --gate: the CI parity gate. Runs the managed in-process benchmark
//    (eval::RunManagedBenchmark) as the reference, then re-runs the exact
//    same tasks over the wire (same query vectors, same ground-truth
//    feedback) and requires decision-for-decision identical results
//    (found / inspected / rounds / relevance sequence / AP), zero protocol
//    errors, and zero sheds at this low load. Exit code 1 on any violation.
//
// Flags:
//   --sessions=N --rounds=R --batch=B --think_ms=T --ramp_ms=M
//   --threads=W (driver workers) --session_threads=S (server pool,
//   self-host) --scale=F --dim=D --max_queued_requests=Q
//   --idle_ttl_seconds=T --connect=host:port (skip self-hosting)
//   --gate --json
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/mutex.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/service.h"
#include "core/session_manager.h"
#include "data/profiles.h"
#include "eval/task_runner.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"

namespace seesaw::bench {
namespace {

struct ServingFlags {
  double scale = 0.05;
  size_t dim = 32;
  size_t sessions = 1000;
  size_t rounds = 3;
  size_t batch = 10;
  double think_ms = 50.0;
  double ramp_ms = 2000.0;
  size_t threads = 16;          // driver workers (they mostly block on I/O)
  size_t session_threads = 0;   // server handler pool (0 = hardware default)
  size_t max_queued_requests = 256;
  double idle_ttl_seconds = 60.0;
  std::string connect_host;     // empty = self-host on loopback
  uint16_t connect_port = 0;
  bool gate = false;
  bool json = false;
};

bool ParseOne(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

ServingFlags ParseFlags(int argc, char** argv) {
  ServingFlags f;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseOne(argv[i], "--scale", &v)) {
      f.scale = std::atof(v.c_str());
    } else if (ParseOne(argv[i], "--dim", &v)) {
      f.dim = static_cast<size_t>(std::atoi(v.c_str()));
    } else if (ParseOne(argv[i], "--sessions", &v)) {
      f.sessions = static_cast<size_t>(std::atoi(v.c_str()));
    } else if (ParseOne(argv[i], "--rounds", &v)) {
      f.rounds = static_cast<size_t>(std::atoi(v.c_str()));
    } else if (ParseOne(argv[i], "--batch", &v)) {
      f.batch = static_cast<size_t>(std::atoi(v.c_str()));
    } else if (ParseOne(argv[i], "--think_ms", &v)) {
      f.think_ms = std::atof(v.c_str());
    } else if (ParseOne(argv[i], "--ramp_ms", &v)) {
      f.ramp_ms = std::atof(v.c_str());
    } else if (ParseOne(argv[i], "--threads", &v)) {
      f.threads = static_cast<size_t>(std::atoi(v.c_str()));
    } else if (ParseOne(argv[i], "--session_threads", &v)) {
      f.session_threads = static_cast<size_t>(std::atoi(v.c_str()));
    } else if (ParseOne(argv[i], "--max_queued_requests", &v)) {
      f.max_queued_requests = static_cast<size_t>(std::atoi(v.c_str()));
    } else if (ParseOne(argv[i], "--idle_ttl_seconds", &v)) {
      f.idle_ttl_seconds = std::atof(v.c_str());
    } else if (ParseOne(argv[i], "--connect", &v)) {
      size_t colon = v.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--connect wants host:port, got %s\n", v.c_str());
        std::exit(2);
      }
      f.connect_host = v.substr(0, colon);
      f.connect_port =
          static_cast<uint16_t>(std::atoi(v.c_str() + colon + 1));
    } else if (std::strcmp(argv[i], "--gate") == 0) {
      f.gate = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      f.json = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (f.sessions == 0 || f.rounds == 0 || f.batch == 0 || f.threads == 0) {
    std::fprintf(stderr, "--sessions/--rounds/--batch/--threads must be > 0\n");
    std::exit(2);
  }
  return f;
}

// ------------------------------------------------------------- accounting --

// Client-side request outcome counters. Pure monotone counters bumped from
// driver workers (the PrefetchBudget atomic-counter exemption).
struct Counters {
  std::atomic<uint64_t> requests_ok{0};
  std::atomic<uint64_t> sheds{0};            // client resends of RETRY_LATER
  std::atomic<uint64_t> protocol_errors{0};  // anything else that failed
  std::atomic<uint64_t> sessions_completed{0};
  std::atomic<uint64_t> sessions_failed{0};
};

// Per-call-kind latency samples, appended by driver workers.
enum CallKind : size_t { kCreate = 0, kNext, kFeedback, kRefit, kNumKinds };
constexpr const char* kKindNames[kNumKinds] = {"create", "nextbatch",
                                               "feedback", "refit"};

struct Recorder {
  Mutex mu;
  std::array<std::vector<double>, kNumKinds> samples_ms SEESAW_GUARDED_BY(mu);

  void Add(CallKind kind, double ms) {
    MutexLock lock(mu);
    samples_ms[kind].push_back(ms);
  }
  std::array<std::vector<double>, kNumKinds> Snapshot() {
    MutexLock lock(mu);
    return samples_ms;
  }
};

// The client resends RETRY_LATER sheds itself: up to 500 attempts with a
// 1-10 ms backoff, so an unhealthy server cannot hang the bench.
net::RpcOptions ServingRpcOptions() {
  net::RpcOptions options;
  options.max_retries = 499;
  options.backoff_initial_seconds = 0.001;
  options.backoff_max_seconds = 0.010;
  return options;
}

// Runs one client call and books its outcome: ok or protocol error, plus
// the sheds the client absorbed on the way.
template <typename Op>
Status CountedCall(net::SeeSawClient& client, Counters& counters, Op&& op) {
  const uint64_t retries_before = client.retries();
  Status s = op();
  counters.sheds.fetch_add(client.retries() - retries_before,
                           std::memory_order_relaxed);
  (s.ok() ? counters.requests_ok : counters.protocol_errors)
      .fetch_add(1, std::memory_order_relaxed);
  return s;
}

// CountedCall plus perceived-latency accounting: on success, the whole
// blocked span (resends and backoff sleeps included) is one latency sample.
template <typename Op>
Status TimedCall(net::SeeSawClient& client, Counters& counters,
                 Recorder& recorder, CallKind kind, Op&& op) {
  Stopwatch sw;
  Status s = CountedCall(client, counters, std::forward<Op>(op));
  if (s.ok()) recorder.Add(kind, sw.ElapsedMillis());
  return s;
}

// ------------------------------------------------------------ environment --

// The local dataset + service replica. Self-host mode serves from it; both
// modes use it for query vectors and ground-truth feedback, and the gate
// additionally runs the in-process reference benchmark on it. Construction
// mirrors tools/seesaw_server.cc exactly so a --connect gate against a
// seesaw_server started with the same --scale/--dim compares bitwise-equal
// sessions.
struct Environment {
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<core::SeeSawService> service;
  std::vector<size_t> concepts;
};

Environment BuildEnvironment(const ServingFlags& flags) {
  Environment env;
  auto profile = data::BddLikeProfile(flags.scale);
  profile.embedding_dim = flags.dim;
  auto ds = data::Dataset::Generate(profile);
  SEESAW_CHECK(ds.ok()) << ds.status().ToString();
  env.dataset = std::make_unique<data::Dataset>(std::move(*ds));

  core::ServiceOptions options;
  options.preprocess.md.k = 5;
  options.session_threads = flags.session_threads;
  options.session_limits.idle_ttl_seconds = flags.idle_ttl_seconds;
  options.session_limits.max_inflight_per_session = 1;
  auto svc = core::SeeSawService::Create(*env.dataset, options);
  SEESAW_CHECK(svc.ok()) << svc.status().ToString();
  env.service = std::make_unique<core::SeeSawService>(std::move(*svc));

  env.concepts = env.dataset->EvaluableConcepts(3);
  SEESAW_CHECK(!env.concepts.empty()) << "no evaluable concepts at this scale";
  return env;
}

core::ImageFeedback GroundTruth(const data::Dataset& dataset,
                                uint32_t image_idx, size_t concept_id) {
  core::ImageFeedback fb;
  fb.image_idx = image_idx;
  fb.relevant = dataset.IsPositive(image_idx, concept_id);
  if (fb.relevant) fb.boxes = dataset.ConceptBoxes(image_idx, concept_id);
  return fb;
}

// --------------------------------------------------------------- gate mode --

// core::Searcher over one wire session, so eval::RunSearchTask drives a
// remote session exactly the way it drives an in-process one. Protocol
// errors abort loudly (the gate demands zero).
class WireSearcher : public core::Searcher {
 public:
  WireSearcher(net::SeeSawClient client, uint64_t session_id,
               Counters& counters, Recorder& recorder)
      : client_(std::move(client)),
        session_id_(session_id),
        counters_(counters),
        recorder_(recorder) {}

  ~WireSearcher() override {
    Status s = CountedCall(client_, counters_, [this] {
      return client_.CloseSession(session_id_);
    });
    if (s.ok()) {
      counters_.sessions_completed.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::string name() const override { return "seesaw-wire"; }

  std::vector<core::ScoredImage> NextBatch(size_t n) override {
    std::vector<core::ScoredImage> out;
    Status s = TimedCall(client_, counters_, recorder_, kNext, [&] {
      auto r = client_.NextBatch(session_id_, n);
      if (!r.ok()) return r.status();
      out = std::move(*r);
      return Status::OK();
    });
    SEESAW_CHECK(s.ok()) << "wire NextBatch: " << s.ToString();
    return out;
  }

  void AddFeedback(const core::ImageFeedback& feedback) override {
    Status s = TimedCall(client_, counters_, recorder_, kFeedback, [&] {
      return client_.AddFeedback(session_id_, feedback);
    });
    SEESAW_CHECK(s.ok()) << "wire AddFeedback: " << s.ToString();
  }

  Status Refit() override {
    return TimedCall(client_, counters_, recorder_, kRefit,
                     [this] { return client_.Refit(session_id_); });
  }

 private:
  net::SeeSawClient client_;
  uint64_t session_id_;
  Counters& counters_;
  Recorder& recorder_;
};

// Runs the gate; returns the number of parity mismatches.
size_t RunGate(const ServingFlags& flags, Environment& env,
               const std::string& host, uint16_t port, Counters& counters,
               Recorder& recorder) {
  std::vector<size_t> session_concepts(flags.sessions);
  for (size_t i = 0; i < flags.sessions; ++i) {
    session_concepts[i] = env.concepts[i % env.concepts.size()];
  }
  eval::TaskOptions topts;
  topts.batch_size = flags.batch;
  topts.max_images = flags.rounds * flags.batch;  // --rounds bounds the task
  topts.target_positives = topts.max_images;

  std::fprintf(stderr, "gate: in-process reference (%zu sessions)...\n",
               flags.sessions);
  eval::BenchmarkRun reference = eval::RunManagedBenchmark(
      *env.service, *env.dataset, session_concepts, topts);

  std::fprintf(stderr, "gate: wire run against %s:%u...\n", host.c_str(),
               port);
  std::vector<eval::TaskResult> wire(flags.sessions);
  const core::EmbeddedDataset& embedded = env.service->embedded();
  ThreadPool drivers(std::min<size_t>(4, flags.sessions));
  drivers.ParallelFor(flags.sessions, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      auto client =
          net::SeeSawClient::Connect(host, port, ServingRpcOptions());
      SEESAW_CHECK(client.ok()) << client.status().ToString();
      uint64_t sid = 0;
      Status s = TimedCall(*client, counters, recorder, kCreate, [&] {
        auto r = client->CreateSessionFromVector(
            embedded.TextQuery(session_concepts[i]));
        if (!r.ok()) return r.status();
        sid = *r;
        return Status::OK();
      });
      SEESAW_CHECK(s.ok()) << "wire CreateSession: " << s.ToString();
      WireSearcher searcher(std::move(*client), sid, counters, recorder);
      wire[i] = eval::RunSearchTask(searcher, *env.dataset,
                                    session_concepts[i], topts);
    }
  });

  size_t mismatches = 0;
  for (size_t i = 0; i < flags.sessions; ++i) {
    const eval::TaskResult& a = reference.results[i];
    const eval::TaskResult& b = wire[i];
    if (a.found != b.found || a.inspected != b.inspected ||
        a.rounds != b.rounds || a.relevance != b.relevance || a.ap != b.ap) {
      ++mismatches;
      std::fprintf(stderr,
                   "gate: PARITY MISMATCH session %zu (concept %zu): "
                   "in-process found=%zu inspected=%zu rounds=%zu ap=%.6f "
                   "vs wire found=%zu inspected=%zu rounds=%zu ap=%.6f\n",
                   i, session_concepts[i], a.found, a.inspected, a.rounds,
                   a.ap, b.found, b.inspected, b.rounds, b.ap);
    }
  }
  return mismatches;
}

// --------------------------------------------------------------- load mode --

// One open-loop scripted user. Events (one per phase step) live in a shared
// due-time min-heap; whichever driver worker is free when the event comes
// due executes its blocking calls. Concurrency is therefore the number of
// live sessions, not the number of workers — workers are merely the hands.
struct SessionDriver {
  size_t concept_id = 0;
  double think_ms = 0;  // per-session, deterministically jittered
  std::unique_ptr<net::SeeSawClient> client;
  uint64_t sid = 0;
  size_t round = 0;
  enum Phase { kStart, kRound, kClose } phase = kStart;
};

using SteadyClock = std::chrono::steady_clock;

struct Event {
  SteadyClock::time_point due;
  uint32_t session;
};
struct LaterFirst {
  bool operator()(const Event& a, const Event& b) const {
    return a.due > b.due;
  }
};

struct Scheduler {
  Mutex mu;
  std::priority_queue<Event, std::vector<Event>, LaterFirst> heap
      SEESAW_GUARDED_BY(mu);
  /// Sessions not yet finished (their event is in the heap or executing).
  size_t pending SEESAW_GUARDED_BY(mu) = 0;
};

void RunLoad(const ServingFlags& flags, Environment& env,
             const std::string& host, uint16_t port, Counters& counters,
             Recorder& recorder) {
  const core::EmbeddedDataset& embedded = env.service->embedded();
  const data::Dataset& dataset = *env.dataset;

  std::vector<SessionDriver> drivers(flags.sessions);
  Scheduler sched;
  const auto t0 = SteadyClock::now();
  {
    MutexLock lock(sched.mu);
    sched.pending = flags.sessions;
    for (size_t i = 0; i < flags.sessions; ++i) {
      drivers[i].concept_id = env.concepts[i % env.concepts.size()];
      // Deterministic +/-25% jitter so sessions do not phase-lock.
      drivers[i].think_ms =
          flags.think_ms * (0.75 + 0.5 * static_cast<double>(i % 101) / 100.0);
      auto due = t0 + std::chrono::duration_cast<SteadyClock::duration>(
                          std::chrono::duration<double, std::milli>(
                              flags.ramp_ms * static_cast<double>(i) /
                              static_cast<double>(flags.sessions)));
      sched.heap.push(Event{due, static_cast<uint32_t>(i)});
    }
  }

  // Executes one event; returns true (and sets *think_next) when the session
  // has a next step, false when it is finished (completed or failed).
  auto step = [&](SessionDriver& d, bool* think_next) -> bool {
    *think_next = true;
    switch (d.phase) {
      case SessionDriver::kStart: {
        auto client =
            net::SeeSawClient::Connect(host, port, ServingRpcOptions());
        if (!client.ok()) {
          counters.protocol_errors.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
        d.client = std::make_unique<net::SeeSawClient>(std::move(*client));
        Status s = TimedCall(*d.client, counters, recorder, kCreate, [&] {
          auto r = d.client->CreateSessionFromVector(
              embedded.TextQuery(d.concept_id));
          if (!r.ok()) return r.status();
          d.sid = *r;
          return Status::OK();
        });
        if (!s.ok()) return false;
        d.phase = SessionDriver::kRound;
        return true;
      }
      case SessionDriver::kRound: {
        std::vector<core::ScoredImage> batch;
        Status s = TimedCall(*d.client, counters, recorder, kNext, [&] {
          auto r = d.client->NextBatch(d.sid, flags.batch);
          if (!r.ok()) return r.status();
          batch = std::move(*r);
          return Status::OK();
        });
        if (!s.ok()) return false;
        for (const core::ScoredImage& hit : batch) {
          core::ImageFeedback fb =
              GroundTruth(dataset, hit.image_idx, d.concept_id);
          s = TimedCall(*d.client, counters, recorder, kFeedback, [&] {
            return d.client->AddFeedback(d.sid, fb);
          });
          if (!s.ok()) return false;
        }
        s = TimedCall(*d.client, counters, recorder, kRefit,
                      [&] { return d.client->Refit(d.sid); });
        if (!s.ok()) return false;
        if (++d.round >= flags.rounds || batch.empty()) {
          d.phase = SessionDriver::kClose;
        }
        return true;
      }
      case SessionDriver::kClose: {
        Status s = CountedCall(*d.client, counters,
                               [&] { return d.client->CloseSession(d.sid); });
        d.client.reset();
        if (s.ok()) {
          counters.sessions_completed.fetch_add(1, std::memory_order_relaxed);
        }
        *think_next = false;
        return s.ok();
      }
    }
    return false;  // unreachable
  };

  auto worker = [&] {
    for (;;) {
      uint32_t idx = 0;
      bool have = false;
      auto wait = std::chrono::milliseconds(1);
      {
        MutexLock lock(sched.mu);
        if (sched.pending == 0) return;
        if (!sched.heap.empty()) {
          auto now = SteadyClock::now();
          if (sched.heap.top().due <= now) {
            idx = sched.heap.top().session;
            sched.heap.pop();
            have = true;
          } else {
            wait = std::min(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    sched.heap.top().due - now) +
                    std::chrono::milliseconds(1),
                std::chrono::milliseconds(2));
          }
        }
      }
      if (!have) {
        // No due event: nap briefly (bounded, so a just-pushed earlier event
        // is picked up within ~1ms by some worker).
        std::this_thread::sleep_for(wait);
        continue;
      }
      SessionDriver& d = drivers[idx];
      bool think_next = true;
      bool alive = step(d, &think_next);
      MutexLock lock(sched.mu);
      if (alive && think_next) {
        auto due =
            SteadyClock::now() + std::chrono::duration_cast<SteadyClock::duration>(
                                     std::chrono::duration<double, std::milli>(
                                         d.think_ms));
        sched.heap.push(Event{due, idx});
      } else if (alive) {
        // finished cleanly (kClose ran)
        --sched.pending;
      } else {
        counters.sessions_failed.fetch_add(1, std::memory_order_relaxed);
        d.client.reset();
        --sched.pending;
      }
    }
  };

  ThreadPool pool(flags.threads);
  std::vector<TaskHandle> handles;
  handles.reserve(flags.threads);
  for (size_t w = 0; w < flags.threads; ++w) {
    handles.push_back(pool.SubmitWithResult(worker));
  }
  for (TaskHandle& h : handles) h.Wait();
}

// ----------------------------------------------------------------- output --

void PrintRow(std::string* out, const char* kind,
              const std::vector<double>& samples, bool first) {
  LatencyStats s = SummarizeLatencies(samples);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s{\"kind\":\"%s\",\"count\":%zu,\"mean_ms\":%.4f,"
                "\"p50_ms\":%.4f,\"p95_ms\":%.4f,\"p99_ms\":%.4f}",
                first ? "" : ",", kind, samples.size(), s.mean_ms, s.p50_ms,
                s.p95_ms, s.p99_ms);
  *out += buf;
}

}  // namespace
}  // namespace seesaw::bench

int main(int argc, char** argv) {
  using namespace seesaw;
  using namespace seesaw::bench;

  ServingFlags flags = ParseFlags(argc, argv);
  // Two fds per live session (client + server end) in self-host mode.
  net::RaiseFdLimit(2 * flags.sessions + 1024);

  Environment env = BuildEnvironment(flags);

  std::unique_ptr<net::SeeSawServer> server;
  std::string host = flags.connect_host;
  uint16_t port = flags.connect_port;
  const bool self_host = host.empty();
  if (self_host) {
    net::ServerOptions sopts;
    sopts.max_connections = std::max<size_t>(4096, flags.sessions + 64);
    sopts.max_queued_requests = flags.max_queued_requests;
    server =
        std::make_unique<net::SeeSawServer>(env.service->sessions(), sopts);
    Status started = server->Start();
    SEESAW_CHECK(started.ok()) << started.ToString();
    host = "127.0.0.1";
    port = server->port();
  }

  Counters counters;
  Recorder recorder;
  Stopwatch run;
  size_t parity_mismatches = 0;
  if (flags.gate) {
    parity_mismatches = RunGate(flags, env, host, port, counters, recorder);
  } else {
    RunLoad(flags, env, host, port, counters, recorder);
  }
  double elapsed = run.ElapsedSeconds();

  uint64_t ok = counters.requests_ok.load();
  uint64_t sheds = counters.sheds.load();
  uint64_t errors = counters.protocol_errors.load();
  double shed_rate =
      (ok + sheds) > 0
          ? static_cast<double>(sheds) / static_cast<double>(ok + sheds)
          : 0.0;
  auto samples = recorder.Snapshot();
  auto lifecycle = env.service->sessions().lifecycle_stats();

  std::fprintf(stderr,
               "serving %s: %zu sessions x %zu rounds in %.2fs — "
               "requests ok=%llu shed=%llu (rate %.4f) protocol_errors=%llu; "
               "sessions completed=%llu failed=%llu\n",
               flags.gate ? "gate" : "load", flags.sessions, flags.rounds,
               elapsed, static_cast<unsigned long long>(ok),
               static_cast<unsigned long long>(sheds), shed_rate,
               static_cast<unsigned long long>(errors),
               static_cast<unsigned long long>(counters.sessions_completed.load()),
               static_cast<unsigned long long>(counters.sessions_failed.load()));
  for (size_t k = 0; k < kNumKinds; ++k) {
    LatencyStats s = SummarizeLatencies(samples[k]);
    std::fprintf(stderr,
                 "  %-9s n=%-7zu mean=%.3fms p50=%.3fms p95=%.3fms "
                 "p99=%.3fms\n",
                 kKindNames[k], samples[k].size(), s.mean_ms, s.p50_ms,
                 s.p95_ms, s.p99_ms);
  }

  if (flags.json) {
    std::string rows;
    for (size_t k = 0; k < kNumKinds; ++k) {
      PrintRow(&rows, kKindNames[k], samples[k], k == 0);
    }
    std::string server_json;
    if (self_host) {
      net::ServerStats st = server->stats();
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    ",\"server\":{\"connections_accepted\":%zu,"
                    "\"connections_shed\":%zu,\"requests_ok\":%zu,"
                    "\"requests_error\":%zu,\"requests_shed\":%zu,"
                    "\"malformed_frames\":%zu,\"sessions_evicted\":%zu}",
                    st.connections_accepted, st.connections_shed,
                    st.requests_ok, st.requests_error, st.requests_shed,
                    st.malformed_frames, st.sessions_evicted);
      server_json = buf;
    }
    std::printf(
        "{\"bench\":\"serving\",\"meta\":{\"mode\":\"%s\",\"sessions\":%zu,"
        "\"rounds\":%zu,\"batch\":%zu,\"think_ms\":%.1f,\"threads\":%zu,"
        "\"scale\":%g,\"dim\":%zu,\"max_queued_requests\":%zu,"
        "\"self_host\":%s},"
        "\"totals\":{\"elapsed_seconds\":%.3f,\"requests_ok\":%llu,"
        "\"sheds\":%llu,\"shed_rate\":%.6f,\"protocol_errors\":%llu,"
        "\"sessions_completed\":%llu,\"sessions_failed\":%llu,"
        "\"parity_mismatches\":%zu,"
        "\"lifecycle\":{\"created\":%zu,\"closed\":%zu,\"evicted\":%zu}%s},"
        "\"rows\":[%s]}\n",
        flags.gate ? "gate" : "load", flags.sessions, flags.rounds,
        flags.batch, flags.think_ms, flags.threads, flags.scale, flags.dim,
        flags.max_queued_requests, self_host ? "true" : "false", elapsed,
        static_cast<unsigned long long>(ok),
        static_cast<unsigned long long>(sheds), shed_rate,
        static_cast<unsigned long long>(errors),
        static_cast<unsigned long long>(counters.sessions_completed.load()),
        static_cast<unsigned long long>(counters.sessions_failed.load()),
        parity_mismatches, lifecycle.created, lifecycle.closed,
        lifecycle.evicted, server_json.c_str(), rows.c_str());
  }

  bool failed = errors > 0 || counters.sessions_failed.load() > 0;
  if (flags.gate) {
    // The gate demands parity and zero sheds at low load; the server-side
    // shed counters must agree when we host the server ourselves.
    failed = failed || parity_mismatches > 0 || sheds > 0;
    if (self_host && server) {
      net::ServerStats st = server->stats();
      if (st.requests_shed > 0 || st.connections_shed > 0) {
        std::fprintf(stderr, "gate: server shed counters nonzero (%zu/%zu)\n",
                     st.requests_shed, st.connections_shed);
        failed = true;
      }
    }
    std::fprintf(stderr, "gate: %s\n", failed ? "FAIL" : "PASS");
  }
  if (server) server->Stop();
  return failed ? 1 : 0;
}
