// Fixed-size worker pool used for data-parallel preprocessing (embedding,
// kNN-graph construction, index builds) and for the shared lookup pool of
// concurrent search sessions (sharded scans, speculative prefetch).
#ifndef SEESAW_COMMON_THREAD_POOL_H_
#define SEESAW_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace seesaw {

/// Waitable completion handle for one submitted task.
///
/// Obtained from ThreadPool::SubmitWithResult. Waiting blocks only on that
/// one task and never runs any other: a waiter whose task is still queued
/// claims it and runs it on the calling thread, and a waiter whose task
/// another thread already runs parks until it finishes. Copies share one
/// completion state; the handle stays valid after the task finishes.
class TaskHandle {
 public:
  /// An empty handle; valid() is false and Wait()/done() must not be called.
  TaskHandle() = default;

  bool valid() const { return state_ != nullptr; }

  /// Whether the task has finished running (non-blocking, lock-free).
  bool done() const;

  /// Blocks until the task finishes. A still-queued task is claimed and run
  /// on the calling thread (its queue entry then does nothing); a running
  /// one is waited for. No unrelated task ever runs inside this call, so a
  /// pool task may wait here without ending up beneath work that waits on
  /// it. Waiting on a task the calling thread itself is running, further up
  /// its stack, fails a SEESAW_CHECK instead of hanging. Wait() never
  /// touches the pool, so it stays safe after the pool is destroyed.
  void Wait();

 private:
  friend class ThreadPool;

  enum class Claim : uint8_t { kQueued, kRunning, kDone };

  struct State {
    // layout-audited: `claim` shares a line with `mu` by choice. Nobody
    // spins on it: a waiter reads it once lock-free, once in its claim
    // attempt, and otherwise only under `mu` after a wakeup, and the
    // completing store happens under `mu` anyway.
    Mutex mu;
    CondVar cv;
    /// The task body; set before the task is queued and moved out by
    /// whoever wins the claim.
    std::function<void()> task;
    /// queued -> running -> done. The pool's queue entry and every Wait()
    /// race to move it from kQueued to kRunning; the winner runs `task`.
    /// Ordering contract: the winner publishes the task's side effects with
    /// store(kDone, release) while holding `mu` (then notifies under it,
    /// closing the check-then-park race); any load(acquire) that observes
    /// kDone therefore also observes everything the task wrote.
    std::atomic<Claim> claim{Claim::kQueued};
  };

  /// Claims `state` if it is still queued and runs it on the calling
  /// thread. Returns false when another claim won.
  static bool RunIfUnclaimed(State& state);

  explicit TaskHandle(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// Construction-time knobs. Kept a struct (not constructor flags) so the
/// next knob doesn't grow a boolean-parameter trap.
struct ThreadPoolOptions {
  /// When true on a multi-node Linux host, worker i is pinned to NUMA node
  /// `i % numa::NodeCount()` and the pool accepts per-task node hints
  /// (the hinted SubmitWithResult overload): a hinted task is *preferred*
  /// by workers pinned to that node but remains runnable by anyone — hints
  /// trade locality, never liveness (see PopTaskLocked). On single-node or
  /// non-Linux hosts this degrades to the default pool: no pinning, hints
  /// ignored, behavior byte-for-byte identical.
  bool numa_affinity = false;
};

/// A minimal shared thread pool whose waiters run only their own work.
///
/// Tasks are void() callables. The pool is intended for coarse-grained batch
/// parallelism; there is no work stealing or task priority. Destruction
/// drains the queue and joins all workers.
///
/// Contract (the concurrent-serving rules every caller relies on):
///  - Waiting is always per-call (TaskHandle, and ParallelFor's handle per
///    chunk): a caller blocks only on its own work, never on whatever other
///    sessions queued. There is deliberately no pool-wide Wait().
///  - A waiter runs only the task it waits on, and parks only on a task
///    that another thread is already running. So a task running on the pool
///    may call ParallelFor or TaskHandle::Wait on the same pool: its queued
///    work runs on its own thread and its running work finishes elsewhere.
///    A waiter never runs unrelated work, so it can never end up beneath a
///    task (a request handler, another session's speculation) that waits on
///    it, and its wait never grows by someone else's task.
///  - Cancellation is cooperative via CancellationToken; cancelling never
///    removes a queued task, it only asks the task body to finish early.
///  - NUMA hints are preferences: every queued task is visible to every
///    worker, so enabling affinity can change execution placement but
///    never which tasks run or whether they run.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads,
                      const ThreadPoolOptions& options = {});

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  /// Enqueues a task for asynchronous execution (fire and forget).
  void Submit(std::function<void()> task) SEESAW_EXCLUDES(mu_);

  /// Enqueues a task and returns a handle that waits on exactly that task.
  /// Pair with a CancellationToken captured by the task for cancellable
  /// background work (e.g. speculative prefetch).
  TaskHandle SubmitWithResult(std::function<void()> task) SEESAW_EXCLUDES(mu_);

  /// As SubmitWithResult, with a NUMA-node preference: workers pinned to
  /// `node_hint` pop this task before unhinted work. Out-of-range hints and
  /// pools built without numa_affinity fall back to the unhinted queue.
  TaskHandle SubmitWithResult(std::function<void()> task, size_t node_hint)
      SEESAW_EXCLUDES(mu_);

  /// Number of worker threads. (workers_ is immutable after construction,
  /// so this needs no lock.)
  size_t num_threads() const { return workers_.size(); }

  /// The NUMA node worker `i` prefers (and is pinned to when the host
  /// supports it). Always 0 when the pool was built without numa_affinity
  /// or the host has one node. (worker_nodes_ is construction-immutable.)
  size_t worker_node(size_t i) const { return worker_nodes_[i]; }

  /// Whether this pool was built with numa_affinity on a host where it
  /// takes effect (i.e. hints actually route work). (num_hint_nodes_ is
  /// construction-immutable, so this needs no lock.)
  bool numa_affinity() const { return num_hint_nodes_ > 0; }

  /// Splits [0, n) into roughly equal chunks and runs `fn(begin, end)` on
  /// the pool, blocking until all chunks complete. `fn` must be safe to
  /// invoke concurrently on disjoint ranges. Each chunk is one
  /// SubmitWithResult task, waited like any handle: the caller runs the
  /// chunks still queued and parks only on chunks a worker is running. So
  /// concurrent sessions may ParallelFor on one shared pool, and a pool task
  /// may itself ParallelFor on the same pool without deadlocking.
  void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn)
      SEESAW_EXCLUDES(mu_);

  /// A sensible default worker count for this machine.
  static size_t DefaultThreads();

 private:
  void SubmitToQueue(std::function<void()> task, size_t node_hint)
      SEESAW_EXCLUDES(mu_);

  /// Pops the next task, preferring `preferred_node`'s hinted queue, then
  /// the unhinted queue, then other nodes' hinted queues. The fallback tail
  /// is the liveness half of the hint contract: a hinted task is never
  /// stranded waiting for "its" workers — any worker will eventually take
  /// it. Returns false when everything is empty.
  bool PopTaskLocked(size_t preferred_node, std::function<void()>& out)
      SEESAW_REQUIRES(mu_);

  bool QueuesEmptyLocked() const SEESAW_REQUIRES(mu_);

  void WorkerLoop(size_t worker_index) SEESAW_EXCLUDES(mu_);

  std::vector<std::thread> workers_;      // construction-immutable
  std::vector<size_t> worker_nodes_;      // construction-immutable
  size_t num_hint_nodes_ = 0;             // construction-immutable
  Mutex mu_;
  CondVar work_available_;
  std::queue<std::function<void()>> queue_ SEESAW_GUARDED_BY(mu_);
  /// One hinted queue per NUMA node; empty vector when affinity is off or
  /// the host has a single node (the hinted SubmitWithResult then collapses
  /// into the unhinted path). Sized before workers spawn, never resized.
  std::vector<std::queue<std::function<void()>>> node_queues_
      SEESAW_GUARDED_BY(mu_);
  bool shutting_down_ SEESAW_GUARDED_BY(mu_) = false;
};

}  // namespace seesaw

#endif  // SEESAW_COMMON_THREAD_POOL_H_
