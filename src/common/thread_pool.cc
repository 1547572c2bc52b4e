#include "common/thread_pool.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/numa.h"

namespace seesaw {

namespace {

// The tasks this thread has claimed and is running, innermost first: one
// frame per claim, living on the claimer's stack. Only the self-wait check
// reads it.
struct ClaimFrame {
  const void* state;
  const ClaimFrame* outer;
};
thread_local const ClaimFrame* claimed_by_this_thread = nullptr;

}  // namespace

bool TaskHandle::done() const {
  SEESAW_CHECK(state_ != nullptr) << "done() on an empty TaskHandle";
  return state_->claim.load(std::memory_order_acquire) == Claim::kDone;
}

bool TaskHandle::RunIfUnclaimed(State& state) {
  Claim expected = Claim::kQueued;
  if (!state.claim.compare_exchange_strong(expected, Claim::kRunning,
                                           std::memory_order_acquire)) {
    return false;
  }
  {
    const ClaimFrame frame{&state, claimed_by_this_thread};
    claimed_by_this_thread = &frame;
    // Taken out so the task's captures die before completion is published.
    std::function<void()> task = std::exchange(state.task, nullptr);
    task();
    claimed_by_this_thread = frame.outer;
  }
  // Publish completion under the state lock *and* notify under it: a waiter
  // that read the claim as not done cannot park before we flip it (its
  // check-then-park is atomic under state.mu), so the notify cannot be lost.
  // The release store publishes the task's writes to the lock-free done()
  // and Wait() fast paths.
  MutexLock lock(state.mu);
  state.claim.store(Claim::kDone, std::memory_order_release);
  state.cv.NotifyAll();
  return true;
}

void TaskHandle::Wait() {
  SEESAW_CHECK(state_ != nullptr) << "Wait() on an empty TaskHandle";
  State& state = *state_;
  // The acquire load pairs with the claimer's release store, ordering this
  // thread after the task's side effects.
  if (state.claim.load(std::memory_order_acquire) == Claim::kDone) return;
  if (RunIfUnclaimed(state)) return;
  // Someone else holds the claim. If that is this very thread, further up
  // its stack, parking would wait for a task that can only finish after
  // this call returns.
  for (const ClaimFrame* f = claimed_by_this_thread; f != nullptr;
       f = f->outer) {
    SEESAW_CHECK(f->state != &state)
        << "TaskHandle::Wait() on a task this thread is running: the task "
           "waits on itself (wait cycle)";
  }
  MutexLock lock(state.mu);
  while (state.claim.load(std::memory_order_acquire) != Claim::kDone) {
    state.cv.Wait(state.mu);
  }
}

ThreadPool::ThreadPool(size_t num_threads, const ThreadPoolOptions& options) {
  SEESAW_CHECK_GE(num_threads, 1u);
  // Affinity only engages when it can route anything: a single-node host
  // (or a non-Linux build, where NodeCount() is 1) gets the plain pool, so
  // enabling the option is always safe and a no-op where it cannot help.
  const bool affinity = options.numa_affinity && numa::Available();
  num_hint_nodes_ = affinity ? numa::NodeCount() : 0;
  {
    MutexLock lock(mu_);
    node_queues_.resize(num_hint_nodes_);
  }
  worker_nodes_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    worker_nodes_.push_back(affinity ? i % numa::NodeCount() : 0);
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::SubmitToQueue(std::function<void()> task, size_t node_hint) {
  {
    MutexLock lock(mu_);
    SEESAW_CHECK(!shutting_down_) << "Submit after shutdown";
    if (node_hint < node_queues_.size()) {
      node_queues_[node_hint].push(std::move(task));
    } else {
      queue_.push(std::move(task));
    }
  }
  // NotifyOne may wake a worker of a different node; that worker will still
  // find the task via PopTaskLocked's fallback order, so no signal is lost
  // to the hint routing.
  work_available_.NotifyOne();
}

void ThreadPool::Submit(std::function<void()> task) {
  SubmitToQueue(std::move(task), worker_nodes_.size());
}

TaskHandle ThreadPool::SubmitWithResult(std::function<void()> task) {
  return SubmitWithResult(std::move(task), worker_nodes_.size());
}

TaskHandle ThreadPool::SubmitWithResult(std::function<void()> task,
                                        size_t node_hint) {
  auto state = std::make_shared<TaskHandle::State>();
  state->task = std::move(task);
  // A waiter may have claimed the task by the time a worker pops this
  // entry; the entry then does nothing.
  SubmitToQueue([state] { TaskHandle::RunIfUnclaimed(*state); }, node_hint);
  return TaskHandle(std::move(state));
}

bool ThreadPool::PopTaskLocked(size_t preferred_node,
                               std::function<void()>& out) {
  auto take = [&out](std::queue<std::function<void()>>& q) {
    out = std::move(q.front());
    q.pop();
  };
  if (preferred_node < node_queues_.size() &&
      !node_queues_[preferred_node].empty()) {
    take(node_queues_[preferred_node]);
    return true;
  }
  if (!queue_.empty()) {
    take(queue_);
    return true;
  }
  for (auto& q : node_queues_) {
    if (!q.empty()) {
      take(q);
      return true;
    }
  }
  return false;
}

bool ThreadPool::QueuesEmptyLocked() const {
  if (!queue_.empty()) return false;
  for (const auto& q : node_queues_) {
    if (!q.empty()) return false;
  }
  return true;
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  const size_t my_node = worker_nodes_[worker_index];
  if (num_hint_nodes_ > 0) {
    // Pin before any work: the first task's first-touch allocations land on
    // this node. A refused pin (cgroup cpuset) degrades silently — the
    // worker still prefers its node's queue, it just may run elsewhere.
    numa::PinThreadToNode(my_node);
  }
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutting_down_ && QueuesEmptyLocked()) work_available_.Wait(mu_);
      // Shutting down: drain everything (hinted queues included) before
      // exiting so destruction keeps its "drains the queue" contract.
      if (!PopTaskLocked(my_node, task)) return;
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  size_t chunks = std::min(n, num_threads() * 4);
  size_t chunk_size = (n + chunks - 1) / chunks;
  std::vector<TaskHandle> handles;
  handles.reserve((n + chunk_size - 1) / chunk_size);
  for (size_t begin = 0; begin < n; begin += chunk_size) {
    size_t end = std::min(begin + chunk_size, n);
    handles.push_back(SubmitWithResult([&fn, begin, end] { fn(begin, end); }));
  }
  // Workers pop from the front, so the last chunks are the likeliest to be
  // still queued: waiting back to front runs those on this thread and parks
  // only on chunks a worker already holds.
  for (auto it = handles.rbegin(); it != handles.rend(); ++it) it->Wait();
}

size_t ThreadPool::DefaultThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 2 : static_cast<size_t>(hw);
}

}  // namespace seesaw
