#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_pool.h"

namespace seesaw {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorFactoriesCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dim");

  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::Unimplemented("x").IsUnimplemented());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_NE(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_NE(Status::NotFound("a"), Status::Internal("a"));
}

TEST(StatusTest, CopyIsCheapAndIndependent) {
  Status a = Status::Internal("boom");
  Status b = a;
  EXPECT_EQ(a, b);
  a = Status::OK();
  EXPECT_TRUE(a.ok());
  EXPECT_FALSE(b.ok());
}

Status FailingHelper() { return Status::NotFound("inner"); }

Status UsesReturnIfError() {
  SEESAW_RETURN_IF_ERROR(FailingHelper());
  return Status::Internal("should not reach");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UsesReturnIfError().IsNotFound());
}

// -------------------------------------------------------------- StatusOr --

StatusOr<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = ParsePositive(7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 7);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = ParsePositive(-1);
  EXPECT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsInvalidArgument());
  EXPECT_EQ(v.value_or(42), 42);
}

StatusOr<int> ChainedParse(int v) {
  SEESAW_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  return parsed * 2;
}

TEST(StatusOrTest, AssignOrReturnHappyPath) {
  auto r = ChainedParse(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(StatusOrTest, AssignOrReturnPropagatesError) {
  EXPECT_FALSE(ChainedParse(0).ok());
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v(std::make_unique<int>(5));
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> owned = std::move(v).value();
  EXPECT_EQ(*owned, 5);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    same += (a.UniformInt(0, 1000000) == b.UniformInt(0, 1000000));
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(4);
  std::set<int64_t> seen;
  for (int i = 0; i < 300; ++i) seen.insert(rng.UniformInt(0, 4));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 4);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(5);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(6);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(7);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(8);
  for (size_t k : {0u, 1u, 5u, 50u, 100u}) {
    auto s = rng.SampleWithoutReplacement(100, k);
    EXPECT_EQ(s.size(), k);
    std::set<size_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), k);
    for (size_t v : s) EXPECT_LT(v, 100u);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(10);
  Rng child = a.Fork();
  // Child stream should not mirror the parent stream.
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    same += (a.UniformInt(0, 1 << 30) == child.UniformInt(0, 1 << 30));
  }
  EXPECT_LT(same, 2);
}

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  // Per-task handles instead of the old pool-wide Wait(): each handle blocks
  // only on its own task, so callers never wait on other sessions' work.
  std::vector<TaskHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(pool.SubmitWithResult([&count] { count.fetch_add(1); }));
  }
  for (TaskHandle& h : handles) h.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, TaskHandleReportsCompletion) {
  ThreadPool pool(2);
  TaskHandle handle = pool.SubmitWithResult([] {});
  ASSERT_TRUE(handle.valid());
  handle.Wait();
  EXPECT_TRUE(handle.done());
  handle.Wait();  // waiting again on a finished task returns immediately
  EXPECT_FALSE(TaskHandle().valid());
}

TEST(ThreadPoolTest, CancellationTokenIsCooperative) {
  ThreadPool pool(2);
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  CancellationToken copy = token;  // copies share the flag
  token.RequestCancel();
  EXPECT_TRUE(copy.cancelled());

  // A task observing the token skips its work.
  std::atomic<int> worked{0};
  CancellationToken cancel;
  cancel.RequestCancel();
  TaskHandle handle = pool.SubmitWithResult([cancel, &worked] {
    if (!cancel.cancelled()) worked.fetch_add(1);
  });
  handle.Wait();
  EXPECT_EQ(worked.load(), 0);
}

TEST(ThreadPoolTest, WaitOnHandleFromInsidePoolTask) {
  // A pool task waiting on another task's handle runs that task itself
  // while it is queued, so even a single worker cannot deadlock.
  ThreadPool pool(1);
  std::atomic<int> inner_ran{0};
  TaskHandle outer = pool.SubmitWithResult([&pool, &inner_ran] {
    TaskHandle inner =
        pool.SubmitWithResult([&inner_ran] { inner_ran.fetch_add(1); });
    inner.Wait();
  });
  outer.Wait();
  EXPECT_EQ(inner_ran.load(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&hits](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&called](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Regression: a task running on the pool calling ParallelFor on the same
  // pool used to park every worker with the chunks still queued behind
  // them. Each waiter now runs its own queued chunks instead.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(4, [&pool, &inner_total](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      pool.ParallelFor(8, [&inner_total](size_t b, size_t e) {
        inner_total.fetch_add(static_cast<int>(e - b));
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 4 * 8);
}

TEST(ThreadPoolTest, DeeplyNestedParallelForOnSingleWorker) {
  // Three levels of nesting on a one-worker pool: only waiters running
  // their own queued chunks can make progress here.
  ThreadPool pool(1);
  std::atomic<int> leaves{0};
  pool.ParallelFor(2, [&](size_t b0, size_t e0) {
    for (size_t i = b0; i < e0; ++i) {
      pool.ParallelFor(2, [&](size_t b1, size_t e1) {
        for (size_t j = b1; j < e1; ++j) {
          pool.ParallelFor(2, [&](size_t b2, size_t e2) {
            leaves.fetch_add(static_cast<int>(e2 - b2));
          });
        }
      });
    }
  });
  EXPECT_EQ(leaves.load(), 2 * 2 * 2);
}

TEST(ThreadPoolTest, ConcurrentNestedParallelForManySessions) {
  // Many external "sessions" hammer one shared pool, each with a nested
  // ParallelFor (the prefetch-task-doing-TopKBatch shape), repeatedly.
  ThreadPool pool(3);
  constexpr int kSessions = 8;
  constexpr int kRounds = 20;
  std::atomic<int> total{0};
  std::vector<std::thread> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&pool, &total] {
      for (int r = 0; r < kRounds; ++r) {
        pool.ParallelFor(6, [&pool, &total](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            pool.ParallelFor(4, [&total](size_t b, size_t e) {
              total.fetch_add(static_cast<int>(e - b));
            });
          }
        });
      }
    });
  }
  for (auto& t : sessions) t.join();
  EXPECT_EQ(total.load(), kSessions * kRounds * 6 * 4);
}

TEST(ThreadPoolTest, WaiterNeverRunsTheTaskThatWaitsOnIt) {
  // The server's deadlock, scripted: one worker, queue [scan, handler, fit].
  // The speculative scan waits on its fit; the request handler waits on the
  // scan. A waiter that ran any queued task would pick up the handler from
  // inside the scan's wait, and the handler would then wait on the scan
  // sitting beneath it on the same stack. A waiter that runs only its own
  // task runs the fit and returns. The main thread only polls done(), so
  // it never runs anything itself.
  ThreadPool pool(1);
  std::atomic<bool> gate{false};
  TaskHandle blocker = pool.SubmitWithResult([&gate] {
    while (!gate.load()) std::this_thread::yield();
  });
  TaskHandle scan, handler, fit;  // assigned before the gate opens
  scan = pool.SubmitWithResult([&fit] { fit.Wait(); });
  handler = pool.SubmitWithResult([&scan] { scan.Wait(); });
  fit = pool.SubmitWithResult([] {});
  gate.store(true);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!(blocker.done() && scan.done() && handler.done() && fit.done())) {
    if (std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr,
                   "WaiterNeverRunsTheTaskThatWaitsOnIt: deadlocked, the "
                   "scan's wait ran the handler that waits on the scan\n");
      std::_Exit(1);
    }
    std::this_thread::yield();
  }
}

TEST(ThreadPoolDeathTest, WaitOnOwnTaskFailsInsteadOfHanging) {
  // Whichever thread claims the task (the worker, or the main thread's
  // Wait), the task's wait on its own handle is a cycle the check names.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        std::atomic<bool> ready{false};
        TaskHandle self;
        TaskHandle handle = pool.SubmitWithResult([&ready, &self] {
          while (!ready.load()) std::this_thread::yield();
          self.Wait();
        });
        self = handle;
        ready.store(true);
        handle.Wait();
      },
      "waits on itself");
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 20);
}

}  // namespace
}  // namespace seesaw
