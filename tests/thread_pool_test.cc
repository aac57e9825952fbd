// Tests for util/thread_pool: the worker pool behind concurrent query
// batches and background store promotion.

#include "obs/metrics.h"
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace nodb {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { ++count; });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> count{0};
  pool.Submit([&count] { ++count; });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&count] { ++count; });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), (batch + 1) * 20);
  }
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++count;
      });
    }
    // No Wait(): the destructor must still run everything queued.
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, TasksActuallyRunConcurrently) {
  // With 4 workers, 4 tasks that each wait for the others to start can
  // only finish if they run at the same time.
  ThreadPool pool(4);
  std::atomic<int> started{0};
  std::atomic<bool> timed_out{false};
  for (int i = 0; i < 4; ++i) {
    pool.Submit([&] {
      ++started;
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (started.load() < 4) {
        if (std::chrono::steady_clock::now() > deadline) {
          timed_out = true;
          return;
        }
        std::this_thread::yield();
      }
    });
  }
  pool.Wait();
  EXPECT_FALSE(timed_out.load());
  EXPECT_EQ(started.load(), 4);
}

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
}

// ------------------------------------------------ instrumentation

TEST(ThreadPoolTest, MetricsGaugeReturnsToZeroAfterWait) {
  obs::Gauge depth;
  obs::LatencyHistogram wait_ns;
  obs::LatencyHistogram run_ns;
  obs::Counter tasks;
  ThreadPool pool(3);
  ThreadPoolMetrics metrics;
  metrics.queue_depth = &depth;
  metrics.task_wait_ns = &wait_ns;
  metrics.task_run_ns = &run_ns;
  metrics.tasks_total = &tasks;
  pool.SetMetrics(metrics);

  for (int batch = 0; batch < 3; ++batch) {
    std::atomic<int> count{0};
    for (int i = 0; i < 40; ++i) {
      pool.Submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ++count;
      });
    }
    // Depth counts queued + running, so mid-batch it may be anything
    // in [0, 40]; the contract is that Wait() returning implies the
    // gauge already drained back to zero.
    pool.Wait();
    EXPECT_EQ(count.load(), 40);
    EXPECT_EQ(depth.Value(), 0);
  }
  EXPECT_EQ(tasks.Value(), 120u);
  EXPECT_EQ(run_ns.Snapshot().count, 120u);
  EXPECT_EQ(wait_ns.Snapshot().count, 120u);
  // Every task slept 50us, so recorded run latency cannot be zero.
  EXPECT_GT(run_ns.Snapshot().p50, 0u);
}

TEST(ThreadPoolTest, SetMetricsMidFlightKeepsGaugesBalanced) {
  // Tasks queued under the old metrics must decrement the gauge they
  // incremented, even if SetMetrics swaps handles before they run.
  obs::Gauge old_depth;
  obs::Gauge new_depth;
  ThreadPool pool(1);
  ThreadPoolMetrics metrics;
  metrics.queue_depth = &old_depth;
  pool.SetMetrics(metrics);

  std::atomic<bool> release{false};
  pool.Submit([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  for (int i = 0; i < 8; ++i) pool.Submit([] {});
  metrics.queue_depth = &new_depth;
  pool.SetMetrics(metrics);  // queued tasks still carry old_depth
  for (int i = 0; i < 8; ++i) pool.Submit([] {});
  release.store(true);
  pool.Wait();
  EXPECT_EQ(old_depth.Value(), 0);
  EXPECT_EQ(new_depth.Value(), 0);
}

TEST(ThreadPoolTest, NullMetricsAreIgnored) {
  ThreadPool pool(2);
  pool.SetMetrics(ThreadPoolMetrics{});  // all-null: nothing recorded
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) pool.Submit([&count] { ++count; });
  pool.Wait();
  EXPECT_EQ(count.load(), 10);
}

// ------------------------------------------------ exception delivery

TEST(ThreadPoolTest, TaskExceptionReachesWaiter) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("task blew up"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
}

TEST(ThreadPoolTest, PoolStaysUsableAfterTaskException) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("first batch"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);

  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&count] { ++count; });
  }
  pool.Wait();  // error was consumed by the previous Wait
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, OnlyFirstExceptionIsDelivered) {
  ThreadPool pool(4);
  for (int i = 0; i < 8; ++i) {
    pool.Submit([] { throw std::runtime_error("boom"); });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  pool.Wait();  // drained and cleared: no rethrow
}

// ----------------------------------------------------------- groups

TEST(TaskGroupTest, WaitsOnlyForOwnTasks) {
  ThreadPool pool(4);
  std::atomic<bool> release_other{false};
  std::atomic<int> own_done{0};

  TaskGroup slow(&pool);
  slow.Submit([&release_other] {
    while (!release_other.load()) std::this_thread::yield();
  });

  TaskGroup fast(&pool);
  for (int i = 0; i < 8; ++i) {
    fast.Submit([&own_done] { ++own_done; });
  }
  // Must return although the slow group's task is still running.
  fast.Wait();
  EXPECT_EQ(own_done.load(), 8);

  release_other = true;
  slow.Wait();
}

TEST(TaskGroupTest, ExceptionGoesToGroupNotPool) {
  ThreadPool pool(2);
  {
    TaskGroup group(&pool);
    group.Submit([] { throw std::runtime_error("group task"); });
    EXPECT_THROW(group.Wait(), std::runtime_error);
  }
  pool.Wait();  // pool-level error state untouched: no rethrow
}

TEST(TaskGroupTest, DestructorDrainsWithoutThrowing) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  {
    TaskGroup group(&pool);
    for (int i = 0; i < 10; ++i) {
      group.Submit([&count, i] {
        if (i == 3) throw std::runtime_error("swallowed by dtor");
        ++count;
      });
    }
    // No Wait(): the destructor must drain and must not throw.
  }
  EXPECT_EQ(count.load(), 9);
}

}  // namespace
}  // namespace nodb
