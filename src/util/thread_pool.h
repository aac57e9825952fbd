#ifndef NODB_UTIL_THREAD_POOL_H_
#define NODB_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace nodb {

/// Optional pool instrumentation (obs/metrics.h): queue depth counts
/// queued + running tasks (returns to zero once Wait() returns), wait
/// is submit-to-start, run is task execution time. Null members are
/// simply not recorded.
struct ThreadPoolMetrics {
  obs::Gauge* queue_depth = nullptr;
  obs::LatencyHistogram* task_wait_ns = nullptr;
  obs::LatencyHistogram* task_run_ns = nullptr;
  obs::Counter* tasks_total = nullptr;
};

/// A fixed-size pool of worker threads draining a FIFO task queue.
///
/// Small by design: concurrent query batches and the background store
/// promoter need a shared set of workers, nothing more. Submit() never
/// blocks; Wait() blocks the caller until every task submitted so far
/// has finished, after which the pool is reusable for the next batch.
///
/// A task that throws does not take the process down: the first
/// exception is captured and rethrown by Wait() (tasks submitted
/// through a TaskGroup deliver to that group's Wait() instead).
class ThreadPool {
 public:
  /// `num_threads` is clamped to at least 1.
  explicit ThreadPool(size_t num_threads);

  /// Joins all workers; pending tasks are still executed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution on some worker.
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  /// Attaches metric handles; applies to tasks submitted afterwards.
  /// Safe to call while the pool is running.
  void SetMetrics(const ThreadPoolMetrics& metrics) EXCLUDES(mu_);

  /// Blocks until the queue is empty and no task is running, then
  /// rethrows the first exception any directly-submitted task threw
  /// since the last Wait().
  void Wait() EXCLUDES(mu_);

  size_t num_threads() const { return threads_.size(); }

  /// std::thread::hardware_concurrency() with a fallback of 1.
  static size_t DefaultThreadCount();

 private:
  /// A queued task plus the metric handles and submit stamp captured
  /// at submit time. Stamping the handles per task keeps increments
  /// and decrements on the same gauge even when SetMetrics is called
  /// while tasks are in flight.
  struct Task {
    std::function<void()> fn;
    ThreadPoolMetrics metrics;
    int64_t submit_ns = 0;  // 0 when wait-latency recording is off
  };

  void WorkerLoop() EXCLUDES(mu_);

  Mutex mu_;
  std::condition_variable work_cv_;  // signals workers: task or stop
  std::condition_variable idle_cv_;  // signals Wait(): all drained
  std::deque<Task> queue_ GUARDED_BY(mu_);
  ThreadPoolMetrics metrics_ GUARDED_BY(mu_);
  std::exception_ptr first_error_ GUARDED_BY(mu_);  // from direct submits
  size_t active_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;  // immutable after construction
};

/// A batch of tasks on a *shared* pool: Wait() returns when this
/// group's tasks are done, regardless of what else the pool is
/// running. This is what lets several concurrent query batches share
/// one pool without waiting on each other.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}

  /// Drains remaining tasks without rethrowing (call Wait() first to
  /// observe errors); tasks must not outlive the group.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues `task`; an exception it throws is captured and rethrown
  /// by this group's Wait().
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  /// Blocks until every task submitted to *this group* finished, then
  /// rethrows the first captured exception.
  void Wait() EXCLUDES(mu_);

 private:
  ThreadPool* pool_;
  Mutex mu_;
  std::condition_variable done_cv_;
  size_t pending_ GUARDED_BY(mu_) = 0;
  std::exception_ptr first_error_ GUARDED_BY(mu_);
};

}  // namespace nodb

#endif  // NODB_UTIL_THREAD_POOL_H_
