#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"

namespace nodb {

ThreadPool::ThreadPool(size_t num_threads) {
  size_t n = std::max<size_t>(1, num_threads);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    Task queued;
    queued.fn = std::move(task);
    queued.metrics = metrics_;
    if (queued.metrics.task_wait_ns != nullptr) {
      queued.submit_ns = obs::TraceNowNs();
    }
    if (queued.metrics.queue_depth != nullptr) {
      queued.metrics.queue_depth->Add(1);
    }
    queue_.push_back(std::move(queued));
  }
  work_cv_.notify_one();
}

void ThreadPool::SetMetrics(const ThreadPoolMetrics& metrics) {
  MutexLock lock(mu_);
  metrics_ = metrics;
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (!queue_.empty() || active_ != 0) lock.Wait(idle_cv_);
  if (first_error_ != nullptr) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.Unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::WorkerLoop() {
  MutexLock lock(mu_);
  while (true) {
    while (!stop_ && queue_.empty()) lock.Wait(work_cv_);
    if (queue_.empty()) return;  // stop_ and nothing left to run
    Task task = std::move(queue_.front());
    queue_.pop_front();
    // Use the handles stamped at submit, not metrics_: a SetMetrics
    // racing with queued tasks must not split an Add/Sub pair across
    // two different gauges.
    ThreadPoolMetrics metrics = task.metrics;
    ++active_;
    lock.Unlock();
    if (metrics.task_wait_ns != nullptr && task.submit_ns != 0) {
      metrics.task_wait_ns->Record(obs::TraceNowNs() - task.submit_ns);
    }
    int64_t run_start =
        metrics.task_run_ns != nullptr ? obs::TraceNowNs() : 0;
    std::exception_ptr error;
    try {
      task.fn();
    } catch (...) {
      error = std::current_exception();
    }
    if (metrics.task_run_ns != nullptr) {
      metrics.task_run_ns->Record(obs::TraceNowNs() - run_start);
    }
    if (metrics.tasks_total != nullptr) metrics.tasks_total->Add(1);
    // Depth drops before active_ does, so once Wait() observes the
    // pool drained every attached gauge is already back to zero.
    if (metrics.queue_depth != nullptr) metrics.queue_depth->Sub(1);
    lock.Lock();
    if (error != nullptr && first_error_ == nullptr) {
      first_error_ = error;
    }
    --active_;
    if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
  }
}

size_t ThreadPool::DefaultThreadCount() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

TaskGroup::~TaskGroup() {
  MutexLock lock(mu_);
  while (pending_ != 0) lock.Wait(done_cv_);
}

void TaskGroup::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    ++pending_;
  }
  pool_->Submit([this, task = std::move(task)] {
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    MutexLock lock(mu_);
    if (error != nullptr && first_error_ == nullptr) {
      first_error_ = error;
    }
    if (--pending_ == 0) done_cv_.notify_all();
  });
}

void TaskGroup::Wait() {
  MutexLock lock(mu_);
  while (pending_ != 0) lock.Wait(done_cv_);
  if (first_error_ != nullptr) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.Unlock();
    std::rethrow_exception(error);
  }
}

}  // namespace nodb
