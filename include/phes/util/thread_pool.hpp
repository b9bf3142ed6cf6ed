#pragma once
// Fixed-size worker pool used by the dynamic shift scheduler (DESIGN.md).
//
// The paper assigns individual single-shift Arnoldi iterations to
// individual threads; the pool provides exactly that: T long-lived
// workers pulling tasks from a shared queue.  Tasks may themselves
// enqueue further tasks (the scheduler's split rule does), so shutdown
// waits for full quiescence, not just queue emptiness.

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "phes/util/sync.hpp"

namespace phes::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task.  Safe to call from within a running task.
  void submit(std::function<void()> task) PHES_EXCLUDES(mutex_);

  /// Block until every submitted task (including tasks submitted by
  /// running tasks) has completed.
  void wait_idle() PHES_EXCLUDES(mutex_);

 private:
  void worker_loop() PHES_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar work_available_;
  CondVar idle_;
  std::deque<std::function<void()>> queue_ PHES_GUARDED_BY(mutex_);
  std::size_t in_flight_ PHES_GUARDED_BY(mutex_) = 0;
  bool stopping_ PHES_GUARDED_BY(mutex_) = false;
};

}  // namespace phes::util
