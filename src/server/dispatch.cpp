#include "phes/server/dispatch.hpp"

#include <algorithm>
#include <utility>

#include "phes/util/timer.hpp"

namespace phes::server {

DispatchPool::DispatchPool(std::size_t workers, std::size_t queue_capacity,
                           Handler handler, Completion on_complete,
                           obs::MetricsRegistry* registry)
    : capacity_(std::max<std::size_t>(1, queue_capacity)),
      handler_(std::move(handler)),
      on_complete_(std::move(on_complete)) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry = owned_registry_.get();
  }
  submitted_ = &registry->counter("phes_dispatch_submitted_total");
  completed_ = &registry->counter("phes_dispatch_completed_total");
  rejected_ = &registry->counter("phes_dispatch_rejected_total");
  depth_ = &registry->gauge("phes_dispatch_queue_depth");
  queue_wait_ = &registry->histogram("phes_dispatch_queue_wait_seconds");
  handle_time_ = &registry->histogram("phes_dispatch_handle_seconds");
  workers_.start(std::max<std::size_t>(1, workers),
                 [this](std::size_t) { worker_loop(); });
}

DispatchPool::~DispatchPool() { stop(); }

bool DispatchPool::try_submit(std::uint64_t conn_token, std::string line) {
  {
    util::MutexLock lock(mutex_);
    if (stopping_ || queue_.size() >= capacity_) {
      rejected_->add();
      return false;
    }
    queue_.push_back(Task{conn_token, std::move(line),
                          std::chrono::steady_clock::now()});
    submitted_->add();
    depth_->set(static_cast<std::int64_t>(queue_.size()));
  }
  work_available_.notify_one();
  return true;
}

void DispatchPool::worker_loop() {
  for (;;) {
    Task task;
    {
      util::MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) work_available_.wait(mutex_);
      if (stopping_) return;  // queued tasks are dropped on stop
      task = std::move(queue_.front());
      queue_.pop_front();
      depth_->set(static_cast<std::int64_t>(queue_.size()));
    }
    queue_wait_->observe(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() -
                             task.enqueued_at)
                             .count());
    const util::WallTimer handle_timer;
    RequestOutcome outcome = handler_(task.line);
    handle_time_->observe(handle_timer.seconds());
    completed_->add();
    on_complete_(task.conn_token, std::move(outcome));
  }
}

void DispatchPool::stop() {
  {
    util::MutexLock lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    queue_.clear();
    depth_->set(0);
  }
  work_available_.notify_all();
  workers_.join();
}

}  // namespace phes::server
