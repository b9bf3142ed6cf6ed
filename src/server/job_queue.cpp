#include "phes/server/job_queue.hpp"

#include <algorithm>
#include <utility>

#include "phes/util/check.hpp"
#include "phes/util/timer.hpp"

namespace phes::server {

JobQueue::JobQueue(std::size_t capacity, obs::MetricsRegistry* registry)
    : capacity_(std::max<std::size_t>(1, capacity)) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry = owned_registry_.get();
  }
  pushed_ = &registry->counter("phes_queue_pushed_total");
  popped_ = &registry->counter("phes_queue_popped_total");
  removed_ = &registry->counter("phes_queue_removed_total");
  push_waits_ = &registry->counter("phes_queue_push_waits_total");
  depth_ = &registry->gauge("phes_queue_depth");
  depth_peak_ = &registry->gauge("phes_queue_depth_peak");
  admission_wait_ =
      &registry->histogram("phes_queue_admission_wait_seconds");
}

bool JobQueue::push(QueuedJob item) {
  bool admitted = false;
  {
    util::MutexLock lock(mutex_);
    const bool blocked = queue_.size() >= capacity_ && !closed_;
    if (blocked) push_waits_->add();
    const util::WallTimer wait_timer;
    while (!closed_ && queue_.size() >= capacity_) {
      space_available_.wait(mutex_);
    }
    // The admission-wait histogram records every push (a fast admit is
    // a near-zero observation), so its quantiles reflect what a
    // submitter actually experiences, not just the congested minority.
    admission_wait_->observe(wait_timer.seconds());
    if (!closed_) {
      queue_.push_back(std::move(item));
      pushed_->add();
      const auto depth = static_cast<std::int64_t>(queue_.size());
      depth_->set(depth);
      if (depth > depth_peak_->value()) depth_peak_->set(depth);
      admitted = true;
    }
  }
  if (admitted) work_available_.notify_one();
  return admitted;
}

std::optional<QueuedJob> JobQueue::pop() {
  std::optional<QueuedJob> item;
  {
    util::MutexLock lock(mutex_);
    while (!closed_ && queue_.empty()) work_available_.wait(mutex_);
    if (queue_.empty()) return std::nullopt;  // closed and drained
    item = std::move(queue_.front());
    queue_.pop_front();
    popped_->add();
    depth_->set(static_cast<std::int64_t>(queue_.size()));
  }
  space_available_.notify_one();
  return item;
}

bool JobQueue::remove(std::uint64_t id) {
  {
    util::MutexLock lock(mutex_);
    const auto it =
        std::find_if(queue_.begin(), queue_.end(),
                     [id](const QueuedJob& q) { return q.id == id; });
    if (it == queue_.end()) return false;
    queue_.erase(it);
    removed_->add();
    depth_->set(static_cast<std::int64_t>(queue_.size()));
  }
  space_available_.notify_one();
  return true;
}

std::vector<QueuedJob> JobQueue::drain() {
  std::vector<QueuedJob> out;
  {
    util::MutexLock lock(mutex_);
    out.reserve(queue_.size());
    for (auto& q : queue_) out.push_back(std::move(q));
    removed_->add(queue_.size());
    queue_.clear();
    depth_->set(0);
  }
  space_available_.notify_all();
  return out;
}

void JobQueue::close() {
  {
    util::MutexLock lock(mutex_);
    closed_ = true;
  }
  space_available_.notify_all();
  work_available_.notify_all();
}

std::size_t JobQueue::size() const {
  util::MutexLock lock(mutex_);
  return queue_.size();
}

}  // namespace phes::server
