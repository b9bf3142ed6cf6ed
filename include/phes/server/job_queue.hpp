#pragma once
// Bounded multi-producer / multi-consumer job queue — the admission
// control of the job server.
//
// Capacity is a hard bound: push() blocks once the queue is full, so a
// fast client cannot queue unbounded work (backpressure propagates all
// the way to the submitting socket).  close() releases every blocked
// producer and consumer; producers get `false`, consumers drain what
// remains and then get nullopt.  remove() supports cancelling a job
// that has not been popped yet.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "phes/pipeline/job.hpp"
#include "phes/util/metrics.hpp"
#include "phes/util/sync.hpp"

namespace phes::server {

/// One queued submission: the server-assigned id plus the job payload
/// (PipelineJob::id carries the same id into the result).
struct QueuedJob {
  std::uint64_t id = 0;
  pipeline::PipelineJob job;
  /// Admission wall-clock timestamp (trace events).
  double submitted_unix = 0.0;
  /// Admission instant on the monotonic clock — the anchor the worker
  /// measures queue wait against.
  std::chrono::steady_clock::time_point enqueued_at{};
};

class JobQueue {
 public:
  /// Capacity must be at least 1.  Counters and the depth gauges
  /// (`phes_queue_depth`, and `phes_queue_depth_peak`, the largest
  /// depth reached) live in `registry` (the owning server's); nullptr
  /// gives the queue a private registry so standalone queues stay
  /// isolated.
  explicit JobQueue(std::size_t capacity,
                    obs::MetricsRegistry* registry = nullptr);

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Blocks while the queue is full.  Returns false (dropping `item`)
  /// when the queue is closed before space opens up.
  bool push(QueuedJob item) PHES_EXCLUDES(mutex_);

  /// Blocks while the queue is empty.  Returns nullopt only after
  /// close() AND the backlog has drained.
  [[nodiscard]] std::optional<QueuedJob> pop() PHES_EXCLUDES(mutex_);

  /// Remove a not-yet-popped job.  False when the id is absent (it was
  /// already popped, or never queued here).
  bool remove(std::uint64_t id) PHES_EXCLUDES(mutex_);

  /// Remove and return everything still queued (an aborting shutdown
  /// uses this to mark the backlog cancelled).
  [[nodiscard]] std::vector<QueuedJob> drain() PHES_EXCLUDES(mutex_);

  /// Reject future pushes and wake every waiter.  Idempotent.
  void close() PHES_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t size() const PHES_EXCLUDES(mutex_);

 private:
  const std::size_t capacity_;
  mutable util::Mutex mutex_;
  util::CondVar space_available_;
  util::CondVar work_available_;
  std::deque<QueuedJob> queue_ PHES_GUARDED_BY(mutex_);
  bool closed_ PHES_GUARDED_BY(mutex_) = false;

  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::Counter* pushed_ = nullptr;
  obs::Counter* popped_ = nullptr;
  obs::Counter* removed_ = nullptr;
  obs::Counter* push_waits_ = nullptr;
  obs::Gauge* depth_ = nullptr;
  /// Raised under the mutex, so concurrent pushes cannot lose a peak.
  obs::Gauge* depth_peak_ = nullptr;
  obs::Histogram* admission_wait_ = nullptr;
};

}  // namespace phes::server
