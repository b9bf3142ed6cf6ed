#pragma once
// Off-loop protocol dispatch for the TransportServer.
//
// PR 4's epoll loop ran handle_request inline, so one submit blocked
// on a full admission queue stalled status polls on every connection.
// The DispatchPool moves request handling onto a small worker pool: the
// loop enqueues decoded frames (tagged with the connection's token),
// workers run the handler — which may block on admission backpressure —
// and hand the completed RequestOutcome to a completion callback (the
// transport re-queues it to the loop via its eventfd wakeup).
//
// Ordering: the pool itself is FIFO per submission order, and the
// transport preserves per-connection response order by keeping at most
// one request per connection in flight (later frames wait in the
// connection's pending queue).  The task queue is bounded; try_submit
// returns false when it is full (the transport answers "server
// overloaded" rather than stalling the loop).
//
// Shutdown: stop() drops queued tasks and joins the workers.  A worker
// blocked inside a submit finishes once the JobServer frees a slot or
// shuts down — the owner must keep the JobServer alive (running or
// shut down, either unblocks) until stop() returns.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "phes/server/protocol.hpp"
#include "phes/util/metrics.hpp"
#include "phes/util/sync.hpp"
#include "phes/util/threads.hpp"

namespace phes::server {

class DispatchPool {
 public:
  /// Runs one request line; may block (admission backpressure).
  using Handler = std::function<RequestOutcome(const std::string& line)>;
  /// Invoked from a worker thread with the finished outcome; must be
  /// cheap and non-blocking (the transport just queues + wakes).
  using Completion =
      std::function<void(std::uint64_t conn_token, RequestOutcome outcome)>;

  /// `registry` hosts the pool's counters and latency histograms
  /// (queue-wait, handle-time); nullptr gives the pool a private one.
  DispatchPool(std::size_t workers, std::size_t queue_capacity,
               Handler handler, Completion on_complete,
               obs::MetricsRegistry* registry = nullptr);
  ~DispatchPool();

  DispatchPool(const DispatchPool&) = delete;
  DispatchPool& operator=(const DispatchPool&) = delete;

  /// Enqueue one request.  False when the queue is full or the pool is
  /// stopping — never blocks (the caller is the event loop).
  bool try_submit(std::uint64_t conn_token, std::string line)
      PHES_EXCLUDES(mutex_);

  /// Drop queued tasks, join the workers (in-flight handlers finish).
  /// Idempotent.
  void stop() PHES_EXCLUDES(mutex_);

 private:
  struct Task {
    std::uint64_t conn_token = 0;
    std::string line;
    /// Submission instant (monotonic) — queue-wait histogram anchor.
    std::chrono::steady_clock::time_point enqueued_at{};
  };

  void worker_loop() PHES_EXCLUDES(mutex_);

  const std::size_t capacity_;
  Handler handler_;
  Completion on_complete_;

  util::Mutex mutex_;
  util::CondVar work_available_;
  std::deque<Task> queue_ PHES_GUARDED_BY(mutex_);
  bool stopping_ PHES_GUARDED_BY(mutex_) = false;

  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::Counter* submitted_ = nullptr;
  obs::Counter* completed_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Gauge* depth_ = nullptr;
  obs::Histogram* queue_wait_ = nullptr;
  obs::Histogram* handle_time_ = nullptr;

  util::ThreadGroup workers_;
};

}  // namespace phes::server
