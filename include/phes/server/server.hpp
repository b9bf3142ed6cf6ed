#pragma once
// phes::server::JobServer — the long-lived service core over the batch
// pipeline.
//
// A bounded JobQueue (admission + backpressure) feeds a fixed
// util::ThreadGroup of worker loops; each worker runs jobs through
// pipeline::run_pipeline with a PipelineContext that wires in
//  - a per-job cancellation flag (polled at stage boundaries), and
//  - a stage observer feeding the ResultStore's progress field.
// Nothing is shared across jobs: a resubmitted model is solved again
// (a finished verdict is re-read with `result`).
// Finished results land in the ResultStore keyed by job id, retrievable
// via the NDJSON protocol (server/protocol.hpp) or in-process.
//
// Lifecycle: construct -> submit/cancel/status/result from any thread
// -> shutdown(drain) exactly once (the destructor drains gracefully if
// the caller did not).  Thread-safe throughout.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "phes/pipeline/batch.hpp"
#include "phes/pipeline/job.hpp"
#include "phes/server/campaign.hpp"
#include "phes/server/job_queue.hpp"
#include "phes/server/result_store.hpp"
#include "phes/server/trace.hpp"
#include "phes/util/metrics.hpp"
#include "phes/util/sync.hpp"
#include "phes/util/threads.hpp"

namespace phes::server {

struct ServerOptions {
  /// Queue bound; submit() blocks once this many jobs are waiting.
  std::size_t queue_capacity = 64;
  /// Concurrent pipeline workers; 0 derives a (workers x solver
  /// threads) split from the hardware via pipeline::plan_parallelism.
  std::size_t workers = 0;
  /// Solver threads handed to every job; 0 => from the same plan.
  std::size_t solver_threads = 0;
  /// Finished-record retention cap of the in-memory result store
  /// (ignored when data_dir selects the disk backend).
  std::size_t max_finished_records = 4096;
  /// Durable result storage: when non-empty, finished results spill to
  /// this directory as JSON records (server::DiskStorage) and are
  /// recovered on the next start — `status`/`result`/`wait` survive a
  /// restart, and the id sequence resumes above every recovered id.
  /// Jobs that were queued/running when the process died come back as
  /// failed ("lost in server restart").
  std::string data_dir;
  /// Disk retention: byte budget for stored records (0 = unbounded).
  std::size_t retain_bytes = 0;
  /// Disk retention: drop records older than this many seconds
  /// (0 = keep forever).
  double retain_ttl_seconds = 0.0;
  /// Base options applied to submissions that do not override them.
  pipeline::JobOptions job_defaults{};
  /// Metrics sink shared by every layer of this server (queue, workers,
  /// storage; the TransportServer and DispatchPool join it through
  /// metrics_registry()).  nullptr: the server owns a private registry,
  /// so several servers in one process keep isolated counters.  Must
  /// outlive the server when set.
  obs::MetricsRegistry* registry = nullptr;
  /// Per-job stage traces kept for the `trace <id>` protocol op.
  std::size_t trace_capacity = 512;
  /// When non-empty, every finished job appends one NDJSON trace event
  /// here (see server/trace.hpp); open failure is non-fatal.
  std::string trace_file;
  /// When > 0, any job whose pipeline run exceeds this many
  /// milliseconds gets its full stage breakdown logged to stderr.
  double slow_job_ms = 0.0;
};

class JobServer {
 public:
  explicit JobServer(ServerOptions options = {});
  /// Graceful: drains queued work, then joins the workers.
  ~JobServer();

  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// Admit a job (id assigned here and returned; the record is visible
  /// via status() immediately).  Blocks while the queue is full.
  /// Throws std::runtime_error once shutdown has begun.
  std::uint64_t submit(pipeline::PipelineJob job);

  /// Cancel a job.  Queued: removed, never runs.  Running: its flag is
  /// set and the pipeline stops at the next stage boundary — a true
  /// return therefore means "cancellation requested", not "job did not
  /// complete": a job already inside its final stage still finishes,
  /// and the terminal record (done vs cancelled) is authoritative.
  /// False when the job is unknown or already finished.
  bool cancel(std::uint64_t id);

  [[nodiscard]] std::optional<JobRecord> status(std::uint64_t id) const;
  [[nodiscard]] std::vector<JobRecord> jobs() const;
  /// Status-poll views without the PipelineResult payload (what the
  /// protocol's status op serves).
  [[nodiscard]] std::optional<ResultStore::JobSummary> job_summary(
      std::uint64_t id) const;
  [[nodiscard]] std::vector<ResultStore::JobSummary> job_summaries() const;
  /// The full result once the job reached a terminal state.
  [[nodiscard]] std::optional<pipeline::PipelineResult> result(
      std::uint64_t id) const;

  /// Block until job `id` reaches a terminal state.  False on timeout
  /// (timeout_seconds <= 0 waits forever) or unknown id.
  bool wait(std::uint64_t id, double timeout_seconds = 0.0);

  /// Stop the server.  drain=true finishes everything already queued;
  /// drain=false cancels the backlog and asks in-flight jobs to stop at
  /// their next stage boundary.  Idempotent; submit() fails afterwards.
  void shutdown(bool drain = true);
  [[nodiscard]] bool accepting() const noexcept {
    return accepting_.load(std::memory_order_acquire);
  }

  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }
  /// The resolved parallelism plan: pipeline workers, and the solver
  /// threads each job gets.
  [[nodiscard]] std::size_t workers() const noexcept { return worker_count_; }
  [[nodiscard]] std::size_t solver_threads() const noexcept {
    return solver_threads_;
  }
  /// The registry every layer of this server reports into (the
  /// server-owned one unless ServerOptions::registry was set).
  [[nodiscard]] obs::MetricsRegistry& metrics_registry() const noexcept {
    return *registry_;
  }
  /// Full metrics dump — what the `metrics` protocol op serializes.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const {
    return registry_->snapshot();
  }
  /// Stage trace of a finished job, if it is still in the trace ring
  /// (jobs cancelled while queued never ran, so they have no trace).
  [[nodiscard]] std::optional<JobTrace> trace(std::uint64_t id) const {
    return traces_.get(id);
  }

  /// Campaign replay over the stored records (the replay/campaign
  /// protocol ops).
  [[nodiscard]] CampaignRunner& campaigns() noexcept { return campaigns_; }
  /// The replayable input spec persisted for `id` at admission, when
  /// the storage backend kept one.
  [[nodiscard]] std::optional<std::string> stored_input(
      std::uint64_t id) const {
    return store_.input(id);
  }

  /// Test/diagnostics hook: invoked as (job id, stage) when any job
  /// starts a stage.  Set before jobs are submitted; runs on worker
  /// threads.
  void set_stage_observer(
      std::function<void(std::uint64_t, pipeline::Stage)> observer);

 private:
  /// Delegation target so the (workers x solver threads) plan is
  /// computed exactly once.
  JobServer(ServerOptions options, pipeline::ParallelismPlan plan);

  void worker_loop();
  void run_one(QueuedJob item);
  /// stderr breakdown for jobs slower than ServerOptions::slow_job_ms.
  void log_slow_job(const JobTrace& trace) const;
  /// Wakes wait()ers; takes finished_mutex_ briefly so a state change
  /// cannot slip between a waiter's predicate check and its block.
  void notify_finished() PHES_EXCLUDES(finished_mutex_);
  [[nodiscard]] std::shared_ptr<std::atomic<bool>> cancel_flag(
      std::uint64_t id) const PHES_EXCLUDES(flags_mutex_);

  ServerOptions options_;
  std::size_t worker_count_ = 1;
  std::size_t solver_threads_ = 1;

  /// Declared before queue_/store_: both register instruments in the
  /// registry during construction.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_ = nullptr;
  TraceStore traces_;

  JobQueue queue_;
  ResultStore store_;
  /// Declared after store_: start() reads stored records, and the
  /// runner resolves its phes_campaign_* instruments from registry_.
  CampaignRunner campaigns_;

  // Worker-layer instruments (resolved once at construction).
  obs::Counter* jobs_submitted_ = nullptr;
  obs::Counter* jobs_done_ = nullptr;
  obs::Counter* jobs_failed_ = nullptr;
  obs::Counter* jobs_cancelled_ = nullptr;
  obs::Histogram* queue_wait_hist_ = nullptr;
  obs::Histogram* job_total_hist_ = nullptr;
  /// One duration histogram per pipeline stage, indexed by Stage.
  std::array<obs::Histogram*, 6> stage_hist_{};

  mutable util::Mutex flags_mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<std::atomic<bool>>>
      cancel_flags_ PHES_GUARDED_BY(flags_mutex_);

  std::function<void(std::uint64_t, pipeline::Stage)> stage_observer_;

  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<bool> accepting_{true};
  /// An aborting shutdown is in progress: submissions racing past the
  /// accepting() gate self-flag so none can slip in unflagged between
  /// the abort's cancel sweep and the queue close.
  std::atomic<bool> aborting_{false};
  util::Mutex shutdown_mutex_;
  bool shutdown_done_ PHES_GUARDED_BY(shutdown_mutex_) = false;

  /// Guards no data of its own: wait() predicates read the (internally
  /// synchronized) ResultStore.  The lock only closes the window
  /// between a waiter's predicate check and its block.
  mutable util::Mutex finished_mutex_;
  util::CondVar finished_cv_;

  /// Declared last: destroyed (joined) first, while queue/store live.
  util::ThreadGroup workers_;
};

}  // namespace phes::server
