#include "phes/server/server.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "phes/pipeline/batch.hpp"
#include "phes/util/log.hpp"
#include "phes/util/timer.hpp"

namespace phes::server {

namespace {

std::unique_ptr<Storage> make_storage(const ServerOptions& options,
                                      obs::MetricsRegistry* registry) {
  if (options.data_dir.empty()) {
    return std::make_unique<MemoryStorage>(options.max_finished_records,
                                           registry);
  }
  DiskStorageOptions disk;
  disk.max_bytes = options.retain_bytes;
  disk.ttl_seconds = options.retain_ttl_seconds;
  return std::make_unique<DiskStorage>(options.data_dir, disk, registry);
}

pipeline::ParallelismPlan server_plan(const ServerOptions& options) {
  // The queue bound doubles as the expected concurrency level: with a
  // full queue the server behaves like a batch of `queue_capacity`
  // jobs, so split the hardware the same way BatchRunner would.
  pipeline::ParallelismPlan plan =
      pipeline::plan_parallelism(0, options.queue_capacity);
  if (options.workers > 0) plan.job_workers = options.workers;
  if (options.solver_threads > 0) {
    plan.solver_threads = options.solver_threads;
  }
  return plan;
}

}  // namespace

JobServer::JobServer(ServerOptions options)
    : JobServer(options, server_plan(options)) {}

JobServer::JobServer(ServerOptions options, pipeline::ParallelismPlan plan)
    : options_(std::move(options)),
      worker_count_(plan.job_workers),
      solver_threads_(plan.solver_threads),
      owned_registry_(options_.registry != nullptr
                          ? nullptr
                          : std::make_unique<obs::MetricsRegistry>()),
      registry_(options_.registry != nullptr ? options_.registry
                                             : owned_registry_.get()),
      traces_(options_.trace_capacity, options_.trace_file),
      queue_(options_.queue_capacity, registry_),
      store_(make_storage(options_, registry_)),
      session_pool_(options_.pool, registry_),
      campaigns_(*this, *registry_) {
  jobs_submitted_ = &registry_->counter("phes_jobs_submitted_total");
  jobs_done_ = &registry_->counter("phes_jobs_done_total");
  jobs_failed_ = &registry_->counter("phes_jobs_failed_total");
  jobs_cancelled_ = &registry_->counter("phes_jobs_cancelled_total");
  queue_wait_hist_ = &registry_->histogram("phes_job_queue_wait_seconds");
  job_total_hist_ = &registry_->histogram("phes_job_total_seconds");
  for (std::size_t i = 0; i < stage_hist_.size(); ++i) {
    stage_hist_[i] = &registry_->histogram(
        std::string("phes_stage_seconds_") +
        pipeline::stage_name(static_cast<pipeline::Stage>(i)));
  }
  // A durable store may have recovered records from a previous process
  // lifetime; new ids must continue above them, or a restart would
  // reissue an id that still names a stored result.
  next_id_.store(store_.max_seen_id() + 1, std::memory_order_relaxed);
  workers_.start(worker_count_, [this](std::size_t) { worker_loop(); });
}

JobServer::~JobServer() { shutdown(true); }

std::uint64_t JobServer::submit(pipeline::PipelineJob job) {
  if (!accepting()) {
    throw std::runtime_error("JobServer::submit: server is shutting down");
  }
  const std::uint64_t id = next_id_.fetch_add(1);
  job.id = id;
  const std::string name = job.name.empty() ? job.input_path : job.name;
  store_.add(id, name);
  // Persist the replayable input spec (empty for samples-direct jobs);
  // best-effort — a failed write costs replayability, not admission.
  store_.note_input(id, pipeline::write_job_spec_json(job));
  const auto flag = std::make_shared<std::atomic<bool>>(false);
  {
    util::MutexLock lock(flags_mutex_);
    cancel_flags_[id] = flag;
  }
  jobs_submitted_->add();
  // Backpressure: blocks while the queue is full.  The record already
  // exists, so clients polling `status` see the job as queued.
  if (!queue_.push(QueuedJob{id, std::move(job), util::unix_seconds(),
                             std::chrono::steady_clock::now()})) {
    // Shutdown closed the queue while we were blocked.
    store_.mark_cancelled(id);
    {
      util::MutexLock lock(flags_mutex_);
      cancel_flags_.erase(id);
    }
    notify_finished();
    throw std::runtime_error("JobServer::submit: server is shutting down");
  }
  // Close the submit/abort race: a submission that slipped past the
  // accepting() gate while shutdown(false) swept the cancel flags must
  // not run — self-flag so the worker cancels it at its first stage.
  if (aborting_.load(std::memory_order_acquire)) {
    flag->store(true, std::memory_order_release);
  }
  return id;
}

bool JobServer::cancel(std::uint64_t id) {
  // Still queued: pull it out before a worker sees it.
  if (queue_.remove(id)) {
    store_.mark_cancelled(id);
    {
      util::MutexLock lock(flags_mutex_);
      cancel_flags_.erase(id);
    }
    notify_finished();
    return true;
  }
  // Popped (or being popped): flag it so the pipeline stops at its next
  // stage boundary.  The flag also covers the pop/mark_running window.
  const auto state = store_.state(id);
  if (!state || is_terminal(*state)) return false;
  if (const auto flag = cancel_flag(id)) {
    flag->store(true, std::memory_order_release);
    return true;
  }
  return false;
}

std::shared_ptr<std::atomic<bool>> JobServer::cancel_flag(
    std::uint64_t id) const {
  util::MutexLock lock(flags_mutex_);
  const auto it = cancel_flags_.find(id);
  return it == cancel_flags_.end() ? nullptr : it->second;
}

std::optional<JobRecord> JobServer::status(std::uint64_t id) const {
  return store_.get(id);
}

std::vector<JobRecord> JobServer::jobs() const { return store_.all(); }

std::optional<ResultStore::JobSummary> JobServer::job_summary(
    std::uint64_t id) const {
  return store_.summary(id);
}

std::vector<ResultStore::JobSummary> JobServer::job_summaries() const {
  return store_.summaries();
}

std::optional<pipeline::PipelineResult> JobServer::result(
    std::uint64_t id) const {
  const auto record = store_.get(id);
  if (!record || !is_terminal(record->state)) return std::nullopt;
  return record->result;
}

bool JobServer::wait(std::uint64_t id, double timeout_seconds) {
  // Unknown ids (never submitted, or finished + evicted by the result
  // store's retention cap) must fail fast, not block forever.
  const auto finished_or_gone = [&] {
    const auto state = store_.state(id);
    return !state || is_terminal(*state);
  };
  {
    util::MutexLock lock(finished_mutex_);
    if (timeout_seconds <= 0.0) {
      finished_cv_.wait(finished_mutex_, finished_or_gone);
    } else if (!finished_cv_.wait_for(
                   finished_mutex_,
                   std::chrono::duration<double>(timeout_seconds),
                   finished_or_gone)) {
      return false;
    }
  }
  const auto state = store_.state(id);
  return state && is_terminal(*state);
}

void JobServer::shutdown(bool drain) {
  {
    util::MutexLock lock(shutdown_mutex_);
    if (shutdown_done_) return;
    shutdown_done_ = true;
  }
  accepting_.store(false, std::memory_order_release);
  if (!drain) {
    // Abort: cancel the backlog and ask in-flight jobs to stop at
    // their next stage boundary.  `aborting_` is published first so a
    // submit racing past the accepting() gate self-flags (see submit).
    aborting_.store(true, std::memory_order_release);
    util::MutexLock lock(flags_mutex_);
    const std::vector<QueuedJob> backlog = queue_.drain();
    // Drained jobs never reach run_one, so reap their flags here.
    for (const QueuedJob& item : backlog) cancel_flags_.erase(item.id);
    for (auto& [id, flag] : cancel_flags_) {
      flag->store(true, std::memory_order_release);
    }
    // The backlog's records go terminal only after every in-flight
    // flag is set: a status poll that sees the backlog cancelled also
    // knows the in-flight jobs will stop at their next stage boundary.
    for (const QueuedJob& item : backlog) store_.mark_cancelled(item.id);
  }
  // Wake blocked producers/consumers; workers drain what remains (the
  // whole backlog when draining, nothing otherwise) and exit.
  queue_.close();
  workers_.join();
  notify_finished();
}

void JobServer::notify_finished() {
  { util::MutexLock lock(finished_mutex_); }
  finished_cv_.notify_all();
}

void JobServer::worker_loop() {
  while (auto item = queue_.pop()) {
    run_one(std::move(*item));
  }
}

void JobServer::run_one(QueuedJob item) {
  const std::uint64_t id = item.id;
  const double queue_wait_seconds =
      item.enqueued_at == std::chrono::steady_clock::time_point{}
          ? 0.0  // item was hand-built without timestamps (tests)
          : std::chrono::duration<double>(
                std::chrono::steady_clock::now() - item.enqueued_at)
                .count();
  const auto flag = cancel_flag(id);
  if (!store_.mark_running(id)) {
    // The record went terminal while queued (cancel race): drop it.
    {
      util::MutexLock lock(flags_mutex_);
      cancel_flags_.erase(id);
    }
    notify_finished();
    return;
  }

  pipeline::PipelineContext context;
  context.session_pool = &session_pool_;
  context.cancel = flag.get();
  context.on_stage_start = [this, id](pipeline::Stage stage) {
    store_.set_stage(id, stage);
    if (stage_observer_) stage_observer_(id, stage);
  };

  item.job.options.solver.threads = solver_threads_;

  queue_wait_hist_->observe(queue_wait_seconds);
  const double started_unix = util::unix_seconds();

  pipeline::PipelineResult result;
  try {
    result = pipeline::run_pipeline(item.job, context);
  } catch (const std::exception& e) {
    // run_pipeline captures stage errors itself; this is the last line
    // of defence (allocation failure and the like).
    result.name = item.job.name.empty() ? item.job.input_path
                                        : item.job.name;
    result.id = id;
    result.ok = false;
    result.error = e.what();
  }

  // Worker-layer metrics + the per-job trace, assembled before the
  // result is moved into the store.
  for (const pipeline::StageTiming& timing : result.stage_timings) {
    stage_hist_[static_cast<std::size_t>(timing.stage)]->observe(
        timing.seconds);
  }
  job_total_hist_->observe(result.total_seconds);
  (result.cancelled ? jobs_cancelled_
   : result.ok      ? jobs_done_
                    : jobs_failed_)
      ->add();
  JobTrace trace = build_job_trace(result, item.submitted_unix,
                                   started_unix,
                                   queue_wait_seconds * 1e3);
  if (options_.slow_job_ms > 0.0 &&
      result.total_seconds * 1e3 >= options_.slow_job_ms) {
    log_slow_job(trace);
  }
  traces_.record(std::move(trace));

  store_.finish(id, std::move(result));
  {
    util::MutexLock lock(flags_mutex_);
    cancel_flags_.erase(id);
  }
  notify_finished();
}

void JobServer::log_slow_job(const JobTrace& trace) const {
  std::ostringstream os;
  os << "[slow-job] id=" << trace.id << " name='" << trace.name
     << "' status=" << trace.status << " total=" << trace.total_ms
     << "ms queue_wait=" << trace.queue_wait_ms << "ms stages:";
  for (const StageSpan& span : trace.spans) {
    os << ' ' << span.stage << '=' << span.duration_ms << "ms";
    if (span.matvecs > 0) {
      os << "(matvecs=" << span.matvecs
         << ",cache=" << span.cache_hits << '/' << span.cache_misses
         << ",fact=" << span.factorizations << ')';
    }
  }
  os << " session: solves=" << trace.solves << " warm=" << trace.warm_solves
     << " dense=" << trace.dense_solves
     << " dense_reuses=" << trace.dense_reuses
     << " cache=" << trace.cache_hits << '/' << trace.cache_misses;
  util::log_line("slow-job", os.str());
}

void JobServer::set_stage_observer(
    std::function<void(std::uint64_t, pipeline::Stage)> observer) {
  stage_observer_ = std::move(observer);
}

}  // namespace phes::server
