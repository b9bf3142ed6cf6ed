#pragma once
// Retained job records — the server's answer to "what happened to job
// N?" after the worker that ran it has moved on.
//
// Every submission gets a record at admission time; the record walks
// queued -> running -> {done, failed, cancelled}.  Live (queued or
// running) records are kept in the store's own map and are never
// evicted; records reaching a terminal state are handed to a pluggable
// Storage backend (server/storage.hpp) that owns retention and — for
// DiskStorage — persistence and crash recovery, so the `result`
// protocol op can return the same machine-readable report as the batch
// summary writer even across a server restart.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "phes/pipeline/job.hpp"
#include "phes/server/storage.hpp"
#include "phes/util/sync.hpp"

namespace phes::server {

class ResultStore {
 public:
  /// In-memory backend with a finished-record retention cap.
  explicit ResultStore(std::size_t max_finished = 4096);
  /// Custom backend (e.g. DiskStorage for a durable server).
  explicit ResultStore(std::unique_ptr<Storage> storage);

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// Admission: creates the queued record (journaled by durable
  /// backends so a crash marks the job lost rather than unknown).
  void add(std::uint64_t id, const std::string& name);

  /// Persist the job's replayable input spec (empty spec = job has no
  /// replayable input; ignored).  Best-effort, delegated to the backend.
  void note_input(std::uint64_t id, const std::string& spec_json);

  /// The stored input spec for `id`, when the backend kept one.
  [[nodiscard]] std::optional<std::string> input(std::uint64_t id) const;

  /// queued -> running.  False when the record is gone or not queued
  /// (e.g. it was cancelled while the worker popped it).
  bool mark_running(std::uint64_t id);

  /// Progress: the pipeline started `stage`.
  void set_stage(std::uint64_t id, pipeline::Stage stage);

  /// Terminal transition from a finished pipeline run; the state is
  /// derived from the result (cancelled / ok / failed).
  void finish(std::uint64_t id, pipeline::PipelineResult result);

  /// queued -> cancelled (the job never ran).  False unless queued.
  bool mark_cancelled(std::uint64_t id);

  [[nodiscard]] std::optional<JobRecord> get(std::uint64_t id) const;
  /// State-only lookup — no PipelineResult copy (and no payload read
  /// on a disk backend).  The hot path for wait predicates and status
  /// polls.
  [[nodiscard]] std::optional<JobState> state(std::uint64_t id) const;

  /// Kept as a nested name for existing callers; the struct itself
  /// lives next to Storage.
  using JobSummary = server::JobSummary;
  [[nodiscard]] std::optional<JobSummary> summary(std::uint64_t id) const;
  /// Summaries of all records, ascending id — the status-all op; a
  /// full all() would deep-copy every retained result per poll.
  [[nodiscard]] std::vector<JobSummary> summaries() const;

  /// All records, ascending id (full results; prefer summaries() for
  /// polling — on a disk backend this reads every stored payload).
  [[nodiscard]] std::vector<JobRecord> all() const;

  [[nodiscard]] std::size_t size() const;

  /// Highest id the backend recovered — the server resumes its id
  /// sequence above it.
  [[nodiscard]] std::uint64_t max_seen_id() const;

 private:
  /// Move a live record into the backend as `state` with `result`.
  void finish_locked(std::map<std::uint64_t, JobRecord>::iterator it,
                     JobState state, pipeline::PipelineResult result)
      PHES_REQUIRES(mutex_);

  mutable util::Mutex mutex_;
  /// The pointer is set once at construction; the Storage object it
  /// names is single-threaded and called only under mutex_.
  const std::unique_ptr<Storage> storage_ PHES_PT_GUARDED_BY(mutex_);
  /// Live queued/running records only; terminal records live in the
  /// backend.
  std::map<std::uint64_t, JobRecord> records_ PHES_GUARDED_BY(mutex_);
};

}  // namespace phes::server
