#pragma once
// Per-job stage tracing: one span per pipeline stage, assembled when a
// job finishes from the PipelineResult the stage machine already
// produces (stage timings, SolverResult counters, eigensolve counts) plus
// the admission/start timestamps the server carries on the queue item.
//
// Traces answer the question the aggregate histograms cannot: "where
// did job 41's four seconds go?"  They are kept in a bounded in-memory
// ring (the `trace <id>` protocol op) and — when the server was started
// with --trace-file — appended as one NDJSON event per finished job,
// so a fleet's trace files can be concatenated and queried offline.
//
// Timestamps are wall-clock (util::unix_seconds) so spans from
// different hosts line up; durations are measured on steady_clock
// (util::WallTimer) so they survive wall-clock adjustments.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "phes/pipeline/job.hpp"
#include "phes/util/sync.hpp"

namespace phes::util {
class JsonValue;
}  // namespace phes::util

namespace phes::server {

/// One executed pipeline stage.  Solver counters are attached to the
/// stages that drive the Hamiltonian eigensolver (characterize carries
/// the initial report's counters, verify the final report's); they are
/// zero elsewhere.
struct StageSpan {
  std::string stage;
  double start_unix = 0.0;  ///< wall-clock seconds when the stage began
  double duration_ms = 0.0;
  std::uint64_t matvecs = 0;
  std::uint64_t factorizations = 0;
};

/// The full per-job record: queue wait, one span per executed stage in
/// execution order, and the job's eigensolve counts
/// (PipelineResult::session).
struct JobTrace {
  std::uint64_t id = 0;
  std::string name;
  std::string status;  ///< PipelineResult::status()
  double submitted_unix = 0.0;
  double started_unix = 0.0;  ///< a worker picked the job up
  double queue_wait_ms = 0.0;
  double total_ms = 0.0;
  std::vector<StageSpan> spans;
  std::uint64_t solves = 0;
  std::uint64_t dense_solves = 0;
  std::uint64_t factorizations = 0;

  /// One-line JSON object (the NDJSON trace-file event and the
  /// `trace` op's payload).
  [[nodiscard]] std::string to_json() const;
  /// Inverse of to_json: to_json(from_json(parse(to_json(t)))) is
  /// byte-identical to to_json(t).
  [[nodiscard]] static JobTrace from_json(const util::JsonValue& v);
};

/// Assemble a trace from a finished pipeline run.  `submitted_unix`
/// and `started_unix` come from the server's queue bookkeeping;
/// `queue_wait_ms` is steady-clock-measured by the caller.
[[nodiscard]] JobTrace build_job_trace(
    const pipeline::PipelineResult& result, double submitted_unix,
    double started_unix, double queue_wait_ms);

/// Bounded ring of recent traces plus the optional NDJSON sink.
/// Thread-safe: workers record concurrently with protocol-side gets.
class TraceStore {
 public:
  /// A non-empty `trace_file` is opened in append mode; open failure
  /// is non-fatal (a warning on stderr — tracing must never take the
  /// server down).
  explicit TraceStore(std::size_t capacity = 512,
                      const std::string& trace_file = "");

  TraceStore(const TraceStore&) = delete;
  TraceStore& operator=(const TraceStore&) = delete;

  /// Keep the trace (evicting the oldest past capacity) and append it
  /// to the trace file when one is open.
  void record(JobTrace trace) PHES_EXCLUDES(mutex_);

  [[nodiscard]] std::optional<JobTrace> get(std::uint64_t id) const
      PHES_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t size() const PHES_EXCLUDES(mutex_);

 private:
  const std::size_t capacity_;
  mutable util::Mutex mutex_;
  std::deque<JobTrace> ring_ PHES_GUARDED_BY(mutex_);  ///< oldest first
  std::ofstream file_ PHES_GUARDED_BY(mutex_);
  bool file_ok_ PHES_GUARDED_BY(mutex_) = false;
};

}  // namespace phes::server
