#include "phes/server/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "phes/pipeline/report.hpp"
#include "phes/util/json.hpp"
#include "phes/util/log.hpp"

namespace phes::server {

namespace {

/// Fixed-precision doubles so to_json round-trips byte-identically
/// through from_json (µs resolution on absolute timestamps and
/// millisecond durations is plenty for stage spans).
std::string fmt_fixed(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

double round_fixed(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return std::strtod(buf, nullptr);
}

std::string span_json(const StageSpan& span) {
  std::ostringstream os;
  os << "{\"stage\": \"" << pipeline::json_escape(span.stage)
     << "\", \"start_unix\": " << fmt_fixed(span.start_unix)
     << ", \"duration_ms\": " << fmt_fixed(span.duration_ms)
     << ", \"matvecs\": " << span.matvecs
     << ", \"factorizations\": " << span.factorizations << "}";
  return os.str();
}

}  // namespace

std::string JobTrace::to_json() const {
  std::ostringstream os;
  os << "{\"event\": \"job_trace\", \"id\": " << id << ", \"name\": \""
     << pipeline::json_escape(name) << "\", \"status\": \""
     << pipeline::json_escape(status)
     << "\", \"submitted_unix\": " << fmt_fixed(submitted_unix)
     << ", \"started_unix\": " << fmt_fixed(started_unix)
     << ", \"queue_wait_ms\": " << fmt_fixed(queue_wait_ms)
     << ", \"total_ms\": " << fmt_fixed(total_ms) << ", \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    os << (i == 0 ? "" : ", ") << span_json(spans[i]);
  }
  os << "], \"session\": {\"solves\": " << solves
     << ", \"dense_solves\": " << dense_solves
     << ", \"factorizations\": " << factorizations << "}}";
  return os.str();
}

JobTrace JobTrace::from_json(const util::JsonValue& v) {
  JobTrace t;
  t.id = v.uint_or("id", 0);
  t.name = v.string_or("name", "");
  t.status = v.string_or("status", "");
  t.submitted_unix = v.number_or("submitted_unix", 0.0);
  t.started_unix = v.number_or("started_unix", 0.0);
  t.queue_wait_ms = v.number_or("queue_wait_ms", 0.0);
  t.total_ms = v.number_or("total_ms", 0.0);
  if (const util::JsonValue* spans = v.find("spans")) {
    for (const util::JsonValue& item : spans->items()) {
      StageSpan span;
      span.stage = item.string_or("stage", "");
      span.start_unix = item.number_or("start_unix", 0.0);
      span.duration_ms = item.number_or("duration_ms", 0.0);
      span.matvecs = item.uint_or("matvecs", 0);
      span.factorizations = item.uint_or("factorizations", 0);
      t.spans.push_back(std::move(span));
    }
  }
  if (const util::JsonValue* session = v.find("session")) {
    // Older traces' cache and warm-start counters are ignored.
    t.solves = pipeline::read_session_solves(*session);
    t.dense_solves = session->uint_or("dense_solves", 0);
    t.factorizations = session->uint_or("factorizations", 0);
  }
  return t;
}

JobTrace build_job_trace(const pipeline::PipelineResult& result,
                         double submitted_unix, double started_unix,
                         double queue_wait_ms) {
  JobTrace t;
  t.id = result.id;
  t.name = result.name;
  t.status = result.status();
  t.submitted_unix = round_fixed(submitted_unix);
  t.started_unix = round_fixed(started_unix);
  t.queue_wait_ms = round_fixed(queue_wait_ms);
  t.total_ms = round_fixed(result.total_seconds * 1e3);
  for (const pipeline::StageTiming& timing : result.stage_timings) {
    StageSpan span;
    span.stage = pipeline::stage_name(timing.stage);
    span.start_unix = round_fixed(started_unix + timing.start_seconds);
    span.duration_ms = round_fixed(timing.seconds * 1e3);
    // The eigensolver stages carry their SolverResult's counters: the
    // characterize stage produced the initial report, verify the final
    // one (zero: verify runs no eigensolve).  Enforce carries its
    // rounds' aggregate.
    const core::SolverResult* solver = nullptr;
    if (timing.stage == pipeline::Stage::kCharacterize) {
      solver = &result.initial_report.solver;
    } else if (timing.stage == pipeline::Stage::kVerify) {
      solver = &result.final_report.solver;
    } else if (timing.stage == pipeline::Stage::kEnforce) {
      span.matvecs = result.enforcement.total_matvecs;
      span.factorizations = result.enforcement.factorizations;
    }
    if (solver != nullptr) {
      span.matvecs = solver->total_matvecs;
      span.factorizations = solver->factorizations;
    }
    t.spans.push_back(std::move(span));
  }
  t.solves = result.session.solves;
  t.dense_solves = result.session.dense_solves;
  t.factorizations = result.session.factorizations;
  return t;
}

TraceStore::TraceStore(std::size_t capacity, const std::string& trace_file)
    : capacity_(std::max<std::size_t>(1, capacity)) {
  if (!trace_file.empty()) {
    file_.open(trace_file, std::ios::app);
    file_ok_ = file_.good();
    if (!file_ok_) {
      util::log_line("trace", "cannot open trace file '" + trace_file +
                                  "'; tracing to the in-memory ring only");
    }
  }
}

void TraceStore::record(JobTrace trace) {
  util::MutexLock lock(mutex_);
  if (file_ok_) {
    file_ << trace.to_json() << '\n';
    file_.flush();
    if (!file_.good()) {
      // Disk full / pipe gone: stop writing, keep serving the ring.
      util::log_line("trace",
                     "trace-file write failed; disabling the file sink");
      file_ok_ = false;
    }
  }
  ring_.push_back(std::move(trace));
  while (ring_.size() > capacity_) ring_.pop_front();
}

std::optional<JobTrace> TraceStore::get(std::uint64_t id) const {
  util::MutexLock lock(mutex_);
  // Newest-first: a re-run of a recovered id should win.
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
    if (it->id == id) return *it;
  }
  return std::nullopt;
}

std::size_t TraceStore::size() const {
  util::MutexLock lock(mutex_);
  return ring_.size();
}

}  // namespace phes::server
