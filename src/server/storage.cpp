#include "phes/server/storage.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "phes/pipeline/report.hpp"
#include "phes/util/json.hpp"
#include "phes/util/log.hpp"
#include "phes/util/timer.hpp"

namespace phes::server {

namespace fs = std::filesystem;

const char* job_state_name(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

bool is_terminal(JobState state) noexcept {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

namespace {

JobState parse_job_state(const std::string& name) {
  if (name == "queued") return JobState::kQueued;
  if (name == "running") return JobState::kRunning;
  if (name == "done") return JobState::kDone;
  if (name == "failed") return JobState::kFailed;
  if (name == "cancelled") return JobState::kCancelled;
  throw std::runtime_error("unknown job state '" + name + "'");
}

double unix_now() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// Locale-independent double rendering for journal timestamps.
std::string fmt_unix(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6f", value);
  return buf;
}

}  // namespace

// ---- MemoryStorage ----------------------------------------------------

MemoryStorage::MemoryStorage(std::size_t max_finished,
                             obs::MetricsRegistry* registry)
    : max_finished_(std::max<std::size_t>(1, max_finished)) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry = owned_registry_.get();
  }
  evicted_ = &registry->counter("phes_store_evicted_total");
  records_gauge_ = &registry->gauge("phes_store_records");
  input_bytes_gauge_ = &registry->gauge("phes_store_input_bytes");
  put_hist_ = &registry->histogram("phes_store_put_seconds");
}

void MemoryStorage::put(const JobRecord& record) {
  const util::WallTimer timer;
  records_[record.id] = record;
  while (records_.size() > max_finished_) {
    release_input(records_.begin()->first);
    records_.erase(records_.begin());
    evicted_->add();
  }
  records_gauge_->set(static_cast<std::int64_t>(records_.size()));
  put_hist_->observe(timer.seconds());
}

void MemoryStorage::note_input(std::uint64_t id,
                               const std::string& spec_json) {
  release_input(id);
  const auto [it, fresh] = interned_.try_emplace(spec_json, 0);
  ++it->second;
  inputs_[id] = &it->first;
  if (fresh) {
    input_bytes_ += spec_json.size();
    input_bytes_gauge_->set(static_cast<std::int64_t>(input_bytes_));
  }
}

void MemoryStorage::release_input(std::uint64_t id) {
  const auto input = inputs_.find(id);
  if (input == inputs_.end()) return;
  const auto it = interned_.find(*input->second);
  inputs_.erase(input);
  if (--it->second > 0) return;  // another record still uses it
  input_bytes_ -= it->first.size();
  input_bytes_gauge_->set(static_cast<std::int64_t>(input_bytes_));
  interned_.erase(it);
}

std::optional<std::string> MemoryStorage::input(std::uint64_t id) const {
  const auto it = inputs_.find(id);
  if (it == inputs_.end()) return std::nullopt;
  return *it->second;
}

std::optional<JobRecord> MemoryStorage::get(std::uint64_t id) const {
  const auto it = records_.find(id);
  if (it == records_.end()) return std::nullopt;
  return it->second;
}

std::optional<JobState> MemoryStorage::state(std::uint64_t id) const {
  const auto it = records_.find(id);
  if (it == records_.end()) return std::nullopt;
  return it->second.state;
}

JobSummary summarize(const JobRecord& rec) {
  JobSummary s;
  s.id = rec.id;
  s.name = rec.name;
  s.state = rec.state;
  s.stage = rec.stage;
  s.stage_known = rec.stage_known;
  if (is_terminal(rec.state)) s.status = rec.result.status();
  return s;
}

std::optional<JobSummary> MemoryStorage::summary(std::uint64_t id) const {
  const auto it = records_.find(id);
  if (it == records_.end()) return std::nullopt;
  return summarize(it->second);
}

std::vector<JobSummary> MemoryStorage::summaries() const {
  std::vector<JobSummary> out;
  out.reserve(records_.size());
  for (const auto& [id, rec] : records_) out.push_back(summarize(rec));
  return out;
}

std::vector<JobRecord> MemoryStorage::all() const {
  std::vector<JobRecord> out;
  out.reserve(records_.size());
  for (const auto& [id, rec] : records_) out.push_back(rec);
  return out;
}

std::size_t MemoryStorage::size() const { return records_.size(); }

// ---- DiskStorage ------------------------------------------------------

DiskStorage::DiskStorage(std::string dir, DiskStorageOptions options,
                         obs::MetricsRegistry* registry)
    : dir_(std::move(dir)), options_(options) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry = owned_registry_.get();
  }
  evicted_ = &registry->counter("phes_store_evicted_total");
  recovered_ = &registry->counter("phes_store_recovered_total");
  lost_ = &registry->counter("phes_store_lost_total");
  records_gauge_ = &registry->gauge("phes_store_records");
  bytes_gauge_ = &registry->gauge("phes_store_bytes");
  put_hist_ = &registry->histogram("phes_store_put_seconds");
  get_hist_ = &registry->histogram("phes_store_get_seconds");
  journal_hist_ = &registry->histogram("phes_store_journal_append_seconds");
  replay_hist_ = &registry->histogram("phes_store_replay_seconds");
  std::error_code ec;
  fs::create_directories(fs::path(dir_) / "jobs", ec);
  if (ec) {
    throw std::runtime_error("DiskStorage: cannot create '" + dir_ +
                             "/jobs': " + ec.message());
  }
  fs::create_directories(fs::path(dir_) / "inputs", ec);
  if (ec) {
    throw std::runtime_error("DiskStorage: cannot create '" + dir_ +
                             "/inputs': " + ec.message());
  }
  {
    const util::WallTimer replay_timer;
    recover();
    replay_hist_->observe(replay_timer.seconds());
  }
  compact_index();
  index_.open(fs::path(dir_) / "index.ndjson",
              std::ios::app | std::ios::binary);
  if (!index_) {
    throw std::runtime_error("DiskStorage: cannot append to '" + dir_ +
                             "/index.ndjson'");
  }
}

std::string DiskStorage::job_path(std::uint64_t id) const {
  return (fs::path(dir_) / "jobs" / ("job-" + std::to_string(id) + ".json"))
      .string();
}

std::string DiskStorage::input_path(std::uint64_t id) const {
  return (fs::path(dir_) / "inputs" /
          ("job-" + std::to_string(id) + ".json"))
      .string();
}

void DiskStorage::note_input(std::uint64_t id, const std::string& spec_json) {
  // Best-effort by contract: this runs inside the submit path, where a
  // full disk must cost the job its replayability, not its admission.
  std::ofstream out(input_path(id), std::ios::trunc | std::ios::binary);
  if (out) {
    out << spec_json << '\n';
    out.flush();
  }
  if (!out) {
    util::log_line("storage", "input spec write failed on '" +
                                  input_path(id) +
                                  "'; job will not be replayable");
  }
}

std::optional<std::string> DiskStorage::input(std::uint64_t id) const {
  std::ifstream in(input_path(id), std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream contents;
  contents << in.rdbuf();
  std::string spec = contents.str();
  // Strip the trailing newline note_input appends.
  while (!spec.empty() && (spec.back() == '\n' || spec.back() == '\r')) {
    spec.pop_back();
  }
  if (spec.empty()) return std::nullopt;
  return spec;
}

void DiskStorage::append_event(const std::string& line) {
  const util::WallTimer timer;
  if (!index_) index_.clear();  // a past failure must not wedge appends
  index_ << line << '\n';
  // One flush per event: the journal must reflect the admission before
  // the submit ack can reach a client, else a crash loses the job
  // silently instead of marking it lost.
  index_.flush();
  // A failed append (disk full, quota) is survivable, not fatal: the
  // payload file is already on disk and recover() salvages it even
  // without its finish event — so warn, clear the stream, keep going.
  if (!index_) {
    util::log_line("storage", "journal append failed on '" + dir_ +
                                  "/index.ndjson'; continuing without "
                                  "the event");
    index_.clear();
  }
  journal_hist_->observe(timer.seconds());
}

void DiskStorage::note_admitted(std::uint64_t id, const std::string& name) {
  pending_[id] = name;
  max_seen_id_ = std::max(max_seen_id_, id);
  append_event("{\"event\": \"add\", \"id\": " + std::to_string(id) +
               ", \"name\": \"" + pipeline::json_escape(name) + "\"}");
}

void DiskStorage::write_record(const JobRecord& record,
                               double finished_unix) {
  std::ostringstream doc;
  pipeline::write_job_json(record.result, doc);
  const std::string payload = doc.str();
  {
    std::ofstream out(job_path(record.id),
                      std::ios::trunc | std::ios::binary);
    if (!out) {
      throw std::runtime_error("DiskStorage: cannot write '" +
                               job_path(record.id) + "'");
    }
    out << payload << '\n';
    out.flush();
    if (!out) {
      throw std::runtime_error("DiskStorage: failed writing '" +
                               job_path(record.id) + "'");
    }
  }

  Entry entry;
  entry.name = record.name;
  entry.state = record.state;
  entry.stage = record.stage;
  entry.stage_known = record.stage_known;
  entry.status = record.result.status();
  entry.bytes = payload.size() + 1;
  entry.finished_unix = finished_unix;

  const auto it = entries_.find(record.id);
  if (it != entries_.end()) total_bytes_ -= it->second.bytes;
  total_bytes_ += entry.bytes;
  entries_[record.id] = std::move(entry);
  pending_.erase(record.id);
  max_seen_id_ = std::max(max_seen_id_, record.id);
  records_gauge_->set(static_cast<std::int64_t>(entries_.size()));
  bytes_gauge_->set(static_cast<std::int64_t>(total_bytes_));
}

void DiskStorage::put(const JobRecord& record) {
  const util::WallTimer timer;
  const double now = unix_now();
  write_record(record, now);
  const Entry& entry = entries_[record.id];
  std::ostringstream ev;
  ev << "{\"event\": \"finish\", \"id\": " << record.id << ", \"name\": \""
     << pipeline::json_escape(entry.name) << "\", \"state\": \""
     << job_state_name(entry.state) << "\"";
  if (entry.stage_known) {
    ev << ", \"stage\": \"" << pipeline::stage_name(entry.stage) << "\"";
  }
  ev << ", \"status\": \"" << pipeline::json_escape(entry.status)
     << "\", \"bytes\": " << entry.bytes
     << ", \"unix_time\": " << fmt_unix(entry.finished_unix) << "}";
  append_event(ev.str());
  enforce_retention(now);
  put_hist_->observe(timer.seconds());
}

void DiskStorage::evict(std::uint64_t id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return;
  total_bytes_ -= it->second.bytes;
  entries_.erase(it);
  evicted_->add();
  records_gauge_->set(static_cast<std::int64_t>(entries_.size()));
  bytes_gauge_->set(static_cast<std::int64_t>(total_bytes_));
  std::error_code ec;
  fs::remove(job_path(id), ec);  // best-effort; the journal is truth
  fs::remove(input_path(id), ec);
  append_event("{\"event\": \"evict\", \"id\": " + std::to_string(id) + "}");
}

void DiskStorage::enforce_retention(double now_unix) {
  if (options_.ttl_seconds > 0.0) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      const std::uint64_t id = it->first;
      const bool expired =
          now_unix - it->second.finished_unix > options_.ttl_seconds;
      ++it;  // evict() invalidates the current iterator
      if (expired) evict(id);
    }
  }
  if (options_.max_bytes > 0) {
    while (total_bytes_ > options_.max_bytes && !entries_.empty()) {
      evict(entries_.begin()->first);
    }
  }
}

void DiskStorage::recover() {
  const fs::path index_path = fs::path(dir_) / "index.ndjson";
  std::map<std::uint64_t, std::string> pending;
  {
    std::ifstream in(index_path, std::ios::binary);
    std::string line;
    while (in && std::getline(in, line)) {
      if (line.empty()) continue;
      // Tolerate a torn tail line (crash mid-append): skip what does
      // not parse instead of refusing to start.
      try {
        const util::JsonValue ev = util::JsonValue::parse(line);
        const std::string event = ev.string_or("event", "");
        const std::uint64_t id = ev.uint_or("id", 0);
        if (id == 0) continue;
        max_seen_id_ = std::max(max_seen_id_, id);
        if (event == "add") {
          pending[id] = ev.string_or("name", "");
        } else if (event == "finish") {
          pending.erase(id);
          Entry entry;
          entry.name = ev.string_or("name", "");
          entry.state = parse_job_state(ev.string_or("state", "done"));
          if (const util::JsonValue* stage = ev.find("stage")) {
            entry.stage = pipeline::parse_stage(stage->as_string());
            entry.stage_known = true;
          }
          entry.status = ev.string_or("status", "");
          entry.bytes = static_cast<std::size_t>(ev.uint_or("bytes", 0));
          entry.finished_unix = ev.number_or("unix_time", 0.0);
          const auto it = entries_.find(id);
          if (it != entries_.end()) total_bytes_ -= it->second.bytes;
          total_bytes_ += entry.bytes;
          entries_[id] = std::move(entry);
        } else if (event == "evict") {
          const auto it = entries_.find(id);
          if (it != entries_.end()) {
            total_bytes_ -= it->second.bytes;
            entries_.erase(it);
          }
        }
      } catch (const std::exception&) {
        continue;
      }
    }
  }
  recovered_->add(entries_.size());
  records_gauge_->set(static_cast<std::int64_t>(entries_.size()));
  bytes_gauge_->set(static_cast<std::int64_t>(total_bytes_));

  // Jobs admitted but never finished died with the previous process.
  // First try to salvage: the payload may have been written even
  // though the finish event never made the journal (crash or failed
  // append between the two writes) — a readable payload must never be
  // overwritten with a synthetic failure.  Otherwise persist a
  // definitive lost record so `status`/`result` answer "failed: lost
  // in restart" rather than "unknown id" forever.
  for (const auto& [id, name] : pending) {
    JobRecord record;
    record.id = id;
    record.name = name;
    bool salvaged = false;
    if (std::ifstream in{job_path(id), std::ios::binary}) {
      std::ostringstream contents;
      contents << in.rdbuf();
      try {
        record.result = pipeline::read_job_json(contents.str());
        record.state = record.result.cancelled ? JobState::kCancelled
                       : record.result.ok      ? JobState::kDone
                                               : JobState::kFailed;
        salvaged = true;
        recovered_->add();
      } catch (const std::exception&) {
        record.result = pipeline::PipelineResult{};
      }
    }
    if (!salvaged) {
      record.state = JobState::kFailed;
      record.result.id = id;
      record.result.name = name;
      record.result.ok = false;
      record.result.error =
          "job lost in server restart (was queued or running)";
      record.result.failed_stage = pipeline::Stage::kLoad;
      lost_->add();
    }
    write_record(record, unix_now());
  }
  enforce_retention(unix_now());
}

void DiskStorage::compact_index() {
  // Rewrite the journal as one finish event per live record so it
  // cannot grow without bound across restarts; the rename is the
  // atomic cut-over.
  const fs::path index_path = fs::path(dir_) / "index.ndjson";
  const fs::path tmp_path = fs::path(dir_) / "index.ndjson.tmp";
  {
    std::ofstream out(tmp_path, std::ios::trunc | std::ios::binary);
    if (!out) {
      throw std::runtime_error("DiskStorage: cannot write '" +
                               tmp_path.string() + "'");
    }
    for (const auto& [id, entry] : entries_) {
      out << "{\"event\": \"finish\", \"id\": " << id << ", \"name\": \""
          << pipeline::json_escape(entry.name) << "\", \"state\": \""
          << job_state_name(entry.state) << "\"";
      if (entry.stage_known) {
        out << ", \"stage\": \"" << pipeline::stage_name(entry.stage)
            << "\"";
      }
      out << ", \"status\": \"" << pipeline::json_escape(entry.status)
          << "\", \"bytes\": " << entry.bytes
          << ", \"unix_time\": " << fmt_unix(entry.finished_unix) << "}\n";
    }
    out.flush();
    if (!out) {
      throw std::runtime_error("DiskStorage: failed writing '" +
                               tmp_path.string() + "'");
    }
  }
  std::error_code ec;
  fs::rename(tmp_path, index_path, ec);
  if (ec) {
    throw std::runtime_error("DiskStorage: cannot replace journal: " +
                             ec.message());
  }
}

std::optional<JobRecord> DiskStorage::get(std::uint64_t id) const {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return std::nullopt;
  const util::WallTimer timer;
  const Entry& entry = it->second;
  JobRecord record;
  record.id = id;
  record.name = entry.name;
  record.state = entry.state;
  record.stage = entry.stage;
  record.stage_known = entry.stage_known;
  std::ifstream in(job_path(id), std::ios::binary);
  if (in) {
    std::ostringstream contents;
    contents << in.rdbuf();
    try {
      record.result = pipeline::read_job_json(contents.str());
      get_hist_->observe(timer.seconds());
      return record;
    } catch (const std::exception&) {
      // fall through to the synthesized error record
    }
  }
  // The journal says the record exists but its payload is gone or
  // corrupt: serve a definitive failure rather than dropping the id.
  record.result.id = id;
  record.result.name = entry.name;
  record.result.ok = false;
  record.result.cancelled = entry.state == JobState::kCancelled;
  record.result.error = kUnreadableResultPrefix + job_path(id);
  get_hist_->observe(timer.seconds());
  return record;
}

std::optional<JobState> DiskStorage::state(std::uint64_t id) const {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return std::nullopt;
  return it->second.state;
}

JobSummary DiskStorage::summarize(std::uint64_t id, const Entry& entry) {
  JobSummary s;
  s.id = id;
  s.name = entry.name;
  s.state = entry.state;
  s.stage = entry.stage;
  s.stage_known = entry.stage_known;
  s.status = entry.status;
  return s;
}

std::optional<JobSummary> DiskStorage::summary(std::uint64_t id) const {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return std::nullopt;
  return summarize(id, it->second);
}

std::vector<JobSummary> DiskStorage::summaries() const {
  std::vector<JobSummary> out;
  out.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    out.push_back(summarize(id, entry));
  }
  return out;
}

std::vector<JobRecord> DiskStorage::all() const {
  std::vector<JobRecord> out;
  out.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    if (auto record = get(id)) out.push_back(std::move(*record));
  }
  return out;
}

std::size_t DiskStorage::size() const { return entries_.size(); }

}  // namespace phes::server
