#include "phes/server/result_store.hpp"

#include <algorithm>
#include <utility>

namespace phes::server {

ResultStore::ResultStore(std::size_t max_finished)
    : storage_(std::make_unique<MemoryStorage>(max_finished)) {}

ResultStore::ResultStore(std::unique_ptr<Storage> storage)
    : storage_(std::move(storage)) {}

void ResultStore::add(std::uint64_t id, const std::string& name) {
  util::MutexLock lock(mutex_);
  JobRecord rec;
  rec.id = id;
  rec.name = name;
  rec.state = JobState::kQueued;
  records_[id] = std::move(rec);
  storage_->note_admitted(id, name);
}

void ResultStore::note_input(std::uint64_t id, const std::string& spec_json) {
  if (spec_json.empty()) return;  // nothing replayable to keep
  util::MutexLock lock(mutex_);
  storage_->note_input(id, spec_json);
}

std::optional<std::string> ResultStore::input(std::uint64_t id) const {
  util::MutexLock lock(mutex_);
  return storage_->input(id);
}

bool ResultStore::mark_running(std::uint64_t id) {
  util::MutexLock lock(mutex_);
  const auto it = records_.find(id);
  if (it == records_.end() || it->second.state != JobState::kQueued) {
    return false;
  }
  it->second.state = JobState::kRunning;
  return true;
}

void ResultStore::set_stage(std::uint64_t id, pipeline::Stage stage) {
  util::MutexLock lock(mutex_);
  const auto it = records_.find(id);
  if (it == records_.end()) return;
  it->second.stage = stage;
  it->second.stage_known = true;
}

void ResultStore::finish_locked(
    std::map<std::uint64_t, JobRecord>::iterator it, JobState state,
    pipeline::PipelineResult result) {
  JobRecord record = std::move(it->second);
  record.state = state;
  record.result = std::move(result);
  // put() before erase, and never let a backend failure escape: this
  // runs on worker threads with no catch above it, and a full disk
  // must cost durability of one record, not the whole process.  On
  // failure the terminal record stays in the live map — still served
  // by get()/status(), just not persisted and never evicted.
  try {
    storage_->put(record);
  } catch (const std::exception&) {
    it->second = std::move(record);
    return;
  }
  records_.erase(it);
}

void ResultStore::finish(std::uint64_t id, pipeline::PipelineResult result) {
  util::MutexLock lock(mutex_);
  const auto it = records_.find(id);
  // Absent from the live map: unknown id, or it already went terminal
  // (lost race with a queued-cancel) — either way, drop.  A terminal
  // record parked here by a storage failure is equally final.
  if (it == records_.end() || is_terminal(it->second.state)) return;
  const JobState state = result.cancelled ? JobState::kCancelled
                         : result.ok      ? JobState::kDone
                                          : JobState::kFailed;
  finish_locked(it, state, std::move(result));
}

bool ResultStore::mark_cancelled(std::uint64_t id) {
  util::MutexLock lock(mutex_);
  const auto it = records_.find(id);
  if (it == records_.end() || it->second.state != JobState::kQueued) {
    return false;
  }
  // Synthesize a minimal cancelled result so `result` ops stay uniform.
  pipeline::PipelineResult result;
  result.name = it->second.name;
  result.id = id;
  result.ok = false;
  result.cancelled = true;
  result.failed_stage = pipeline::Stage::kLoad;
  result.error = "cancelled while queued";
  finish_locked(it, JobState::kCancelled, std::move(result));
  return true;
}

std::optional<JobRecord> ResultStore::get(std::uint64_t id) const {
  util::MutexLock lock(mutex_);
  const auto it = records_.find(id);
  if (it != records_.end()) return it->second;
  return storage_->get(id);
}

std::optional<JobState> ResultStore::state(std::uint64_t id) const {
  util::MutexLock lock(mutex_);
  const auto it = records_.find(id);
  if (it != records_.end()) return it->second.state;
  return storage_->state(id);
}

std::optional<ResultStore::JobSummary> ResultStore::summary(
    std::uint64_t id) const {
  util::MutexLock lock(mutex_);
  const auto it = records_.find(id);
  if (it != records_.end()) return summarize(it->second);
  return storage_->summary(id);
}

namespace {

// Merge the live records and the storage's terminal ones, both in
// ascending id order, into one ascending sequence (terminal ids and
// live ids can interleave: job 3 may finish while job 2 still runs).
// `from_live` turns a live record into an element.
template <typename T, typename FromLive>
std::vector<T> merge_by_id(const std::map<std::uint64_t, JobRecord>& live,
                           std::vector<T> stored, FromLive from_live) {
  std::vector<T> out;
  out.reserve(stored.size() + live.size());
  auto l = live.begin();
  auto done = stored.begin();
  while (l != live.end() || done != stored.end()) {
    if (done == stored.end() ||
        (l != live.end() && l->first < done->id)) {
      out.push_back(from_live(l->second));
      ++l;
    } else {
      out.push_back(std::move(*done));
      ++done;
    }
  }
  return out;
}

}  // namespace

std::vector<ResultStore::JobSummary> ResultStore::summaries() const {
  util::MutexLock lock(mutex_);
  return merge_by_id(records_, storage_->summaries(),
                     [](const JobRecord& rec) { return summarize(rec); });
}

std::vector<JobRecord> ResultStore::all() const {
  util::MutexLock lock(mutex_);
  return merge_by_id(records_, storage_->all(),
                     [](const JobRecord& rec) { return rec; });
}

std::size_t ResultStore::size() const {
  util::MutexLock lock(mutex_);
  return records_.size() + storage_->size();
}

std::uint64_t ResultStore::max_seen_id() const {
  util::MutexLock lock(mutex_);
  std::uint64_t max_id = storage_->max_seen_id();
  if (!records_.empty()) max_id = std::max(max_id, records_.rbegin()->first);
  return max_id;
}

}  // namespace phes::server
