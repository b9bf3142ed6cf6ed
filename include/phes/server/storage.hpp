#pragma once
// Pluggable terminal-record storage behind the server's ResultStore.
//
// The ResultStore keeps live (queued/running) records in memory and
// hands every record that reaches a terminal state to a Storage
// backend, which owns retention policy and — for durable backends —
// persistence and crash recovery:
//
//   MemoryStorage — the original in-process map; retention is a
//     record-count cap, oldest finished records evicted first.
//   DiskStorage   — spills each finished PipelineResult as the same
//     JSON record `phes_pipeline --summary-json` writes (one
//     jobs/job-<id>.json per record, via pipeline::write_job_json)
//     next to an append-only NDJSON index journal.  On startup the
//     journal is replayed: terminal records are recovered and served
//     again (`result` responses are byte-identical to the pre-restart
//     ones — see pipeline::read_job_json), and jobs that were still
//     queued or running when the process died are marked failed with a
//     "lost in server restart" error so clients polling them get a
//     definitive answer instead of an unknown id.  Retention is a byte
//     budget and/or TTL instead of a record count.
//
// Thread safety: a Storage is externally synchronized — every call is
// made under the owning ResultStore's mutex.  Construction (including
// DiskStorage recovery) happens before the store is shared.

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "phes/pipeline/job.hpp"
#include "phes/util/metrics.hpp"

namespace phes::server {

enum class JobState {
  kQueued = 0,
  kRunning,
  kDone,       ///< finished with ok (includes stopped-early jobs)
  kFailed,     ///< a stage failed (or the job was lost in a restart)
  kCancelled,  ///< cancelled while queued or at a stage boundary
};

[[nodiscard]] const char* job_state_name(JobState state) noexcept;
[[nodiscard]] bool is_terminal(JobState state) noexcept;

/// Error-message prefix of the placeholder result DiskStorage::get
/// synthesizes when a persisted payload is unreadable (corrupt or
/// missing job-N.json).  Campaign replay matches on it to skip-and-count
/// such records instead of replaying garbage.
inline constexpr const char kUnreadableResultPrefix[] =
    "stored result unreadable: ";

struct JobRecord {
  std::uint64_t id = 0;
  std::string name;
  JobState state = JobState::kQueued;
  /// Last stage the pipeline started (meaningful once running).
  pipeline::Stage stage = pipeline::Stage::kLoad;
  bool stage_known = false;
  /// Full result, valid once the state is terminal (a queued-cancel
  /// leaves a synthesized cancelled result).
  pipeline::PipelineResult result;
};

/// What a status poll needs, without the PipelineResult payload.
struct JobSummary {
  std::uint64_t id = 0;
  std::string name;
  JobState state = JobState::kQueued;
  pipeline::Stage stage = pipeline::Stage::kLoad;
  bool stage_known = false;
  std::string status;  ///< PipelineResult::status(), terminal only
};

/// The summary of a record (status only once it is terminal).
[[nodiscard]] JobSummary summarize(const JobRecord& record);

/// Terminal-record backend.  Holds only records in a terminal state;
/// queued/running records live in the ResultStore's own map.
class Storage {
 public:
  virtual ~Storage() = default;

  /// A job was admitted.  Durable backends journal it so a crash
  /// surfaces the job as lost rather than unknown; default no-op.
  virtual void note_admitted(std::uint64_t /*id*/,
                             const std::string& /*name*/) {}

  /// Persist an admitted job's replayable input specification
  /// (pipeline::write_job_spec_json) so `replay` can rebuild the job
  /// later.  Best-effort: failures are logged, never thrown —
  /// a job without a stored spec simply cannot be replayed.  Default
  /// no-op (backends that keep no inputs make every record
  /// unreplayable, which the campaign report surfaces as skips).
  virtual void note_input(std::uint64_t /*id*/,
                          const std::string& /*spec_json*/) {}

  /// The stored input spec for `id`, when one was persisted and still
  /// survives retention.
  [[nodiscard]] virtual std::optional<std::string> input(
      std::uint64_t /*id*/) const {
    return std::nullopt;
  }

  /// Store a terminal record and apply the backend's retention policy.
  virtual void put(const JobRecord& record) = 0;

  [[nodiscard]] virtual std::optional<JobRecord> get(
      std::uint64_t id) const = 0;
  [[nodiscard]] virtual std::optional<JobState> state(
      std::uint64_t id) const = 0;
  [[nodiscard]] virtual std::optional<JobSummary> summary(
      std::uint64_t id) const = 0;
  /// All retained summaries / records, ascending id.  all() may read
  /// every persisted payload — prefer summaries() for polling.
  [[nodiscard]] virtual std::vector<JobSummary> summaries() const = 0;
  [[nodiscard]] virtual std::vector<JobRecord> all() const = 0;

  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Highest job id this backend has ever seen (recovered ids
  /// included) — the server resumes its id sequence above it so a
  /// restart cannot reissue an id that still names a stored record.
  [[nodiscard]] virtual std::uint64_t max_seen_id() const { return 0; }
};

/// The original in-memory retention: keep at most `max_finished`
/// terminal records, evicting oldest-first.
///
/// Input specs are interned: an inline submission's spec carries the
/// whole Touchstone text (tens of KB), and clients submit the same
/// model again and again, so all records with the same spec share one
/// refcounted copy.  A copy is freed with the last record that uses it; the
/// phes_store_input_bytes gauge counts the bytes of the distinct specs
/// held.
class MemoryStorage final : public Storage {
 public:
  /// Retention counters live in `registry` (the owning server's);
  /// nullptr gives the backend a private registry.
  explicit MemoryStorage(std::size_t max_finished = 4096,
                         obs::MetricsRegistry* registry = nullptr);

  void note_input(std::uint64_t id, const std::string& spec_json) override;
  [[nodiscard]] std::optional<std::string> input(
      std::uint64_t id) const override;
  void put(const JobRecord& record) override;
  [[nodiscard]] std::optional<JobRecord> get(std::uint64_t id) const override;
  [[nodiscard]] std::optional<JobState> state(
      std::uint64_t id) const override;
  [[nodiscard]] std::optional<JobSummary> summary(
      std::uint64_t id) const override;
  [[nodiscard]] std::vector<JobSummary> summaries() const override;
  [[nodiscard]] std::vector<JobRecord> all() const override;
  [[nodiscard]] std::size_t size() const override;

 private:
  /// Drop `id`'s reference to its spec; frees the spec with its last
  /// reference.
  void release_input(std::uint64_t id);

  const std::size_t max_finished_;
  std::map<std::uint64_t, JobRecord> records_;
  /// The distinct input specs, each with the number of records using
  /// it.  Node keys never move, so inputs_ can point at them.
  std::unordered_map<std::string, std::size_t> interned_;
  /// Each job's spec (a key of interned_), evicted with its record.
  std::map<std::uint64_t, const std::string*> inputs_;
  std::size_t input_bytes_ = 0;  ///< sum of the distinct specs' sizes
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::Counter* evicted_ = nullptr;
  obs::Gauge* records_gauge_ = nullptr;
  obs::Gauge* input_bytes_gauge_ = nullptr;
  obs::Histogram* put_hist_ = nullptr;
};

struct DiskStorageOptions {
  /// Byte budget for persisted job records; past it, oldest records
  /// are evicted (file unlinked, journal updated).  0 = unbounded.
  std::size_t max_bytes = 0;
  /// Records older than this (wall-clock seconds since they finished)
  /// are purged lazily on mutation.  0 = no TTL.
  double ttl_seconds = 0.0;
};

/// Disk-backed storage under `dir`:
///   <dir>/index.ndjson      append-only journal (add/finish/evict
///                           events; compacted on startup)
///   <dir>/jobs/job-N.json   one write_job_json document per record
///   <dir>/inputs/job-N.json the job's replayable input spec
///                           (write_job_spec_json), written at
///                           admission and unlinked with the record
/// Construction creates the directories, replays the journal
/// (recovering served records and marking admitted-but-unfinished jobs
/// lost), and compacts the journal.  Throws std::runtime_error when
/// the directory cannot be created or written.
class DiskStorage final : public Storage {
 public:
  /// Journal/replay and put/get latency histograms plus retention
  /// counters live in `registry`; nullptr gives the backend a private
  /// registry (standalone construction in tests).
  explicit DiskStorage(std::string dir, DiskStorageOptions options = {},
                       obs::MetricsRegistry* registry = nullptr);

  void note_admitted(std::uint64_t id, const std::string& name) override;
  void note_input(std::uint64_t id, const std::string& spec_json) override;
  [[nodiscard]] std::optional<std::string> input(
      std::uint64_t id) const override;
  void put(const JobRecord& record) override;
  [[nodiscard]] std::optional<JobRecord> get(std::uint64_t id) const override;
  [[nodiscard]] std::optional<JobState> state(
      std::uint64_t id) const override;
  [[nodiscard]] std::optional<JobSummary> summary(
      std::uint64_t id) const override;
  [[nodiscard]] std::vector<JobSummary> summaries() const override;
  [[nodiscard]] std::vector<JobRecord> all() const override;
  [[nodiscard]] std::size_t size() const override;
  [[nodiscard]] std::uint64_t max_seen_id() const override {
    return max_seen_id_;
  }

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

 private:
  /// Summary-level index entry; the payload stays on disk until get().
  struct Entry {
    std::string name;
    JobState state = JobState::kDone;
    pipeline::Stage stage = pipeline::Stage::kLoad;
    bool stage_known = false;
    std::string status;
    std::size_t bytes = 0;
    double finished_unix = 0.0;  ///< wall-clock seconds, TTL anchor
  };

  void recover();
  void compact_index();
  void append_event(const std::string& line);
  void write_record(const JobRecord& record, double finished_unix);
  void evict(std::uint64_t id);
  void enforce_retention(double now_unix);
  [[nodiscard]] std::string job_path(std::uint64_t id) const;
  [[nodiscard]] std::string input_path(std::uint64_t id) const;
  [[nodiscard]] static JobSummary summarize(std::uint64_t id,
                                            const Entry& entry);

  std::string dir_;
  DiskStorageOptions options_;
  std::ofstream index_;  ///< journal, append mode
  std::map<std::uint64_t, Entry> entries_;
  std::map<std::uint64_t, std::string> pending_;  ///< admitted, no finish
  std::uint64_t max_seen_id_ = 0;
  std::size_t total_bytes_ = 0;
  /// Resolved in the constructor BEFORE recover() runs, so the recovery pass can
  /// publish its counters and replay latency directly.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::Counter* evicted_ = nullptr;
  obs::Counter* recovered_ = nullptr;
  obs::Counter* lost_ = nullptr;
  obs::Gauge* records_gauge_ = nullptr;
  obs::Gauge* bytes_gauge_ = nullptr;
  obs::Histogram* put_hist_ = nullptr;
  obs::Histogram* get_hist_ = nullptr;
  obs::Histogram* journal_hist_ = nullptr;
  obs::Histogram* replay_hist_ = nullptr;
};

}  // namespace phes::server
