#pragma once
// Replayable campaigns: the bridge from the durable result store back
// into the job queue.  A campaign resolves stored records — one id, a
// filter (terminal state, input-hash, id range), or everything — into
// fresh PipelineJobs rebuilt from their persisted input specs
// (pipeline::read_job_spec_json), admits them through the same
// JobServer::submit path as any client submission, and tracks the
// replayed ids to completion.  Each finished replay is classified
// against its stored baseline by comparing deterministic result
// signatures (pipeline::result_signature):
//
//   bit-identical        same signature — the determinism guarantee
//                        held (only timings/session counters differ)
//   numerically-changed  same terminal status, different numbers
//   state-changed        the status itself changed (e.g. a solver
//                        change flipped passive -> not-passive)
//
// Records that cannot be replayed (no stored input, unparsable spec,
// unreadable stored payload, admission failure) are skipped-and-counted
// in the campaign report — never fatal, never queued.
//
// Thread-safe: start/status may run concurrently from protocol
// handlers.  Job admission happens OUTSIDE the campaign mutex (submit
// blocks on queue backpressure), so a slow replay cannot wedge status
// polls of other campaigns.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "phes/pipeline/job.hpp"
#include "phes/util/metrics.hpp"
#include "phes/util/sync.hpp"

namespace phes::server {

class JobServer;

/// Selects stored records for replay.  All criteria are ANDed.
struct ReplayFilter {
  /// Replay exactly this stored job; the other criteria are ignored.
  std::optional<std::uint64_t> id;
  /// Terminal state filter ("done" | "failed" | "cancelled"); empty
  /// keeps every terminal state.
  std::string state;
  /// Input-content-hash filter (pipeline::input_content_hash of the
  /// rebuilt job); empty keeps every model.
  std::string model;
  /// Inclusive id range; 0 leaves that side unbounded.
  std::uint64_t min_id = 0;
  std::uint64_t max_id = 0;
};

/// One replayed job within a campaign.
struct CampaignEntry {
  std::uint64_t source_id = 0;  ///< the stored record replayed
  std::uint64_t replay_id = 0;  ///< the fresh job admitted for it
  std::string name;
  std::string status_before;  ///< the stored result's status()
  std::string status_after;   ///< set once the replay is classified
  /// "bit-identical" | "numerically-changed" | "state-changed"; empty
  /// until the replayed job reaches a terminal state.
  std::string delta;
};

/// A record the filter selected but the campaign could not replay.
struct CampaignSkip {
  std::uint64_t source_id = 0;
  std::string reason;
};

/// Point-in-time campaign progress (the `campaign <id>` protocol op).
struct CampaignStatus {
  std::uint64_t id = 0;
  bool done = false;          ///< every replayed job is classified
  std::size_t total = 0;      ///< jobs the campaign admitted
  std::size_t completed = 0;  ///< jobs classified so far
  std::size_t identical = 0;
  std::size_t numeric = 0;
  std::size_t state_changed = 0;
  std::vector<CampaignEntry> entries;
  std::vector<CampaignSkip> skipped;
};

class CampaignRunner {
 public:
  /// Campaign instruments (phes_campaign_*) are resolved once from
  /// `registry` — the owning server's, so they share its exposition.
  CampaignRunner(JobServer& server, obs::MetricsRegistry& registry);

  CampaignRunner(const CampaignRunner&) = delete;
  CampaignRunner& operator=(const CampaignRunner&) = delete;

  /// What start() hands the protocol layer: the new campaign id plus
  /// the admitted/skipped breakdown (entries carry their replay ids).
  struct StartResult {
    std::uint64_t campaign_id = 0;
    std::vector<CampaignEntry> entries;
    std::vector<CampaignSkip> skipped;
  };

  /// Resolve `filter` against the store and admit one fresh job per
  /// replayable record.  Blocks on queue backpressure like any submit.
  /// Throws std::runtime_error when filter.id names an unknown or
  /// still-running job; per-record replay failures become skips.
  StartResult start(const ReplayFilter& filter);

  /// Campaign progress; lazily classifies entries whose replayed job
  /// has reached a terminal state.  nullopt for an unknown campaign.
  [[nodiscard]] std::optional<CampaignStatus> status(
      std::uint64_t campaign_id) PHES_EXCLUDES(mutex_);

 private:
  struct Tracked {
    CampaignEntry entry;
    std::string stored_signature;  ///< baseline at start() time
    bool classified = false;
  };
  struct Campaign {
    std::vector<Tracked> tracked;
    std::vector<CampaignSkip> skipped;
    bool completed_counted = false;  ///< completed_total bumped once
  };

  /// Rebuild the stored job for `source_id`, or explain why not via
  /// `reason`.  Does not touch mutex_.
  [[nodiscard]] std::optional<pipeline::PipelineJob> rebuild(
      std::uint64_t source_id, std::string& reason) const;

  JobServer& server_;

  obs::Counter* started_ = nullptr;
  obs::Counter* completed_ = nullptr;
  obs::Counter* replayed_ = nullptr;
  obs::Counter* skipped_ = nullptr;
  obs::Counter* delta_identical_ = nullptr;
  obs::Counter* delta_numeric_ = nullptr;
  obs::Counter* delta_state_ = nullptr;

  mutable util::Mutex mutex_;
  std::uint64_t next_campaign_id_ PHES_GUARDED_BY(mutex_) = 1;
  std::map<std::uint64_t, Campaign> campaigns_ PHES_GUARDED_BY(mutex_);
};

}  // namespace phes::server
