#include "phes/server/campaign.hpp"

#include <stdexcept>
#include <utility>

#include "phes/pipeline/report.hpp"
#include "phes/server/server.hpp"

namespace phes::server {

namespace {

const char kDeltaIdentical[] = "bit-identical";
const char kDeltaNumeric[] = "numerically-changed";
const char kDeltaState[] = "state-changed";

}  // namespace

CampaignRunner::CampaignRunner(JobServer& server,
                               obs::MetricsRegistry& registry)
    : server_(server) {
  started_ = &registry.counter("phes_campaign_started_total");
  completed_ = &registry.counter("phes_campaign_completed_total");
  replayed_ = &registry.counter("phes_campaign_replayed_total");
  skipped_ = &registry.counter("phes_campaign_skipped_total");
  delta_identical_ = &registry.counter("phes_campaign_delta_identical_total");
  delta_numeric_ = &registry.counter("phes_campaign_delta_numeric_total");
  delta_state_ = &registry.counter("phes_campaign_delta_state_total");
}

std::optional<pipeline::PipelineJob> CampaignRunner::rebuild(
    std::uint64_t source_id, std::string& reason) const {
  const auto spec = server_.stored_input(source_id);
  if (!spec) {
    reason = "no stored input";
    return std::nullopt;
  }
  try {
    return pipeline::read_job_spec_json(*spec,
                                        server_.options().job_defaults);
  } catch (const std::exception& e) {
    reason = std::string("unparsable input spec: ") + e.what();
    return std::nullopt;
  }
}

CampaignRunner::StartResult CampaignRunner::start(
    const ReplayFilter& filter) {
  // Resolve the filter to candidate ids.  The single-id form is strict
  // (the caller named the record, so a miss is an error); the filter
  // form quietly selects whatever matches.
  std::vector<std::uint64_t> candidates;
  if (filter.id) {
    const auto summary = server_.job_summary(*filter.id);
    if (!summary) {
      throw std::runtime_error("replay: unknown job id " +
                               std::to_string(*filter.id));
    }
    if (!is_terminal(summary->state)) {
      throw std::runtime_error("replay: job " + std::to_string(*filter.id) +
                               " has not finished (state " +
                               job_state_name(summary->state) + ")");
    }
    candidates.push_back(*filter.id);
  } else {
    for (const auto& summary : server_.job_summaries()) {
      if (!is_terminal(summary.state)) continue;
      if (!filter.state.empty() &&
          filter.state != job_state_name(summary.state)) {
        continue;
      }
      if (filter.min_id != 0 && summary.id < filter.min_id) continue;
      if (filter.max_id != 0 && summary.id > filter.max_id) continue;
      candidates.push_back(summary.id);
    }
  }

  StartResult out;
  std::vector<Tracked> tracked;
  const auto skip = [&](std::uint64_t source, std::string reason) {
    out.skipped.push_back(CampaignSkip{source, std::move(reason)});
    skipped_->add();
  };
  for (const std::uint64_t source : candidates) {
    std::string reason;
    auto job = rebuild(source, reason);
    if (!job) {
      skip(source, std::move(reason));
      continue;
    }
    // A model-hash mismatch means the filter did not select this
    // record — it is not a skip.
    if (!filter.model.empty() &&
        pipeline::input_content_hash(*job) != filter.model) {
      continue;
    }
    const auto record = server_.status(source);
    if (!record || !is_terminal(record->state)) {
      // Retention (or a restart race) took the record between the
      // summary scan and here.
      skip(source, "stored record no longer available");
      continue;
    }
    if (record->result.error.rfind(kUnreadableResultPrefix, 0) == 0) {
      // Corrupt/missing payload: there is no baseline to diff against.
      skip(source, record->result.error);
      continue;
    }
    Tracked t;
    t.entry.source_id = source;
    t.entry.name = record->name;
    t.entry.status_before = record->result.status();
    t.stored_signature = pipeline::result_signature(record->result);
    // Admission outside the campaign mutex: submit blocks on queue
    // backpressure, and a full queue must not wedge status() calls.
    try {
      t.entry.replay_id = server_.submit(std::move(*job));
    } catch (const std::exception& e) {
      skip(source, std::string("submit failed: ") + e.what());
      continue;
    }
    replayed_->add();
    tracked.push_back(std::move(t));
  }
  started_->add();

  util::MutexLock lock(mutex_);
  out.campaign_id = next_campaign_id_++;
  Campaign& campaign = campaigns_[out.campaign_id];
  campaign.tracked = std::move(tracked);
  campaign.skipped = out.skipped;
  out.entries.reserve(campaign.tracked.size());
  for (const Tracked& t : campaign.tracked) out.entries.push_back(t.entry);
  return out;
}

std::optional<CampaignStatus> CampaignRunner::status(
    std::uint64_t campaign_id) {
  util::MutexLock lock(mutex_);
  const auto it = campaigns_.find(campaign_id);
  if (it == campaigns_.end()) return std::nullopt;
  Campaign& campaign = it->second;

  // Lazy classification: entries are diffed the first time a status
  // poll sees their replayed job terminal, and each delta counter is
  // bumped exactly once per entry.
  for (Tracked& t : campaign.tracked) {
    if (t.classified) continue;
    const auto record = server_.status(t.entry.replay_id);
    if (!record || !is_terminal(record->state)) continue;
    t.entry.status_after = record->result.status();
    const std::string signature =
        pipeline::result_signature(record->result);
    if (signature == t.stored_signature) {
      t.entry.delta = kDeltaIdentical;
      delta_identical_->add();
    } else if (t.entry.status_after != t.entry.status_before) {
      t.entry.delta = kDeltaState;
      delta_state_->add();
    } else {
      t.entry.delta = kDeltaNumeric;
      delta_numeric_->add();
    }
    t.classified = true;
  }

  CampaignStatus s;
  s.id = campaign_id;
  s.total = campaign.tracked.size();
  s.entries.reserve(campaign.tracked.size());
  for (const Tracked& t : campaign.tracked) {
    if (t.classified) {
      ++s.completed;
      if (t.entry.delta == kDeltaIdentical) {
        ++s.identical;
      } else if (t.entry.delta == kDeltaNumeric) {
        ++s.numeric;
      } else {
        ++s.state_changed;
      }
    }
    s.entries.push_back(t.entry);
  }
  s.skipped = campaign.skipped;
  s.done = s.completed == s.total;
  if (s.done && !campaign.completed_counted) {
    campaign.completed_counted = true;
    completed_->add();
  }
  return s;
}

}  // namespace phes::server
