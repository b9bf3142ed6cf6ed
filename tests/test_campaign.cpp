// Replayable campaigns end to end: stored records resolved back into
// fresh jobs through the replay/campaign protocol ops.  The
// acceptance property is replay determinism — running a whole
// --data-dir again after a restart classifies every job bit-identical
// against its stored baseline (pipeline::result_signature).  The fault
// half: corrupt payloads and missing input specs are skipped-and-
// counted (phes_campaign_skipped_total), never fatal, and the queue
// keeps serving fresh submissions afterwards.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "phes/io/touchstone.hpp"
#include "phes/pipeline/job.hpp"
#include "phes/pipeline/report.hpp"
#include "phes/server/protocol.hpp"
#include "phes/server/server.hpp"
#include "phes/server/storage.hpp"
#include "phes/util/metrics.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

namespace fs = std::filesystem;

using server::handle_request;
using server::JobServer;
using server::JobState;
using server::JsonValue;
using server::ServerOptions;

using test::TempDir;

ServerOptions campaign_options(const std::string& data_dir,
                               obs::MetricsRegistry* registry) {
  ServerOptions options;
  options.workers = 2;
  options.solver_threads = 1;
  options.queue_capacity = 8;
  options.job_defaults.fit.num_poles = 12;
  options.data_dir = data_dir;
  options.registry = registry;
  return options;
}

std::string request(JobServer& server, const std::string& line) {
  return handle_request(server, line).response;
}

/// Touchstone text of a seeded passive 2-port model, for inline
/// submissions whose bytes round-trip through the stored input spec.
std::string touchstone_payload(std::uint64_t seed) {
  std::ostringstream os;
  io::save_touchstone(test::passive_samples(seed), os);
  return os.str();
}

std::string submit_inline_request(const std::string& payload,
                                  const std::string& name) {
  return "{\"op\": \"submit_inline\", \"payload\": " +
         server::json_quote(payload) + ", \"ports\": 2, \"name\": \"" +
         name + "\"}";
}

std::uint64_t submit_inline(JobServer& server, const std::string& payload,
                            const std::string& name) {
  const auto ack =
      JsonValue::parse(request(server, submit_inline_request(payload, name)));
  EXPECT_TRUE(ack.bool_or("ok", false)) << ack.string_or("error", "");
  return ack.uint_or("id", 0);
}

/// Replay ids out of a replay ack's "jobs" array, in response order.
std::vector<std::uint64_t> replay_ids(const JsonValue& ack) {
  std::vector<std::uint64_t> ids;
  const JsonValue* jobs = ack.find("jobs");
  if (jobs == nullptr) return ids;
  for (const JsonValue& entry : jobs->items()) {
    ids.push_back(entry.uint_or("id", 0));
  }
  return ids;
}

TEST(Campaign, ReplayAllAfterRestartIsBitIdentical) {
  TempDir dir("campaign_restart");
  const std::string data_dir = dir.path + "/data";
  const std::string model_path = dir.path + "/model.s2p";
  fs::create_directories(dir.path);
  io::save_touchstone_file(test::passive_samples(11), model_path);

  std::string path_signature, inline_signature;
  {
    obs::MetricsRegistry registry;
    JobServer jobs(campaign_options(data_dir, &registry));
    const auto ack = JsonValue::parse(request(
        jobs, "{\"op\": \"submit\", \"path\": " +
                  server::json_quote(model_path) + ", \"name\": \"path\"}"));
    ASSERT_TRUE(ack.bool_or("ok", false));
    const std::uint64_t path_id = ack.uint_or("id", 0);
    const std::uint64_t inline_id =
        submit_inline(jobs, touchstone_payload(7), "inline");
    ASSERT_TRUE(jobs.wait(path_id, 300.0));
    ASSERT_TRUE(jobs.wait(inline_id, 300.0));
    ASSERT_EQ(jobs.status(path_id)->state, JobState::kDone);
    ASSERT_EQ(jobs.status(inline_id)->state, JobState::kDone);
    path_signature = pipeline::result_signature(*jobs.result(path_id));
    inline_signature = pipeline::result_signature(*jobs.result(inline_id));
    // Graceful shutdown at scope exit; records + input specs on disk.
  }

  obs::MetricsRegistry registry;
  JobServer jobs(campaign_options(data_dir, &registry));
  const auto ack =
      JsonValue::parse(request(jobs, "{\"op\": \"replay\", \"all\": true}"));
  ASSERT_TRUE(ack.bool_or("ok", false)) << ack.string_or("error", "");
  EXPECT_EQ(ack.uint_or("campaign", 0), 1u);
  ASSERT_EQ(ack.uint_or("replayed", 0), 2u);
  EXPECT_EQ(ack.uint_or("skipped", 99), 0u);

  const std::vector<std::uint64_t> ids = replay_ids(ack);
  ASSERT_EQ(ids.size(), 2u);
  for (const std::uint64_t id : ids) {
    EXPECT_GT(id, 2u) << "replays continue above recovered ids";
    ASSERT_TRUE(jobs.wait(id, 300.0));
  }

  // THE acceptance property: a full-directory replay after a restart
  // classifies 100% of jobs bit-identical.
  const auto status =
      JsonValue::parse(request(jobs, "{\"op\": \"campaign\", \"id\": 1}"));
  ASSERT_TRUE(status.bool_or("ok", false));
  EXPECT_TRUE(status.bool_or("done", false));
  EXPECT_EQ(status.uint_or("total", 0), 2u);
  EXPECT_EQ(status.uint_or("completed", 0), 2u);
  const JsonValue* deltas = status.find("deltas");
  ASSERT_NE(deltas, nullptr);
  EXPECT_EQ(deltas->uint_or("identical", 0), 2u);
  EXPECT_EQ(deltas->uint_or("numeric", 99), 0u);
  EXPECT_EQ(deltas->uint_or("state", 99), 0u);
  for (const JsonValue& entry : status.find("jobs")->items()) {
    EXPECT_EQ(entry.string_or("delta", ""), "bit-identical");
    EXPECT_EQ(entry.string_or("after", ""), entry.string_or("before", "?"));
  }

  // Belt and braces: the signatures themselves, not just the labels.
  EXPECT_EQ(pipeline::result_signature(*jobs.result(ids[0])),
            path_signature);
  EXPECT_EQ(pipeline::result_signature(*jobs.result(ids[1])),
            inline_signature);

  EXPECT_EQ(registry.counter("phes_campaign_started_total").value(), 1u);
  EXPECT_EQ(registry.counter("phes_campaign_completed_total").value(), 1u);
  EXPECT_EQ(registry.counter("phes_campaign_replayed_total").value(), 2u);
  EXPECT_EQ(registry.counter("phes_campaign_skipped_total").value(), 0u);
  EXPECT_EQ(
      registry.counter("phes_campaign_delta_identical_total").value(), 2u);
}

TEST(Campaign, LegacyWarmStartSpecReplaysBitIdentical) {
  // A store written before warm starts became unconditional holds
  // input specs with a "warm_start" option.  Replay ignores the key and
  // reproduces the stored result bit for bit.
  TempDir dir("campaign_legacy");
  {
    obs::MetricsRegistry registry;
    JobServer jobs(campaign_options(dir.path, &registry));
    const std::uint64_t id =
        submit_inline(jobs, touchstone_payload(31), "legacy");
    ASSERT_TRUE(jobs.wait(id, 300.0));
    ASSERT_EQ(jobs.status(id)->state, JobState::kDone);
  }
  const fs::path spec_path = fs::path(dir.path) / "inputs" / "job-1.json";
  std::string spec;
  {
    std::ifstream in(spec_path, std::ios::binary);
    std::ostringstream contents;
    contents << in.rdbuf();
    spec = contents.str();
  }
  const std::string key = "\"vf_iters\": 12";
  const std::size_t at = spec.find(key);
  ASSERT_NE(at, std::string::npos) << spec;
  spec.insert(at + key.size(), ", \"warm_start\": false");
  {
    std::ofstream out(spec_path, std::ios::trunc | std::ios::binary);
    out << spec;
  }

  obs::MetricsRegistry registry;
  JobServer jobs(campaign_options(dir.path, &registry));
  const auto ack =
      JsonValue::parse(request(jobs, "{\"op\": \"replay\", \"all\": true}"));
  ASSERT_TRUE(ack.bool_or("ok", false)) << ack.string_or("error", "");
  ASSERT_EQ(ack.uint_or("replayed", 0), 1u);
  EXPECT_EQ(ack.uint_or("skipped", 99), 0u);
  const std::vector<std::uint64_t> ids = replay_ids(ack);
  ASSERT_EQ(ids.size(), 1u);
  ASSERT_TRUE(jobs.wait(ids[0], 300.0));
  const auto status =
      JsonValue::parse(request(jobs, "{\"op\": \"campaign\", \"id\": 1}"));
  const JsonValue* deltas = status.find("deltas");
  ASSERT_NE(deltas, nullptr);
  EXPECT_EQ(deltas->uint_or("identical", 0), 1u);
  EXPECT_EQ(deltas->uint_or("state", 99), 0u);
}

TEST(Campaign, SingleIdReplayTracksOneCampaign) {
  // No data_dir: the in-memory backend keeps input specs too, so
  // replay works without a restart in the picture.
  obs::MetricsRegistry registry;
  ServerOptions options = campaign_options("", &registry);
  options.data_dir.clear();
  JobServer jobs(options);

  const std::uint64_t source = submit_inline(jobs, touchstone_payload(3), "m");
  ASSERT_TRUE(jobs.wait(source, 300.0));
  const std::string baseline =
      pipeline::result_signature(*jobs.result(source));

  const auto ack = JsonValue::parse(request(
      jobs, "{\"op\": \"replay\", \"id\": " + std::to_string(source) + "}"));
  ASSERT_TRUE(ack.bool_or("ok", false)) << ack.string_or("error", "");
  ASSERT_EQ(ack.uint_or("replayed", 0), 1u);
  const std::uint64_t replay_id = replay_ids(ack)[0];
  ASSERT_TRUE(jobs.wait(replay_id, 300.0));
  EXPECT_EQ(pipeline::result_signature(*jobs.result(replay_id)), baseline);

  const auto status =
      JsonValue::parse(request(jobs, "{\"op\": \"campaign\", \"id\": 1}"));
  ASSERT_TRUE(status.bool_or("ok", false));
  EXPECT_TRUE(status.bool_or("done", false));
  EXPECT_EQ(status.find("deltas")->uint_or("identical", 0), 1u);

  const auto none =
      JsonValue::parse(request(jobs, "{\"op\": \"campaign\", \"id\": 2}"));
  EXPECT_FALSE(none.bool_or("ok", true));
  EXPECT_NE(none.string_or("error", "").find("unknown campaign id"),
            std::string::npos);
}

TEST(Campaign, ReplayRejectsUnknownUnfinishedAndMissingSelector) {
  obs::MetricsRegistry registry;
  ServerOptions options = campaign_options("", &registry);
  options.data_dir.clear();
  options.workers = 1;  // one worker: job 2 stays queued behind job 1
  JobServer jobs(options);

  test::StageGate gate;
  jobs.set_stage_observer(std::ref(gate));
  gate.arm(1, pipeline::Stage::kLoad);

  const std::uint64_t running = submit_inline(jobs, touchstone_payload(5), "r");
  const std::uint64_t queued = submit_inline(jobs, touchstone_payload(6), "q");
  gate.wait_blocked();

  const auto unknown =
      JsonValue::parse(request(jobs, "{\"op\": \"replay\", \"id\": 42}"));
  EXPECT_FALSE(unknown.bool_or("ok", true));
  EXPECT_NE(unknown.string_or("error", "").find("unknown job id 42"),
            std::string::npos);

  const auto unfinished = JsonValue::parse(request(
      jobs, "{\"op\": \"replay\", \"id\": " + std::to_string(queued) + "}"));
  EXPECT_FALSE(unfinished.bool_or("ok", true));
  EXPECT_NE(unfinished.string_or("error", "").find("has not finished"),
            std::string::npos);

  const auto selectorless =
      JsonValue::parse(request(jobs, "{\"op\": \"replay\"}"));
  EXPECT_FALSE(selectorless.bool_or("ok", true));

  // The removed untracked re-admit op: an old client gets a clean
  // error and no job is admitted.
  const std::size_t admitted = jobs.job_summaries().size();
  const auto removed =
      JsonValue::parse(request(jobs, "{\"op\":\"resubmit\",\"id\":42}"));
  EXPECT_FALSE(removed.bool_or("ok", true));
  EXPECT_NE(removed.string_or("error", "").find("unknown op 'resubmit'"),
            std::string::npos);
  EXPECT_EQ(jobs.job_summaries().size(), admitted);

  gate.release();
  ASSERT_TRUE(jobs.wait(running, 300.0));
  ASSERT_TRUE(jobs.wait(queued, 300.0));
}

TEST(Campaign, FaultInjectionSkipsAndCountsWithoutPoisoningTheQueue) {
  TempDir dir("campaign_faults");
  {
    obs::MetricsRegistry registry;
    JobServer jobs(campaign_options(dir.path, &registry));
    const std::uint64_t a = submit_inline(jobs, touchstone_payload(21), "a");
    const std::uint64_t b = submit_inline(jobs, touchstone_payload(22), "b");
    // A samples-direct job has no replayable input spec at all.
    pipeline::PipelineJob direct;
    direct.name = "direct";
    direct.samples = test::passive_samples(23);
    const std::uint64_t c = jobs.submit(std::move(direct));
    ASSERT_TRUE(jobs.wait(a, 300.0));
    ASSERT_TRUE(jobs.wait(b, 300.0));
    ASSERT_TRUE(jobs.wait(c, 300.0));
  }

  // Fault injection: job 1's stored payload is corrupted, job 2's
  // input spec is deleted.  Job 3 never had one.
  {
    std::ofstream out(fs::path(dir.path) / "jobs" / "job-1.json",
                      std::ios::trunc | std::ios::binary);
    out << "{ this is not json\n";
  }
  fs::remove(fs::path(dir.path) / "inputs" / "job-2.json");

  obs::MetricsRegistry registry;
  JobServer jobs(campaign_options(dir.path, &registry));
  const auto ack =
      JsonValue::parse(request(jobs, "{\"op\": \"replay\", \"all\": true}"));
  ASSERT_TRUE(ack.bool_or("ok", false)) << ack.string_or("error", "");
  EXPECT_EQ(ack.uint_or("replayed", 99), 0u);
  EXPECT_EQ(ack.uint_or("skipped", 0), 3u);
  const JsonValue* skips = ack.find("skips");
  ASSERT_NE(skips, nullptr);
  ASSERT_EQ(skips->items().size(), 3u);
  for (const JsonValue& skip : skips->items()) {
    const std::uint64_t source = skip.uint_or("source", 0);
    const std::string reason = skip.string_or("reason", "");
    if (source == 1) {
      EXPECT_EQ(reason.rfind(server::kUnreadableResultPrefix, 0), 0u)
          << reason;
    } else {
      EXPECT_EQ(reason, "no stored input") << "source " << source;
    }
  }
  EXPECT_EQ(registry.counter("phes_campaign_skipped_total").value(), 3u);
  EXPECT_EQ(registry.counter("phes_campaign_replayed_total").value(), 0u);

  // An all-skip campaign is immediately done and diffs nothing.
  const auto status =
      JsonValue::parse(request(jobs, "{\"op\": \"campaign\", \"id\": 1}"));
  ASSERT_TRUE(status.bool_or("ok", false));
  EXPECT_TRUE(status.bool_or("done", false));
  EXPECT_EQ(status.uint_or("total", 99), 0u);
  EXPECT_EQ(status.uint_or("skipped", 0), 3u);

  // The queue is not poisoned: fresh work still flows end to end.
  const std::uint64_t fresh = submit_inline(jobs, touchstone_payload(24), "f");
  ASSERT_TRUE(jobs.wait(fresh, 300.0));
  EXPECT_EQ(jobs.status(fresh)->state, JobState::kDone);
}

TEST(Campaign, FiltersNarrowByStateIdRangeAndModelHash) {
  TempDir dir("campaign_filters");
  obs::MetricsRegistry registry;
  JobServer jobs(campaign_options(dir.path, &registry));

  const std::string payload_a = touchstone_payload(31);
  const std::uint64_t a = submit_inline(jobs, payload_a, "a");
  const std::uint64_t bad =
      submit_inline(jobs, "not touchstone data", "bad");
  const std::uint64_t c = submit_inline(jobs, touchstone_payload(32), "c");
  ASSERT_TRUE(jobs.wait(a, 300.0));
  ASSERT_TRUE(jobs.wait(bad, 60.0));
  ASSERT_TRUE(jobs.wait(c, 300.0));
  ASSERT_EQ(jobs.status(bad)->state, JobState::kFailed);

  // state filter: only the failed job — and a deterministic failure
  // replays as bit-identical too (same error, same signature).
  const auto failed = JsonValue::parse(
      request(jobs, "{\"op\": \"replay\", \"all\": true, "
                    "\"state\": \"failed\"}"));
  ASSERT_TRUE(failed.bool_or("ok", false)) << failed.string_or("error", "");
  ASSERT_EQ(failed.uint_or("replayed", 0), 1u);
  EXPECT_EQ(failed.find("jobs")->items()[0].uint_or("source", 0), bad);
  const std::uint64_t bad_replay = replay_ids(failed)[0];
  ASSERT_TRUE(jobs.wait(bad_replay, 60.0));
  const auto failed_status =
      JsonValue::parse(request(jobs, "{\"op\": \"campaign\", \"id\": 1}"));
  EXPECT_EQ(failed_status.find("deltas")->uint_or("identical", 0), 1u);

  // id-range filter: exactly job c.
  const auto ranged = JsonValue::parse(
      request(jobs, "{\"op\": \"replay\", \"all\": true, \"from\": " +
                        std::to_string(c) + ", \"to\": " +
                        std::to_string(c) + "}"));
  ASSERT_TRUE(ranged.bool_or("ok", false));
  ASSERT_EQ(ranged.uint_or("replayed", 0), 1u);
  EXPECT_EQ(ranged.find("jobs")->items()[0].uint_or("source", 0), c);

  // model filter: the content hash of payload_a selects job a only
  // (non-matching records are unselected, not skipped).
  pipeline::PipelineJob probe;
  probe.input_text = payload_a;
  const std::string model = pipeline::input_content_hash(probe);
  const auto by_model = JsonValue::parse(
      request(jobs, "{\"op\": \"replay\", \"all\": true, \"to\": " +
                        std::to_string(c) + ", \"model\": \"" + model +
                        "\"}"));
  ASSERT_TRUE(by_model.bool_or("ok", false));
  ASSERT_EQ(by_model.uint_or("replayed", 0), 1u);
  EXPECT_EQ(by_model.uint_or("skipped", 99), 0u);
  EXPECT_EQ(by_model.find("jobs")->items()[0].uint_or("source", 0), a);

  for (const std::uint64_t id :
       {replay_ids(ranged)[0], replay_ids(by_model)[0]}) {
    ASSERT_TRUE(jobs.wait(id, 300.0));
  }
}

}  // namespace
}  // namespace phes
