// The pluggable result-storage layer: write_job_json/read_job_json
// round-trip stability (the property that makes recovered `result`
// responses byte-identical), MemoryStorage retention, DiskStorage
// persistence + crash recovery (journal replay, lost-job synthesis,
// byte-budget and TTL eviction), and the ResultStore facade over a
// durable backend.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "phes/pipeline/job.hpp"
#include "phes/pipeline/report.hpp"
#include "phes/server/result_store.hpp"
#include "phes/server/storage.hpp"
#include "phes/util/metrics.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

namespace fs = std::filesystem;

using pipeline::PipelineResult;
using pipeline::Stage;
using server::DiskStorage;
using server::DiskStorageOptions;
using server::JobRecord;
using server::JobState;
using server::MemoryStorage;

std::string job_json(const PipelineResult& result) {
  std::ostringstream os;
  pipeline::write_job_json(result, os);
  return os.str();
}

/// A fully-populated successful result with awkward double values.
PipelineResult sample_result(std::uint64_t id) {
  PipelineResult r;
  r.name = "model-\"q\"\n.s2p";  // escaping must survive the round trip
  r.id = id;
  r.ok = true;
  r.completed = true;
  r.sample_count = 160;
  r.ports = 2;
  r.order = 24;
  r.fit_rms = 1.23456789e-4;
  r.fit_iterations = 9;  // NOT serialized; lost by design
  r.initial_report.bands.resize(2);
  r.initial_report.bands[0].sigma_peak = 1.05;  // only .size() survives
  r.initial_report.solver.total_matvecs = 4321;
  r.enforcement_run = true;
  r.enforcement.iterations = 3;
  r.enforcement.characterizations = 4;
  r.enforcement.relative_model_change = 0.00123456789;
  r.certified_passive = true;
  r.session.cache.hits = 7;
  r.session.cache.misses = 11;
  r.session.cache.evictions = 1;
  r.session.factorizations = 13;
  r.session.solves = 5;
  r.session.warm_solves = 4;
  r.session.dense_solves = 1;
  r.session.dense_reuses = 2;
  r.session.revision = 3;
  r.session_reused = true;
  double t = 0.0123456789;
  for (const Stage stage :
       {Stage::kLoad, Stage::kFit, Stage::kRealize, Stage::kCharacterize,
        Stage::kEnforce, Stage::kVerify}) {
    r.stage_timings.push_back({stage, t});
    r.total_seconds += t;
    t *= 3.14159;
  }
  return r;
}

PipelineResult failed_result(std::uint64_t id) {
  PipelineResult r;
  r.name = "broken.s4p";
  r.id = id;
  r.ok = false;
  r.error = "fit diverged: rms 1e+9 > bound\n(line 42)";
  r.failed_stage = Stage::kFit;
  r.stage_timings.push_back({Stage::kLoad, 0.001});
  r.total_seconds = 0.002;
  r.sample_count = 40;
  r.ports = 4;
  return r;
}

PipelineResult cancelled_result(std::uint64_t id) {
  PipelineResult r;
  r.name = "cancelled.txt";
  r.id = id;
  r.ok = false;
  r.cancelled = true;
  r.error = "cancelled";
  r.failed_stage = Stage::kRealize;
  r.stage_timings.push_back({Stage::kLoad, 0.5});
  r.stage_timings.push_back({Stage::kFit, 1.5});
  r.total_seconds = 2.0;
  return r;
}

using test::TempDir;

JobRecord make_record(PipelineResult result, JobState state) {
  JobRecord rec;
  rec.id = result.id;
  rec.name = result.name;
  rec.state = state;
  rec.stage = Stage::kVerify;
  rec.stage_known = true;
  rec.result = std::move(result);
  return rec;
}

// ---- JSON round trip --------------------------------------------------

TEST(ReportReader, RoundTripIsByteStableForAllResultShapes) {
  for (const PipelineResult& original :
       {sample_result(1), failed_result(2), cancelled_result(3),
        PipelineResult{}}) {
    const std::string once = job_json(original);
    const PipelineResult reread = pipeline::read_job_json(once);
    EXPECT_EQ(job_json(reread), once) << once;
    // And the reader is idempotent, not just write-stable.
    EXPECT_EQ(job_json(pipeline::read_job_json(job_json(reread))), once);
  }
}

TEST(ReportReader, RoundTripOnARealPipelineRun) {
  pipeline::PipelineJob job;
  job.name = "real";
  job.samples = test::non_passive_samples(7);
  job.options.fit.num_poles = 12;
  job.options.solver.threads = 1;
  const PipelineResult result = run_pipeline(job);
  ASSERT_TRUE(result.ok) << result.error;
  const std::string once = job_json(result);
  EXPECT_EQ(job_json(pipeline::read_job_json(once)), once);
}

TEST(ReportReader, ReconstructsSemanticFields) {
  const PipelineResult reread =
      pipeline::read_job_json(job_json(sample_result(42)));
  EXPECT_EQ(reread.id, 42u);
  EXPECT_EQ(reread.name, "model-\"q\"\n.s2p");
  EXPECT_TRUE(reread.ok);
  EXPECT_EQ(reread.status(), "enforced");
  EXPECT_EQ(reread.initial_report.bands.size(), 2u);
  EXPECT_EQ(reread.stage_timings.size(), 6u);
  EXPECT_EQ(reread.session.cache.hits, 7u);
  EXPECT_EQ(reread.session.dense_solves, 1u);
  EXPECT_EQ(reread.session.dense_reuses, 2u);
  EXPECT_TRUE(reread.session_reused);

  // Records written before the dense route carry no "dense_solves",
  // and those written before the dense-result memo no "dense_reuses".
  std::string old_doc = job_json(sample_result(43));
  for (const std::string key :
       {", \"dense_solves\": 1", ", \"dense_reuses\": 2"}) {
    const std::size_t key_at = old_doc.find(key);
    ASSERT_NE(key_at, std::string::npos) << key;
    old_doc.erase(key_at, key.size());
  }
  const PipelineResult old_record = pipeline::read_job_json(old_doc);
  EXPECT_EQ(old_record.session.dense_solves, 0u);
  EXPECT_EQ(old_record.session.dense_reuses, 0u);
  EXPECT_EQ(old_record.session.warm_solves, 4u);

  const PipelineResult failed =
      pipeline::read_job_json(job_json(failed_result(9)));
  EXPECT_EQ(failed.status(), "failed@fit");
  EXPECT_EQ(failed.error, "fit diverged: rms 1e+9 > bound\n(line 42)");

  EXPECT_THROW((void)pipeline::read_job_json("not json"),
               std::runtime_error);
  EXPECT_THROW((void)pipeline::read_job_json("[1, 2]"),
               std::runtime_error);
}

TEST(ReportReader, ToleratesUnknownFieldsAndStageNames) {
  // A record written by a future build may carry fields this one does
  // not know: the reader must ignore them, and the reserialized record
  // must match what this build would have written.
  const std::string once = job_json(sample_result(4));
  ASSERT_EQ(once.front(), '{');
  const std::string extended =
      "{\n  \"future_field\": {\"nested\": [1, 2]},\n" + once.substr(1);
  EXPECT_EQ(job_json(pipeline::read_job_json(extended)), once);

  // Same for a failed_stage name this build has never heard of: keep
  // the default stage instead of rejecting the whole record.
  std::string doc = job_json(failed_result(2));
  const std::string field = "\"failed_stage\": \"fit\"";
  const std::size_t at = doc.find(field);
  ASSERT_NE(at, std::string::npos);
  doc.replace(at, field.size(), "\"failed_stage\": \"quantize\"");
  const PipelineResult reread = pipeline::read_job_json(doc);
  EXPECT_FALSE(reread.ok);
  EXPECT_EQ(reread.error, failed_result(2).error);
  EXPECT_EQ(reread.failed_stage, Stage::kLoad) << "default kept";
}

// ---- Replayable input specs -------------------------------------------

TEST(JobSpec, RoundTripsPathAndInlineJobs) {
  pipeline::PipelineJob job;
  job.name = "spec \"quoted\"";
  job.input_path = "/models/a.s2p";
  job.input_ports = 2;
  job.options.fit.num_poles = 9;
  job.options.fit.iterations = 5;
  job.options.stop_after = Stage::kCharacterize;
  const std::string spec = pipeline::write_job_spec_json(job);
  const pipeline::PipelineJob back = pipeline::read_job_spec_json(spec);
  EXPECT_EQ(back.name, job.name);
  EXPECT_EQ(back.input_path, job.input_path);
  EXPECT_EQ(back.input_ports, 2u);
  EXPECT_EQ(back.options.fit.num_poles, 9u);
  EXPECT_EQ(back.options.fit.iterations, 5u);
  EXPECT_EQ(back.options.stop_after, Stage::kCharacterize);
  EXPECT_EQ(pipeline::input_content_hash(back),
            pipeline::input_content_hash(job));

  pipeline::PipelineJob inline_job;
  inline_job.input_text = "# GHz S RI R 50\n1 0 0 0 0 0 0 0 0\n";
  inline_job.input_format = pipeline::InputFormat::kTouchstone;
  const pipeline::PipelineJob inline_back =
      pipeline::read_job_spec_json(pipeline::write_job_spec_json(inline_job));
  EXPECT_EQ(inline_back.input_text, inline_job.input_text);
  EXPECT_EQ(inline_back.input_format, pipeline::InputFormat::kTouchstone);
}

TEST(JobSpec, ToleratesUnknownFieldsAndRejectsInputlessSpecs) {
  pipeline::PipelineJob job;
  job.input_path = "m.s2p";
  std::string spec = pipeline::write_job_spec_json(job);
  ASSERT_EQ(spec.front(), '{');
  spec = "{\"spec_version\": 99, \"future\": true, " + spec.substr(1);
  EXPECT_EQ(pipeline::read_job_spec_json(spec).input_path, "m.s2p");

  // Stores written before warm starts became unconditional carry a
  // "warm_start" option: ignored like any unknown key, never written
  // back, and every other option survives.
  const std::string legacy =
      "{\"spec_version\": 1, \"input_path\": \"/models/a.s2p\", "
      "\"options\": {\"poles\": 9, \"vf_iters\": 5, \"warm_start\": "
      "false, \"stop_after\": \"characterize\"}}";
  const pipeline::PipelineJob back = pipeline::read_job_spec_json(legacy);
  EXPECT_EQ(back.input_path, "/models/a.s2p");
  EXPECT_EQ(back.options.fit.num_poles, 9u);
  EXPECT_EQ(back.options.fit.iterations, 5u);
  EXPECT_EQ(back.options.stop_after, Stage::kCharacterize);
  EXPECT_EQ(pipeline::write_job_spec_json(back).find("warm_start"),
            std::string::npos);

  // A samples-direct job has nothing to replay: the writer returns an
  // empty spec and the reader refuses an inputless document.
  EXPECT_TRUE(pipeline::write_job_spec_json(pipeline::PipelineJob{}).empty());
  EXPECT_THROW((void)pipeline::read_job_spec_json("{\"name\": \"x\"}"),
               std::runtime_error);
  EXPECT_THROW((void)pipeline::read_job_spec_json("not json"),
               std::runtime_error);
}

// ---- MemoryStorage ----------------------------------------------------

TEST(MemoryStorage, EvictsOldestPastCap) {
  obs::MetricsRegistry registry;
  MemoryStorage storage(2, &registry);
  for (std::uint64_t id = 1; id <= 4; ++id) {
    storage.put(make_record(sample_result(id), JobState::kDone));
  }
  EXPECT_EQ(storage.size(), 2u);
  EXPECT_FALSE(storage.get(1).has_value());
  EXPECT_FALSE(storage.get(2).has_value());
  EXPECT_TRUE(storage.get(3).has_value());
  EXPECT_TRUE(storage.get(4).has_value());
  const auto metrics = registry.snapshot();
  EXPECT_EQ(test::counter(metrics, "phes_store_evicted_total"), 2u);
  // Not durable: the in-memory backend registers no recovery counters.
  EXPECT_EQ(metrics.counters.count("phes_store_recovered_total"), 0u);
}

TEST(MemoryStorage, InternsIdenticalInputSpecs) {
  obs::MetricsRegistry registry;
  MemoryStorage storage(64, &registry);
  const auto& input_bytes = registry.gauge("phes_store_input_bytes");
  // An inline spec's size: the Touchstone text rides inside it.
  const std::string spec_a = "{\"inline\": \"" + std::string(40000, 'a') + "\"}";
  const std::string spec_b = "{\"inline\": \"" + std::string(30000, 'b') + "\"}";
  for (std::uint64_t id = 1; id <= 10; ++id) storage.note_input(id, spec_a);
  // Ten identical submissions hold one spec's bytes.
  EXPECT_EQ(input_bytes.value(), static_cast<std::int64_t>(spec_a.size()));
  // A distinct spec counts separately.
  storage.note_input(11, spec_b);
  storage.note_input(12, spec_b);
  EXPECT_EQ(input_bytes.value(),
            static_cast<std::int64_t>(spec_a.size() + spec_b.size()));
  // Every id still reads back its exact spec.
  for (std::uint64_t id = 1; id <= 12; ++id) {
    const auto spec = storage.input(id);
    ASSERT_TRUE(spec.has_value()) << id;
    EXPECT_EQ(*spec, id <= 10 ? spec_a : spec_b) << id;
  }
  EXPECT_FALSE(storage.input(13).has_value());
}

TEST(MemoryStorage, EvictingEveryRecordFreesTheInputSpecs) {
  obs::MetricsRegistry registry;
  MemoryStorage storage(4, &registry);
  const auto& input_bytes = registry.gauge("phes_store_input_bytes");
  const std::string spec_a(5000, 'a');
  const std::string spec_b(7000, 'b');
  for (std::uint64_t id = 1; id <= 4; ++id) {
    storage.note_input(id, id % 2 == 0 ? spec_a : spec_b);
    storage.put(make_record(sample_result(id), JobState::kDone));
  }
  EXPECT_EQ(input_bytes.value(),
            static_cast<std::int64_t>(spec_a.size() + spec_b.size()));
  // Evicting id 1 leaves spec_b referenced by id 3.
  storage.put(make_record(sample_result(5), JobState::kDone));
  EXPECT_FALSE(storage.input(1).has_value());
  EXPECT_EQ(*storage.input(3), spec_b);
  EXPECT_EQ(input_bytes.value(),
            static_cast<std::int64_t>(spec_a.size() + spec_b.size()));
  // Input-less records push out all four originals.
  for (std::uint64_t id = 6; id <= 8; ++id) {
    storage.put(make_record(sample_result(id), JobState::kDone));
  }
  for (std::uint64_t id = 1; id <= 4; ++id) {
    EXPECT_FALSE(storage.input(id).has_value()) << id;
  }
  EXPECT_EQ(input_bytes.value(), 0);
  // A spec noted again after its last holder left is stored afresh.
  storage.note_input(9, spec_a);
  EXPECT_EQ(*storage.input(9), spec_a);
  EXPECT_EQ(input_bytes.value(), static_cast<std::int64_t>(spec_a.size()));
}

// ---- DiskStorage ------------------------------------------------------

TEST(DiskStorage, PutGetServesTheExactRecord) {
  TempDir dir("putget");
  obs::MetricsRegistry registry;
  DiskStorage storage(dir.path, {}, &registry);
  const JobRecord original = make_record(sample_result(5), JobState::kDone);
  storage.put(original);

  const auto fetched = storage.get(5);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->name, original.name);
  EXPECT_EQ(fetched->state, JobState::kDone);
  EXPECT_TRUE(fetched->stage_known);
  EXPECT_EQ(fetched->stage, Stage::kVerify);
  EXPECT_EQ(job_json(fetched->result), job_json(original.result));

  const auto summary = storage.summary(5);
  ASSERT_TRUE(summary.has_value());
  EXPECT_EQ(summary->status, original.result.status());
  const auto metrics = registry.snapshot();
  EXPECT_EQ(test::gauge(metrics, "phes_store_records"), 1);
  EXPECT_GT(test::gauge(metrics, "phes_store_bytes"), 0);
  // Durable: the disk backend registers its recovery counters.
  EXPECT_EQ(metrics.counters.count("phes_store_recovered_total"), 1u);
}

TEST(DiskStorage, RecoversRecordsAcrossInstances) {
  TempDir dir("recover");
  std::string done_json, failed_json;
  {
    DiskStorage storage(dir.path);
    JobRecord done = make_record(sample_result(1), JobState::kDone);
    JobRecord failed = make_record(failed_result(2), JobState::kFailed);
    storage.put(done);
    storage.put(failed);
    done_json = job_json(storage.get(1)->result);
    failed_json = job_json(storage.get(2)->result);
  }
  obs::MetricsRegistry registry;
  DiskStorage reopened(dir.path, {}, &registry);
  const auto metrics = registry.snapshot();
  EXPECT_EQ(test::counter(metrics, "phes_store_recovered_total"), 2u);
  EXPECT_EQ(test::counter(metrics, "phes_store_lost_total"), 0u);
  EXPECT_EQ(reopened.max_seen_id(), 2u);
  ASSERT_TRUE(reopened.get(1).has_value());
  // Byte-identical payloads: the acceptance property behind restart-
  // stable `result` responses.
  EXPECT_EQ(job_json(reopened.get(1)->result), done_json);
  EXPECT_EQ(job_json(reopened.get(2)->result), failed_json);
  EXPECT_EQ(reopened.state(2), JobState::kFailed);
  EXPECT_EQ(reopened.summaries().size(), 2u);
}

TEST(DiskStorage, AdmittedButUnfinishedJobsComeBackAsLost) {
  TempDir dir("lost");
  {
    DiskStorage storage(dir.path);
    storage.note_admitted(7, "ghost.s2p");
    storage.put(make_record(sample_result(3), JobState::kDone));
    // id 7 never finishes: the process "crashes" here.
  }
  obs::MetricsRegistry registry;
  DiskStorage reopened(dir.path, {}, &registry);
  EXPECT_EQ(test::counter(registry.snapshot(), "phes_store_lost_total"), 1u);
  EXPECT_EQ(reopened.state(7), JobState::kFailed);
  const auto record = reopened.get(7);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->name, "ghost.s2p");
  EXPECT_FALSE(record->result.ok);
  EXPECT_NE(record->result.error.find("lost in server restart"),
            std::string::npos);
  EXPECT_EQ(reopened.max_seen_id(), 7u);
  // The lost verdict is itself durable: a third open has no pending
  // adds and serves the same failed record.
  obs::MetricsRegistry third_registry;
  DiskStorage third(dir.path, {}, &third_registry);
  EXPECT_EQ(test::counter(third_registry.snapshot(), "phes_store_lost_total"),
            0u);
  EXPECT_EQ(third.state(7), JobState::kFailed);
}

TEST(DiskStorage, ByteBudgetEvictsOldestFirst) {
  TempDir dir("bytes");
  DiskStorageOptions options;
  options.max_bytes = 3000;  // records are ~700-900 bytes each
  obs::MetricsRegistry registry;
  DiskStorage storage(dir.path, options, &registry);
  for (std::uint64_t id = 1; id <= 10; ++id) {
    storage.put(make_record(sample_result(id), JobState::kDone));
  }
  EXPECT_LT(storage.size(), 10u);
  const auto metrics = registry.snapshot();
  EXPECT_LE(test::gauge(metrics, "phes_store_bytes"),
            static_cast<std::int64_t>(options.max_bytes));
  EXPECT_GT(test::counter(metrics, "phes_store_evicted_total"), 0u);
  EXPECT_FALSE(storage.get(1).has_value()) << "oldest evicted first";
  EXPECT_TRUE(storage.get(10).has_value()) << "newest retained";
  // The budget survives recovery too.
  obs::MetricsRegistry reopened_registry;
  DiskStorage reopened(dir.path, options, &reopened_registry);
  EXPECT_LE(test::gauge(reopened_registry.snapshot(), "phes_store_bytes"),
            static_cast<std::int64_t>(options.max_bytes));
  EXPECT_TRUE(reopened.get(10).has_value());
}

TEST(DiskStorage, TtlPurgesExpiredRecords) {
  TempDir dir("ttl");
  DiskStorageOptions options;
  options.ttl_seconds = 0.05;
  DiskStorage storage(dir.path, options);
  storage.put(make_record(sample_result(1), JobState::kDone));
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  storage.put(make_record(sample_result(2), JobState::kDone));
  EXPECT_FALSE(storage.get(1).has_value()) << "expired record purged";
  EXPECT_TRUE(storage.get(2).has_value());
}

TEST(DiskStorage, SalvagesPayloadWhoseFinishEventNeverMadeTheJournal) {
  TempDir dir("salvage");
  std::string payload_json;
  {
    DiskStorage storage(dir.path);
    storage.put(make_record(sample_result(4), JobState::kDone));
    payload_json = job_json(storage.get(4)->result);
  }
  {
    // Simulate a crash (or failed append) between the payload write
    // and the finish event: the journal holds only the admission.
    std::ofstream index(fs::path(dir.path) / "index.ndjson",
                        std::ios::trunc | std::ios::binary);
    index << "{\"event\": \"add\", \"id\": 4, \"name\": \"m\"}\n";
  }
  obs::MetricsRegistry registry;
  DiskStorage reopened(dir.path, {}, &registry);
  // The intact payload must be salvaged, never overwritten as lost.
  const auto metrics = registry.snapshot();
  EXPECT_EQ(test::counter(metrics, "phes_store_lost_total"), 0u);
  EXPECT_EQ(test::counter(metrics, "phes_store_recovered_total"), 1u);
  EXPECT_EQ(reopened.state(4), JobState::kDone);
  EXPECT_EQ(job_json(reopened.get(4)->result), payload_json);
}

TEST(DiskStorage, ToleratesATornJournalTail) {
  TempDir dir("torn");
  {
    DiskStorage storage(dir.path);
    storage.put(make_record(sample_result(1), JobState::kDone));
  }
  {
    // Simulate a crash mid-append: garbage half-line at the tail.
    std::ofstream index(fs::path(dir.path) / "index.ndjson",
                        std::ios::app | std::ios::binary);
    index << "{\"event\": \"finish\", \"id\": 2, \"na";
  }
  obs::MetricsRegistry registry;
  DiskStorage reopened(dir.path, {}, &registry);
  EXPECT_EQ(test::counter(registry.snapshot(), "phes_store_recovered_total"),
            1u);
  EXPECT_TRUE(reopened.get(1).has_value());
}

// ---- ResultStore over a durable backend -------------------------------

TEST(ResultStoreDurable, LifecycleSpillsTerminalRecordsToDisk) {
  TempDir dir("store");
  {
    server::ResultStore store(std::make_unique<DiskStorage>(dir.path));
    store.add(1, "a");
    store.add(2, "b");
    EXPECT_TRUE(store.mark_running(1));
    store.set_stage(1, Stage::kCharacterize);
    PipelineResult result = sample_result(1);
    store.finish(1, std::move(result));
    EXPECT_TRUE(store.mark_cancelled(2));
    EXPECT_EQ(store.get(1)->state, JobState::kDone);
    EXPECT_EQ(store.get(2)->state, JobState::kCancelled);
    EXPECT_EQ(store.size(), 2u);
  }
  server::ResultStore reopened(std::make_unique<DiskStorage>(dir.path));
  EXPECT_EQ(reopened.max_seen_id(), 2u);
  EXPECT_EQ(reopened.get(1)->state, JobState::kDone);
  EXPECT_EQ(reopened.get(1)->result.status(), "enforced");
  EXPECT_EQ(reopened.get(2)->state, JobState::kCancelled);
  EXPECT_TRUE(reopened.get(2)->result.cancelled);
  const auto summaries = reopened.summaries();
  EXPECT_EQ(test::count_state(summaries, JobState::kDone), 1u);
  EXPECT_EQ(test::count_state(summaries, JobState::kCancelled), 1u);
}

TEST(ResultStoreDurable, SummariesMergeLiveAndStoredAscending) {
  TempDir dir("merge");
  server::ResultStore store(std::make_unique<DiskStorage>(dir.path));
  store.add(1, "done");
  store.add(2, "still-queued");
  store.add(3, "also-done");
  store.finish(1, sample_result(1));
  store.finish(3, sample_result(3));
  const auto summaries = store.summaries();
  ASSERT_EQ(summaries.size(), 3u);
  EXPECT_EQ(summaries[0].id, 1u);
  EXPECT_EQ(summaries[0].state, JobState::kDone);
  EXPECT_EQ(summaries[1].id, 2u);
  EXPECT_EQ(summaries[1].state, JobState::kQueued);
  EXPECT_EQ(summaries[2].id, 3u);
}

}  // namespace
}  // namespace phes
