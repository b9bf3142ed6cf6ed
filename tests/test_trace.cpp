// Job-trace coverage: JobTrace JSON byte-stable round-trips, the
// TraceStore ring + NDJSON file sink, build_job_trace's mapping of
// pipeline/solver counters onto spans, and the `trace` protocol op end
// to end against an in-process JobServer running a real job through
// every pipeline stage.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "phes/pipeline/job.hpp"
#include "phes/server/protocol.hpp"
#include "phes/server/server.hpp"
#include "phes/server/trace.hpp"
#include "phes/util/json.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using server::JobTrace;
using server::StageSpan;
using server::TraceStore;

JobTrace sample_trace(std::uint64_t id) {
  JobTrace t;
  t.id = id;
  t.name = "model \"quoted\" \\ path";
  t.status = "enforced";
  t.submitted_unix = 1754650000.123456;
  t.started_unix = 1754650000.234567;
  t.queue_wait_ms = 111.111;
  t.total_ms = 1234.5;
  StageSpan span;
  span.stage = "characterize";
  span.start_unix = 1754650000.25;
  span.duration_ms = 800.25;
  span.matvecs = 1234;
  span.factorizations = 7;
  t.spans.push_back(span);
  span = StageSpan{};
  span.stage = "verify";
  span.start_unix = 1754650001.05;
  span.duration_ms = 400.0;
  t.spans.push_back(span);
  t.solves = 9;
  t.dense_solves = 4;
  t.factorizations = 7;
  return t;
}

/// Replace every `from` in `json` with `to`.
void replace_all(std::string& json, const std::string& from,
                 const std::string& to) {
  for (std::size_t at = json.find(from); at != std::string::npos;
       at = json.find(from, at + to.size())) {
    json.replace(at, from.size(), to);
  }
}

/// `json` (of sample_trace) as the builds with a per-job result memo
/// wrote it: their "solves" also counted 3 memo answers, written as
/// "reuses", which ran no eigensolve.
std::string memo_trace_json(std::string json) {
  replace_all(json, "\"session\": {\"solves\": 9",
              "\"session\": {\"solves\": 12");
  replace_all(json, ", \"factorizations\": 7}}",
              ", \"reuses\": 3, \"factorizations\": 7}}");
  return json;
}

/// `json` as an older memo build wrote it: spans and the session block
/// also carry cache and warm-start counters, and the reuses are called
/// "dense_reuses".
std::string older_trace_json(std::string json) {
  json = memo_trace_json(std::move(json));
  replace_all(json, "\"factorizations\": 7}}",
              "\"factorizations\": 7, \"cache_hits\": 11, "
              "\"cache_misses\": 6}}");
  replace_all(json, "\"factorizations\": 7}",
              "\"factorizations\": 7, \"cache_hits\": 3, "
              "\"cache_misses\": 4}");
  replace_all(json, "\"factorizations\": 0}",
              "\"factorizations\": 0, \"cache_hits\": 0, "
              "\"cache_misses\": 0}");
  replace_all(json, ", \"dense_solves\": ",
              ", \"warm_solves\": 5, \"dense_solves\": ");
  replace_all(json, "\"reuses\": ", "\"dense_reuses\": ");
  return json;
}

TEST(JobTraceJson, RoundTripIsByteIdentical) {
  const JobTrace original = sample_trace(41);
  const std::string json = original.to_json();
  // NDJSON: one line, no raw newlines even with hostile names.
  EXPECT_EQ(json.find('\n'), std::string::npos);

  // A trace an older build wrote parses to the same trace: its memo
  // answers leave the solves.
  EXPECT_EQ(json.find("reuses"), std::string::npos) << json;
  const std::string memo = memo_trace_json(json);
  ASSERT_NE(memo.find("\"solves\": 12, \"dense_solves\": 4, \"reuses\": 3"),
            std::string::npos)
      << memo;
  const std::string older = older_trace_json(json);
  ASSERT_NE(older.find("\"dense_reuses\": 3"), std::string::npos) << older;
  ASSERT_NE(older.find("\"cache_misses\": 4"), std::string::npos) << older;
  for (const std::string& input : {json, memo, older}) {
    const JobTrace parsed =
        JobTrace::from_json(util::JsonValue::parse(input));
    EXPECT_EQ(parsed.id, original.id);
    EXPECT_EQ(parsed.name, original.name);
    EXPECT_EQ(parsed.status, original.status);
    ASSERT_EQ(parsed.spans.size(), original.spans.size());
    EXPECT_EQ(parsed.spans[0].stage, "characterize");
    EXPECT_EQ(parsed.spans[0].matvecs, 1234u);
    EXPECT_EQ(parsed.spans[1].stage, "verify");
    EXPECT_EQ(parsed.solves, 9u);
    EXPECT_EQ(parsed.dense_solves, 4u);
    // The contract from trace.hpp: parse -> rebuild -> serialize is
    // byte-identical (fixed %.6f timestamp formatting at build time).
    EXPECT_EQ(parsed.to_json(), json) << input;
  }
}

TEST(JobTraceJson, RecordWithoutDenseSolvesReadsZero) {
  // Traces written before the dense route existed carry no
  // "dense_solves" key, and those before the dense-result memo no reuse
  // count: every solve ran.
  std::string json = sample_trace(42).to_json();
  const std::string key = ", \"dense_solves\": 4";
  const std::size_t at = json.find(key);
  ASSERT_NE(at, std::string::npos) << json;
  json.erase(at, key.size());
  const JobTrace parsed = JobTrace::from_json(util::JsonValue::parse(json));
  EXPECT_EQ(parsed.dense_solves, 0u);
  EXPECT_EQ(parsed.solves, 9u);
}

TEST(TraceStore, RingEvictsOldestAndFindsNewest) {
  TraceStore store(3);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    store.record(sample_trace(id));
  }
  EXPECT_EQ(store.size(), 3u);
  EXPECT_FALSE(store.get(1).has_value());  // evicted
  EXPECT_FALSE(store.get(2).has_value());
  ASSERT_TRUE(store.get(3).has_value());
  ASSERT_TRUE(store.get(5).has_value());
  EXPECT_EQ(store.get(5)->id, 5u);
}

TEST(TraceStore, NdjsonFileSinkRoundTrips) {
  test::TempDir dir("trace_store");
  std::filesystem::create_directories(dir.path);
  const std::string path = dir.path + "/traces.ndjson";
  {
    TraceStore store(8, path);
    store.record(sample_trace(1));
    store.record(sample_trace(2));
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<JobTrace> parsed;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto v = util::JsonValue::parse(line);
    EXPECT_EQ(v.string_or("event", ""), "job_trace");
    parsed.push_back(JobTrace::from_json(v));
  }
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].id, 1u);
  EXPECT_EQ(parsed[1].id, 2u);
  EXPECT_EQ(parsed[1].to_json(), sample_trace(2).to_json());
}

TEST(TraceStore, UnwritableFileIsNonFatal) {
  TraceStore store(4, "/nonexistent_dir_for_phes_test/traces.ndjson");
  store.record(sample_trace(1));  // ring still works
  EXPECT_TRUE(store.get(1).has_value());
}

TEST(BuildJobTrace, MapsSolverCountersOntoStages) {
  pipeline::PipelineResult result;
  result.id = 7;
  result.name = "m";
  result.ok = true;
  result.total_seconds = 2.0;
  result.stage_timings = {
      {pipeline::Stage::kLoad, 0.1, 0.0},
      {pipeline::Stage::kCharacterize, 0.8, 0.1},
      {pipeline::Stage::kEnforce, 0.3, 0.9},
      {pipeline::Stage::kVerify, 0.5, 1.2},
  };
  result.initial_report.solver.total_matvecs = 100;
  result.initial_report.solver.factorizations = 3;
  result.enforcement.total_matvecs = 250;
  result.enforcement.factorizations = 5;
  result.final_report.solver.total_matvecs = 40;
  result.final_report.solver.factorizations = 1;
  result.session.solves = 8;
  result.session.factorizations = 9;
  result.session.dense_solves = 2;

  const JobTrace trace =
      server::build_job_trace(result, 1000.0, 1000.5, 500.0);
  EXPECT_EQ(trace.id, 7u);
  EXPECT_DOUBLE_EQ(trace.queue_wait_ms, 500.0);
  ASSERT_EQ(trace.spans.size(), 4u);
  EXPECT_EQ(trace.spans[0].stage, "load");
  EXPECT_EQ(trace.spans[0].matvecs, 0u);
  EXPECT_EQ(trace.spans[1].stage, "characterize");
  EXPECT_EQ(trace.spans[1].matvecs, 100u);
  EXPECT_EQ(trace.spans[1].factorizations, 3u);
  // Enforce: the rounds' aggregate.
  EXPECT_EQ(trace.spans[2].stage, "enforce");
  EXPECT_EQ(trace.spans[2].matvecs, 250u);
  EXPECT_EQ(trace.spans[2].factorizations, 5u);
  EXPECT_EQ(trace.spans[3].stage, "verify");
  EXPECT_EQ(trace.spans[3].matvecs, 40u);
  EXPECT_EQ(trace.spans[3].factorizations, 1u);
  // Span start = job start + the stage's offset into the run.
  EXPECT_NEAR(trace.spans[1].start_unix, 1000.6, 1e-6);
  EXPECT_EQ(trace.solves, 8u);
  EXPECT_EQ(trace.dense_solves, 2u);
  EXPECT_EQ(trace.factorizations, 9u);
}

// ---- trace op integration ---------------------------------------------

TEST(TraceOp, FullPipelineJobYieldsOrderedSpans) {
  server::ServerOptions options;
  options.workers = 1;
  options.solver_threads = 1;
  options.queue_capacity = 4;
  server::JobServer jobs(options);

  pipeline::PipelineJob job;
  job.input_path = test::fixture_path("golden.s2p");
  job.options.fit.num_poles = 12;
  const std::uint64_t id = jobs.submit(job);
  ASSERT_TRUE(jobs.wait(id, 120.0));

  const auto outcome = server::handle_request(
      jobs, "{\"op\": \"trace\", \"id\": " + std::to_string(id) + "}");
  const auto response = util::JsonValue::parse(outcome.response);
  ASSERT_TRUE(response.bool_or("ok", false)) << outcome.response;
  const util::JsonValue* trace_json = response.find("trace");
  ASSERT_NE(trace_json, nullptr);
  const JobTrace trace = JobTrace::from_json(*trace_json);

  EXPECT_EQ(trace.id, id);
  EXPECT_GT(trace.total_ms, 0.0);
  EXPECT_GE(trace.queue_wait_ms, 0.0);
  EXPECT_GT(trace.started_unix, 0.0);
  EXPECT_GE(trace.started_unix, trace.submitted_unix);

  // Every stage executed, in pipeline order, each with a measured
  // duration and a start inside the job's window.
  const std::vector<std::string> expected = {
      "load", "fit", "realize", "characterize", "enforce", "verify"};
  ASSERT_EQ(trace.spans.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(trace.spans[i].stage, expected[i]);
    EXPECT_GT(trace.spans[i].duration_ms, 0.0) << expected[i];
    EXPECT_GE(trace.spans[i].start_unix, trace.started_unix);
    if (i > 0) {
      EXPECT_GE(trace.spans[i].start_unix, trace.spans[i - 1].start_unix);
    }
  }
  // golden.s2p fits to a 2-port, order-24 model: below kDenseMaxOrder,
  // so every eigensolve of the job took the dense route — no shifts,
  // no factorizations.  It is non-passive, so the job solved in
  // characterize and in every enforcement round after round 0, which
  // reads characterize's report; verify samples the last round's.
  const auto result = jobs.result(id);
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->enforcement_run);
  ASSERT_LE(result->order, core::kDenseMaxOrder);
  EXPECT_EQ(trace.solves, result->enforcement.characterizations);
  EXPECT_EQ(trace.dense_solves, trace.solves);
  EXPECT_EQ(trace.factorizations, 0u);
  for (const StageSpan& span : trace.spans) {
    EXPECT_EQ(span.matvecs, 0u) << span.stage;
    EXPECT_EQ(span.factorizations, 0u) << span.stage;
  }

  // The aggregate layer saw the same job: per-stage histograms and the
  // job counter are registry-backed.
  const auto snapshot = jobs.metrics_snapshot();
  EXPECT_EQ(snapshot.counters.at("phes_jobs_done_total"), 1u);
  EXPECT_EQ(snapshot.histograms.at("phes_stage_seconds_verify").count, 1u);
}

TEST(TraceOp, ErrorsDistinguishUnknownUnfinishedAndEvicted) {
  server::ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 4;
  options.trace_capacity = 1;
  server::JobServer jobs(options);

  // Unknown id.
  auto outcome = server::handle_request(jobs, "{\"op\": \"trace\", \"id\": 99}");
  EXPECT_NE(outcome.response.find("unknown job id"), std::string::npos);

  // Missing id.
  outcome = server::handle_request(jobs, "{\"op\": \"trace\"}");
  EXPECT_NE(outcome.response.find("trace: missing"), std::string::npos)
      << outcome.response;

  // Two finished jobs with a 1-slot ring: the older trace is evicted
  // and the error says so (instead of "unknown").
  pipeline::PipelineJob job;
  job.input_path = test::fixture_path("golden.s2p");
  job.options.fit.num_poles = 12;
  job.options.stop_after = pipeline::Stage::kFit;  // keep it fast
  const std::uint64_t first = jobs.submit(job);
  ASSERT_TRUE(jobs.wait(first, 120.0));
  const std::uint64_t second = jobs.submit(job);
  ASSERT_TRUE(jobs.wait(second, 120.0));

  outcome = server::handle_request(
      jobs, "{\"op\": \"trace\", \"id\": " + std::to_string(first) + "}");
  EXPECT_NE(outcome.response.find("no trace retained"), std::string::npos)
      << outcome.response;
  outcome = server::handle_request(
      jobs, "{\"op\": \"trace\", \"id\": " + std::to_string(second) + "}");
  EXPECT_TRUE(util::JsonValue::parse(outcome.response).bool_or("ok", false))
      << outcome.response;
}

}  // namespace
}  // namespace phes
