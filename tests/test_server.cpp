// Server integration tests: an in-process JobServer fronted by the real
// AF_UNIX NDJSON transport.  Jobs submitted over the socket must
// produce results bit-identical to one-shot run_pipeline on the same
// inputs — with and without cross-job session reuse — and the protocol
// surface (submit/status/result/cancel/metrics/shutdown, error paths) is
// exercised end to end.  Also holds the JobQueue/ResultStore unit
// coverage the server relies on.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "phes/pipeline/job.hpp"
#include "phes/pipeline/report.hpp"
#include "phes/server/job_queue.hpp"
#include "phes/server/protocol.hpp"
#include "phes/server/result_store.hpp"
#include "phes/server/server.hpp"
#include "phes/server/socket.hpp"
#include "phes/server/transport.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using pipeline::PipelineJob;
using pipeline::PipelineResult;
using pipeline::Stage;
using server::JobServer;
using server::JobState;
using server::JsonValue;
using server::ServerOptions;

std::string unique_socket_path(const char* tag) {
  return "/tmp/phes_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// Deterministic options for the bitwise comparisons: one solver
/// thread (the dynamic scheduler is then fully deterministic) and a
/// fixed pole budget.
pipeline::JobOptions deterministic_options() {
  pipeline::JobOptions options;
  options.fit.num_poles = 12;
  options.solver.threads = 1;
  return options;
}

ServerOptions deterministic_server_options() {
  ServerOptions options;
  options.workers = 2;
  options.solver_threads = 1;
  options.queue_capacity = 8;
  options.job_defaults = deterministic_options();
  return options;
}

/// Field-by-field bitwise comparison of the numerical products of two
/// pipeline runs (ids and timings legitimately differ; session
/// counters are asserted separately).
void expect_bit_identical(const PipelineResult& a, const PipelineResult& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.status(), b.status());
  EXPECT_EQ(a.sample_count, b.sample_count);
  EXPECT_EQ(a.ports, b.ports);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.fit_rms, b.fit_rms);  // exact: same fit, bit for bit
  EXPECT_EQ(a.fit_iterations, b.fit_iterations);

  ASSERT_EQ(a.initial_report.crossings.size(),
            b.initial_report.crossings.size());
  for (std::size_t i = 0; i < a.initial_report.crossings.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.initial_report.crossings[i],
                     b.initial_report.crossings[i]);
  }
  ASSERT_EQ(a.initial_report.bands.size(), b.initial_report.bands.size());
  for (std::size_t i = 0; i < a.initial_report.bands.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.initial_report.bands[i].omega_peak,
                     b.initial_report.bands[i].omega_peak);
    EXPECT_DOUBLE_EQ(a.initial_report.bands[i].sigma_peak,
                     b.initial_report.bands[i].sigma_peak);
  }
  EXPECT_EQ(a.initial_report.solver.total_matvecs,
            b.initial_report.solver.total_matvecs);
  EXPECT_EQ(a.initial_report.solver.shifts_processed,
            b.initial_report.solver.shifts_processed);

  EXPECT_EQ(a.enforcement_run, b.enforcement_run);
  EXPECT_EQ(a.enforcement.iterations, b.enforcement.iterations);
  EXPECT_EQ(a.enforcement.relative_model_change,
            b.enforcement.relative_model_change);

  EXPECT_EQ(a.certified_passive, b.certified_passive);
  ASSERT_EQ(a.final_report.crossings.size(), b.final_report.crossings.size());
  for (std::size_t i = 0; i < a.final_report.crossings.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.final_report.crossings[i],
                     b.final_report.crossings[i]);
  }
  EXPECT_EQ(a.final_report.bands.size(), b.final_report.bands.size());
}

// ---- JobQueue unit coverage -------------------------------------------

TEST(JobQueue, FifoPushPopAndStats) {
  server::JobQueue queue(4);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    EXPECT_TRUE(queue.push({id, PipelineJob{}}));
  }
  EXPECT_EQ(queue.size(), 3u);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const auto item = queue.pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(item->id, id);  // FIFO
  }
  const auto stats = queue.stats();
  EXPECT_EQ(stats.pushed, 3u);
  EXPECT_EQ(stats.popped, 3u);
  EXPECT_EQ(stats.peak_size, 3u);
  EXPECT_EQ(stats.push_waits, 0u);
}

TEST(JobQueue, RemoveDrainAndClose) {
  server::JobQueue queue(8);
  for (std::uint64_t id = 1; id <= 4; ++id) {
    EXPECT_TRUE(queue.push({id, PipelineJob{}}));
  }
  EXPECT_TRUE(queue.remove(2));
  EXPECT_FALSE(queue.remove(2));  // already gone
  EXPECT_FALSE(queue.remove(99));

  const auto drained = queue.drain();
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0].id, 1u);
  EXPECT_EQ(drained[1].id, 3u);
  EXPECT_EQ(drained[2].id, 4u);
  EXPECT_EQ(queue.size(), 0u);

  queue.close();
  EXPECT_TRUE(queue.closed());
  EXPECT_FALSE(queue.push({5, PipelineJob{}}));
  EXPECT_FALSE(queue.pop().has_value());
}

// ---- ResultStore unit coverage ----------------------------------------

TEST(ResultStore, LifecycleAndStates) {
  server::ResultStore store(16);
  store.add(1, "a");
  store.add(2, "b");
  EXPECT_TRUE(store.mark_running(1));
  EXPECT_FALSE(store.mark_running(1));  // already running
  store.set_stage(1, Stage::kFit);

  auto record = store.get(1);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, JobState::kRunning);
  EXPECT_TRUE(record->stage_known);
  EXPECT_EQ(record->stage, Stage::kFit);

  PipelineResult result;
  result.ok = true;
  store.finish(1, result);
  EXPECT_EQ(store.get(1)->state, JobState::kDone);

  EXPECT_TRUE(store.mark_cancelled(2));
  EXPECT_FALSE(store.mark_cancelled(2));  // terminal already
  record = store.get(2);
  EXPECT_EQ(record->state, JobState::kCancelled);
  EXPECT_TRUE(record->result.cancelled);

  const auto summaries = store.summaries();
  EXPECT_EQ(test::count_state(summaries, JobState::kDone), 1u);
  EXPECT_EQ(test::count_state(summaries, JobState::kCancelled), 1u);
}

TEST(ResultStore, EvictsOldestFinishedPastRetentionCap) {
  server::ResultStore store(2);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    store.add(id, "job");
    if (id <= 4) {
      PipelineResult result;
      result.ok = true;
      store.finish(id, result);
    }
  }
  // 4 finished with cap 2: ids 1 and 2 evicted; the queued id 5 stays.
  EXPECT_FALSE(store.get(1).has_value());
  EXPECT_FALSE(store.get(2).has_value());
  EXPECT_TRUE(store.get(3).has_value());
  EXPECT_TRUE(store.get(4).has_value());
  EXPECT_TRUE(store.get(5).has_value());
}

// ---- Protocol (no transport) ------------------------------------------

TEST(Protocol, JsonParserRoundTrips) {
  const auto v = JsonValue::parse(
      R"({"op": "submit", "id": 7, "flag": true, "x": -1.5e2,)"
      R"( "list": [1, "two", null], "nested": {"k": "v\n\"q\""}})");
  EXPECT_EQ(v.string_or("op", ""), "submit");
  EXPECT_EQ(v.uint_or("id", 0), 7u);
  EXPECT_TRUE(v.bool_or("flag", false));
  EXPECT_DOUBLE_EQ(v.number_or("x", 0.0), -150.0);
  ASSERT_NE(v.find("list"), nullptr);
  EXPECT_EQ(v.find("list")->items().size(), 3u);
  EXPECT_TRUE(v.find("list")->items()[2].is_null());
  ASSERT_NE(v.find("nested"), nullptr);
  EXPECT_EQ(v.find("nested")->string_or("k", ""), "v\n\"q\"");

  EXPECT_THROW((void)JsonValue::parse("{\"a\": }"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse(""), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("{\"a\": 1e}"), std::runtime_error);

  // A hostile deeply-nested line must be an error, not a stack
  // overflow (the parser runs on server connection threads).
  const std::string bomb(100000, '[');
  EXPECT_THROW((void)JsonValue::parse(bomb), std::runtime_error);
  // Protocol-depth nesting still parses.
  EXPECT_NO_THROW((void)JsonValue::parse(
      "{\"a\": {\"b\": {\"c\": [[[1]]]}}}"));
}

TEST(Protocol, MalformedAndUnknownRequests) {
  JobServer jobs(deterministic_server_options());
  auto outcome = server::handle_request(jobs, "not json at all");
  EXPECT_NE(outcome.response.find("\"ok\": false"), std::string::npos);
  outcome = server::handle_request(jobs, "{\"op\": \"frobnicate\"}");
  EXPECT_NE(outcome.response.find("unknown op"), std::string::npos);
  outcome = server::handle_request(jobs, "{}");
  EXPECT_NE(outcome.response.find("missing \\\"op\\\""), std::string::npos);
  outcome = server::handle_request(jobs, "{\"op\": \"submit\"}");
  EXPECT_NE(outcome.response.find("missing \\\"path\\\""),
            std::string::npos);
  outcome = server::handle_request(jobs, "{\"op\": \"result\"}");
  EXPECT_NE(outcome.response.find("missing \\\"id\\\""), std::string::npos);
  outcome = server::handle_request(jobs, "{\"op\": \"status\", \"id\": 99}");
  EXPECT_NE(outcome.response.find("unknown job id"), std::string::npos);
  // An id past the uint64 range is a request error, not a cast.
  outcome = server::handle_request(jobs, "{\"op\":\"result\",\"id\":1e30}");
  EXPECT_NE(outcome.response.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(outcome.response.find("not a non-negative integer"),
            std::string::npos);
  // The counters are served by `metrics` alone.
  outcome = server::handle_request(jobs, "{\"op\": \"stats\"}");
  EXPECT_NE(outcome.response.find("unknown op 'stats'"), std::string::npos);
  outcome = server::handle_request(jobs, "{\"op\": \"ping\"}");
  EXPECT_NE(outcome.response.find("\"ok\": true"), std::string::npos);
  EXPECT_FALSE(outcome.shutdown_requested);
  outcome = server::handle_request(
      jobs, "{\"op\": \"shutdown\", \"drain\": false}");
  EXPECT_TRUE(outcome.shutdown_requested);
  EXPECT_FALSE(outcome.drain);
  jobs.shutdown(false);
}

TEST(Protocol, RemovedOptionsAreIgnored) {
  // Older clients could send "kernel": "reference" or "warm_start":
  // false.  The solver has one kernel path and no warm start, so both
  // keys are unknown options like any other: the job must run as if
  // they were absent.
  JobServer jobs(deterministic_server_options());
  const std::string path =
      server::json_quote(test::fixture_path("golden.s2p"));
  std::vector<std::uint64_t> ids;
  for (const char* options :
       {"{\"poles\": 12}", "{\"poles\": 12, \"kernel\": \"reference\"}",
        "{\"poles\": 12, \"warm_start\": false}"}) {
    const auto outcome = server::handle_request(
        jobs, "{\"op\": \"submit\", \"path\": " + path +
                  ", \"options\": " + options + "}");
    const auto json = JsonValue::parse(outcome.response);
    ASSERT_TRUE(json.bool_or("ok", false)) << outcome.response;
    ids.push_back(json.uint_or("id", 0));
    ASSERT_TRUE(jobs.wait(ids.back(), 300.0));
  }
  const auto plain = jobs.result(ids[0]);
  ASSERT_TRUE(plain && plain->ok) << (plain ? plain->error : "missing");
  for (std::size_t i = 1; i < ids.size(); ++i) {
    const auto legacy = jobs.result(ids[i]);
    ASSERT_TRUE(legacy && legacy->ok) << (legacy ? legacy->error : "missing");
    EXPECT_EQ(pipeline::result_signature(*legacy),
              pipeline::result_signature(*plain))
        << "submit " << i;
  }
  jobs.shutdown(true);
}

TEST(Protocol, OverlongFitFailsAtFitInsteadOfPinningAWorker) {
  // A fit cannot be cancelled mid-stage, so an unbounded sweep count
  // would hold a worker for as long as it asks.  The fit rejects it at
  // the input and the job ends failed@fit at once.
  JobServer jobs(deterministic_server_options());
  const auto outcome = server::handle_request(
      jobs, "{\"op\": \"submit\", \"path\": " +
                server::json_quote(test::fixture_path("golden.s2p")) +
                ", \"options\": {\"vf_iters\": 1000000000}}");
  const auto json = JsonValue::parse(outcome.response);
  ASSERT_TRUE(json.bool_or("ok", false)) << outcome.response;
  const std::uint64_t id = json.uint_or("id", 0);
  ASSERT_TRUE(jobs.wait(id, 60.0));
  const auto record = jobs.status(id);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, JobState::kFailed);
  EXPECT_EQ(record->result.status(), "failed@fit");
  EXPECT_NE(record->result.error.find("iterations exceed the limit"),
            std::string::npos)
      << record->result.error;
  jobs.shutdown(true);
}

// ---- End-to-end over the socket ---------------------------------------

TEST(ServerIntegration, SocketJobsBitMatchOneShotPipeline) {
  // One-shot reference on the committed golden fixture.
  PipelineJob reference;
  reference.input_path = test::fixture_path("golden.s2p");
  reference.options = deterministic_options();
  const PipelineResult oneshot = run_pipeline(reference);
  ASSERT_TRUE(oneshot.ok) << oneshot.error;
  ASSERT_EQ(oneshot.status(), "enforced");

  JobServer jobs(deterministic_server_options());
  const std::string socket_path = unique_socket_path("bitmatch");
  server::TransportServer transport(
      jobs, std::make_unique<server::UnixTransport>(socket_path));
  transport.start();

  // Two successive submissions of the same file over the socket; each
  // job runs its own eigensolve.
  server::Client client(socket_path);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 2; ++i) {
    const std::string response = client.request(
        "{\"op\": \"submit\", \"path\": " +
        server::json_quote(reference.input_path) + "}");
    const auto json = JsonValue::parse(response);
    ASSERT_TRUE(json.bool_or("ok", false)) << response;
    const std::uint64_t id = json.uint_or("id", 0);
    ASSERT_GT(id, 0u);
    ids.push_back(id);
    ASSERT_TRUE(jobs.wait(id, 300.0));
  }

  // Bitwise comparison against the one-shot run, via the in-process
  // result store (JSON would round to %.9g).
  for (const std::uint64_t id : ids) {
    const auto result = jobs.result(id);
    ASSERT_TRUE(result.has_value());
    expect_bit_identical(*result, oneshot);
  }
  // The socket-facing result op returns the machine-readable record.
  const std::string result_line = client.request(
      "{\"op\": \"result\", \"id\": " + std::to_string(ids[1]) + "}");
  EXPECT_NE(result_line.find("\"state\": \"done\""), std::string::npos);
  EXPECT_NE(result_line.find("\"status\": \"enforced\""), std::string::npos);
  EXPECT_NE(result_line.find("\"certified_passive\": true"),
            std::string::npos);
  EXPECT_EQ(result_line.find('\n'), std::string::npos) << "NDJSON: one line";

  // status (single + all) and metrics over the same connection.
  const std::string status_line = client.request(
      "{\"op\": \"status\", \"id\": " + std::to_string(ids[0]) + "}");
  EXPECT_NE(status_line.find("\"state\": \"done\""), std::string::npos);
  const std::string all_line = client.request("{\"op\": \"status\"}");
  EXPECT_NE(all_line.find("\"jobs\": ["), std::string::npos);
  const std::string metrics_line = client.request("{\"op\": \"metrics\"}");
  EXPECT_NE(metrics_line.find("\"phes_jobs_done_total\": 2"),
            std::string::npos)
      << metrics_line;

  // Shutdown over the wire: ack first, then the owner tears down.
  const std::string ack = client.request("{\"op\": \"shutdown\"}");
  EXPECT_NE(ack.find("\"ok\": true"), std::string::npos);
  EXPECT_TRUE(transport.wait_shutdown());
  jobs.shutdown(true);
  transport.stop();
}

TEST(ServerIntegration, RepeatCharacterizationRunsItsOwnEigensolve) {
  // A passive model, characterize-only, submitted twice to one server:
  // nothing is shared across jobs, so each job runs its own (dense)
  // eigensolve, with the same crossings bit for bit.  golden.s4p fits
  // below core::kDenseMaxOrder.
  ServerOptions options = deterministic_server_options();
  options.workers = 1;
  JobServer jobs(options);

  PipelineJob job;
  job.input_path = test::fixture_path("golden.s4p");
  job.options = deterministic_options();
  job.options.stop_after = Stage::kCharacterize;

  const std::uint64_t first = jobs.submit(job);
  ASSERT_TRUE(jobs.wait(first, 300.0));
  const std::uint64_t second = jobs.submit(job);
  ASSERT_TRUE(jobs.wait(second, 300.0));

  const auto r1 = jobs.result(first);
  const auto r2 = jobs.result(second);
  ASSERT_TRUE(r1 && r1->ok) << (r1 ? r1->error : "missing");
  ASSERT_TRUE(r2 && r2->ok) << (r2 ? r2->error : "missing");

  for (const auto& r : {*r1, *r2}) {
    ASSERT_LE(r.order, core::kDenseMaxOrder);
    EXPECT_TRUE(r.initial_report.passive);
    EXPECT_EQ(r.session.solves, 1u);
    EXPECT_EQ(r.session.dense_solves, 1u);
    EXPECT_EQ(r.session.factorizations, 0u);
    EXPECT_TRUE(r.initial_report.solver.dense);
  }
  EXPECT_EQ(r1->initial_report.crossings, r2->initial_report.crossings);
  EXPECT_EQ(r1->initial_report.solver.eigenvalues,
            r2->initial_report.solver.eigenvalues);
  jobs.shutdown(true);
}

TEST(ServerIntegration, FailedJobIsReportedNotFatal) {
  JobServer jobs(deterministic_server_options());
  PipelineJob bad;
  bad.input_path = "/nonexistent/missing.s2p";
  const std::uint64_t id = jobs.submit(bad);
  ASSERT_TRUE(jobs.wait(id, 60.0));
  const auto record = jobs.status(id);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, JobState::kFailed);
  EXPECT_EQ(record->result.failed_stage, Stage::kLoad);

  // The server keeps serving after a failure.
  PipelineJob good;
  good.input_path = test::fixture_path("golden.s2p");
  good.options.stop_after = Stage::kFit;
  const std::uint64_t next = jobs.submit(good);
  ASSERT_TRUE(jobs.wait(next, 300.0));
  EXPECT_EQ(jobs.status(next)->state, JobState::kDone);
  jobs.shutdown(true);
}

TEST(ServerIntegration, StaleSocketFileIsReplacedLiveServerIsNot) {
  const std::string path = unique_socket_path("stale");
  {
    // Plant a stale socket file (no listener behind it).
    JobServer jobs(deterministic_server_options());
    server::TransportServer transport(
        jobs, std::make_unique<server::UnixTransport>(path));
    transport.start();
    // Leak the file on purpose: stop() unlinks, so instead simulate a
    // crash by writing a plain file after teardown.
    transport.stop();
    jobs.shutdown(true);
  }
  { std::ofstream stale(path); stale << ""; }

  JobServer jobs(deterministic_server_options());
  server::TransportServer transport(
      jobs, std::make_unique<server::UnixTransport>(path));
  EXPECT_NO_THROW(transport.start());  // stale file replaced

  // A second server on the same live path must be refused.
  JobServer other(deterministic_server_options());
  server::TransportServer duplicate(
      other, std::make_unique<server::UnixTransport>(path));
  EXPECT_THROW(duplicate.start(), std::runtime_error);

  transport.stop();
  jobs.shutdown(true);
  other.shutdown(true);
}

}  // namespace
}  // namespace phes
