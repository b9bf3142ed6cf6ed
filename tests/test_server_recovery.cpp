// Restart recovery end to end: a JobServer with a --data-dir style
// durable store is fed over the real transports (AF_UNIX + TCP with
// auth), shut down, and rebuilt on the same directory.  The acceptance
// property: `result` responses fetched after the restart are
// byte-identical to the pre-restart ones, over both transports; ids
// keep counting above recovered records; `status`/`wait` answer for
// recovered jobs; and a job admitted but never finished surfaces as
// failed/lost after the "crash".

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "phes/pipeline/job.hpp"
#include "phes/server/protocol.hpp"
#include "phes/server/result_store.hpp"
#include "phes/server/server.hpp"
#include "phes/server/socket.hpp"
#include "phes/server/storage.hpp"
#include "phes/server/transport.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

namespace fs = std::filesystem;

using server::Endpoint;
using server::JobServer;
using server::JobState;
using server::JsonValue;
using server::ServerOptions;
using server::TcpTransport;
using server::TransportServer;
using server::UnixTransport;

using test::TempDir;

std::string unique_socket_path(const char* tag) {
  return "/tmp/phes_recovery_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

ServerOptions durable_options(const std::string& data_dir) {
  ServerOptions options;
  options.workers = 2;
  options.solver_threads = 1;
  options.queue_capacity = 8;
  options.job_defaults.fit.num_poles = 12;
  options.data_dir = data_dir;
  return options;
}

/// One serving generation: a JobServer on `data_dir` behind fresh
/// UNIX + TCP listeners.
struct Generation {
  explicit Generation(const std::string& data_dir, const char* tag)
      : jobs(durable_options(data_dir)) {
    const std::string socket_path = unique_socket_path(tag);
    std::vector<std::unique_ptr<server::Transport>> transports;
    transports.push_back(std::make_unique<UnixTransport>(socket_path));
    auto tcp = std::make_unique<TcpTransport>("127.0.0.1", 0, kToken);
    tcp_ptr = tcp.get();
    transports.push_back(std::move(tcp));
    transport = std::make_unique<TransportServer>(jobs,
                                                  std::move(transports));
    transport->start();
    unix_endpoint.kind = Endpoint::Kind::kUnix;
    unix_endpoint.path = socket_path;
    tcp_endpoint = server::parse_endpoint(tcp_ptr->endpoint());
    tcp_endpoint.token = kToken;
  }

  ~Generation() {
    transport->stop();
    jobs.shutdown(true);
  }

  static constexpr const char* kToken = "recovery-token";

  JobServer jobs;
  std::unique_ptr<TransportServer> transport;
  TcpTransport* tcp_ptr = nullptr;
  Endpoint unix_endpoint;
  Endpoint tcp_endpoint;
};

std::string result_request(std::uint64_t id) {
  return "{\"op\": \"result\", \"id\": " + std::to_string(id) + "}";
}

TEST(ServerRecovery, RestartServesByteIdenticalResultsOverBothTransports) {
  TempDir dir("restart");
  std::string done_unix, done_tcp, failed_unix, status_done;

  {
    Generation gen(dir.path, "gen1");
    server::Client unix_client(gen.unix_endpoint);
    server::Client tcp_client(gen.tcp_endpoint);

    // Job 1: a real enforced run submitted by path over UNIX.
    const std::string fixture = test::fixture_path("golden.s2p");
    const std::string submit =
        "{\"op\": \"submit\", \"path\": " + server::json_quote(fixture) +
        "}";
    const auto ack = JsonValue::parse(unix_client.request(submit));
    ASSERT_TRUE(ack.bool_or("ok", false));
    const std::uint64_t done_id = ack.uint_or("id", 0);
    ASSERT_EQ(done_id, 1u);

    // Job 2: an inline payload that fails in the load stage.
    const auto ack2 = JsonValue::parse(tcp_client.request(
        "{\"op\": \"submit_inline\", \"payload\": \"not touchstone\", "
        "\"ports\": 2, \"name\": \"bad\"}"));
    ASSERT_TRUE(ack2.bool_or("ok", false));
    const std::uint64_t failed_id = ack2.uint_or("id", 0);
    ASSERT_EQ(failed_id, 2u);

    ASSERT_TRUE(gen.jobs.wait(done_id, 300.0));
    ASSERT_TRUE(gen.jobs.wait(failed_id, 60.0));
    ASSERT_EQ(gen.jobs.status(done_id)->state, JobState::kDone);
    ASSERT_EQ(gen.jobs.status(failed_id)->state, JobState::kFailed);

    done_unix = unix_client.request(result_request(done_id));
    done_tcp = tcp_client.request(result_request(done_id));
    EXPECT_EQ(done_unix, done_tcp) << "transports agree pre-restart";
    failed_unix = unix_client.request(result_request(failed_id));
    status_done = unix_client.request("{\"op\": \"status\", \"id\": 1}");
    // Graceful shutdown at scope exit; the records are already spilled.
  }

  {
    Generation gen(dir.path, "gen2");
    const auto metrics = gen.jobs.metrics_snapshot();
    EXPECT_EQ(test::counter(metrics, "phes_store_recovered_total"), 2u);
    EXPECT_EQ(test::counter(metrics, "phes_store_lost_total"), 0u);

    server::Client unix_client(gen.unix_endpoint);
    server::Client tcp_client(gen.tcp_endpoint);

    // THE acceptance property: byte-identical result responses, both
    // transports.
    EXPECT_EQ(unix_client.request(result_request(1)), done_unix);
    EXPECT_EQ(tcp_client.request(result_request(1)), done_tcp);
    EXPECT_EQ(unix_client.request(result_request(2)), failed_unix);
    EXPECT_EQ(tcp_client.request(result_request(2)), failed_unix);

    // status survives too (stage + terminal status string recovered).
    EXPECT_EQ(unix_client.request("{\"op\": \"status\", \"id\": 1}"),
              status_done);
    // wait on a recovered job answers immediately.
    EXPECT_TRUE(gen.jobs.wait(1, 5.0));

    // New ids continue above the recovered ones.
    pipeline::PipelineJob job;
    job.name = "post-restart";
    job.samples = test::passive_samples(3);
    EXPECT_EQ(gen.jobs.submit(std::move(job)), 3u);
    ASSERT_TRUE(gen.jobs.wait(3, 300.0));
  }

  // Third generation: the post-restart job persisted as well.
  {
    Generation gen(dir.path, "gen3");
    EXPECT_EQ(test::counter(gen.jobs.metrics_snapshot(),
                            "phes_store_recovered_total"),
              3u);
    server::Client unix_client(gen.unix_endpoint);
    const auto json =
        JsonValue::parse(unix_client.request(result_request(3)));
    EXPECT_TRUE(json.bool_or("ok", false));
    EXPECT_EQ(json.string_or("state", ""), "done");
  }
}

TEST(ServerRecovery, JobsInFlightAtACrashComeBackAsLost) {
  TempDir dir("crash");
  {
    // Simulate the crash at the store layer: records admitted (and the
    // admission journaled) but the process dies before they finish —
    // ResultStore/JobServer never get to write a terminal record.
    server::ResultStore store(
        std::make_unique<server::DiskStorage>(dir.path));
    store.add(1, "was-running.s2p");
    store.add(2, "was-queued.s2p");
    EXPECT_TRUE(store.mark_running(1));
  }
  Generation gen(dir.path, "aftercrash");
  EXPECT_EQ(
      test::counter(gen.jobs.metrics_snapshot(), "phes_store_lost_total"),
      2u);
  server::Client client(gen.unix_endpoint);

  const auto status =
      JsonValue::parse(client.request("{\"op\": \"status\", \"id\": 1}"));
  ASSERT_TRUE(status.bool_or("ok", false));
  const JsonValue* job = status.find("job");
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->string_or("state", ""), "failed");

  const auto result =
      JsonValue::parse(client.request(result_request(2)));
  ASSERT_TRUE(result.bool_or("ok", false));
  const JsonValue* record = result.find("job");
  ASSERT_NE(record, nullptr);
  EXPECT_NE(record->string_or("error", "").find("lost in server restart"),
            std::string::npos);

  // The lost ids are burned: new submissions continue above them.
  pipeline::PipelineJob next;
  next.name = "fresh";
  next.samples = test::passive_samples(5);
  EXPECT_EQ(gen.jobs.submit(std::move(next)), 3u);
  ASSERT_TRUE(gen.jobs.wait(3, 300.0));
}

}  // namespace
}  // namespace phes
