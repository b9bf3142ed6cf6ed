// Event-loop stress: many concurrent TCP clients against one
// TransportServer — a single epoll thread multiplexing every
// connection, with the worker pool executing jobs underneath.  This
// suite runs under the ThreadSanitizer CI job: keep every scenario
// free of sleeps-as-synchronization.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "phes/io/touchstone.hpp"
#include "phes/macromodel/samples.hpp"
#include "phes/server/protocol.hpp"
#include "phes/server/server.hpp"
#include "phes/server/socket.hpp"
#include "phes/server/transport.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using server::Endpoint;
using server::JobServer;
using server::JsonValue;
using server::TcpTransport;
using server::TransportServer;

Endpoint tcp_endpoint(const TcpTransport& tcp, std::string token) {
  Endpoint endpoint = server::parse_endpoint(tcp.endpoint());
  endpoint.token = std::move(token);
  return endpoint;
}

TEST(TransportStress, SixteenConcurrentTcpClientsOnOneEventLoop) {
  constexpr std::size_t kClients = 16;
  constexpr std::size_t kJobsPerClient = 2;
  constexpr std::size_t kTotal = kClients * kJobsPerClient;

  server::ServerOptions options;
  options.workers = 4;
  options.solver_threads = 1;
  options.queue_capacity = 8;
  JobServer jobs(options);

  const std::string token = "stress-token";
  auto tcp_owned = std::make_unique<TcpTransport>("127.0.0.1", 0, token);
  TcpTransport* tcp = tcp_owned.get();
  TransportServer transport(jobs, std::move(tcp_owned));
  transport.start();
  const Endpoint endpoint = tcp_endpoint(*tcp, token);

  // Two distinct inline payloads, submitted as Touchstone text: the
  // whole job cycle — auth, inline submit, status polling — runs over
  // the single loop thread while 16 clients hammer it.
  const auto samples_a = test::non_passive_samples(7, 20);
  const auto samples_b = test::passive_samples(11, 20);
  std::string payload_a;
  std::string payload_b;
  {
    std::ostringstream os_a;
    io::save_touchstone(samples_a, os_a);
    payload_a = os_a.str();
    std::ostringstream os_b;
    io::save_touchstone(samples_b, os_b);
    payload_b = os_b.str();
  }

  std::vector<std::uint64_t> ids(kTotal, 0);
  std::atomic<std::size_t> request_errors{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        server::Client client(endpoint);
        for (std::size_t j = 0; j < kJobsPerClient; ++j) {
          const bool use_a = (c + j) % 2 == 0;
          const std::string request =
              "{\"op\": \"submit_inline\", \"ports\": 2, \"name\": " +
              server::json_quote(use_a ? "model-a" : "model-b") +
              ", \"options\": {\"poles\": 10, \"stop_after\": "
              "\"characterize\"}, \"payload\": " +
              server::json_quote(use_a ? payload_a : payload_b) + "}";
          const auto response = JsonValue::parse(client.request(request));
          if (!response.bool_or("ok", false)) {
            request_errors.fetch_add(1);
            return;
          }
          ids[c * kJobsPerClient + j] = response.uint_or("id", 0);
          // Interleave cheap ops so the loop multiplexes read+write
          // traffic across all 16 connections, not just submits.
          (void)client.request("{\"op\": \"metrics\"}");
          (void)client.request(
              "{\"op\": \"status\", \"id\": " +
              std::to_string(ids[c * kJobsPerClient + j]) + "}");
        }
      } catch (const std::exception&) {
        request_errors.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(request_errors.load(), 0u);

  // Every inline submission must reach a terminal done state, and jobs
  // over one model must agree bit for bit.
  for (const std::uint64_t id : ids) {
    ASSERT_GT(id, 0u);
    ASSERT_TRUE(jobs.wait(id, 300.0)) << "job " << id << " stuck";
  }
  const auto reference = jobs.result(ids[0]);
  ASSERT_TRUE(reference.has_value());
  std::size_t done = 0;
  for (const std::uint64_t id : ids) {
    const auto result = jobs.result(id);
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->ok) << result->error;
    ++done;
    if (result->name != reference->name) continue;
    ASSERT_EQ(result->initial_report.crossings.size(),
              reference->initial_report.crossings.size());
    for (std::size_t i = 0; i < result->initial_report.crossings.size();
         ++i) {
      EXPECT_DOUBLE_EQ(result->initial_report.crossings[i],
                       reference->initial_report.crossings[i]);
    }
  }
  EXPECT_EQ(done, kTotal);

  const auto metrics = jobs.metrics_snapshot();
  EXPECT_EQ(test::counter(metrics, "phes_transport_accepted_total"),
            kClients);
  EXPECT_EQ(test::counter(metrics, "phes_transport_auth_failures_total"), 0u);
  // Every client issued 3 ops per job on one multiplexed loop.
  EXPECT_GE(test::counter(metrics, "phes_transport_requests_total"),
            kTotal * 3u);
  EXPECT_EQ(test::counter(metrics, "phes_jobs_submitted_total"), kTotal);
  EXPECT_GT(test::counter(metrics, "phes_session_pool_hits_total"), 0u)
      << "inline TCP jobs must share pooled sessions too";

  transport.stop();
  jobs.shutdown(true);
}

TEST(TransportStress, AuthStormDoesNotWedgeTheLoop) {
  JobServer jobs(server::ServerOptions{});
  const std::string token = "storm-token";
  auto tcp_owned = std::make_unique<TcpTransport>("127.0.0.1", 0, token);
  TcpTransport* tcp = tcp_owned.get();
  TransportServer transport(jobs, std::move(tcp_owned));
  transport.start();

  // A burst of bad-token and good-token connections racing each other;
  // the loop must refuse the former, serve the latter, and leak
  // nothing.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kItersPerThread = 4;
  std::atomic<std::size_t> served{0};
  std::atomic<std::size_t> refused{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kItersPerThread; ++i) {
        const bool good = (t + i) % 2 == 0;
        Endpoint endpoint = tcp_endpoint(*tcp, good ? token : "wrong");
        try {
          server::Client client(endpoint);
          const std::string response =
              client.request("{\"op\": \"ping\"}");
          if (response.find("\"ok\": true") != std::string::npos) {
            served.fetch_add(1);
          }
        } catch (const std::exception&) {
          refused.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(served.load(), kThreads * kItersPerThread / 2);
  EXPECT_EQ(refused.load(), kThreads * kItersPerThread / 2);
  EXPECT_EQ(test::counter(jobs.metrics_snapshot(),
                          "phes_transport_auth_failures_total"),
            refused.load());

  transport.stop();
  jobs.shutdown(true);
}

}  // namespace
}  // namespace phes
