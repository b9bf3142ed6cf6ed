// Transport-layer integration tests: the pluggable Transport
// abstraction (AF_UNIX + TCP with token auth) driven by the epoll
// event loop.  The core acceptance matrix: results must be bitwise
// identical across one-shot run_pipeline, UNIX submit-by-path, TCP
// submit-by-path, and TCP submit_inline (payload in the request).
// Also covers the auth failure paths and the protocol robustness
// fixes: oversized NDJSON lines answered with an error (connection
// survives), and frames split across many partial writes / epoll
// wakeups.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "phes/pipeline/job.hpp"
#include "phes/server/protocol.hpp"
#include "phes/server/server.hpp"
#include "phes/server/socket.hpp"
#include "phes/server/transport.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using pipeline::PipelineJob;
using pipeline::PipelineResult;
using server::Endpoint;
using server::JobServer;
using server::JsonValue;
using server::ServerOptions;
using server::TcpTransport;
using server::TransportServer;
using server::UnixTransport;

std::string unique_socket_path(const char* tag) {
  return "/tmp/phes_transport_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

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
/// pipeline runs (ids and timings legitimately differ).
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

std::string slurp_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

/// Submit over `client`, wait in-process, return the stored result.
PipelineResult submit_and_wait(JobServer& jobs, server::Client& client,
                               const std::string& request) {
  const std::string response = client.request(request);
  const auto json = JsonValue::parse(response);
  EXPECT_TRUE(json.bool_or("ok", false)) << response;
  const std::uint64_t id = json.uint_or("id", 0);
  EXPECT_GT(id, 0u) << response;
  EXPECT_TRUE(jobs.wait(id, 300.0)) << "job " << id << " stuck";
  const auto result = jobs.result(id);
  EXPECT_TRUE(result.has_value());
  return result.value_or(PipelineResult{});
}

// ---- The submission matrix --------------------------------------------

TEST(TransportMatrix, BitIdenticalAcrossAllFourSubmissionRoutes) {
  const std::string fixture = test::fixture_path("golden.s2p");

  // Route 1: one-shot run_pipeline, the ground truth.
  PipelineJob reference;
  reference.input_path = fixture;
  reference.options = deterministic_options();
  const PipelineResult oneshot = run_pipeline(reference);
  ASSERT_TRUE(oneshot.ok) << oneshot.error;
  ASSERT_EQ(oneshot.status(), "enforced");

  // One server, both listeners, one event loop.
  JobServer jobs(deterministic_server_options());
  const std::string socket_path = unique_socket_path("matrix");
  const std::string token = "matrix-secret-token";
  std::vector<std::unique_ptr<server::Transport>> transports;
  transports.push_back(std::make_unique<UnixTransport>(socket_path));
  auto tcp = std::make_unique<TcpTransport>("127.0.0.1", 0, token);
  TcpTransport* tcp_ptr = tcp.get();
  transports.push_back(std::move(tcp));
  TransportServer transport(jobs, std::move(transports));
  transport.start();
  // Port 0 bound an ephemeral port; endpoint() names the actual one.
  Endpoint tcp_endpoint = server::parse_endpoint(tcp_ptr->endpoint());
  ASSERT_EQ(tcp_endpoint.kind, Endpoint::Kind::kTcp);
  ASSERT_GT(tcp_endpoint.port, 0u);
  tcp_endpoint.token = token;

  const std::string submit_by_path =
      "{\"op\": \"submit\", \"path\": " + server::json_quote(fixture) + "}";
  const std::string submit_inline =
      "{\"op\": \"submit_inline\", \"filename\": \"golden.s2p\", "
      "\"payload\": " +
      server::json_quote(slurp_file(fixture)) + "}";

  // Route 2: UNIX submit-by-path.  Jobs run sequentially, each on its
  // own session — the route must never change the bits.
  server::Client unix_client(socket_path);
  const PipelineResult via_unix =
      submit_and_wait(jobs, unix_client, submit_by_path);

  // Routes 3 + 4: TCP submit-by-path and TCP submit_inline.
  server::Client tcp_client(tcp_endpoint);
  const PipelineResult via_tcp =
      submit_and_wait(jobs, tcp_client, submit_by_path);
  const PipelineResult via_inline =
      submit_and_wait(jobs, tcp_client, submit_inline);

  expect_bit_identical(via_unix, oneshot);
  expect_bit_identical(via_tcp, oneshot);
  expect_bit_identical(via_inline, oneshot);
  // The inline route went through the same Touchstone reader: same
  // sample count, same ports, no filesystem involved on the server.
  EXPECT_EQ(via_inline.sample_count, oneshot.sample_count);
  EXPECT_EQ(via_inline.name, "golden.s2p");

  const auto metrics = jobs.metrics_snapshot();
  EXPECT_EQ(test::counter(metrics, "phes_transport_auth_failures_total"), 0u);
  EXPECT_GE(test::counter(metrics, "phes_transport_accepted_total"), 2u);

  transport.stop();
  jobs.shutdown(true);
}

TEST(TransportMatrix, InlineRejectsMissingPortsAndBadFormat) {
  JobServer jobs(deterministic_server_options());
  // No transport needed: exercise the protocol handler directly.
  auto outcome = server::handle_request(
      jobs, "{\"op\": \"submit_inline\", \"payload\": \"# GHz S MA R 50\","
            " \"format\": \"touchstone\"}");
  EXPECT_NE(outcome.response.find("needs \\\"ports\\\""), std::string::npos)
      << outcome.response;
  outcome = server::handle_request(
      jobs, "{\"op\": \"submit_inline\", \"payload\": \"x\", "
            "\"format\": \"csv\"}");
  EXPECT_NE(outcome.response.find("unknown format"), std::string::npos);
  outcome = server::handle_request(jobs, "{\"op\": \"submit_inline\"}");
  EXPECT_NE(outcome.response.find("missing \\\"payload\\\""),
            std::string::npos);
  // A parse error inside the payload is a captured load-stage failure,
  // not a protocol error: the submission is accepted, the job fails.
  outcome = server::handle_request(
      jobs, "{\"op\": \"submit_inline\", \"payload\": \"not touchstone\","
            " \"ports\": 2}");
  EXPECT_NE(outcome.response.find("\"ok\": true"), std::string::npos);
  const auto id = JsonValue::parse(outcome.response).uint_or("id", 0);
  ASSERT_GT(id, 0u);
  ASSERT_TRUE(jobs.wait(id, 60.0));
  const auto record = jobs.status(id);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, server::JobState::kFailed);
  EXPECT_EQ(record->result.failed_stage, pipeline::Stage::kLoad);
  jobs.shutdown(true);
}

// ---- Auth handshake ---------------------------------------------------

TEST(TransportAuth, MissingAndWrongTokensAreRefused) {
  JobServer jobs(deterministic_server_options());
  const std::string token = "the-right-token";
  auto tcp = std::make_unique<TcpTransport>("127.0.0.1", 0, token);
  TcpTransport* tcp_ptr = tcp.get();
  TransportServer transport(jobs, std::move(tcp));
  transport.start();

  Endpoint endpoint = server::parse_endpoint(tcp_ptr->endpoint());

  {
    // No token: the first non-auth op is refused and the connection is
    // closed by the server.
    server::Client client(endpoint);  // no handshake without a token
    const std::string response = client.request("{\"op\": \"ping\"}");
    EXPECT_NE(response.find("authentication required"), std::string::npos);
    EXPECT_THROW((void)client.request("{\"op\": \"ping\"}"),
                 std::runtime_error);
  }
  {
    // Wrong token: the handshake itself fails (Client throws).
    Endpoint wrong = endpoint;
    wrong.token = "the-wrong-token";
    EXPECT_THROW(server::Client{wrong}, std::runtime_error);
  }
  {
    // Right token: handshake succeeds, ops are served.
    Endpoint right = endpoint;
    right.token = token;
    server::Client client(right);
    const std::string response = client.request("{\"op\": \"ping\"}");
    EXPECT_NE(response.find("\"ok\": true"), std::string::npos);
  }

  EXPECT_EQ(test::counter(jobs.metrics_snapshot(),
                          "phes_transport_auth_failures_total"),
            2u);
  transport.stop();
  jobs.shutdown(true);
}

TEST(TransportAuth, PreAuthConnectionsCannotBufferLargeLines) {
  JobServer jobs(deterministic_server_options());
  auto tcp = std::make_unique<TcpTransport>("127.0.0.1", 0, "tok");
  TcpTransport* tcp_ptr = tcp.get();
  TransportServer transport(jobs, std::move(tcp));
  transport.start();

  // An unauthenticated peer dribbling a huge terminator-less line must
  // hit the small pre-auth bound (4 KiB), not the 8 MiB payload bound:
  // otherwise N tokenless connections could park N x 8 MiB of buffer.
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server::parse_endpoint(tcp_ptr->endpoint()).port);
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0)
      << std::strerror(errno);
  const std::string flood(8192, 'x');  // > 4 KiB, no newline
  std::size_t off = 0;
  while (off < flood.size()) {
    const ssize_t n =
        ::send(fd, flood.data() + off, flood.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
  char buf[4096];
  const ssize_t n = ::read(fd, buf, sizeof buf);
  ASSERT_GT(n, 0);
  const std::string response(buf, static_cast<std::size_t>(n));
  EXPECT_NE(response.find("exceeds 4096 bytes"), std::string::npos)
      << response;
  // ...and, still unauthenticated, the connection is closed outright
  // (an authenticated oversize survives; pre-auth misbehaviour ends).
  ssize_t tail;
  do {
    tail = ::read(fd, buf, sizeof buf);
  } while (tail > 0);
  EXPECT_EQ(tail, 0) << "server must close the flooding pre-auth peer";
  ::close(fd);

  const auto metrics = jobs.metrics_snapshot();
  EXPECT_EQ(test::counter(metrics, "phes_transport_oversized_lines_total"),
            1u);
  EXPECT_EQ(test::counter(metrics, "phes_transport_auth_failures_total"), 1u);
  transport.stop();
  jobs.shutdown(true);
}

TEST(TransportAuth, UnixListenerNeedsNoAuthButAcceptsTheOp) {
  JobServer jobs(deterministic_server_options());
  const std::string socket_path = unique_socket_path("noauth");
  TransportServer transport(
      jobs, std::make_unique<UnixTransport>(socket_path));
  transport.start();

  // A client configured with a token works against a unix listener:
  // the auth op is acknowledged as a no-op.
  Endpoint endpoint;
  endpoint.kind = Endpoint::Kind::kUnix;
  endpoint.path = socket_path;
  server::Client bare(endpoint);
  EXPECT_NE(bare.request("{\"op\": \"ping\"}").find("\"ok\": true"),
            std::string::npos);
  EXPECT_NE(bare.request("{\"op\": \"auth\", \"token\": \"x\"}")
                .find("\"ok\": true"),
            std::string::npos);

  transport.stop();
  jobs.shutdown(true);
}

// ---- Robustness: framing across partial reads, oversized lines --------

/// Raw blocking AF_UNIX connection (no Client conveniences) so the
/// tests control exactly which bytes hit the wire and when.
class RawConnection {
 public:
  explicit RawConnection(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr),
              0)
        << std::strerror(errno);
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_bytes(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << std::strerror(errno);
      off += static_cast<std::size_t>(n);
    }
  }

  std::string read_response_line() {
    for (;;) {
      const std::size_t nl = carry_.find('\n');
      if (nl != std::string::npos) {
        const std::string line = carry_.substr(0, nl);
        carry_.erase(0, nl + 1);
        return line;
      }
      char buf[4096];
      const ssize_t n = ::read(fd_, buf, sizeof buf);
      if (n <= 0) return "<connection closed>";
      carry_.append(buf, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string carry_;
};

TEST(TransportRobustness, FrameSplitAcrossManyWakeupsIsReassembled) {
  JobServer jobs(deterministic_server_options());
  const std::string socket_path = unique_socket_path("split");
  TransportServer transport(
      jobs, std::make_unique<UnixTransport>(socket_path));
  transport.start();

  RawConnection raw(socket_path);
  // Dribble one request over many separate writes; each lands in its
  // own epoll wakeup (the sleeps make coalescing unlikely, and the
  // loop must be correct either way).
  const std::string request = "{\"op\": \"ping\"}\n";
  for (const char c : request) {
    raw.send_bytes(std::string(1, c));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_NE(raw.read_response_line().find("\"ok\": true"),
            std::string::npos);

  // Two requests + a partial third in one write: both complete frames
  // are answered, the tail waits for its terminator.
  raw.send_bytes("{\"op\": \"ping\"}\n{\"op\": \"metrics\"}\n{\"op\": ");
  EXPECT_NE(raw.read_response_line().find("\"op\": \"ping\""),
            std::string::npos);
  EXPECT_NE(raw.read_response_line().find("\"counters\""), std::string::npos);
  raw.send_bytes("\"ping\"}\n");
  EXPECT_NE(raw.read_response_line().find("\"op\": \"ping\""),
            std::string::npos);

  transport.stop();
  jobs.shutdown(true);
}

TEST(TransportRobustness, OversizedLineGetsErrorResponseNotDisconnect) {
  JobServer jobs(deterministic_server_options());
  const std::string socket_path = unique_socket_path("oversize");
  server::TransportLimits limits;
  limits.max_line_bytes = 512;  // small so the test stays cheap
  TransportServer transport(
      jobs, std::make_unique<UnixTransport>(socket_path), limits);
  transport.start();

  RawConnection raw(socket_path);
  // A 4 KiB line with no terminator: the server must answer with an
  // error as soon as the bound is exceeded...
  raw.send_bytes(std::string(4096, 'x'));
  const std::string error = raw.read_response_line();
  EXPECT_NE(error.find("\"ok\": false"), std::string::npos) << error;
  EXPECT_NE(error.find("exceeds"), std::string::npos) << error;
  // ...and once the oversized line finally ends, the connection keeps
  // serving (the remainder was discarded, not interpreted).
  raw.send_bytes("yyy\n{\"op\": \"ping\"}\n");
  EXPECT_NE(raw.read_response_line().find("\"op\": \"ping\""),
            std::string::npos);

  // A complete over-bound line delivered terminator-and-all in one
  // write is rejected the same way.
  raw.send_bytes(std::string(1024, 'z') + "\n{\"op\": \"ping\"}\n");
  EXPECT_NE(raw.read_response_line().find("exceeds"), std::string::npos);
  EXPECT_NE(raw.read_response_line().find("\"op\": \"ping\""),
            std::string::npos);

  const auto metrics = jobs.metrics_snapshot();
  EXPECT_EQ(test::counter(metrics, "phes_transport_oversized_lines_total"),
            2u);
  EXPECT_EQ(test::gauge(metrics, "phes_transport_open_connections"), 1)
      << "connection must survive";

  transport.stop();
  jobs.shutdown(true);
}

TEST(TransportRobustness, ShutdownOverTcpAcksThenSignalsOwner) {
  JobServer jobs(deterministic_server_options());
  const std::string token = "tok";
  auto tcp = std::make_unique<TcpTransport>("127.0.0.1", 0, token);
  TcpTransport* tcp_ptr = tcp.get();
  TransportServer transport(jobs, std::move(tcp));
  transport.start();

  Endpoint endpoint = server::parse_endpoint(tcp_ptr->endpoint());
  endpoint.token = token;
  server::Client client(endpoint);
  const std::string ack =
      client.request("{\"op\": \"shutdown\", \"drain\": false}");
  EXPECT_NE(ack.find("\"ok\": true"), std::string::npos);
  // The ack is flushed before the owner is signalled; block on the
  // signal (checking the flag here would race the loop thread).
  EXPECT_FALSE(transport.wait_shutdown());  // drain=false requested
  EXPECT_TRUE(transport.shutdown_requested());

  jobs.shutdown(false);
  transport.stop();
}

TEST(TransportEndpoint, ParseAcceptsUnixPathsAndTcpSpecs) {
  const Endpoint unix_ep = server::parse_endpoint("/tmp/x.sock");
  EXPECT_EQ(unix_ep.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(unix_ep.path, "/tmp/x.sock");

  const Endpoint tcp_ep = server::parse_endpoint("tcp:10.0.0.8:4545");
  EXPECT_EQ(tcp_ep.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp_ep.host, "10.0.0.8");
  EXPECT_EQ(tcp_ep.port, 4545u);

  EXPECT_THROW((void)server::parse_endpoint("tcp:nohost"),
               std::invalid_argument);
  EXPECT_THROW((void)server::parse_endpoint("tcp::123"),
               std::invalid_argument);
  EXPECT_THROW((void)server::parse_endpoint("tcp:h:notaport"),
               std::invalid_argument);
  EXPECT_THROW((void)server::parse_endpoint("tcp:h:0"),
               std::invalid_argument);
}

}  // namespace
}  // namespace phes
