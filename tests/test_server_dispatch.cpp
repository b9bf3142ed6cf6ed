// Off-loop request dispatch: the regression guard for PR 4's inline
// handling, where a submit blocked on a full admission queue stalled
// every connection of the server.  Determinism comes from the
// StageGate observer (a job provably parked inside a stage keeps the
// single worker busy) plus JobQueue's push_waits counter (a submit
// provably blocked in admission).  With both pinned, status/ping/metrics
// round-trips on other connections MUST complete while the submit
// stays blocked — and per-connection response ordering MUST hold for
// requests queued behind the blocked submit on the same connection.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>

#include "phes/pipeline/job.hpp"
#include "phes/server/protocol.hpp"
#include "phes/server/server.hpp"
#include "phes/server/socket.hpp"
#include "phes/server/transport.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using pipeline::PipelineJob;
using pipeline::Stage;
using server::JobServer;
using server::JobState;
using server::JsonValue;
using server::ServerOptions;
using server::TransportServer;
using server::UnixTransport;
using test::StageGate;

std::string unique_socket_path(const char* tag) {
  return "/tmp/phes_dispatch_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// One worker, a one-slot queue: one gated job + one queued job make
/// the next submit block in admission — the pressure scenario.
ServerOptions pressure_options() {
  ServerOptions options;
  options.workers = 1;
  options.solver_threads = 1;
  options.queue_capacity = 1;
  options.job_defaults.fit.num_poles = 12;
  return options;
}

PipelineJob quick_job(const char* name, std::uint64_t seed) {
  PipelineJob job;
  job.name = name;
  job.samples = test::non_passive_samples(seed);
  job.options.fit.num_poles = 12;
  job.options.stop_after = Stage::kCharacterize;
  return job;
}

/// Submit-by-path of a nonexistent file: admission does not touch the
/// filesystem, so the request exercises pure queue backpressure (the
/// job later fails in its load stage, which is irrelevant here).
constexpr const char* kBlockedSubmit =
    "{\"op\": \"submit\", \"path\": \"/nonexistent/pressure.s2p\"}";

/// Drive the server to the pinned pressure point: job 1 gated mid-fit
/// on the only worker, job 2 filling the queue, and `blocked_submit`'s
/// request provably waiting in admission (push_waits).
void reach_pressure_point(JobServer& jobs, StageGate& gate) {
  gate.arm(1, Stage::kFit);
  ASSERT_EQ(jobs.submit(quick_job("gated", 7)), 1u);
  gate.wait_blocked();
  ASSERT_EQ(jobs.submit(quick_job("queued", 5)), 2u);
  ASSERT_EQ(test::gauge(jobs.metrics_snapshot(), "phes_queue_depth"), 1);
}

/// Wait until `count` submits have provably blocked in admission.
void wait_for_blocked_push(JobServer& jobs, std::uint64_t count = 1) {
  while (test::counter(jobs.metrics_snapshot(),
                       "phes_queue_push_waits_total") < count) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ServerDispatch, StatusAndPingStayLiveWhileASubmitBlocksOnAdmission) {
  JobServer jobs(pressure_options());
  StageGate gate;
  jobs.set_stage_observer(std::ref(gate));
  const std::string socket_path = unique_socket_path("liveness");
  TransportServer transport(jobs,
                            std::make_unique<UnixTransport>(socket_path));
  transport.start();

  reach_pressure_point(jobs, gate);

  // Connection 1: a submit that blocks in admission on a pool worker.
  auto blocked_ack = std::async(std::launch::async, [&] {
    server::Client submitter(socket_path);
    return submitter.request(kBlockedSubmit);
  });
  wait_for_blocked_push(jobs);

  // Connection 2: while the submit is provably blocked, cheap ops must
  // round-trip.  (Under PR 4's inline handling this future never
  // becomes ready — the loop thread itself is parked in admission.)
  auto live_ops = std::async(std::launch::async, [&] {
    server::Client poller(socket_path);
    std::string out = poller.request("{\"op\": \"ping\"}");
    out += "\n" + poller.request("{\"op\": \"status\"}");
    out += "\n" + poller.request("{\"op\": \"metrics\"}");
    return out;
  });
  ASSERT_EQ(live_ops.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "status polls stalled behind a blocked submit";
  const std::string responses = live_ops.get();
  EXPECT_NE(responses.find("\"op\": \"ping\""), std::string::npos);
  // The blocked job is already visible as a queued record.
  EXPECT_NE(responses.find("\"id\": 3"), std::string::npos) << responses;
  // The metrics op reports the transport + dispatch layers.
  EXPECT_NE(responses.find("\"phes_transport_requests_total\""),
            std::string::npos);
  EXPECT_NE(responses.find("\"phes_dispatch_completed_total\""),
            std::string::npos);
  EXPECT_NE(responses.find("\"phes_queue_push_waits_total\": 1"),
            std::string::npos);

  // The submit is still blocked; nothing resolved it by accident.
  EXPECT_EQ(blocked_ack.wait_for(std::chrono::milliseconds(0)),
            std::future_status::timeout);

  gate.release();
  const auto ack = JsonValue::parse(blocked_ack.get());
  EXPECT_TRUE(ack.bool_or("ok", false));
  EXPECT_EQ(ack.uint_or("id", 0), 3u);
  ASSERT_TRUE(jobs.wait(3, 120.0));
  EXPECT_EQ(jobs.status(3)->state, JobState::kFailed);  // bogus path

  const auto metrics = jobs.metrics_snapshot();
  EXPECT_GT(test::counter(metrics, "phes_transport_inline_requests_total"),
            0u)
      << "cheap ops used the fast path";
  EXPECT_GT(test::counter(metrics, "phes_transport_dispatched_total"), 0u)
      << "the submit went through the pool";

  transport.stop();
  jobs.shutdown(true);
}

/// Raw blocking AF_UNIX connection so the test controls exactly which
/// bytes hit the wire and when.
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

TEST(ServerDispatch, PerConnectionOrderHoldsBehindABlockedSubmit) {
  JobServer jobs(pressure_options());
  StageGate gate;
  jobs.set_stage_observer(std::ref(gate));
  const std::string socket_path = unique_socket_path("ordering");
  TransportServer transport(jobs,
                            std::make_unique<UnixTransport>(socket_path));
  transport.start();

  reach_pressure_point(jobs, gate);

  // Pipeline a blocking submit AND a ping on the SAME connection.  The
  // ping is a fast-path op, but it queued behind the submit — the
  // response order must be submit ack first, ping second.
  RawConnection raw(socket_path);
  raw.send_bytes(std::string(kBlockedSubmit) + "\n{\"op\": \"ping\"}\n");
  wait_for_blocked_push(jobs);

  gate.release();
  const std::string first = raw.read_response_line();
  const std::string second = raw.read_response_line();
  EXPECT_NE(first.find("\"op\": \"submit\""), std::string::npos) << first;
  EXPECT_NE(second.find("\"op\": \"ping\""), std::string::npos) << second;

  ASSERT_TRUE(jobs.wait(3, 120.0));
  transport.stop();
  jobs.shutdown(true);
}

TEST(ServerDispatch, OverloadedDispatchQueueRejectsInsteadOfStalling) {
  JobServer jobs(pressure_options());
  StageGate gate;
  jobs.set_stage_observer(std::ref(gate));
  const std::string socket_path = unique_socket_path("overload");
  server::TransportLimits limits;
  limits.dispatch_queue_capacity = 1;
  TransportServer transport(
      jobs, std::make_unique<UnixTransport>(socket_path), limits);
  transport.start();

  reach_pressure_point(jobs, gate);

  const auto blocked_submit = [&] {
    return std::async(std::launch::async, [&] {
      server::Client client(socket_path);
      return client.request(kBlockedSubmit);
    });
  };
  // Submits A and B occupy both pool workers (blocked in admission).
  auto ack_a = blocked_submit();
  wait_for_blocked_push(jobs, 1);
  auto ack_b = blocked_submit();
  wait_for_blocked_push(jobs, 2);
  // Submit C fills the one-slot task queue.
  auto ack_c = blocked_submit();
  while (test::gauge(jobs.metrics_snapshot(), "phes_dispatch_queue_depth") ==
         0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Submit D finds the pool full: answered with an overload error
  // immediately — the loop never stalls and the connection survives.
  server::Client d(socket_path);
  const std::string rejected = d.request(kBlockedSubmit);
  EXPECT_NE(rejected.find("server overloaded"), std::string::npos)
      << rejected;
  EXPECT_NE(d.request("{\"op\": \"ping\"}").find("\"ok\": true"),
            std::string::npos);
  EXPECT_GE(test::counter(jobs.metrics_snapshot(),
                          "phes_transport_rejected_total"),
            1u);

  gate.release();
  EXPECT_TRUE(JsonValue::parse(ack_a.get()).bool_or("ok", false));
  EXPECT_TRUE(JsonValue::parse(ack_b.get()).bool_or("ok", false));
  EXPECT_TRUE(JsonValue::parse(ack_c.get()).bool_or("ok", false));
  transport.stop();
  jobs.shutdown(true);
}

}  // namespace
}  // namespace phes
