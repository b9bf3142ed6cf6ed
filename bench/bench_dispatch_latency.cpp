// bench_dispatch_latency — ctest-registered smoke target for the
// off-loop dispatch path: status/ping round-trip latency must stay
// bounded while a submit is blocked on a full admission queue.
//
// Scenario (StageGate-deterministic): one worker parked mid-fit on a
// gated job, a second job filling the one-slot queue, and a protocol
// submit provably blocked in admission on a dispatch-pool worker.
// Under PR 4's inline handling every poll below would hang until the
// gate released; with off-loop dispatch they must complete promptly.
//
// Prints one BENCH-friendly JSON line with the latency distribution
// and exits non-zero when any liveness invariant fails, so CI catches
// regressions of the dispatch path, not just its correctness.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "phes/pipeline/job.hpp"
#include "phes/server/server.hpp"
#include "phes/server/socket.hpp"
#include "phes/server/transport.hpp"
#include "test_support.hpp"

namespace {

using namespace phes;

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  (void)argv;

  server::ServerOptions options;
  options.workers = 1;
  options.solver_threads = 1;
  options.queue_capacity = 1;
  options.job_defaults.fit.num_poles = 12;
  server::JobServer jobs(options);
  test::StageGate gate;
  jobs.set_stage_observer(std::ref(gate));

  const std::string socket_path =
      "/tmp/phes_bench_dispatch_" + std::to_string(::getpid()) + ".sock";
  server::TransportServer transport(
      jobs, std::make_unique<server::UnixTransport>(socket_path));
  transport.start();

  // Pin the pressure point: worker gated, queue full, submit blocked.
  gate.arm(1, pipeline::Stage::kFit);
  pipeline::PipelineJob gated;
  gated.name = "gated";
  gated.samples = test::non_passive_samples(7);
  gated.options.stop_after = pipeline::Stage::kCharacterize;
  expect(jobs.submit(gated) == 1, "gated job admitted first");
  gate.wait_blocked();
  pipeline::PipelineJob queued = gated;
  queued.name = "queued";
  expect(jobs.submit(queued) == 2, "queue filler admitted second");

  auto blocked_ack = std::async(std::launch::async, [&] {
    server::Client submitter(socket_path);
    return submitter.request(
        "{\"op\": \"submit\", \"path\": \"/nonexistent/pressure.s2p\"}");
  });
  while (test::counter(jobs.metrics_snapshot(),
                       "phes_queue_push_waits_total") == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Measure poll latency while the submit stays blocked.
  constexpr std::size_t kPolls = 100;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(kPolls);
  server::Client poller(socket_path);
  double total_ms = 0.0;
  for (std::size_t i = 0; i < kPolls; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const std::string response = poller.request(
        i % 2 == 0 ? "{\"op\": \"status\"}" : "{\"op\": \"ping\"}");
    const double ms = ms_since(start);
    expect(response.find("\"ok\": true") != std::string::npos,
           "poll response ok under submit pressure");
    latencies_ms.push_back(ms);
    total_ms += ms;
  }
  // The gate is still held, so the submit must still be pending —
  // checked on the future itself (push_waits is cumulative and would
  // pass vacuously).
  expect(blocked_ack.wait_for(std::chrono::milliseconds(0)) ==
             std::future_status::timeout,
         "submit stayed blocked through the measurement");

  std::sort(latencies_ms.begin(), latencies_ms.end());
  const double p50 = latencies_ms[kPolls / 2];
  const double p99 = latencies_ms[(kPolls * 99) / 100];
  const double max = latencies_ms.back();

  // The liveness bound: far above any healthy round-trip, far below
  // the "blocked forever" failure mode this guards against.
  constexpr double kMaxPollMs = 2000.0;
  expect(max < kMaxPollMs, "status-poll latency bounded under pressure");

  std::printf(
      "BENCH {\"bench\":\"dispatch_latency\",\"polls\":%zu,"
      "\"mean_ms\":%.3f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"max_ms\":%.3f,"
      "\"bound_ms\":%.1f}\n",
      kPolls, total_ms / static_cast<double>(kPolls), p50, p99, max,
      kMaxPollMs);

  // Unwind: release the gate, let everything finish, verify the
  // blocked submit was acknowledged.
  gate.release();
  const std::string ack = blocked_ack.get();
  expect(ack.find("\"ok\": true") != std::string::npos,
         "blocked submit acknowledged after release");
  expect(jobs.wait(3, 300.0), "blocked submission reached the store");

  transport.stop();
  jobs.shutdown(true);

  if (failures > 0) {
    std::fprintf(stderr, "%d dispatch invariant(s) failed\n", failures);
    return 1;
  }
  std::printf("dispatch liveness invariants hold\n");
  return 0;
}
