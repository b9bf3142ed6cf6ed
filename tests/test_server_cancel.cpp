// Cancellation and shutdown paths of the job server: cancelling a
// queued job (it never runs), cancelling an in-flight job at a stage
// boundary, graceful drain vs aborting shutdown, and result-store
// consistency afterwards.  Determinism comes from the server's stage
// observer: tests gate a job inside a stage and cancel while it is
// provably in flight.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "phes/pipeline/job.hpp"
#include "phes/server/result_store.hpp"
#include "phes/server/server.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using pipeline::PipelineJob;
using pipeline::Stage;
using server::JobServer;
using server::JobState;
using server::ServerOptions;

ServerOptions one_worker_options() {
  ServerOptions options;
  options.workers = 1;
  options.solver_threads = 1;
  options.queue_capacity = 8;
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

// The deterministic "in flight" hook, shared with the dispatch suite
// and the dispatch-latency bench.
using test::StageGate;

TEST(ServerCancel, QueuedJobIsCancelledAndNeverRuns) {
  JobServer jobs(one_worker_options());
  StageGate gate;
  jobs.set_stage_observer(std::ref(gate));

  // Job 1 blocks at fit, keeping the single worker busy while jobs 2
  // and 3 sit in the queue.
  const std::uint64_t blocker = 1;
  gate.arm(blocker, Stage::kFit);
  ASSERT_EQ(jobs.submit(quick_job("blocker", 7)), blocker);
  gate.wait_blocked();
  const std::uint64_t victim = jobs.submit(quick_job("victim", 5));
  const std::uint64_t survivor = jobs.submit(quick_job("survivor", 3));
  EXPECT_EQ(jobs.status(victim)->state, JobState::kQueued);

  EXPECT_TRUE(jobs.cancel(victim));
  EXPECT_FALSE(jobs.cancel(victim));  // already terminal

  const auto record = jobs.status(victim);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, JobState::kCancelled);
  EXPECT_TRUE(record->result.cancelled);
  EXPECT_TRUE(record->result.stage_timings.empty()) << "must never run";

  gate.release();
  ASSERT_TRUE(jobs.wait(blocker, 120.0));
  ASSERT_TRUE(jobs.wait(survivor, 120.0));
  EXPECT_EQ(jobs.status(blocker)->state, JobState::kDone);
  EXPECT_EQ(jobs.status(survivor)->state, JobState::kDone);
  // The cancelled job stayed cancelled (no resurrection by the worker).
  EXPECT_EQ(jobs.status(victim)->state, JobState::kCancelled);
  jobs.shutdown(true);
}

TEST(ServerCancel, InFlightJobStopsAtNextStageBoundary) {
  JobServer jobs(one_worker_options());
  StageGate gate;
  jobs.set_stage_observer(std::ref(gate));

  PipelineJob job = quick_job("inflight", 7);
  job.options.stop_after = Stage::kVerify;
  gate.arm(1, Stage::kFit);
  const std::uint64_t id = jobs.submit(job);
  gate.wait_blocked();  // provably mid-fit now
  EXPECT_EQ(jobs.status(id)->state, JobState::kRunning);

  EXPECT_TRUE(jobs.cancel(id));
  gate.release();
  ASSERT_TRUE(jobs.wait(id, 120.0));

  const auto record = jobs.status(id);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, JobState::kCancelled);
  const auto& result = record->result;
  EXPECT_TRUE(result.cancelled);
  // Fit completed; the next boundary (realize) refused to start.
  EXPECT_EQ(result.failed_stage, Stage::kRealize);
  EXPECT_EQ(result.status(), "cancelled@realize");
  ASSERT_EQ(result.stage_timings.size(), 2u);
  EXPECT_EQ(result.stage_timings[0].stage, Stage::kLoad);
  EXPECT_EQ(result.stage_timings[1].stage, Stage::kFit);
  jobs.shutdown(true);
}

TEST(ServerCancel, CancelUnknownOrFinishedJobReturnsFalse) {
  JobServer jobs(one_worker_options());
  EXPECT_FALSE(jobs.cancel(999));
  const std::uint64_t id = jobs.submit(quick_job("done", 7));
  ASSERT_TRUE(jobs.wait(id, 120.0));
  EXPECT_FALSE(jobs.cancel(id));
  jobs.shutdown(true);
}

TEST(ServerShutdown, GracefulDrainFinishesQueuedWork) {
  JobServer jobs(one_worker_options());
  StageGate gate;
  jobs.set_stage_observer(std::ref(gate));
  gate.arm(1, Stage::kFit);

  ASSERT_EQ(jobs.submit(quick_job("a", 7)), 1u);
  gate.wait_blocked();
  const std::uint64_t b = jobs.submit(quick_job("b", 5));
  const std::uint64_t c = jobs.submit(quick_job("c", 3));

  // Drain on a helper thread (shutdown blocks until workers finish);
  // release the gate once the queue is closed to admissions.
  std::thread closer([&] { jobs.shutdown(true); });
  while (jobs.accepting()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.release();
  closer.join();

  // Everything already queued ran to completion.
  for (const std::uint64_t id : {std::uint64_t{1}, b, c}) {
    const auto record = jobs.status(id);
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->state, JobState::kDone) << "job " << id;
  }
  EXPECT_THROW((void)jobs.submit(quick_job("late", 9)),
               std::runtime_error);
}

TEST(ServerShutdown, AbortCancelsBacklogAndFlagsInFlightWork) {
  JobServer jobs(one_worker_options());
  StageGate gate;
  jobs.set_stage_observer(std::ref(gate));
  gate.arm(1, Stage::kFit);

  ASSERT_EQ(jobs.submit(quick_job("inflight", 7)), 1u);
  gate.wait_blocked();
  const std::uint64_t q1 = jobs.submit(quick_job("queued1", 5));
  const std::uint64_t q2 = jobs.submit(quick_job("queued2", 3));

  std::thread aborter([&] { jobs.shutdown(false); });
  // The abort sets every in-flight cancel flag before it marks the
  // drained backlog cancelled; once q2's record is terminal, both
  // happened.
  while (jobs.job_summary(q2)->state != JobState::kCancelled) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.release();
  aborter.join();

  // Backlog: cancelled while queued, never ran.
  for (const std::uint64_t id : {q1, q2}) {
    const auto record = jobs.status(id);
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->state, JobState::kCancelled) << "job " << id;
    EXPECT_TRUE(record->result.stage_timings.empty());
  }
  // In-flight: stopped at the boundary after fit.
  const auto inflight = jobs.status(1);
  ASSERT_TRUE(inflight.has_value());
  EXPECT_EQ(inflight->state, JobState::kCancelled);
  EXPECT_EQ(inflight->result.status(), "cancelled@realize");

  // Store consistency: every record terminal, none lost.
  const auto summaries = jobs.job_summaries();
  EXPECT_EQ(test::count_state(summaries, JobState::kQueued), 0u);
  EXPECT_EQ(test::count_state(summaries, JobState::kRunning), 0u);
  EXPECT_EQ(test::count_state(summaries, JobState::kCancelled), 3u);
}

}  // namespace
}  // namespace phes
