// Concurrency/stress coverage for the server building blocks and the
// assembled JobServer: bounded-queue backpressure under producer
// pressure, and an N-client x M-job hammer over two models asserting
// one eigensolve per job, bit-identical crossings per model and
// loss-free accounting.  This suite is the ThreadSanitizer CI target:
// keep every scenario free of sleeps-as-synchronization.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "phes/pipeline/job.hpp"
#include "phes/server/job_queue.hpp"
#include "phes/server/server.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using pipeline::PipelineJob;
using pipeline::Stage;
using server::JobQueue;
using server::JobServer;
using server::JobState;
using server::QueuedJob;

// ---- JobQueue under pressure ------------------------------------------

TEST(JobQueueStress, BackpressureBoundsTheQueueWithoutLosingJobs) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 16;
  constexpr std::size_t kTotal = kProducers * kPerProducer;
  obs::MetricsRegistry registry;
  JobQueue queue(3, &registry);

  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < kProducers; ++t) {
    producers.emplace_back([&queue, t] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        QueuedJob item;
        item.id = t * kPerProducer + i + 1;
        ASSERT_TRUE(queue.push(std::move(item)));
      }
    });
  }

  // One deliberately slow consumer so producers hit the bound.
  std::vector<bool> seen(kTotal + 1, false);
  std::size_t popped = 0;
  while (popped < kTotal) {
    const auto item = queue.pop();
    ASSERT_TRUE(item.has_value());
    ASSERT_LE(item->id, kTotal);
    ASSERT_FALSE(seen[item->id]) << "duplicate id " << item->id;
    seen[item->id] = true;
    ++popped;
    std::this_thread::yield();
  }
  for (auto& t : producers) t.join();

  EXPECT_EQ(registry.counter("phes_queue_pushed_total").value(), kTotal);
  EXPECT_EQ(registry.counter("phes_queue_popped_total").value(), kTotal);
  EXPECT_LE(registry.gauge("phes_queue_depth_peak").value(), 3)
      << "capacity bound violated";
  EXPECT_GT(registry.counter("phes_queue_push_waits_total").value(), 0u)
      << "backpressure never engaged";
}

TEST(JobQueueStress, CloseReleasesBlockedProducersAndConsumers) {
  JobQueue queue(1);
  ASSERT_TRUE(queue.push({1, PipelineJob{}}));  // queue now full

  std::atomic<int> rejected{0};
  std::vector<std::thread> blocked;
  for (int t = 0; t < 3; ++t) {
    blocked.emplace_back([&] {
      if (!queue.push({99, PipelineJob{}})) rejected.fetch_add(1);
    });
  }
  std::thread consumer_after_drain([&] {
    // Drains the backlog, then blocks until close releases it.
    while (queue.pop().has_value()) {
    }
  });

  // No synchronization with the blocked threads is needed: close() must
  // release them regardless of whether they blocked yet.
  queue.close();
  for (auto& t : blocked) t.join();
  consumer_after_drain.join();
  // Between 0 and 3 producers may have slipped in before close; the
  // rest must have been rejected, and none may still be blocked.
  EXPECT_GE(rejected.load(), 0);
}

// ---- Assembled server under client pressure ---------------------------

TEST(ServerStress, ConcurrentClientsOverTwoModelsAgreePerModel) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kJobsPerClient = 6;
  constexpr std::size_t kTotal = kClients * kJobsPerClient;

  server::ServerOptions options;
  options.workers = 4;
  options.solver_threads = 1;
  options.queue_capacity = 3;  // deliberately tight: force backpressure
  JobServer jobs(options);

  // Two models; characterize-only keeps every job cheap.  Both fit
  // below core::kDenseMaxOrder: every job's one eigensolve is dense
  // and builds no factorization.
  const auto samples_a = test::non_passive_samples(7, 20);
  const auto samples_b = test::passive_samples(11, 20);

  std::vector<std::uint64_t> ids(kTotal, 0);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t j = 0; j < kJobsPerClient; ++j) {
        PipelineJob job;
        const bool use_a = (c + j) % 2 == 0;
        job.name = use_a ? "model-a" : "model-b";
        job.samples = use_a ? samples_a : samples_b;
        job.options.fit.num_poles = 10;
        job.options.stop_after = Stage::kCharacterize;
        ids[c * kJobsPerClient + j] = jobs.submit(std::move(job));
      }
    });
  }
  for (auto& t : clients) t.join();

  // Every submission must reach a terminal state (no deadlock, no
  // loss); generous timeout so slow CI cannot flake this.
  for (const std::uint64_t id : ids) {
    ASSERT_GT(id, 0u);
    ASSERT_TRUE(jobs.wait(id, 300.0)) << "job " << id << " stuck";
  }

  std::size_t done = 0;
  for (const std::uint64_t id : ids) {
    const auto record = jobs.status(id);
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->state, JobState::kDone)
        << record->result.error;
    ++done;
    const auto& r = record->result;
    EXPECT_LE(r.order, core::kDenseMaxOrder);
    // One characterization per job.
    EXPECT_EQ(r.session.dense_solves, 1u) << "job " << id;
    EXPECT_EQ(r.session.solves, 1u) << "job " << id;
    EXPECT_EQ(r.session.factorizations, 0u) << "job " << id;
  }
  EXPECT_EQ(done, kTotal);

  const auto metrics = jobs.metrics_snapshot();
  EXPECT_EQ(test::counter(metrics, "phes_jobs_submitted_total"), kTotal);
  EXPECT_EQ(test::counter(metrics, "phes_queue_pushed_total"), kTotal);
  EXPECT_EQ(test::counter(metrics, "phes_queue_popped_total"), kTotal);
  EXPECT_GT(test::counter(metrics, "phes_queue_push_waits_total"), 0u)
      << "queue never filled: backpressure untested";

  // All jobs over one model agree on the crossing set, bit for bit.
  const auto reference = jobs.result(ids[0]);
  ASSERT_TRUE(reference.has_value());
  for (const std::uint64_t id : ids) {
    const auto result = jobs.result(id);
    ASSERT_TRUE(result.has_value());
    if (result->name != reference->name) continue;
    ASSERT_EQ(result->initial_report.crossings.size(),
              reference->initial_report.crossings.size());
    for (std::size_t i = 0; i < result->initial_report.crossings.size();
         ++i) {
      EXPECT_DOUBLE_EQ(result->initial_report.crossings[i],
                       reference->initial_report.crossings[i]);
    }
  }
  jobs.shutdown(true);
}

TEST(ServerStress, CancelStormLeavesStoreConsistent) {
  server::ServerOptions options;
  options.workers = 2;
  options.solver_threads = 1;
  options.queue_capacity = 4;
  JobServer jobs(options);

  constexpr std::size_t kTotal = 16;
  std::vector<std::atomic<std::uint64_t>> ids(kTotal);
  std::thread submitter([&] {
    for (std::size_t i = 0; i < kTotal; ++i) {
      PipelineJob job;
      job.name = "storm";
      job.samples = test::non_passive_samples(7, 20);
      job.options.fit.num_poles = 10;
      job.options.stop_after = Stage::kFit;
      ids[i].store(jobs.submit(std::move(job)));
    }
  });
  // Race cancellations against the submitter and the workers.
  std::thread canceller([&] {
    for (std::size_t i = 0; i < kTotal; ++i) {
      const std::uint64_t id = ids[i].load();
      if (id != 0) (void)jobs.cancel(id);  // racing: any outcome is legal
      std::this_thread::yield();
    }
  });
  submitter.join();
  canceller.join();

  for (const auto& id_slot : ids) {
    const std::uint64_t id = id_slot.load();
    ASSERT_TRUE(jobs.wait(id, 300.0));
    const auto record = jobs.status(id);
    ASSERT_TRUE(record.has_value());
    // Every job lands in exactly one of the two legal terminal states.
    EXPECT_TRUE(record->state == JobState::kDone ||
                record->state == JobState::kCancelled)
        << job_state_name(record->state);
  }
  const auto summaries = jobs.job_summaries();
  EXPECT_EQ(test::count_state(summaries, JobState::kQueued), 0u);
  EXPECT_EQ(test::count_state(summaries, JobState::kRunning), 0u);
  EXPECT_EQ(test::count_state(summaries, JobState::kDone) +
                test::count_state(summaries, JobState::kCancelled),
            kTotal);
  jobs.shutdown(true);
}

}  // namespace
}  // namespace phes
