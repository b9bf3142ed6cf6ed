// Concurrency/stress coverage for the server building blocks and the
// assembled JobServer: bounded-queue backpressure under producer
// pressure, concurrent SessionPool checkout over multiple models with
// revision guards and eviction budgets, and an N-client x M-job hammer
// over two models asserting cross-job cache hits and loss-free
// accounting.  This suite is the ThreadSanitizer CI target: keep every
// scenario free of sleeps-as-synchronization.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "phes/engine/session.hpp"
#include "phes/engine/session_pool.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "phes/pipeline/job.hpp"
#include "phes/server/job_queue.hpp"
#include "phes/server/server.hpp"
#include "phes/util/sync.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using engine::SessionPool;
using engine::SessionPoolOptions;
using macromodel::SimoRealization;
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
  JobQueue queue(3);

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

  const auto stats = queue.stats();
  EXPECT_EQ(stats.pushed, kTotal);
  EXPECT_EQ(stats.popped, kTotal);
  EXPECT_LE(stats.peak_size, 3u) << "capacity bound violated";
  EXPECT_GT(stats.push_waits, 0u) << "backpressure never engaged";
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

// ---- SessionPool concurrency ------------------------------------------

TEST(SessionPoolStress, ConcurrentCheckoutsOverTwoModelsStayExclusive) {
  const auto model_a = test::synthetic_model(1.05, 101, 20, 2);
  const auto model_b = test::synthetic_model(0.95, 202, 24, 2);
  const SimoRealization simo_a(model_a);
  const SimoRealization simo_b(model_b);

  SessionPoolOptions options;
  options.max_idle_sessions = 4;
  SessionPool pool(options);

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIters = 50;
  // Exclusivity check: no SolverSession object may ever be held by two
  // leases at once.
  phes::util::Mutex active_mutex;
  std::set<const engine::SolverSession*> active;
  std::atomic<bool> exclusive_violated{false};

  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = 0; i < kIters; ++i) {
        const bool use_a = (t + i) % 2 == 0;
        auto lease =
            pool.checkout(SimoRealization(use_a ? simo_a : simo_b));
        ASSERT_TRUE(static_cast<bool>(lease));
        // The lease must hand out the right model...
        ASSERT_EQ(lease.session().realization().order(),
                  use_a ? simo_a.order() : simo_b.order());
        ASSERT_TRUE(engine::same_realization(
            lease.session().realization(), use_a ? simo_a : simo_b));
        // ...exclusively.
        {
          phes::util::MutexLock lock(active_mutex);
          if (!active.insert(&lease.session()).second) {
            exclusive_violated.store(true);
          }
        }
        std::this_thread::yield();
        {
          phes::util::MutexLock lock(active_mutex);
          active.erase(&lease.session());
        }
        lease.release();
      }
    });
  }
  for (auto& t : workers) t.join();

  EXPECT_FALSE(exclusive_violated.load());
  const auto stats = pool.stats();
  EXPECT_EQ(stats.checkouts, kThreads * kIters);
  EXPECT_EQ(stats.creations + stats.pool_hits, stats.checkouts);
  EXPECT_GT(stats.pool_hits, 0u) << "pool never reused a session";
  EXPECT_EQ(stats.leased_sessions, 0u);
  EXPECT_LE(stats.idle_sessions, options.max_idle_sessions);
  EXPECT_EQ(stats.returns, stats.checkouts);
}

TEST(SessionPoolStress, RevisionGuardDropsPerturbedSessions) {
  const auto model = test::synthetic_model(1.05, 77, 20, 2);
  const SimoRealization pristine(model);

  SessionPool pool;
  {
    auto lease = pool.checkout(SimoRealization(pristine));
    // Perturb the residues the way enforcement would.
    la::RealMatrix c = lease.session().realization().c();
    c *= 0.9;
    lease.session().update_residues(c);
    ASSERT_FALSE(
        engine::same_realization(lease.session().realization(), pristine));
  }
  // The perturbed session never re-enters the pool.
  EXPECT_EQ(pool.stats().returns, 1u);
  EXPECT_EQ(pool.stats().idle_sessions, 0u);
  EXPECT_EQ(pool.stats().idle_bytes, 0u);

  // The next checkout over the same model gets a fresh session with
  // pristine residues; returned unchanged, that one is pooled.
  {
    auto lease = pool.checkout(SimoRealization(pristine));
    EXPECT_FALSE(lease.reused());
    EXPECT_TRUE(
        engine::same_realization(lease.session().realization(), pristine));
  }
  EXPECT_EQ(pool.stats().idle_sessions, 1u);
  auto lease = pool.checkout(SimoRealization(pristine));
  EXPECT_TRUE(lease.reused());
}

TEST(SessionPoolStress, MemoryBudgetEvictsIdleSessions) {
  SessionPoolOptions options;
  options.max_idle_sessions = 64;
  options.memory_budget_bytes = 1;  // everything is over budget
  SessionPool pool(options);

  for (int i = 0; i < 4; ++i) {
    auto lease = pool.checkout(
        SimoRealization(test::synthetic_model(1.05, 300 + i, 16, 2)));
  }
  const auto stats = pool.stats();
  EXPECT_EQ(stats.evictions, 4u);
  EXPECT_EQ(stats.idle_sessions, 0u);
  EXPECT_EQ(stats.idle_bytes, 0u);
}

TEST(SessionPoolStress, HashDistinguishesModels) {
  const SimoRealization a(test::synthetic_model(1.05, 1, 20, 2));
  const SimoRealization b(test::synthetic_model(1.05, 2, 20, 2));
  EXPECT_NE(engine::model_hash(a), engine::model_hash(b));
  EXPECT_EQ(engine::model_hash(a), engine::model_hash(a));
  EXPECT_TRUE(engine::same_realization(a, a));
  EXPECT_FALSE(engine::same_realization(a, b));
}

// ---- Assembled server under client pressure ---------------------------

TEST(ServerStress, ConcurrentClientsOverTwoModelsShareSessions) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kJobsPerClient = 6;
  constexpr std::size_t kTotal = kClients * kJobsPerClient;

  server::ServerOptions options;
  options.workers = 4;
  options.solver_threads = 1;
  options.queue_capacity = 3;  // deliberately tight: force backpressure
  JobServer jobs(options);

  // Two models; characterize-only keeps every job cheap and keeps the
  // session revision unchanged, so pooled sessions must be shared.
  // Both fit below engine::kDenseMaxOrder: every job's one eigensolve
  // is dense and leaves nothing in the factorization cache.
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
  std::size_t reused_sessions = 0;
  for (const std::uint64_t id : ids) {
    const auto record = jobs.status(id);
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->state, JobState::kDone)
        << record->result.error;
    ++done;
    const auto& r = record->result;
    EXPECT_LE(r.order, engine::kDenseMaxOrder);
    // One characterization per job: a fresh session runs it, a pooled
    // one (same unchanged model, same options) answers it from its
    // dense-result memo.
    EXPECT_EQ(r.session.dense_solves, r.session_reused ? 0u : 1u)
        << "job " << id;
    EXPECT_EQ(r.session.dense_reuses, r.session_reused ? 1u : 0u)
        << "job " << id;
    EXPECT_EQ(r.session.solves, 1u) << "job " << id;
    EXPECT_EQ(r.session.factorizations, 0u) << "job " << id;
    EXPECT_EQ(r.session.cache.hits + r.session.cache.misses, 0u)
        << "job " << id;
    if (r.session_reused) ++reused_sessions;
  }
  EXPECT_EQ(done, kTotal);

  const auto metrics = jobs.metrics_snapshot();
  EXPECT_EQ(test::counter(metrics, "phes_jobs_submitted_total"), kTotal);
  EXPECT_EQ(test::counter(metrics, "phes_queue_pushed_total"), kTotal);
  EXPECT_EQ(test::counter(metrics, "phes_queue_popped_total"), kTotal);
  EXPECT_GT(test::counter(metrics, "phes_queue_push_waits_total"), 0u)
      << "queue never filled: backpressure untested";
  EXPECT_EQ(test::counter(metrics, "phes_session_pool_checkouts_total"),
            kTotal);
  EXPECT_GT(test::counter(metrics, "phes_session_pool_hits_total"), 0u)
      << "no cross-job session sharing";
  EXPECT_EQ(test::gauge(metrics, "phes_session_pool_leased_sessions"), 0);
  EXPECT_GT(reused_sessions, 0u);

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
