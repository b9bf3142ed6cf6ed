#include "phes/pipeline/batch.hpp"

#include <algorithm>
#include <exception>
#include <thread>
#include <utility>

#include "phes/util/threads.hpp"

namespace phes::pipeline {

namespace {

std::size_t hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace

ParallelismPlan plan_parallelism(std::size_t total_threads,
                                 std::size_t job_count) {
  if (total_threads == 0) total_threads = hardware_threads();
  if (job_count == 0) job_count = 1;
  ParallelismPlan plan;
  plan.job_workers = std::min(total_threads, job_count);
  plan.solver_threads = std::max<std::size_t>(
      1, total_threads / plan.job_workers);
  return plan;
}

BatchRunner::BatchRunner(BatchOptions options) : options_(options) {}

ParallelismPlan BatchRunner::plan_for(std::size_t job_count) const {
  ParallelismPlan plan = plan_parallelism(options_.total_threads, job_count);
  if (options_.job_workers > 0) plan.job_workers = options_.job_workers;
  if (options_.solver_threads > 0) {
    plan.solver_threads = options_.solver_threads;
  }
  return plan;
}

BatchOutcome BatchRunner::run_all(std::vector<PipelineJob> jobs) const {
  BatchOutcome outcome;
  outcome.results.resize(jobs.size());
  if (jobs.empty()) return outcome;
  auto& results = outcome.results;

  const ParallelismPlan plan = plan_for(jobs.size());
  for (auto& job : jobs) {
    job.options.solver.threads = plan.solver_threads;
  }

  // Shared across the batch's jobs: duplicate models check the previous
  // job's session (and its hot factorization cache) back out instead of
  // rebuilding.  Concurrent duplicates still get distinct sessions —
  // checkout is exclusive — so reuse shows up when duplicates
  // serialize, exactly like the job server.
  engine::SessionPool sessions(options_.pool);
  PipelineContext context;
  context.session_pool = &sessions;

  util::parallel_for(plan.job_workers, jobs.size(),
                     [&](std::size_t i, std::size_t) {
    try {
      results[i] = run_pipeline(jobs[i], context);
    } catch (const std::exception& e) {
      // run_pipeline captures stage errors itself; this is the last
      // line of defence (allocation failure and the like).
      results[i].name = jobs[i].name.empty() ? jobs[i].input_path
                                             : jobs[i].name;
      results[i].ok = false;
      results[i].error = e.what();
    }
  });
  outcome.pool = sessions.stats();
  return outcome;
}

util::Table summary_table(const std::vector<PipelineResult>& results,
                          const engine::SessionPoolStats* pool) {
  util::Table table({"job", "status", "ports", "order", "fit rms",
                     "bands", "after", "cache", "memo", "time [s]"});
  for (const auto& r : results) {
    const bool characterized =
        std::any_of(r.stage_timings.begin(), r.stage_timings.end(),
                    [](const StageTiming& t) {
                      return t.stage == Stage::kCharacterize;
                    });
    const bool verified =
        std::any_of(r.stage_timings.begin(), r.stage_timings.end(),
                    [](const StageTiming& t) {
                      return t.stage == Stage::kVerify;
                    });
    // Reuse at a glance: hits/misses of the job's factorization cache
    // across characterize + enforce rounds + verify, and how many of
    // its solves the dense-result memo answered.
    const auto& cache = r.session.cache;
    table.add_row({
        r.name,
        r.status(),
        r.ports > 0 ? std::to_string(r.ports) : "-",
        r.order > 0 ? std::to_string(r.order) : "-",
        r.order > 0 ? util::format_double(r.fit_rms) : "-",
        characterized ? std::to_string(r.initial_report.bands.size()) : "-",
        verified ? std::to_string(r.final_report.bands.size()) : "-",
        characterized ? std::to_string(cache.hits) + "/" +
                            std::to_string(cache.misses)
                      : "-",
        characterized ? std::to_string(r.session.dense_reuses) + "/" +
                            std::to_string(r.session.solves)
                      : "-",
        util::format_double(r.total_seconds),
    });
  }
  if (pool != nullptr) {
    // Batch-level reuse at a glance: how many realize stages were
    // served by an already-pooled session, and the cache totals.
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t reuses = 0;
    std::size_t solves = 0;
    double seconds = 0.0;
    for (const auto& r : results) {
      hits += r.session.cache.hits;
      misses += r.session.cache.misses;
      reuses += r.session.dense_reuses;
      solves += r.session.solves;
      seconds += r.total_seconds;
    }
    table.add_row({
        "(session pool)",
        std::to_string(pool->pool_hits) + "/" +
            std::to_string(pool->checkouts) + " reused",
        "-",
        "-",
        "-",
        "-",
        "-",
        std::to_string(hits) + "/" + std::to_string(misses),
        std::to_string(reuses) + "/" + std::to_string(solves),
        util::format_double(seconds),
    });
  }
  return table;
}

std::size_t count_succeeded(const std::vector<PipelineResult>& results) {
  return static_cast<std::size_t>(
      std::count_if(results.begin(), results.end(),
                    [](const PipelineResult& r) { return r.ok; }));
}

}  // namespace phes::pipeline
