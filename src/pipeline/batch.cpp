#include "phes/pipeline/batch.hpp"

#include <algorithm>
#include <exception>
#include <thread>

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

std::vector<PipelineResult> BatchRunner::run_all(
    std::vector<PipelineJob> jobs) const {
  std::vector<PipelineResult> results(jobs.size());
  if (jobs.empty()) return results;

  const ParallelismPlan plan = plan_for(jobs.size());
  for (auto& job : jobs) {
    job.options.solver.threads = plan.solver_threads;
  }

  util::parallel_for(plan.job_workers, jobs.size(),
                     [&](std::size_t i, std::size_t) {
    try {
      results[i] = run_pipeline(jobs[i]);
    } catch (const std::exception& e) {
      // run_pipeline captures stage errors itself; this is the last
      // line of defence (allocation failure and the like).
      results[i].name = jobs[i].name.empty() ? jobs[i].input_path
                                             : jobs[i].name;
      results[i].ok = false;
      results[i].error = e.what();
    }
  });
  return results;
}

util::Table summary_table(const std::vector<PipelineResult>& results) {
  util::Table table({"job", "status", "ports", "order", "fit rms",
                     "bands", "after", "solves", "time [s]"});
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
    // Work at a glance: the eigensolves the job ran (characterize and
    // every enforcement round after the first).
    table.add_row({
        r.name,
        r.status(),
        r.ports > 0 ? std::to_string(r.ports) : "-",
        r.order > 0 ? std::to_string(r.order) : "-",
        r.order > 0 ? util::format_double(r.fit_rms) : "-",
        characterized ? std::to_string(r.initial_report.bands.size()) : "-",
        verified ? std::to_string(r.final_report.bands.size()) : "-",
        characterized ? std::to_string(r.session.solves) : "-",
        util::format_double(r.total_seconds),
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
