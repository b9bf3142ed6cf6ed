#pragma once
// Multi-job execution of the passivity pipeline — the "many concurrent
// workloads" layer over pipeline/job.hpp.
//
// Parallelism is two-level, mirroring how the paper's eigensolver is
// deployed in practice: J jobs run concurrently (util::parallel_for
// over the job list), and each job's Hamiltonian characterization
// itself uses T solver threads.  plan_parallelism() splits a hardware
// budget between the levels, preferring job-level parallelism
// (independent jobs scale embarrassingly; intra-solver speedup
// saturates, paper Fig. 6).

#include <cstddef>
#include <string>
#include <vector>

#include "phes/pipeline/job.hpp"
#include "phes/util/table.hpp"

namespace phes::pipeline {

/// A (job workers) x (solver threads per job) split of a thread budget.
struct ParallelismPlan {
  std::size_t job_workers = 1;
  std::size_t solver_threads = 1;
};

/// Split `total_threads` over `job_count` jobs.  Job-level parallelism
/// is saturated first; leftover capacity becomes solver threads.
/// `total_threads` 0 means the hardware concurrency.
[[nodiscard]] ParallelismPlan plan_parallelism(std::size_t total_threads,
                                               std::size_t job_count);

struct BatchOptions {
  /// Hardware budget split by plan_parallelism(); 0 => hardware.
  std::size_t total_threads = 0;
  /// Explicit overrides; 0 => derive from the plan.
  std::size_t job_workers = 0;
  std::size_t solver_threads = 0;
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {});

  /// Run all jobs, J at a time, sharing nothing between them;
  /// per-job failures are captured on their results (one bad input
  /// never aborts the batch).  Results come back in job order.  Each
  /// job's SolverOptions.threads is overwritten with the planned
  /// per-job solver thread count.
  [[nodiscard]] std::vector<PipelineResult> run_all(
      std::vector<PipelineJob> jobs) const;

  /// The split run_all() will use for `job_count` jobs.
  [[nodiscard]] ParallelismPlan plan_for(std::size_t job_count) const;

 private:
  BatchOptions options_;
};

/// Aggregate per-job results into a summary table (name, status, ports,
/// order, bands before/after, fit error, eigensolves run, timings).
[[nodiscard]] util::Table summary_table(
    const std::vector<PipelineResult>& results);

/// Count of jobs that ran to their stop point without a stage failure.
[[nodiscard]] std::size_t count_succeeded(
    const std::vector<PipelineResult>& results);

}  // namespace phes::pipeline
