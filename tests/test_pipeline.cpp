// Pipeline subsystem tests: the stage machine, input dispatch, error
// capture, the two-level parallelism plan, and the end-to-end path
// from a synthetic non-passive model to a certified-passive result.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "phes/engine/session.hpp"
#include "phes/io/touchstone.hpp"
#include "phes/macromodel/samples.hpp"
#include "phes/pipeline/batch.hpp"
#include "phes/pipeline/job.hpp"
#include "phes/pipeline/report.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using pipeline::PipelineJob;
using pipeline::Stage;
using test::non_passive_samples;

PipelineJob make_job(macromodel::FrequencySamples samples) {
  PipelineJob job;
  job.name = "in-memory";
  job.samples = std::move(samples);
  job.options.fit.num_poles = 12;
  return job;
}

TEST(Pipeline, StageNamesRoundTrip) {
  for (const Stage stage :
       {Stage::kLoad, Stage::kFit, Stage::kRealize, Stage::kCharacterize,
        Stage::kEnforce, Stage::kVerify}) {
    EXPECT_EQ(pipeline::parse_stage(pipeline::stage_name(stage)), stage);
  }
  EXPECT_THROW((void)pipeline::parse_stage("bogus"), std::invalid_argument);
}

TEST(Pipeline, EndToEndEnforcesPassivity) {
  auto job = make_job(non_passive_samples(7));
  const auto result = run_pipeline(job);

  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.status(), "enforced");
  EXPECT_TRUE(result.certified_passive);
  EXPECT_TRUE(result.enforcement_run);
  EXPECT_FALSE(result.initial_report.passive);
  EXPECT_GT(result.initial_report.bands.size(), 0u);
  EXPECT_TRUE(result.final_report.passive);
  EXPECT_EQ(result.final_report.bands.size(), 0u);

  // All six stages ran, in order, with non-negative timings.
  ASSERT_EQ(result.stage_timings.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(result.stage_timings[i].stage, static_cast<Stage>(i));
    EXPECT_GE(result.stage_timings[i].seconds, 0.0);
  }
  EXPECT_GT(result.order, 0u);
  EXPECT_EQ(result.ports, 2u);

  // One session carried the job: characterize, every enforcement
  // round's re-characterization, and verify.  The fitted model sits
  // below engine::kDenseMaxOrder, so each of those solves took the
  // dense route: no factorizations, nothing to cache or warm-start.
  // Enforcement's round 0 re-solves characterize's revision and verify
  // the last round's, so the dense-result memo serves exactly two.
  ASSERT_LE(result.order, engine::kDenseMaxOrder);
  EXPECT_GE(result.enforcement.characterizations, 2u);
  EXPECT_EQ(result.session.solves,
            2 + result.enforcement.characterizations);
  EXPECT_EQ(result.session.dense_solves,
            result.enforcement.characterizations);
  EXPECT_EQ(result.session.dense_reuses, 2u);
  EXPECT_EQ(result.session.dense_solves + result.session.dense_reuses,
            result.session.solves);
  EXPECT_EQ(result.session.warm_solves, 0u);
  EXPECT_EQ(result.session.factorizations, 0u);
  EXPECT_EQ(result.session.cache.hits + result.session.cache.misses, 0u);
  EXPECT_TRUE(result.initial_report.solver.dense);
  EXPECT_TRUE(result.final_report.solver.dense);
}

TEST(Pipeline, StopAfterFitShortCircuits) {
  auto job = make_job(non_passive_samples(7));
  job.options.stop_after = Stage::kFit;
  const auto result = run_pipeline(job);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.status(), "stopped@fit");
  EXPECT_EQ(result.stage_timings.size(), 2u);
  EXPECT_GT(result.fit_rms, 0.0);
}

TEST(Pipeline, LoadFailureIsCapturedNotThrown) {
  PipelineJob job;
  job.input_path = "/nonexistent/model.s2p";
  const auto result = run_pipeline(job);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.failed_stage, Stage::kLoad);
  EXPECT_NE(result.error.find("load:"), std::string::npos);
  EXPECT_EQ(result.status(), "failed@load");
}

TEST(Pipeline, LoadDispatchesOnExtension) {
  const auto samples = non_passive_samples(11);
  io::save_touchstone_file(samples, "/tmp/phes_pipeline_in.s2p", {});
  test::save_samples_file(samples, "/tmp/phes_pipeline_in.txt");

  const auto from_ts = pipeline::load_input("/tmp/phes_pipeline_in.s2p");
  const auto from_txt = pipeline::load_input("/tmp/phes_pipeline_in.txt");
  EXPECT_EQ(from_ts.count(), samples.count());
  EXPECT_EQ(from_txt.count(), samples.count());
  EXPECT_EQ(from_ts.ports(), 2u);
  EXPECT_NEAR(from_ts.omega.back(), samples.omega.back(),
              1e-9 * samples.omega.back());
}

TEST(Pipeline, InlineTextInputMatchesThePathRoute) {
  // The same Touchstone bytes, submitted as a file path and as an
  // in-memory payload, must produce bit-identical pipeline results —
  // the invariant the server's submit_inline op rests on.
  const auto samples = non_passive_samples(11);
  const std::string path = "/tmp/phes_pipeline_inline.s2p";
  io::save_touchstone_file(samples, path, {});
  std::ostringstream contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents << in.rdbuf();
  }

  PipelineJob by_path;
  by_path.input_path = path;
  by_path.options.fit.num_poles = 10;
  by_path.options.solver.threads = 1;
  PipelineJob by_text;
  by_text.name = "inline";
  by_text.input_text = contents.str();
  by_text.input_ports = 2;  // kAuto + ports>0 => Touchstone
  by_text.options = by_path.options;

  const auto from_path = run_pipeline(by_path);
  const auto from_text = run_pipeline(by_text);
  ASSERT_TRUE(from_path.ok) << from_path.error;
  ASSERT_TRUE(from_text.ok) << from_text.error;
  EXPECT_EQ(from_text.sample_count, from_path.sample_count);
  EXPECT_EQ(from_text.ports, from_path.ports);
  EXPECT_EQ(from_text.fit_rms, from_path.fit_rms);  // exact
  EXPECT_EQ(from_text.status(), from_path.status());
  ASSERT_EQ(from_text.initial_report.crossings.size(),
            from_path.initial_report.crossings.size());
  for (std::size_t i = 0; i < from_text.initial_report.crossings.size();
       ++i) {
    EXPECT_DOUBLE_EQ(from_text.initial_report.crossings[i],
                     from_path.initial_report.crossings[i]);
  }

  // The phes-samples text format goes through the same inline route.
  std::ostringstream samples_text;
  test::save_samples(samples, samples_text);
  const auto parsed = pipeline::parse_input_text(
      samples_text.str(), pipeline::InputFormat::kSamples, 0);
  EXPECT_EQ(parsed.count(), samples.count());

  // Touchstone text without a port count cannot be parsed.
  EXPECT_THROW((void)pipeline::parse_input_text(
                   contents.str(), pipeline::InputFormat::kTouchstone, 0),
               std::runtime_error);
  // A broken payload fails inside the load stage, captured not thrown.
  PipelineJob bad;
  bad.input_text = "not a touchstone file";
  bad.input_ports = 2;
  const auto failed = run_pipeline(bad);
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(failed.failed_stage, Stage::kLoad);
}

TEST(Pipeline, BatchSessionPoolSharesAcrossDuplicateModels) {
  // Four jobs over ONE model, one worker: jobs serialize, so jobs 2-4
  // must check the first job's session back out of the batch pool.
  // The model sits below engine::kDenseMaxOrder, so each job's one
  // eigensolve is dense and builds no factorization to share.
  const auto samples = non_passive_samples(7, 20);
  std::vector<PipelineJob> jobs;
  for (int i = 0; i < 4; ++i) {
    PipelineJob job = make_job(samples);
    job.name = "dup-" + std::to_string(i);
    job.options.fit.num_poles = 10;
    job.options.stop_after = Stage::kCharacterize;
    jobs.push_back(std::move(job));
  }

  pipeline::BatchOptions options;
  options.job_workers = 1;
  options.solver_threads = 1;
  const pipeline::BatchRunner runner(options);
  const auto outcome = runner.run_all(jobs);

  ASSERT_EQ(outcome.results.size(), 4u);
  for (const auto& r : outcome.results) ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(outcome.pool.checkouts, 4u);
  EXPECT_EQ(outcome.pool.creations, 1u);
  EXPECT_EQ(outcome.pool.pool_hits, 3u) << "duplicate models must share";
  EXPECT_FALSE(outcome.results[0].session_reused);
  for (int i = 1; i < 4; ++i) {
    EXPECT_TRUE(outcome.results[i].session_reused);
  }
  // The first job runs the dense eigensolve; the three pooled repeats
  // of the unchanged model are served by the session's memo.
  for (std::size_t i = 0; i < outcome.results.size(); ++i) {
    const auto& r = outcome.results[i];
    ASSERT_LE(r.order, engine::kDenseMaxOrder);
    EXPECT_EQ(r.session.solves, 1u);
    EXPECT_EQ(r.session.dense_solves, i == 0 ? 1u : 0u) << "job " << i;
    EXPECT_EQ(r.session.dense_reuses, i == 0 ? 0u : 1u) << "job " << i;
    EXPECT_EQ(r.session.factorizations, 0u);
    EXPECT_EQ(r.session.cache.hits + r.session.cache.misses, 0u);
  }
  // Pooled reuse must not change the numbers: all four crossing sets
  // agree bit for bit.
  for (int i = 1; i < 4; ++i) {
    ASSERT_EQ(outcome.results[i].initial_report.crossings.size(),
              outcome.results[0].initial_report.crossings.size());
    for (std::size_t k = 0;
         k < outcome.results[i].initial_report.crossings.size(); ++k) {
      EXPECT_DOUBLE_EQ(outcome.results[i].initial_report.crossings[k],
                       outcome.results[0].initial_report.crossings[k]);
    }
  }

  // Oracle: each job alone on a private session.  Pooling must not
  // move a bit of the crossing set or of the deterministic record.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto isolated = run_pipeline(jobs[i]);
    ASSERT_TRUE(isolated.ok) << isolated.error;
    EXPECT_FALSE(isolated.session_reused);
    EXPECT_EQ(outcome.results[i].initial_report.crossings,
              isolated.initial_report.crossings)
        << "job " << i;
    EXPECT_EQ(pipeline::result_signature(outcome.results[i]),
              pipeline::result_signature(isolated))
        << "job " << i;
  }
  // The summary table gains a pool footer row when stats are passed.
  const auto table =
      pipeline::summary_table(outcome.results, &outcome.pool);
  std::ostringstream rendered;
  table.print(rendered);
  EXPECT_NE(rendered.str().find("(session pool)"), std::string::npos);
  EXPECT_NE(rendered.str().find("3/4 reused"), std::string::npos);
}

TEST(Pipeline, ParallelismPlanSplitsTheBudget) {
  // Plenty of jobs: all threads go to job-level parallelism.
  auto plan = pipeline::plan_parallelism(8, 16);
  EXPECT_EQ(plan.job_workers, 8u);
  EXPECT_EQ(plan.solver_threads, 1u);
  // Few jobs: leftover threads feed each job's solver.
  plan = pipeline::plan_parallelism(8, 2);
  EXPECT_EQ(plan.job_workers, 2u);
  EXPECT_EQ(plan.solver_threads, 4u);
  // Degenerate inputs stay sane.
  plan = pipeline::plan_parallelism(1, 0);
  EXPECT_EQ(plan.job_workers, 1u);
  EXPECT_EQ(plan.solver_threads, 1u);
}

TEST(Pipeline, BatchRunsAllJobsAndIsolatesFailures) {
  // Two good jobs (one via Touchstone file, one in memory), one doomed.
  const auto samples = non_passive_samples(3);
  io::save_touchstone_file(samples, "/tmp/phes_pipeline_batch.s2p", {});
  {
    std::ofstream bad("/tmp/phes_pipeline_batch_bad.s2p");
    bad << "# Hz S RI\n1.0 0.5\n";  // truncated record
  }

  std::vector<PipelineJob> jobs(3);
  jobs[0].name = "file-job";
  jobs[0].input_path = "/tmp/phes_pipeline_batch.s2p";
  jobs[0].options.fit.num_poles = 12;
  jobs[1] = make_job(non_passive_samples(5));
  jobs[1].options.stop_after = Stage::kCharacterize;
  jobs[2].name = "bad-job";
  jobs[2].input_path = "/tmp/phes_pipeline_batch_bad.s2p";

  pipeline::BatchOptions options;
  options.total_threads = 2;
  const pipeline::BatchRunner runner(options);
  const auto results = runner.run_all(jobs).results;

  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].name, "file-job");  // order preserved
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_TRUE(results[0].certified_passive);
  EXPECT_TRUE(results[1].ok) << results[1].error;
  EXPECT_EQ(results[1].status(), "stopped@characterize");
  EXPECT_FALSE(results[2].ok);
  EXPECT_EQ(results[2].failed_stage, Stage::kLoad);
  EXPECT_NE(results[2].error.find("truncated"), std::string::npos);

  EXPECT_EQ(pipeline::count_succeeded(results), 2u);
  const auto table = pipeline::summary_table(results);
  EXPECT_EQ(table.rows(), 3u);
}

TEST(Pipeline, SummaryJsonIsWrittenAndParseable) {
  std::vector<PipelineJob> jobs(2);
  jobs[0] = make_job(non_passive_samples(7));
  jobs[0].name = "full-job";
  jobs[1] = make_job(non_passive_samples(5));
  jobs[1].name = "fit-only";
  jobs[1].options.stop_after = Stage::kFit;

  pipeline::BatchOptions options;
  options.total_threads = 2;
  const auto results = pipeline::BatchRunner(options).run_all(jobs).results;
  ASSERT_EQ(pipeline::count_succeeded(results), 2u);

  const std::string json_path = "/tmp/phes_summary_test.json";
  pipeline::write_summary_json_file(results, json_path);
  std::ifstream jf(json_path);
  ASSERT_TRUE(jf.good());
  std::stringstream jbuf;
  jbuf << jf.rdbuf();
  const std::string json = jbuf.str();

  EXPECT_NE(json.find("\"jobs\": ["), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"full-job\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"fit-only\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"enforced\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"stopped@fit\""), std::string::npos);
  // The full job's session stats are reported verbatim.
  const std::string hits_field =
      "\"cache_hits\": " + std::to_string(results[0].session.cache.hits);
  EXPECT_NE(json.find(hits_field), std::string::npos) << json;
  EXPECT_NE(json.find("\"summary\": { \"jobs\": 2, \"succeeded\": 2"),
            std::string::npos);
  // A fit-only job reports no characterize products.
  EXPECT_NE(json.find("\"bands_initial\": null"), std::string::npos);
}

TEST(Pipeline, SummaryTableHasCacheColumn) {
  auto job = make_job(non_passive_samples(7));
  job.options.stop_after = Stage::kCharacterize;
  const auto result = run_pipeline(job);
  ASSERT_TRUE(result.ok) << result.error;
  const auto table = pipeline::summary_table({result});
  std::ostringstream os;
  table.print(os);
  EXPECT_NE(os.str().find("cache"), std::string::npos);
  // A cold single characterization: all misses, zero hits.
  EXPECT_NE(os.str().find("0/"), std::string::npos) << os.str();
}

TEST(Pipeline, AlreadyPassiveModelSkipsEnforcement) {
  auto job = make_job(test::passive_samples(21));
  const auto result = run_pipeline(job);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.status(), "passive");
  EXPECT_FALSE(result.enforcement_run);
  EXPECT_TRUE(result.certified_passive);
  // Characterize runs the dense eigensolve; verify re-solves the same
  // revision and is served by the session's dense-result memo.
  ASSERT_LE(result.order, engine::kDenseMaxOrder);
  EXPECT_EQ(result.session.solves, 2u);
  EXPECT_EQ(result.session.dense_solves, 1u);
  EXPECT_EQ(result.session.dense_reuses, 1u);
}

TEST(Pipeline, PooledRepeatOfPassiveModelRunsNoEigensolve) {
  // Two full runs over one passive model, one worker: the second job
  // checks out the first job's unchanged session, whose memo serves
  // both its characterize and its verify solve — same bits.
  const auto samples = test::passive_samples(21);
  std::vector<PipelineJob> jobs(2, make_job(samples));
  pipeline::BatchOptions options;
  options.job_workers = 1;
  options.solver_threads = 1;
  const auto outcome = pipeline::BatchRunner(options).run_all(jobs);
  ASSERT_EQ(outcome.results.size(), 2u);
  const auto& first = outcome.results[0];
  const auto& second = outcome.results[1];
  ASSERT_TRUE(first.ok && second.ok);
  EXPECT_EQ(second.status(), "passive");
  EXPECT_TRUE(second.session_reused);
  EXPECT_EQ(first.session.dense_solves, 1u);
  EXPECT_EQ(first.session.dense_reuses, 1u);
  EXPECT_EQ(second.session.solves, 2u);
  EXPECT_EQ(second.session.dense_solves, 0u);
  EXPECT_EQ(second.session.dense_reuses, 2u);
  EXPECT_EQ(second.initial_report.solver.eigenvalues,
            first.initial_report.solver.eigenvalues);
  EXPECT_EQ(second.final_report.solver.eigenvalues,
            first.final_report.solver.eigenvalues);
}

TEST(Pipeline, CancellationStopsAtStageBoundary) {
  auto job = make_job(non_passive_samples(7));
  std::atomic<bool> cancel{false};
  pipeline::PipelineContext context;
  context.cancel = &cancel;
  std::vector<Stage> started;
  context.on_stage_start = [&](Stage stage) {
    started.push_back(stage);
    if (stage == Stage::kFit) cancel.store(true);
  };
  const auto result = run_pipeline(job, context);

  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.failed_stage, Stage::kRealize);
  EXPECT_EQ(result.status(), "cancelled@realize");
  ASSERT_EQ(started.size(), 2u);  // load + fit ran, realize never started
  EXPECT_EQ(result.stage_timings.size(), 2u);
  EXPECT_NE(result.error.find("cancelled"), std::string::npos);
}

TEST(Pipeline, PreCancelledJobRunsNothing) {
  auto job = make_job(non_passive_samples(7));
  std::atomic<bool> cancel{true};
  pipeline::PipelineContext context;
  context.cancel = &cancel;
  const auto result = run_pipeline(job, context);
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.status(), "cancelled@load");
  EXPECT_TRUE(result.stage_timings.empty());
}

TEST(Pipeline, JobIdIsCarriedOntoTheResult) {
  auto job = make_job(non_passive_samples(7));
  job.id = 42;
  job.options.stop_after = Stage::kFit;
  const auto result = run_pipeline(job);
  EXPECT_EQ(result.id, 42u);
}

}  // namespace
}  // namespace phes
