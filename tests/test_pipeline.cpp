// Pipeline subsystem tests: the stage machine, input dispatch, error
// capture, the two-level parallelism plan, and the end-to-end path
// from a synthetic non-passive model to a certified-passive result.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "phes/io/touchstone.hpp"
#include "phes/la/svd.hpp"
#include "phes/macromodel/samples.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "phes/passivity/characterization.hpp"
#include "phes/passivity/enforcement.hpp"
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

  // Characterize and every enforcement round after round 0 (which
  // reads characterize's report) ran an eigensolve; verify ran none.
  // The fitted model sits below core::kDenseMaxOrder, so each solve
  // took the dense route: no factorizations.
  ASSERT_LE(result.order, core::kDenseMaxOrder);
  EXPECT_GE(result.enforcement.characterizations, 2u);
  EXPECT_EQ(result.session.solves, result.enforcement.characterizations);
  EXPECT_EQ(result.session.solves, 1 + result.enforcement.iterations);
  EXPECT_EQ(result.session.dense_solves, result.session.solves);
  EXPECT_EQ(result.session.factorizations, 0u);
  EXPECT_TRUE(result.initial_report.solver.dense);
  EXPECT_TRUE(result.final_report.solver.dense);
}

TEST(Pipeline, KrylovJobRunsOneEigensolvePerRound) {
  // A non-passive model fitted just above core::kDenseMaxOrder takes
  // the Krylov route.  At one thread, characterize and each perturbed
  // round run an eigensolve; enforcement's round 0 reads characterize's
  // report and verify samples the last round's, so neither solves.
  PipelineJob job = make_job(test::gen_samples(2));  // 4 ports
  job.options.fit.num_poles = 49;                    // order 196
  job.options.solver.threads = 1;
  const auto result = run_pipeline(job);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_GT(result.order, core::kDenseMaxOrder);
  ASSERT_TRUE(result.enforcement_run);
  EXPECT_EQ(result.status(), "enforced");
  EXPECT_FALSE(result.initial_report.solver.dense);
  EXPECT_EQ(result.session.dense_solves, 0u);
  EXPECT_EQ(result.session.solves, 1 + result.enforcement.iterations);
  EXPECT_EQ(result.session.factorizations,
            result.initial_report.solver.factorizations +
                result.enforcement.factorizations);
  EXPECT_GT(result.initial_report.solver.total_matvecs, 0u);
  EXPECT_EQ(result.final_report.solver.total_matvecs, 0u);
  EXPECT_TRUE(result.certified_passive);
}

// ---- verify_certificate: the verify stage's sampling check -------------

/// A non-passive model, its characterization, and the enforced copy
/// with enforcement's final report.
struct Certified {
  macromodel::SimoRealization original;
  passivity::PassivityReport initial;
  macromodel::SimoRealization enforced;
  passivity::PassivityReport final_report;
};

Certified certify(double peak, std::uint64_t seed) {
  const macromodel::SimoRealization original(test::synthetic_model(peak, seed));
  const core::SolverOptions opt;
  const auto initial = passivity::characterize_passivity(original, opt);
  macromodel::SimoRealization enforced = original;
  auto result = passivity::enforce_passivity(enforced, initial, opt);
  util::require(result.success, "fixture model did not enforce");
  return {original, initial, std::move(enforced),
          std::move(result.final_report)};
}

/// The message verify_certificate throws, or "" when it accepts.
std::string verdict(const macromodel::SimoRealization& realization,
                    const passivity::PassivityReport& report,
                    const std::vector<passivity::ViolationBand>& bands) {
  try {
    pipeline::verify_certificate(realization, report, bands);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(VerifyCertificate, AcceptsTheEnforcedModelsReport) {
  const Certified c = certify(1.06, 3);
  ASSERT_FALSE(c.initial.bands.empty());
  ASSERT_TRUE(c.final_report.passive);
  EXPECT_EQ(verdict(c.enforced, c.final_report, c.initial.bands), "");
}

TEST(VerifyCertificate, StaleRealizationIsCaughtAtTheCharacterizedPeaks) {
  // The enforced model's "passive, no crossings" report handed over
  // with the unenforced realization.
  const Certified c = certify(1.06, 3);
  ASSERT_TRUE(c.final_report.crossings.empty());
  const std::string why =
      verdict(c.original, c.final_report, c.initial.bands);
  EXPECT_NE(why.find("characterized peak"), std::string::npos) << why;
}

TEST(VerifyCertificate, PlantedCrossingIsCaughtAtTheUnitSigmaCheck) {
  // A passive report that claims a crossing where no singular value of
  // H(jw) is near 1.
  const Certified c = certify(1.06, 3);
  passivity::PassivityReport planted = c.final_report;
  const double w = 0.5 * planted.solver.omega_max;
  ASSERT_LT(la::complex_spectral_norm(c.enforced.eval(w)), 0.999);
  planted.crossings = {w};
  const std::string why = verdict(c.enforced, planted, c.initial.bands);
  EXPECT_NE(why.find("no unit singular value at crossing"),
            std::string::npos)
      << why;
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

TEST(Pipeline, BatchDuplicateModelsEachRunTheirOwnSolve) {
  // Four jobs over ONE model, one worker: jobs serialize, and each one
  // runs its own eigensolve — nothing is shared across jobs.  The
  // model sits below core::kDenseMaxOrder,
  // so that eigensolve is dense and builds no factorization.
  const auto samples = non_passive_samples(7, 20);
  std::vector<PipelineJob> jobs;
  for (int i = 0; i < 4; ++i) {
    PipelineJob job = make_job(samples);
    job.name = "dup";  // the signature carries the name
    job.options.fit.num_poles = 10;
    job.options.stop_after = Stage::kCharacterize;
    jobs.push_back(std::move(job));
  }

  pipeline::BatchOptions options;
  options.job_workers = 1;
  options.solver_threads = 1;
  const auto results = pipeline::BatchRunner(options).run_all(jobs);

  ASSERT_EQ(results.size(), 4u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_LE(r.order, core::kDenseMaxOrder);
    EXPECT_FALSE(r.session_reused);
    EXPECT_EQ(r.session.solves, 1u);
    EXPECT_EQ(r.session.dense_solves, 1u) << "job " << i;
    EXPECT_EQ(r.session.factorizations, 0u);
    // Same model, same deterministic product: equal signatures and
    // bit-identical crossings.
    EXPECT_EQ(pipeline::result_signature(r),
              pipeline::result_signature(results[0]))
        << "job " << i;
    EXPECT_EQ(r.initial_report.crossings, results[0].initial_report.crossings)
        << "job " << i;
  }
  // Oracle: each job alone through run_pipeline gives the same record.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto isolated = run_pipeline(jobs[i]);
    ASSERT_TRUE(isolated.ok) << isolated.error;
    EXPECT_EQ(pipeline::result_signature(results[i]),
              pipeline::result_signature(isolated))
        << "job " << i;
  }
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
  const auto results = runner.run_all(jobs);

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
  const auto results = pipeline::BatchRunner(options).run_all(jobs);
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
  // The full job's eigensolve counts are reported verbatim.
  const std::string solves_field =
      "\"solves\": " + std::to_string(results[0].session.solves);
  EXPECT_NE(json.find(solves_field), std::string::npos) << json;
  EXPECT_EQ(json.find("\"reuses\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"summary\": { \"jobs\": 2, \"succeeded\": 2"),
            std::string::npos);
  // A fit-only job reports no characterize products.
  EXPECT_NE(json.find("\"bands_initial\": null"), std::string::npos);
}

TEST(Pipeline, SummaryTableHasSolvesColumn) {
  auto job = make_job(non_passive_samples(7));
  job.options.stop_after = Stage::kCharacterize;
  const auto result = run_pipeline(job);
  ASSERT_TRUE(result.ok) << result.error;
  const auto table = pipeline::summary_table({result});
  std::ostringstream os;
  table.print(os);
  EXPECT_NE(os.str().find("solves"), std::string::npos);
  EXPECT_EQ(result.session.solves, 1u);
}

TEST(Pipeline, AlreadyPassiveModelSkipsEnforcement) {
  auto job = make_job(test::passive_samples(21));
  const auto result = run_pipeline(job);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.status(), "passive");
  EXPECT_FALSE(result.enforcement_run);
  EXPECT_TRUE(result.certified_passive);
  // Characterize runs the dense eigensolve; verify samples its report.
  ASSERT_LE(result.order, core::kDenseMaxOrder);
  EXPECT_EQ(result.session.solves, 1u);
  EXPECT_EQ(result.session.dense_solves, 1u);
}

TEST(Pipeline, RepeatOfPassiveModelRunsItsOwnEigensolve) {
  // Two full runs over one passive model, one worker: the second job
  // runs the same one dense eigensolve and gets the same bits.
  const auto samples = test::passive_samples(21);
  std::vector<PipelineJob> jobs(2, make_job(samples));
  pipeline::BatchOptions options;
  options.job_workers = 1;
  options.solver_threads = 1;
  const auto results = pipeline::BatchRunner(options).run_all(jobs);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status(), "passive");
    EXPECT_EQ(r.session.solves, 1u);
    EXPECT_EQ(r.session.dense_solves, 1u);
  }
  EXPECT_EQ(results[1].initial_report.solver.eigenvalues,
            results[0].initial_report.solver.eigenvalues);
  EXPECT_EQ(results[1].final_report.solver.eigenvalues,
            results[0].final_report.solver.eigenvalues);
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
