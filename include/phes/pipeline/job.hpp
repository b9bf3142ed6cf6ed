#pragma once
// The end-to-end passivity pipeline of paper Sec. II, as one runnable
// stage machine:
//
//   load -> fit (vector fitting) -> realize (SIMO state space)
//        -> characterize (parallel Hamiltonian eigensolver)
//        -> enforce (iterative residue perturbation, skipped when the
//           model is already passive)
//        -> verify (sampling check of the final report's certificate)
//
// Each stage hands its report on to the next: enforcement's round 0
// reads characterize's report, and verify samples H(jw) at the points
// the final report vouches for (verify_certificate) instead of solving
// again, so a job runs 1 + enforcement.iterations eigensolves.
//
// Each stage is timed, and a throwing stage is captured as a structured
// failure on the result instead of escaping mid-batch — the contract
// BatchRunner (pipeline/batch.hpp) relies on to keep one bad input from
// killing N-1 good jobs.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "phes/core/solver.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "phes/macromodel/samples.hpp"
#include "phes/passivity/characterization.hpp"
#include "phes/passivity/enforcement.hpp"
#include "phes/vf/vector_fitting.hpp"

namespace phes::pipeline {

/// Pipeline stages in execution order.
enum class Stage {
  kLoad = 0,
  kFit,
  kRealize,
  kCharacterize,
  kEnforce,
  kVerify,
};

[[nodiscard]] const char* stage_name(Stage stage) noexcept;

/// Parse a stage name ("load", "fit", ...).  Throws std::invalid_argument
/// on an unknown name.
[[nodiscard]] Stage parse_stage(const std::string& name);

/// Per-job knobs (stage options plus early-stop control).
struct JobOptions {
  vf::VectorFittingOptions fit{};
  core::SolverOptions solver{};
  /// Run stages up to and including this one, then stop.
  Stage stop_after = Stage::kVerify;
};

/// Format of a PipelineJob's in-memory text input.
enum class InputFormat {
  /// Touchstone when `input_ports` > 0, phes-samples text otherwise.
  kAuto = 0,
  kTouchstone,
  kSamples,
};

/// One pipeline invocation: a named input plus its options.  The input
/// is one of, in dispatch order:
///   - `input_text`: in-memory file contents (inline submission over
///     the job-server protocol) parsed by the load stage — Touchstone
///     needs `input_ports` since there is no ".sNp" extension to read
///     a port count from;
///   - `input_path`: a file (Touchstone ".sNp" or phes-samples text,
///     dispatched on extension);
///   - `samples`: already-parsed samples.
struct PipelineJob {
  std::string name;        ///< label for reports (defaults to the path)
  std::string input_path;  ///< empty => use `input_text` / `samples`
  /// In-memory input: when non-empty, the load stage parses this text
  /// instead of touching the filesystem.
  std::string input_text;
  InputFormat input_format = InputFormat::kAuto;
  std::size_t input_ports = 0;  ///< Touchstone text port count
  macromodel::FrequencySamples samples;
  JobOptions options{};
  /// Caller-assigned identifier, carried onto the result verbatim (the
  /// job server uses it to key its result store; 0 = unassigned).
  std::uint64_t id = 0;
};

/// A job's eigensolver work, summed over its stages (the record's
/// "session" block).
struct SolveCounts {
  std::size_t solves = 0;          ///< eigensolves that ran
  std::size_t dense_solves = 0;    ///< of which on the dense route
  std::size_t factorizations = 0;  ///< shift-invert operators built
  // Always 0: kept only because bench/ledger/bench_ledger.cpp reads them.
  struct {
    std::size_t hits = 0;
    std::size_t misses = 0;
  } cache;
  std::size_t warm_solves = 0;
};

/// Wall-clock record of one completed stage.
struct StageTiming {
  Stage stage = Stage::kLoad;
  double seconds = 0.0;
  /// Offset of the stage's start from the pipeline's start (seconds on
  /// the monotonic clock).  Feeds trace spans; deliberately NOT part of
  /// the serialized job record (write_job_json stays byte-stable across
  /// the durable store's read/write round trip).
  double start_seconds = 0.0;
};

/// Structured outcome of one job.
struct PipelineResult {
  std::string name;
  std::uint64_t id = 0;  ///< copied from the job

  bool ok = false;         ///< no stage threw
  bool completed = false;  ///< reached options.stop_after
  std::string error;       ///< failure message when !ok
  Stage failed_stage = Stage::kLoad;  ///< meaningful when !ok
  /// The job was cancelled at a stage boundary (ok is false and
  /// failed_stage names the stage that never started).
  bool cancelled = false;

  std::vector<StageTiming> stage_timings;  ///< completed stages, in order
  double total_seconds = 0.0;

  // Stage products (populated up to the last completed stage).
  std::size_t sample_count = 0;
  std::size_t ports = 0;
  std::size_t order = 0;      ///< dynamic order n of the fitted model
  double fit_rms = 0.0;
  std::size_t fit_iterations = 0;

  passivity::PassivityReport initial_report;  ///< characterize output
  bool enforcement_run = false;  ///< false when already passive
  passivity::EnforcementResult enforcement;
  /// The report verify checked: enforcement's last one, or
  /// characterize's when the model was already passive, with zero work
  /// counters (verify runs no eigensolve).
  passivity::PassivityReport final_report;

  /// True when the final report is passive and verify's sampling check
  /// agreed with it.
  bool certified_passive = false;

  SolveCounts session;
  // Always false: kept only because bench/ledger/bench_ledger.cpp reads it.
  bool session_reused = false;

  /// Compact status: "passive" | "enforced" | "not-passive" |
  /// "stopped@<stage>" | "failed@<stage>" | "cancelled@<stage>".
  [[nodiscard]] std::string status() const;
};

/// Serialize a job's replayable input specification — name, input
/// source (path or inline text), format, port count, content hash, and
/// the option surface the submit protocol exposes — as one JSON
/// document.  The durable store persists it at admission so `replay`
/// can turn a stored record back into a fresh PipelineJob.
/// A job whose input is an already-parsed samples set has no replayable
/// source and yields an empty string.
[[nodiscard]] std::string write_job_spec_json(const PipelineJob& job);

/// Parse a write_job_spec_json document back into a PipelineJob.
/// `defaults` seeds the options the spec does not override, mirroring
/// the submit protocol (whose unset options fall back to the
/// serve-side job defaults).  Unknown fields — including option keys
/// and stage names from future spec versions — are ignored, never
/// fatal.  Throws std::runtime_error on malformed JSON or a spec with
/// no replayable input.
[[nodiscard]] PipelineJob read_job_spec_json(const std::string& text,
                                             const JobOptions& defaults = {});

/// FNV-1a 64-bit content hash (16 hex digits) of a job's replayable
/// input: the inline payload bytes when present, else the input path.
/// The replay filter's "model" key matches against this.
[[nodiscard]] std::string input_content_hash(const PipelineJob& job);

/// The verify stage's check of a certificate, sharing no arithmetic with
/// the eigensolve.  At every crossing of `report`, H(jw) must have a
/// singular value within 1e-6 of 1; sigma_max(H(jw)) must be below 1 at
/// w = 0, between consecutive crossings, at the searched band edge
/// `report.solver.omega_max` and at the `omega_peak` of every band in
/// `characterized_bands` (what characterize found before enforcement).
/// Throws std::runtime_error naming the first disagreement.  Call it
/// only with a passive report: a violating one fails by definition.
void verify_certificate(
    const macromodel::SimoRealization& realization,
    const passivity::PassivityReport& report,
    const std::vector<passivity::ViolationBand>& characterized_bands);

/// Load a samples file, dispatching on extension: ".sNp"/".snp" is
/// parsed as Touchstone, anything else as the phes-samples text format.
[[nodiscard]] macromodel::FrequencySamples load_input(
    const std::string& path);

/// Parse in-memory file contents through the same readers the path
/// route uses (io::load_touchstone / macromodel::load_samples), so an
/// inline submission of a file's bytes yields bit-identical samples.
/// Touchstone requires `ports` >= 1.  Throws std::runtime_error on
/// parse errors (with the readers' line numbers).
[[nodiscard]] macromodel::FrequencySamples parse_input_text(
    const std::string& text, InputFormat format, std::size_t ports);

/// Per-run hooks a host (batch runner, job server) threads through the
/// stage machine.  Default-constructed, run_pipeline behaves exactly as
/// the hook-free overload.
struct PipelineContext {
  /// Cooperative cancellation, polled at every stage boundary; a set
  /// flag stops the job before its next stage (result.cancelled).
  const std::atomic<bool>* cancel = nullptr;
  /// Observer invoked as each stage begins (progress reporting).  Runs
  /// on the pipeline's thread; keep it cheap and noexcept-ish.
  std::function<void(Stage)> on_stage_start;
};

/// Run one job through the stage machine.  Never throws on bad input or
/// numerical failure — such errors come back on the result.  (Only
/// allocation failure and similar catastrophes propagate.)
[[nodiscard]] PipelineResult run_pipeline(const PipelineJob& job);

/// Hooked variant: same stage machine with cooperative cancellation and
/// a stage observer (see PipelineContext).
[[nodiscard]] PipelineResult run_pipeline(const PipelineJob& job,
                                          const PipelineContext& context);

}  // namespace phes::pipeline
