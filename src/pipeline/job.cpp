#include "phes/pipeline/job.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "phes/io/touchstone.hpp"
#include "phes/la/svd.hpp"
#include "phes/macromodel/samples_io.hpp"
#include "phes/pipeline/report.hpp"
#include "phes/util/check.hpp"
#include "phes/util/json.hpp"
#include "phes/util/timer.hpp"

namespace phes::pipeline {

namespace {

constexpr Stage kStages[] = {Stage::kLoad,         Stage::kFit,
                             Stage::kRealize,      Stage::kCharacterize,
                             Stage::kEnforce,      Stage::kVerify};

}  // namespace

const char* stage_name(Stage stage) noexcept {
  switch (stage) {
    case Stage::kLoad: return "load";
    case Stage::kFit: return "fit";
    case Stage::kRealize: return "realize";
    case Stage::kCharacterize: return "characterize";
    case Stage::kEnforce: return "enforce";
    case Stage::kVerify: return "verify";
  }
  return "?";
}

Stage parse_stage(const std::string& name) {
  for (Stage stage : kStages) {
    if (name == stage_name(stage)) return stage;
  }
  throw std::invalid_argument("unknown pipeline stage '" + name +
                              "' (expected load|fit|realize|characterize|"
                              "enforce|verify)");
}

std::string PipelineResult::status() const {
  if (cancelled) return std::string("cancelled@") + stage_name(failed_stage);
  if (!ok) return std::string("failed@") + stage_name(failed_stage);
  const Stage last = stage_timings.empty() ? Stage::kLoad
                                           : stage_timings.back().stage;
  if (last != Stage::kVerify) {
    return std::string("stopped@") + stage_name(last);
  }
  if (certified_passive) return enforcement_run ? "enforced" : "passive";
  return "not-passive";
}

namespace {

const char* input_format_name(InputFormat format) noexcept {
  switch (format) {
    case InputFormat::kAuto: return "auto";
    case InputFormat::kTouchstone: return "touchstone";
    case InputFormat::kSamples: return "samples";
  }
  return "auto";
}

// Unknown (future) format names degrade to kAuto rather than failing
// the spec: the load stage's ports-based dispatch is the safe default.
InputFormat parse_input_format(const std::string& name) noexcept {
  if (name == "touchstone") return InputFormat::kTouchstone;
  if (name == "samples") return InputFormat::kSamples;
  return InputFormat::kAuto;
}

}  // namespace

std::string input_content_hash(const PipelineJob& job) {
  // FNV-1a 64-bit over the inline payload when present, else the path:
  // two submissions of the same bytes (or the same file) share a hash,
  // which is all the replay filter's "model" key needs.
  const std::string& bytes =
      !job.input_text.empty() ? job.input_text : job.input_path;
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

std::string write_job_spec_json(const PipelineJob& job) {
  if (job.input_path.empty() && job.input_text.empty()) return {};
  std::ostringstream os;
  os << "{\"spec_version\": 1, \"name\": \"" << json_escape(job.name)
     << "\"";
  // Dispatch order mirrors the load stage: inline text wins over a path.
  if (!job.input_text.empty()) {
    os << ", \"input_text\": \"" << json_escape(job.input_text) << "\"";
  } else {
    os << ", \"input_path\": \"" << json_escape(job.input_path) << "\"";
  }
  os << ", \"format\": \"" << input_format_name(job.input_format)
     << "\", \"ports\": " << job.input_ports << ", \"input_hash\": \""
     << input_content_hash(job) << "\"";
  // The option surface the submit protocol exposes (protocol.cpp's
  // job_options_from), under the same keys.
  os << ", \"options\": {\"poles\": " << job.options.fit.num_poles
     << ", \"vf_iters\": " << job.options.fit.iterations
     << ", \"stop_after\": \"" << stage_name(job.options.stop_after)
     << "\"}}";
  return os.str();
}

PipelineJob read_job_spec_json(const std::string& text,
                               const JobOptions& defaults) {
  util::JsonValue doc = [&] {
    try {
      return util::JsonValue::parse(text);
    } catch (const std::exception& e) {
      throw std::runtime_error(std::string("job spec: ") + e.what());
    }
  }();
  if (doc.type() != util::JsonValue::Type::kObject) {
    throw std::runtime_error("job spec: not a JSON object");
  }
  PipelineJob job;
  job.name = doc.string_or("name", "");
  job.input_text = doc.string_or("input_text", "");
  job.input_path = doc.string_or("input_path", "");
  if (job.input_text.empty() && job.input_path.empty()) {
    throw std::runtime_error("job spec: no replayable input "
                             "(neither \"input_text\" nor \"input_path\")");
  }
  job.input_format = parse_input_format(doc.string_or("format", "auto"));
  job.input_ports = static_cast<std::size_t>(doc.uint_or("ports", 0));
  job.options = defaults;
  if (const util::JsonValue* options = doc.find("options")) {
    job.options.fit.num_poles = static_cast<std::size_t>(
        options->uint_or("poles", job.options.fit.num_poles));
    job.options.fit.iterations = static_cast<std::size_t>(
        options->uint_or("vf_iters", job.options.fit.iterations));
    if (const util::JsonValue* stop = options->find("stop_after")) {
      try {
        job.options.stop_after = parse_stage(stop->as_string());
      } catch (const std::exception&) {
        // Future stage name: keep the default rather than losing the
        // whole record.
      }
    }
  }
  return job;
}

void verify_certificate(
    const macromodel::SimoRealization& realization,
    const passivity::PassivityReport& report,
    const std::vector<passivity::ViolationBand>& characterized_bands) {
  // The tolerance of the crossing oracle the performance ledger applies
  // to every solve.
  constexpr double kUnitSigmaTol = 1e-6;
  std::ostringstream why;
  for (const double w : report.crossings) {
    double nearest = 1e300;
    for (const double s : la::complex_singular_values(realization.eval(w))) {
      nearest = std::min(nearest, std::abs(s - 1.0));
    }
    if (nearest > kUnitSigmaTol) {
      why << "no unit singular value at crossing w = " << w
          << " (nearest is " << nearest << " from 1)";
      throw std::runtime_error(why.str());
    }
  }
  const auto require_below_one = [&](const char* where, double w) {
    const double sigma = la::complex_spectral_norm(realization.eval(w));
    if (sigma < 1.0) return;
    why << "sigma_max = " << sigma << " >= 1 at " << where << " w = " << w;
    throw std::runtime_error(why.str());
  };
  require_below_one("DC", 0.0);
  for (std::size_t k = 0; k + 1 < report.crossings.size(); ++k) {
    require_below_one("midpoint",
                      0.5 * (report.crossings[k] + report.crossings[k + 1]));
  }
  require_below_one("band edge", report.solver.omega_max);
  for (const passivity::ViolationBand& band : characterized_bands) {
    require_below_one("characterized peak", band.omega_peak);
  }
}

macromodel::FrequencySamples load_input(const std::string& path) {
  if (io::is_touchstone_path(path)) {
    return io::load_touchstone_file(path).samples;
  }
  return macromodel::load_samples_file(path);
}

macromodel::FrequencySamples parse_input_text(const std::string& text,
                                              InputFormat format,
                                              std::size_t ports) {
  if (format == InputFormat::kAuto) {
    format = ports > 0 ? InputFormat::kTouchstone : InputFormat::kSamples;
  }
  std::istringstream is(text);
  if (format == InputFormat::kTouchstone) {
    util::require(ports > 0,
                  "inline Touchstone input needs a port count (no file "
                  "extension to infer it from)");
    return io::load_touchstone(is, ports).samples;
  }
  return macromodel::load_samples(is);
}

PipelineResult run_pipeline(const PipelineJob& job) {
  return run_pipeline(job, PipelineContext{});
}

PipelineResult run_pipeline(const PipelineJob& job,
                            const PipelineContext& context) {
  PipelineResult result;
  result.name = job.name.empty() ? job.input_path : job.name;
  result.id = job.id;

  const util::WallTimer total_timer;
  macromodel::FrequencySamples samples;
  vf::VectorFittingResult fit;
  // Built in kRealize; enforcement perturbs its residues in place.
  std::optional<macromodel::SimoRealization> realization;

  // Runs `body` as `stage`, recording its wall time; returns false when
  // the job was cancelled, the stage threw (the pipeline stops), or the
  // stop-after mark is hit.
  auto run_stage = [&](Stage stage, auto&& body) -> bool {
    if (context.cancel != nullptr &&
        context.cancel->load(std::memory_order_acquire)) {
      result.ok = false;
      result.cancelled = true;
      result.failed_stage = stage;
      result.error = std::string("cancelled before ") + stage_name(stage);
      result.total_seconds = total_timer.seconds();
      return false;
    }
    if (context.on_stage_start) context.on_stage_start(stage);
    const double stage_start = total_timer.seconds();
    const util::WallTimer timer;
    try {
      body();
    } catch (const std::exception& e) {
      result.ok = false;
      result.failed_stage = stage;
      result.error = std::string(stage_name(stage)) + ": " + e.what();
      result.total_seconds = total_timer.seconds();
      return false;
    }
    result.stage_timings.push_back({stage, timer.seconds(), stage_start});
    if (stage == job.options.stop_after) {
      result.ok = true;
      result.completed = true;
      result.total_seconds = total_timer.seconds();
      return false;
    }
    return true;
  };

  // -- load ------------------------------------------------------------
  if (!run_stage(Stage::kLoad, [&] {
        samples = !job.input_text.empty()
                      ? parse_input_text(job.input_text, job.input_format,
                                         job.input_ports)
                  : !job.input_path.empty() ? load_input(job.input_path)
                                            : job.samples;
        samples.check_consistency();
        util::require(samples.count() > 0, "no frequency samples");
        result.sample_count = samples.count();
        result.ports = samples.ports();
      })) {
    return result;
  }

  // -- fit (vector fitting) --------------------------------------------
  if (!run_stage(Stage::kFit, [&] {
        auto fit_options = job.options.fit;
        if (fit_options.threads == 0) {
          // Compose with the batch parallelism plan: the per-job solver
          // thread budget doubles as the column-fit worker count.
          fit_options.threads = job.options.solver.threads;
        }
        fit = vf::vector_fit(samples, fit_options);
        result.fit_rms = fit.rms_error;
        result.fit_iterations = fit.iterations_used;
        result.order = fit.model.order();
        util::require(fit.model.is_stable(),
                      "vector fitting produced an unstable model");
      })) {
    return result;
  }

  // -- realize (structured SIMO state space) ---------------------------
  if (!run_stage(Stage::kRealize, [&] {
        realization.emplace(fit.model);
      })) {
    return result;
  }

  // -- characterize (parallel Hamiltonian eigensolver) -----------------
  if (!run_stage(Stage::kCharacterize, [&] {
        result.initial_report = passivity::characterize_passivity(
            *realization, job.options.solver);
        const core::SolverResult& solver = result.initial_report.solver;
        result.session.solves = 1;
        result.session.dense_solves = solver.dense ? 1 : 0;
        result.session.factorizations = solver.factorizations;
      })) {
    return result;
  }

  // -- enforce (skipped when already passive) --------------------------
  if (!run_stage(Stage::kEnforce, [&] {
        if (result.initial_report.passive) return;
        result.enforcement_run = true;
        result.enforcement = passivity::enforce_passivity(
            *realization, result.initial_report, job.options.solver);
        // Round 0 read the initial report; every later round solved on
        // the initial solve's route (the order never changes).
        const std::size_t solves = result.enforcement.characterizations - 1;
        result.session.solves += solves;
        if (result.initial_report.solver.dense) {
          result.session.dense_solves += solves;
        }
        result.session.factorizations += result.enforcement.factorizations;
        util::require(result.enforcement.success,
                      "enforcement did not converge within " +
                          std::to_string(passivity::kMaxEnforcementRounds) +
                          " iterations");
      })) {
    return result;
  }

  // -- verify (sampling check of the final report; no eigensolve) ------
  if (!run_stage(Stage::kVerify, [&] {
        result.final_report = result.enforcement_run
                                  ? result.enforcement.final_report
                                  : result.initial_report;
        core::SolverResult& solver = result.final_report.solver;
        solver.seconds = 0.0;
        solver.shifts_processed = 0;
        solver.shifts_eliminated = 0;
        solver.total_matvecs = 0;
        solver.lambda_max_matvecs = 0;
        solver.shift_log.clear();
        solver.factorizations = 0;
        if (result.final_report.passive) {
          verify_certificate(*realization, result.final_report,
                             result.initial_report.bands);
        }
        result.certified_passive = result.final_report.passive;
      })) {
    return result;
  }

  // Normally unreachable: stop_after == kVerify exits inside run_stage
  // above.  Guard anyway (e.g. an out-of-range stop_after cast).
  result.ok = true;
  result.completed = true;
  result.total_seconds = total_timer.seconds();
  return result;
}

}  // namespace phes::pipeline
