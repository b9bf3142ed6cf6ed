#include "phes/pipeline/report.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "phes/util/json.hpp"

namespace phes::pipeline {

namespace {

// Locale-independent shortest-ish double rendering (%.9g never emits
// commas and round-trips the magnitudes reported here).
std::string fmt(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  return buf;
}

bool stage_ran(const PipelineResult& r, Stage stage) {
  return std::any_of(
      r.stage_timings.begin(), r.stage_timings.end(),
      [stage](const StageTiming& t) { return t.stage == stage; });
}

double stage_seconds(const PipelineResult& r, Stage stage) {
  for (const auto& t : r.stage_timings) {
    if (t.stage == stage) return t.seconds;
  }
  return 0.0;
}

std::size_t job_matvecs(const PipelineResult& r) {
  return r.initial_report.solver.total_matvecs +
         r.enforcement.total_matvecs +
         r.final_report.solver.total_matvecs;
}

constexpr Stage kAllStages[] = {Stage::kLoad,         Stage::kFit,
                                Stage::kRealize,      Stage::kCharacterize,
                                Stage::kEnforce,      Stage::kVerify};

}  // namespace

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_job_json(const PipelineResult& r, std::ostream& os,
                    std::size_t indent) {
  const std::string pad(indent, ' ');
  const bool characterized = stage_ran(r, Stage::kCharacterize);
  const bool verified = stage_ran(r, Stage::kVerify);
  os << pad << "{\n";
  os << pad << "  \"name\": \"" << json_escape(r.name) << "\",\n";
  os << pad << "  \"id\": " << r.id << ",\n";
  os << pad << "  \"status\": \"" << json_escape(r.status()) << "\",\n";
  os << pad << "  \"ok\": " << (r.ok ? "true" : "false") << ",\n";
  os << pad << "  \"completed\": " << (r.completed ? "true" : "false")
     << ",\n";
  os << pad << "  \"cancelled\": " << (r.cancelled ? "true" : "false")
     << ",\n";
  if (!r.ok) {
    os << pad << "  \"error\": \"" << json_escape(r.error) << "\",\n";
    os << pad << "  \"failed_stage\": \"" << stage_name(r.failed_stage)
       << "\",\n";
  }
  os << pad << "  \"samples\": " << r.sample_count << ",\n";
  os << pad << "  \"ports\": " << r.ports << ",\n";
  os << pad << "  \"order\": " << r.order << ",\n";
  os << pad << "  \"fit_rms\": " << fmt(r.fit_rms) << ",\n";
  os << pad << "  \"bands_initial\": "
     << (characterized ? std::to_string(r.initial_report.bands.size())
                       : std::string("null"))
     << ",\n";
  os << pad << "  \"bands_final\": "
     << (verified ? std::to_string(r.final_report.bands.size())
                  : std::string("null"))
     << ",\n";
  os << pad << "  \"certified_passive\": "
     << (r.certified_passive ? "true" : "false") << ",\n";
  os << pad << "  \"enforcement\": { \"run\": "
     << (r.enforcement_run ? "true" : "false")
     << ", \"iterations\": " << r.enforcement.iterations
     << ", \"characterizations\": " << r.enforcement.characterizations
     << ", \"relative_model_change\": "
     << fmt(r.enforcement.relative_model_change) << " },\n";
  os << pad << "  \"session\": { \"factorizations\": "
     << r.session.factorizations
     << ", \"solves\": " << r.session.solves
     << ", \"dense_solves\": " << r.session.dense_solves << " },\n";
  os << pad << "  \"total_matvecs\": " << job_matvecs(r) << ",\n";
  os << pad << "  \"stage_seconds\": {";
  bool first = true;
  for (const Stage stage : kAllStages) {
    if (!stage_ran(r, stage)) continue;
    os << (first ? " " : ", ") << "\"" << stage_name(stage)
       << "\": " << fmt(stage_seconds(r, stage));
    first = false;
  }
  os << " },\n";
  os << pad << "  \"total_seconds\": " << fmt(r.total_seconds) << "\n";
  os << pad << "}";
}

std::size_t read_session_solves(const util::JsonValue& session) {
  const std::uint64_t reuses =
      session.uint_or("reuses", session.uint_or("dense_reuses", 0));
  const std::uint64_t solves = session.uint_or("solves", 0);
  return static_cast<std::size_t>(solves > reuses ? solves - reuses : 0);
}

PipelineResult read_job_json(const std::string& text) {
  const util::JsonValue doc = util::JsonValue::parse(text);
  if (doc.type() != util::JsonValue::Type::kObject) {
    throw std::runtime_error("read_job_json: not a JSON object");
  }
  PipelineResult r;
  r.name = doc.string_or("name", "");
  r.id = doc.uint_or("id", 0);
  r.ok = doc.bool_or("ok", false);
  r.completed = doc.bool_or("completed", false);
  r.cancelled = doc.bool_or("cancelled", false);
  if (!r.ok) {
    r.error = doc.string_or("error", "");
    if (const util::JsonValue* stage = doc.find("failed_stage")) {
      try {
        r.failed_stage = parse_stage(stage->as_string());
      } catch (const std::exception&) {
        // Forward compatibility: a record written by a future build may
        // name a stage this one does not know.  Keep the default rather
        // than failing the whole record.
      }
    }
  }
  r.sample_count = static_cast<std::size_t>(doc.uint_or("samples", 0));
  r.ports = static_cast<std::size_t>(doc.uint_or("ports", 0));
  r.order = static_cast<std::size_t>(doc.uint_or("order", 0));
  r.fit_rms = doc.number_or("fit_rms", 0.0);
  // Band lists survive only as counts: default-valued entries keep
  // `.size()` (all the writer reads) stable across the round trip.
  if (const util::JsonValue* bands = doc.find("bands_initial")) {
    if (!bands->is_null()) {
      r.initial_report.bands.resize(
          static_cast<std::size_t>(bands->as_uint()));
    }
  }
  if (const util::JsonValue* bands = doc.find("bands_final")) {
    if (!bands->is_null()) {
      r.final_report.bands.resize(
          static_cast<std::size_t>(bands->as_uint()));
    }
  }
  r.certified_passive = doc.bool_or("certified_passive", false);
  if (const util::JsonValue* enf = doc.find("enforcement")) {
    r.enforcement_run = enf->bool_or("run", false);
    r.enforcement.iterations =
        static_cast<std::size_t>(enf->uint_or("iterations", 0));
    r.enforcement.characterizations =
        static_cast<std::size_t>(enf->uint_or("characterizations", 0));
    r.enforcement.relative_model_change =
        enf->number_or("relative_model_change", 0.0);
  }
  if (const util::JsonValue* session = doc.find("session")) {
    r.session.factorizations =
        static_cast<std::size_t>(session->uint_or("factorizations", 0));
    // Older builds' "revision", cache and warm-start counters and the
    // cross-job pool's "reused" are ignored.
    r.session.solves = read_session_solves(*session);
    r.session.dense_solves =
        static_cast<std::size_t>(session->uint_or("dense_solves", 0));
  }
  // The serialized total is a sum over three solver runs; attributing
  // it all to the initial report keeps job_matvecs() stable.
  r.initial_report.solver.total_matvecs =
      static_cast<std::size_t>(doc.uint_or("total_matvecs", 0));
  // Stage timings: the writer emits stages in execution (enum) order,
  // so rebuilding in kAllStages order restores the original sequence.
  if (const util::JsonValue* stages = doc.find("stage_seconds")) {
    for (const Stage stage : kAllStages) {
      if (const util::JsonValue* sec = stages->find(stage_name(stage))) {
        r.stage_timings.push_back(StageTiming{stage, sec->as_number()});
      }
    }
  }
  r.total_seconds = doc.number_or("total_seconds", 0.0);
  return r;
}

std::string result_signature(const PipelineResult& r) {
  // Mirrors write_job_json's field rendering (same fmt(), same
  // stage-ran/null logic for band counts) over the deterministic subset
  // only: no id, no timings, no session counters, no matvec totals.
  const bool characterized = stage_ran(r, Stage::kCharacterize);
  const bool verified = stage_ran(r, Stage::kVerify);
  std::ostringstream os;
  os << "{\"name\": \"" << json_escape(r.name) << "\", \"status\": \""
     << json_escape(r.status()) << "\", \"ok\": " << (r.ok ? "true" : "false")
     << ", \"completed\": " << (r.completed ? "true" : "false")
     << ", \"cancelled\": " << (r.cancelled ? "true" : "false");
  if (!r.ok) {
    os << ", \"error\": \"" << json_escape(r.error) << "\", \"failed_stage\": \""
       << stage_name(r.failed_stage) << "\"";
  }
  os << ", \"samples\": " << r.sample_count << ", \"ports\": " << r.ports
     << ", \"order\": " << r.order << ", \"fit_rms\": " << fmt(r.fit_rms)
     << ", \"bands_initial\": "
     << (characterized ? std::to_string(r.initial_report.bands.size())
                       : std::string("null"))
     << ", \"bands_final\": "
     << (verified ? std::to_string(r.final_report.bands.size())
                  : std::string("null"))
     << ", \"certified_passive\": "
     << (r.certified_passive ? "true" : "false")
     << ", \"enforcement\": {\"run\": "
     << (r.enforcement_run ? "true" : "false")
     << ", \"iterations\": " << r.enforcement.iterations
     << ", \"characterizations\": " << r.enforcement.characterizations
     << ", \"relative_model_change\": "
     << fmt(r.enforcement.relative_model_change) << "}}";
  return os.str();
}

void write_summary_json(const std::vector<PipelineResult>& results,
                        std::ostream& os) {
  os << "{\n  \"jobs\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    write_job_json(results[i], os, 4);
  }
  os << "\n  ],\n";

  std::size_t succeeded = 0;
  double seconds = 0.0;
  for (const auto& r : results) {
    if (r.ok) ++succeeded;
    seconds += r.total_seconds;
  }
  os << "  \"summary\": { \"jobs\": " << results.size()
     << ", \"succeeded\": " << succeeded
     << ", \"total_seconds\": " << fmt(seconds) << " }\n}\n";
}

void write_summary_json_file(const std::vector<PipelineResult>& results,
                             const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot open JSON summary file '" + path + "'");
  }
  write_summary_json(results, os);
  os.flush();
  if (!os) {
    throw std::runtime_error("failed writing JSON summary file '" + path +
                             "'");
  }
}

}  // namespace phes::pipeline
