#include "phes/server/protocol.hpp"

#include <sstream>
#include <stdexcept>

#include "phes/io/touchstone.hpp"
#include "phes/pipeline/report.hpp"
#include "phes/server/server.hpp"

namespace phes::server {

// ---- Response composition ---------------------------------------------

std::string json_quote(const std::string& text) {
  // Built by append rather than operator+ chaining: GCC 12's -Wrestrict
  // false-positives on the temporary chain under -Werror.
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  out += pipeline::json_escape(text);
  out += '"';
  return out;
}

std::string single_line_json(const std::string& pretty) {
  std::string out;
  out.reserve(pretty.size());
  for (std::size_t i = 0; i < pretty.size(); ++i) {
    if (pretty[i] == '\n') {
      while (i + 1 < pretty.size() && pretty[i + 1] == ' ') ++i;
      continue;
    }
    out += pretty[i];
  }
  return out;
}

namespace {

std::string error_response(const std::string& message) {
  return "{\"ok\": false, \"error\": " + json_quote(message) + "}";
}

/// The compact record used by `status` responses.
std::string record_json(const JobSummary& record) {
  std::ostringstream os;
  os << "{\"id\": " << record.id << ", \"name\": "
     << json_quote(record.name) << ", \"state\": \""
     << job_state_name(record.state) << "\"";
  if (record.stage_known) {
    os << ", \"stage\": \"" << pipeline::stage_name(record.stage) << "\"";
  }
  if (is_terminal(record.state)) {
    os << ", \"status\": " << json_quote(record.status);
  }
  return os.str() + "}";
}

/// Apply a request's "options" object over the serve-side defaults —
/// shared by the path and inline submission ops.
pipeline::JobOptions job_options_from(const JobServer& server,
                                      const JsonValue& request) {
  pipeline::JobOptions result = server.options().job_defaults;
  if (const JsonValue* options = request.find("options")) {
    result.fit.num_poles = static_cast<std::size_t>(
        options->uint_or("poles", result.fit.num_poles));
    result.fit.iterations = static_cast<std::size_t>(
        options->uint_or("vf_iters", result.fit.iterations));
    if (const JsonValue* stop = options->find("stop_after")) {
      result.stop_after = pipeline::parse_stage(stop->as_string());
    }
  }
  return result;
}

std::string submit_ack(const char* op, std::uint64_t id) {
  return std::string("{\"ok\": true, \"op\": \"") + op +
         "\", \"id\": " + std::to_string(id) + "}";
}

std::string handle_submit(JobServer& server, const JsonValue& request) {
  const std::string path = request.string_or("path", "");
  if (path.empty()) {
    return error_response("submit: missing \"path\"");
  }
  pipeline::PipelineJob job;
  job.input_path = path;
  job.name = request.string_or("name", "");
  job.options = job_options_from(server, request);
  const std::uint64_t id = server.submit(std::move(job));
  return submit_ack("submit", id);
}

/// Inline submission: the request carries the input file's contents.
///   {"op":"submit_inline","payload":"<text>","format":"touchstone",
///    "ports":2,"name":"m","options":{...}}
/// `format` is "touchstone" (needs "ports", or a "filename" hint whose
/// ".sNp" extension provides it) or "samples"; omitted, it is inferred
/// from ports/filename.  The payload is parsed inside the job's load
/// stage by the same readers the path route uses, so results are
/// bit-identical to submitting the file by path.
std::string handle_submit_inline(JobServer& server,
                                 const JsonValue& request) {
  const JsonValue* payload = request.find("payload");
  if (payload == nullptr) {
    return error_response("submit_inline: missing \"payload\"");
  }
  pipeline::PipelineJob job;
  job.input_text = payload->as_string();
  if (job.input_text.empty()) {
    return error_response("submit_inline: empty \"payload\"");
  }
  const std::string filename = request.string_or("filename", "");
  job.name = request.string_or("name", filename.empty() ? "inline"
                                                        : filename);
  job.input_ports =
      static_cast<std::size_t>(request.uint_or("ports", 0));
  const std::string format = request.string_or("format", "");
  if (format == "touchstone") {
    job.input_format = pipeline::InputFormat::kTouchstone;
  } else if (format == "samples") {
    job.input_format = pipeline::InputFormat::kSamples;
  } else if (!format.empty()) {
    return error_response("submit_inline: unknown format '" + format +
                          "' (expected touchstone|samples)");
  }
  // A filename hint supplies what the path route reads off the disk
  // name: the Touchstone port count (and the format, when unstated).
  if (!filename.empty() && io::is_touchstone_path(filename)) {
    if (job.input_format == pipeline::InputFormat::kAuto) {
      job.input_format = pipeline::InputFormat::kTouchstone;
    }
    if (job.input_ports == 0) {
      job.input_ports = io::ports_from_extension(filename);
    }
  }
  if (job.input_format == pipeline::InputFormat::kTouchstone &&
      job.input_ports == 0) {
    return error_response(
        "submit_inline: Touchstone payload needs \"ports\" (or a "
        "\"filename\" with a .sNp extension)");
  }
  job.options = job_options_from(server, request);
  const std::uint64_t id = server.submit(std::move(job));
  return submit_ack("submit_inline", id);
}

std::string handle_status(JobServer& server, const JsonValue& request) {
  if (const JsonValue* id_value = request.find("id")) {
    const std::uint64_t id = id_value->as_uint();
    const auto record = server.job_summary(id);
    if (!record) {
      return error_response("status: unknown job id " + std::to_string(id));
    }
    return "{\"ok\": true, \"job\": " + record_json(*record) + "}";
  }
  std::string out = "{\"ok\": true, \"jobs\": [";
  bool first = true;
  for (const auto& record : server.job_summaries()) {
    if (!first) out += ", ";
    out += record_json(record);
    first = false;
  }
  return out + "]}";
}

std::string handle_result(JobServer& server, const JsonValue& request) {
  const JsonValue* id_value = request.find("id");
  if (id_value == nullptr) return error_response("result: missing \"id\"");
  const std::uint64_t id = id_value->as_uint();
  const auto record = server.status(id);
  if (!record) {
    return error_response("result: unknown job id " + std::to_string(id));
  }
  if (!is_terminal(record->state)) {
    return "{\"ok\": true, \"id\": " + std::to_string(id) +
           ", \"state\": \"" + job_state_name(record->state) +
           "\", \"job\": null}";
  }
  std::ostringstream job_json;
  pipeline::write_job_json(record->result, job_json);
  return "{\"ok\": true, \"id\": " + std::to_string(id) +
         ", \"state\": \"" + job_state_name(record->state) +
         "\", \"job\": " + single_line_json(job_json.str()) + "}";
}

std::string handle_cancel(JobServer& server, const JsonValue& request) {
  const JsonValue* id_value = request.find("id");
  if (id_value == nullptr) return error_response("cancel: missing \"id\"");
  const std::uint64_t id = id_value->as_uint();
  const bool cancelled = server.cancel(id);
  return "{\"ok\": true, \"id\": " + std::to_string(id) +
         ", \"cancelled\": " + (cancelled ? "true" : "false") + "}";
}

std::string campaign_skips_json(const std::vector<CampaignSkip>& skips) {
  std::string out = "[";
  for (std::size_t i = 0; i < skips.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"source\": " + std::to_string(skips[i].source_id) +
           ", \"reason\": " + json_quote(skips[i].reason) + "}";
  }
  return out + "]";
}

/// {"op":"replay","id":7}  or  {"op":"replay","all":true} narrowed by
/// the optional "state"/"model"/"from"/"to" filters.  Starts a tracked
/// campaign; the ack lists what was admitted and what was skipped.
std::string handle_replay(JobServer& server, const JsonValue& request) {
  ReplayFilter filter;
  if (const JsonValue* id_value = request.find("id")) {
    filter.id = id_value->as_uint();
  } else if (!request.bool_or("all", false)) {
    return error_response("replay: need \"id\" or \"all\": true");
  }
  filter.state = request.string_or("state", "");
  filter.model = request.string_or("model", "");
  filter.min_id = request.uint_or("from", 0);
  filter.max_id = request.uint_or("to", 0);
  const CampaignRunner::StartResult started =
      server.campaigns().start(filter);
  std::ostringstream os;
  os << "{\"ok\": true, \"op\": \"replay\", \"campaign\": "
     << started.campaign_id << ", \"replayed\": " << started.entries.size()
     << ", \"skipped\": " << started.skipped.size() << ", \"jobs\": [";
  for (std::size_t i = 0; i < started.entries.size(); ++i) {
    if (i > 0) os << ", ";
    os << "{\"source\": " << started.entries[i].source_id
       << ", \"id\": " << started.entries[i].replay_id << "}";
  }
  os << "], \"skips\": " << campaign_skips_json(started.skipped) << "}";
  return os.str();
}

std::string handle_campaign(JobServer& server, const JsonValue& request) {
  const JsonValue* id_value = request.find("id");
  if (id_value == nullptr) {
    return error_response("campaign: missing \"id\"");
  }
  const std::uint64_t id = id_value->as_uint();
  const auto status = server.campaigns().status(id);
  if (!status) {
    return error_response("campaign: unknown campaign id " +
                          std::to_string(id));
  }
  std::ostringstream os;
  os << "{\"ok\": true, \"op\": \"campaign\", \"campaign\": " << status->id
     << ", \"done\": " << (status->done ? "true" : "false")
     << ", \"total\": " << status->total
     << ", \"completed\": " << status->completed
     << ", \"skipped\": " << status->skipped.size()
     << ", \"deltas\": {\"identical\": " << status->identical
     << ", \"numeric\": " << status->numeric
     << ", \"state\": " << status->state_changed << "}, \"jobs\": [";
  for (std::size_t i = 0; i < status->entries.size(); ++i) {
    const CampaignEntry& entry = status->entries[i];
    if (i > 0) os << ", ";
    os << "{\"source\": " << entry.source_id << ", \"id\": "
       << entry.replay_id << ", \"name\": " << json_quote(entry.name)
       << ", \"before\": " << json_quote(entry.status_before)
       << ", \"after\": "
       << (entry.delta.empty() ? std::string("null")
                               : json_quote(entry.status_after))
       << ", \"delta\": "
       << (entry.delta.empty() ? std::string("null")
                               : json_quote(entry.delta))
       << "}";
  }
  os << "], \"skips\": " << campaign_skips_json(status->skipped) << "}";
  return os.str();
}

std::string handle_metrics(JobServer& server) {
  // The full registry dump: every layer's counters/gauges/histograms
  // in one object (the client's --prom mode converts it to Prometheus
  // text exposition locally).
  return "{\"ok\": true, \"metrics\": " +
         server.metrics_snapshot().to_json() + "}";
}

std::string handle_trace(JobServer& server, const JsonValue& request) {
  const JsonValue* id_value = request.find("id");
  if (id_value == nullptr) return error_response("trace: missing \"id\"");
  const std::uint64_t id = id_value->as_uint();
  if (const auto trace = server.trace(id)) {
    return "{\"ok\": true, \"trace\": " + trace->to_json() + "}";
  }
  // Distinguish "not finished yet" from "ran before the ring/process
  // rolled over" so clients know whether retrying can ever succeed.
  const auto record = server.job_summary(id);
  if (!record) {
    return error_response("trace: unknown job id " + std::to_string(id));
  }
  if (!is_terminal(record->state)) {
    return error_response("trace: job " + std::to_string(id) +
                          " has not finished (state " +
                          job_state_name(record->state) + ")");
  }
  return error_response("trace: no trace retained for job " +
                        std::to_string(id) +
                        " (evicted from the trace ring, or the job "
                        "finished in a previous server process)");
}

}  // namespace

RequestOutcome handle_request(JobServer& server, const std::string& line) {
  try {
    return handle_request(server, JsonValue::parse(line));
  } catch (const std::exception& e) {
    RequestOutcome outcome;
    outcome.response = error_response(e.what());
    return outcome;
  }
}

RequestOutcome handle_request(JobServer& server, const JsonValue& request) {
  RequestOutcome outcome;
  try {
    const std::string op = request.string_or("op", "");
    if (op == "ping") {
      outcome.response = "{\"ok\": true, \"op\": \"ping\"}";
    } else if (op == "submit") {
      outcome.response = handle_submit(server, request);
    } else if (op == "submit_inline") {
      outcome.response = handle_submit_inline(server, request);
    } else if (op == "auth") {
      // Unauthenticated transports accept (and ignore) the handshake so
      // a client configured with a token works against either listener;
      // authenticated ones intercept it before handle_request.
      outcome.response = "{\"ok\": true, \"op\": \"auth\"}";
    } else if (op == "status") {
      outcome.response = handle_status(server, request);
    } else if (op == "result") {
      outcome.response = handle_result(server, request);
    } else if (op == "cancel") {
      outcome.response = handle_cancel(server, request);
    } else if (op == "replay") {
      outcome.response = handle_replay(server, request);
    } else if (op == "campaign") {
      outcome.response = handle_campaign(server, request);
    } else if (op == "metrics") {
      outcome.response = handle_metrics(server);
    } else if (op == "trace") {
      outcome.response = handle_trace(server, request);
    } else if (op == "shutdown") {
      outcome.shutdown_requested = true;
      outcome.drain = request.bool_or("drain", true);
      outcome.response = std::string("{\"ok\": true, \"op\": \"shutdown\", "
                                     "\"drain\": ") +
                         (outcome.drain ? "true" : "false") + "}";
    } else if (op.empty()) {
      outcome.response = error_response("missing \"op\"");
    } else {
      outcome.response = error_response("unknown op '" + op + "'");
    }
  } catch (const std::exception& e) {
    outcome.response = error_response(e.what());
  }
  return outcome;
}

}  // namespace phes::server
