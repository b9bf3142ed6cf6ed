#pragma once
// The job server's wire protocol: newline-delimited JSON.
//
// One request object per line, one response object per line.  Ops:
//
//   {"op":"ping"}
//   {"op":"auth","token":"..."}   (first line on a TCP connection;
//                                  accepted as a no-op elsewhere)
//   {"op":"submit","path":"m.s2p","name":"m",
//    "options":{"poles":12,"vf_iters":12,"stop_after":"verify"}}
//   {"op":"submit_inline","payload":"<file contents>","ports":2,
//    "format":"touchstone","filename":"m.s2p","name":"m",
//    "options":{...}}             (no shared filesystem needed; the
//                                  payload is parsed by the job's load
//                                  stage via io::load_touchstone /
//                                  macromodel::load_samples)
//   {"op":"status","id":7}      or {"op":"status"} for all jobs
//   {"op":"result","id":7}
//   {"op":"cancel","id":7}
//   {"op":"replay","id":7}      or {"op":"replay","all":true,
//    "state":"done","model":"<hash>","from":3,"to":9}
//                               (rebuild stored records as fresh jobs;
//                                starts a tracked campaign)
//   {"op":"campaign","id":1}    (campaign progress + per-job deltas)
//   {"op":"metrics"}            (full obs::MetricsRegistry dump)
//   {"op":"trace","id":7}       (per-stage spans of a finished job)
//   {"op":"shutdown","drain":true}
//
// Every response carries "ok"; failures add "error".  `result` embeds
// the same per-job record as `phes_pipeline --summary-json`, flattened
// to one line.  A cancel ack ("cancelled": true) means the request was
// accepted — a job already inside its final stage still completes, and
// the terminal state reported by status/result is authoritative.
// `metrics` dumps the server's obs::MetricsRegistry — every layer's
// counters, gauges and histograms (transport, dispatch, queue, workers,
// store, campaigns; see README "Observability" for the name
// reference).  It is the server's one stats surface.
// `replay` resolves stored records (one id, or `all` narrowed by the
// optional state/model/from/to filters) back into fresh jobs through
// the normal admission path and answers with a campaign id plus the
// replayed/skipped breakdown; `campaign` reports that campaign's
// progress, classifying each finished replay against its stored
// baseline (bit-identical / numerically-changed / state-changed — see
// server/campaign.hpp).
// `trace` returns the server/trace.hpp JobTrace of a finished job —
// one span per pipeline stage with durations and solver counters —
// while it remains in the in-memory trace ring
// (ServerOptions::trace_capacity); the error message distinguishes
// a job that has not finished from one whose trace was evicted.
//
// The JSON parser used here is util::JsonValue (util/json.hpp), shared
// with the pipeline's report reader; `JsonValue` stays available under
// this namespace for existing callers.

#include <string>

#include "phes/util/json.hpp"

namespace phes::server {

class JobServer;

using JsonValue = util::JsonValue;

/// JSON string helpers used when composing response lines.
[[nodiscard]] std::string json_quote(const std::string& text);
/// Collapse a pretty-printed JSON document to a single NDJSON-safe
/// line (strips the formatting newlines and their indentation; string
/// literals are unaffected because the escaper never emits raw
/// newlines).
[[nodiscard]] std::string single_line_json(const std::string& pretty);

/// Outcome of one protocol request.
struct RequestOutcome {
  std::string response;  ///< one JSON line, no trailing '\n'
  /// The request was a shutdown op: the transport should acknowledge,
  /// then stop accepting and have its owner shut the server down.
  bool shutdown_requested = false;
  bool drain = true;  ///< shutdown mode requested
};

/// Execute one NDJSON request line against `server`.  Never throws:
/// parse and dispatch errors come back as {"ok":false,...} responses.
/// The shutdown op only reports the request — the caller decides when
/// to invoke JobServer::shutdown (typically after flushing the ack).
[[nodiscard]] RequestOutcome handle_request(JobServer& server,
                                            const std::string& line);

/// Already-parsed variant for callers that needed the document anyway
/// (the transport's fast path peeks at the op before deciding where to
/// run the request — no point parsing the same line twice).
[[nodiscard]] RequestOutcome handle_request(JobServer& server,
                                            const JsonValue& request);

}  // namespace phes::server
