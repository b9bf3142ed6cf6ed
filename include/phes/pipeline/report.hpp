#pragma once
// Machine-readable batch reporting: the JSON rendering of a batch
// run's per-job results (status, timings, fit quality, violation-band
// counts, and the solver-session reuse statistics), for CI trend
// tracking of the paper-replication benchmarks next to the ASCII table.
//
// The document is
//   { "jobs": [ {...}, ... ],
//     "summary": { "jobs": N, "succeeded": K, ... } }
// written with plain stream output — no third-party serializer, no
// locale dependence.

#include <iosfwd>
#include <string>
#include <vector>

#include "phes/pipeline/job.hpp"

namespace phes::pipeline {

/// Escape a string for embedding in a JSON string literal.
[[nodiscard]] std::string json_escape(const std::string& text);

/// Write one result as a JSON object (no trailing newline).  `indent`
/// spaces prefix every line.  This is the per-job body of the batch
/// summary document, exposed so the job server's `result` op returns
/// the same machine-readable record as `--summary-json`.
void write_job_json(const PipelineResult& result, std::ostream& os,
                    std::size_t indent = 0);

/// Parse one write_job_json document (pretty or single-line) back into
/// a PipelineResult — the inverse used by the job server's durable
/// result storage to serve `result` responses across restarts.  Only
/// the serialized fields are reconstructed: band lists come back as
/// default-valued entries of the recorded count, the matvec total is
/// attributed to the initial report, and unserialized diagnostics
/// (fit_iterations, crossings, per-band peaks) are lost.  The contract
/// that matters is re-serialization stability:
///   write_job_json(read_job_json(write_job_json(r))) ==
///   write_job_json(r)
/// byte for byte, so a recovered record's `result` response is
/// identical to the pre-restart one.  Throws std::runtime_error on
/// malformed input.
[[nodiscard]] PipelineResult read_job_json(const std::string& text);

/// Canonical single-line JSON of a result's *deterministic* fields —
/// what two runs of the same job on the same build must agree on, per
/// the session-pool determinism guarantee.  Excludes everything that
/// legitimately varies run to run: wall-clock timings, session reuse
/// counters, matvec totals, and the job id.  Campaign replay classifies
/// a replayed job against its stored record by comparing signatures:
/// equal => bit-identical output.
[[nodiscard]] std::string result_signature(const PipelineResult& result);

void write_summary_json(const std::vector<PipelineResult>& results,
                        std::ostream& os);

/// File-writing convenience wrapper; throws std::runtime_error when the
/// path cannot be opened or written.
void write_summary_json_file(const std::vector<PipelineResult>& results,
                             const std::string& path);

}  // namespace phes::pipeline
